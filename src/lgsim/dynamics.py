"""Closed- and open-system propagators for the resonantly driven qubit.

The drive Hamiltonian is ``H = w * sx`` (or ``w * sx / 2`` in the half
convention), which rotates the Bloch vector about x at angular rate
``W = 2w`` (``w`` in the half convention).  The open system adds a dephasing
generator with jump operator ``sqrt(2 gamma) * sz``:

    drho/dt = -i[H, rho] + 2 gamma * (sz rho sz - rho)

On Pauli coefficients this works out to a linear generator with

    dx/dt = -4 gamma x
    dy/dt = -4 gamma y - W z
    dz/dt =  W y

(the sz jump damps the two equatorial components at rate ``4 gamma`` and
leaves z untouched except through the rotation; the identity component is
conserved).  The finite-time propagator is the matrix exponential of that
generator, computed with ``scipy.linalg.expm``; the closed-system case is
special-cased to the exact rotation so that gamma = 0 reduces to the unitary
channel with no roundoff from the exponential.  scipy is imported only when
the first gamma > 0 propagator is built, so importing the package, every
gamma = 0 command and parsing a table back never load it.  Each ``expm``
call wakes the worker pool of the OpenBLAS that scipy bundles, so the
``lgsim`` program starts that BLAS, and numpy's, on one thread (see
``__main__``).  The dx/dt row above is cross-checked in the tests against a
fine-step integration of the 2x2 master equation itself, so a transcription
mistake here cannot survive the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qubit import Channel

__all__ = [
    "HamiltonianSpec",
    "LindbladSpec",
    "liouvillian",
    "unitary_propagator",
    "lindblad_propagator",
]


@dataclass(frozen=True)
class HamiltonianSpec:
    """Drive ``omega * sx``, or ``omega * sx / 2`` when ``half`` is set."""

    omega: float
    half: bool = False

    def __post_init__(self):
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        object.__setattr__(self, "omega", float(self.omega))
        if not math.isfinite(self.rotation_rate):
            raise ValueError(
                f"omega is too large (the rotation rate 2*omega overflows), got {self.omega}"
            )

    @property
    def rotation_rate(self) -> float:
        """Bloch rotation rate about x: ``2*omega``, or ``omega`` if half."""
        return self.omega if self.half else 2.0 * self.omega


@dataclass(frozen=True)
class LindbladSpec:
    """Drive plus dephasing at rate ``gamma`` (jump operator sqrt(2*gamma)*sz)."""

    hamiltonian: HamiltonianSpec
    gamma: float = 0.0

    def __post_init__(self):
        if not isinstance(self.hamiltonian, HamiltonianSpec):
            raise ValueError("hamiltonian must be a HamiltonianSpec")
        if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be nonnegative and finite, got {self.gamma}")
        object.__setattr__(self, "gamma", float(self.gamma))

    @classmethod
    def closed(cls, omega: float, half: bool = False) -> "LindbladSpec":
        return cls(HamiltonianSpec(omega, half=half), 0.0)


def liouvillian(spec: LindbladSpec) -> np.ndarray:
    """Generator of the dynamics on Pauli coefficients (real 4x4)."""
    w = spec.hamiltonian.rotation_rate
    g = spec.gamma
    gen = np.zeros((4, 4))
    gen[1, 1] = -4.0 * g
    gen[2, 2] = -4.0 * g
    gen[2, 3] = -w
    gen[3, 2] = w
    return gen


def _rotation_ptm(angle: float) -> np.ndarray:
    """Transfer matrix of the Bloch rotation about x by ``angle``."""
    c, s = math.cos(angle), math.sin(angle)
    ptm = np.eye(4)
    ptm[2, 2] = c
    ptm[2, 3] = -s
    ptm[3, 2] = s
    ptm[3, 3] = c
    return ptm


def _check_duration(t: float) -> float:
    t = float(t)
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"duration must be nonnegative and finite, got {t}")
    return t


def unitary_propagator(hamiltonian: HamiltonianSpec, t: float) -> Channel:
    """Closed-system channel ``rho -> U rho U^dagger`` for duration ``t >= 0``."""
    t = _check_duration(t)
    return Channel(_rotation_ptm(hamiltonian.rotation_rate * t))


@lru_cache(maxsize=16384)
def lindblad_propagator(spec: LindbladSpec, t: float) -> Channel:
    """Open-system channel ``exp(t * L)`` for duration ``t >= 0``.

    gamma = 0 returns the exact closed-form rotation (bit-identical to
    ``unitary_propagator``).  Results are cached per ``(spec, t)``; schedules
    reuse a handful of gap durations, so repeated evaluation never pays the
    exponential or the CPTP validation twice.

    The constructed channel is validated as CPTP; a failure is re-raised
    with the offending parameters attached, since it would mean the
    generator or the exponential produced an unphysical map.
    """
    t = _check_duration(t)
    if spec.gamma == 0.0:
        return unitary_propagator(spec.hamiltonian, t)
    from scipy.linalg import expm  # imported here: gamma = 0 runs never load scipy

    ptm = expm(t * liouvillian(spec))
    try:
        return Channel(ptm)
    except ValueError as exc:
        raise ValueError(
            f"propagator for gamma={spec.gamma}, omega={spec.hamiltonian.omega}, "
            f"t={t} failed CPTP validation: {exc}"
        ) from exc
