"""Channel algebra that only the tests use, kept as independent checks.

lgsim's engines act on transfer matrices and Pauli coefficient arrays; they
never build a channel from Kraus operators, compose two channels, build a
state from a Bloch vector or take an expectation value.
These helpers do, the textbook way, so the tests can compare the engines
against them: Lueders measurement channels against the walker's projection
step, Kraus families against ``Channel``'s Choi matrix, and the Heisenberg
picture against ``unitary_propagator``.
"""

import math

import numpy as np

from lgsim.dynamics import HamiltonianSpec, _check_duration
from lgsim.qubit import (
    ATOL,
    CHOI_ATOL,
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Channel,
    DensityOperator,
    Observable,
    pauli,
    pauli_coefficients,
    sigma_theta,
)
from lgsim.qubit import _BASIS, _as_operator


def anticommutator(a, b) -> np.ndarray:
    """``{a, b} = a @ b + b @ a``."""
    a = _as_operator(a, "a")
    b = _as_operator(b, "b")
    return a @ b + b @ a


def purity(rho: DensityOperator) -> float:
    """``Tr(rho^2)``."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def expectation(q: Observable, rho: DensityOperator) -> float:
    """``Tr(Q rho)`` as a real number.

    Raises ``ValueError`` if the trace has an imaginary part above 1e-10,
    which would indicate non-Hermitian inputs slipped past validation.
    """
    val = np.trace(q.matrix @ rho.matrix)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation value has imaginary part {val.imag:.3g}")
    return float(val.real)


def identity_channel() -> Channel:
    return Channel(np.eye(4))


def from_kraus(operators) -> Channel:
    """Channel ``X -> sum_k K X K^dagger`` from a Kraus family."""
    ops = [_as_operator(k, "Kraus operator") for k in operators]
    if not ops:
        raise ValueError("need at least one Kraus operator")
    ptm = np.zeros((4, 4), dtype=complex)
    for j in range(4):
        mapped = np.zeros((2, 2), dtype=complex)
        for k in ops:
            mapped += k @ _BASIS[j] @ k.conj().T
        ptm[:, j] = pauli_coefficients(mapped)
    if np.max(np.abs(ptm.imag)) > ATOL:
        raise ValueError("Kraus family does not define a real transfer matrix")
    return Channel(ptm.real)


def kraus_operators(channel: Channel, atol: float = CHOI_ATOL) -> list[np.ndarray]:
    """A Kraus family from the Choi eigendecomposition.

    Eigenvalues within ``atol`` of zero are dropped; the family satisfies
    ``sum K^dagger K = I`` and reproduces the channel's action.
    """
    eigs, vecs = np.linalg.eigh(channel.choi_matrix())
    ops = []
    for lam, v in zip(eigs, vecs.T):
        if lam > atol:
            # Choi convention J = sum_ab E_ab (x) S(E_ab): column vector
            # blocks index the input, so the operator is the transposed
            # 2x2 reshape of the eigenvector.
            ops.append(math.sqrt(lam) * v.reshape(2, 2).T)
    return ops


def apply_to_state(channel: Channel, rho: DensityOperator) -> DensityOperator:
    return DensityOperator(channel(rho.matrix))


def is_unital(channel: Channel) -> bool:
    """The transfer matrix's first column is ``(1, 0, 0, 0)^T`` within ``ATOL``."""
    return bool(np.max(np.abs(channel.ptm[:, 0] - np.array([1.0, 0.0, 0.0, 0.0]))) <= ATOL)


def compose(first: Channel, then: Channel) -> Channel:
    """Apply ``first``, then ``then``: the transfer matrix ``then.ptm @ first.ptm``."""
    return Channel(then.ptm @ first.ptm)


def from_bloch(r) -> DensityOperator:
    """State ``(I + r . sigma)/2`` for a Bloch vector with ``|r| <= 1``."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError("Bloch vector must have 3 components")
    return DensityOperator((IDENTITY + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z) / 2.0)


def measure_channel(q: Observable) -> Channel:
    """Unconditioned measurement of ``q``: ``X -> P+ X P+ + P- X P-``.

    Built from the Lueders projectors; equal to complete dephasing along the
    measurement axis.
    """
    return from_kraus([q.projector(+1), q.projector(-1)])


def dephase_z() -> Channel:
    """Complete dephasing in the sz eigenbasis (kills sx and sy parts)."""
    return measure_channel(pauli("z"))


def dephase_theta(theta: float) -> Channel:
    """Complete dephasing in the ``sigma_theta(theta)`` eigenbasis."""
    return measure_channel(sigma_theta(theta))


def heisenberg_observable(hamiltonian: HamiltonianSpec, q: Observable, t: float) -> Observable:
    """Observable evolved to time ``t``: ``U^dagger Q U`` (adjoint of the state map).

    Measuring ``q`` after evolving for ``t`` is equivalent to measuring the
    returned observable on the initial state.  For the sx drive this sends
    sz to ``sin(W t) sy + cos(W t) sz`` with ``W`` the Bloch rotation rate.
    """
    t = _check_duration(t)
    angle = hamiltonian.omega * (0.5 if hamiltonian.half else 1.0) * t
    u = math.cos(angle) * IDENTITY - 1j * math.sin(angle) * SIGMA_X  # exp(-i angle sx)
    return Observable(u.conj().T @ q.matrix @ u, label=f"{q.label}@t={t:.12g}")
