"""Propagator checks against an independent 2x2 integrator.

The oracle here never touches the package's Pauli-coefficient generator: it
integrates the operator-valued equation of motion

    drho/dt = -i [H, rho] + 2*gamma*(sz rho sz - rho),   H = w*sx (or w*sx/2)

with classic fixed-step RK4 directly on complex 2x2 matrices.  If the
package's 4x4 generator, its matrix exponential, or the closed-form rotation
had a transcription error (a factor of two in the decay rate, a flipped
rotation sense), these comparisons would catch it.
"""

import json
import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgsim
from lgsim.dynamics import (
    HamiltonianSpec,
    LindbladSpec,
    heisenberg_observable,
    lindblad_propagator,
    liouvillian,
    unitary_propagator,
)
from lgsim.qubit import SIGMA_X, DensityOperator, expectation, pauli, sigma_theta

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def rk4_propagate(rho, omega, gamma, t, half=False, steps=4000):
    """Fixed-step RK4 of the master equation on 2x2 density matrices.

    ``rho`` may stack states along leading axes, as in shape (4, 2, 2); each
    stacked state gets the same arithmetic, bit for bit, as it would alone.
    """
    h = (0.5 * omega if half else omega) * SX

    def rhs(r):
        return -1j * (h @ r - r @ h) + 2.0 * gamma * (SZ @ r @ SZ - r)

    dt = t / steps
    r = np.array(rho, dtype=complex)
    for _ in range(steps):
        k1 = rhs(r)
        k2 = rhs(r + 0.5 * dt * k1)
        k3 = rhs(r + 0.5 * dt * k2)
        k4 = rhs(r + dt * k3)
        r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return r


STATES = [
    DensityOperator.maximally_mixed(),
    DensityOperator.from_bloch([0.9, 0.0, 0.0]),
    DensityOperator.from_bloch([0.0, 0.7, -0.2]),
    DensityOperator.from_bloch([0.3, -0.5, 0.6]),
]


@pytest.mark.parametrize("omega,gamma,t,half", [
    (1.0, 0.0, 1.7, False),
    (1.0, 0.02, 3.0, False),
    (0.7, 0.005, math.pi, False),
    (2.0, 0.05, 0.8, False),
    (1.0, 0.01, 2.25, True),
])
def test_propagator_matches_rk4_oracle(omega, gamma, t, half):
    spec = LindbladSpec(HamiltonianSpec(omega, half=half), gamma)
    ch = lindblad_propagator(spec, t)
    wants = rk4_propagate(np.array([rho.matrix for rho in STATES]), omega, gamma, t, half=half)
    for rho, want in zip(STATES, wants, strict=True):
        got = ch(rho.matrix)
        assert np.max(np.abs(got - want)) < 1e-9


def test_generator_structure():
    gen = liouvillian(LindbladSpec(HamiltonianSpec(1.5), 0.01))
    w = 3.0  # full convention doubles omega
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[2, 2] = -0.04
    expected[2, 3] = -w
    expected[3, 2] = w
    assert np.allclose(gen, expected)


def test_transverse_decay_rate():
    # the x Bloch component decays as exp(-4 gamma t), untouched by the drive
    spec = LindbladSpec(HamiltonianSpec(1.3), 0.02)
    for t in (0.5, 2.0, 7.0):
        ptm = lindblad_propagator(spec, t).ptm
        assert ptm[1, 1] == pytest.approx(math.exp(-4.0 * 0.02 * t), abs=1e-12)
        # x stays decoupled from the rotating y-z pair
        assert np.allclose(ptm[1, [0, 2, 3]], 0.0, atol=1e-12)
        assert np.allclose(ptm[[0, 2, 3], 1], 0.0, atol=1e-12)


def test_propagators_are_unital():
    for gamma in (0.0, 0.004, 0.3):
        ch = lindblad_propagator(LindbladSpec(HamiltonianSpec(1.0), gamma), 1.2)
        assert ch.is_unital


@given(
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=0.05),
)
@settings(max_examples=60, deadline=None)
def test_semigroup_law(t, s, gamma):
    spec = LindbladSpec(HamiltonianSpec(1.0), gamma)
    joint = lindblad_propagator(spec, t + s)
    split = lindblad_propagator(spec, t) @ lindblad_propagator(spec, s)
    assert np.max(np.abs(joint.ptm - split.ptm)) < 1e-9


def test_gamma_zero_reduces_to_unitary():
    ham = HamiltonianSpec(1.7)
    spec = LindbladSpec(ham, 0.0)
    for t in (0.0, 0.9, 5.1):
        assert np.array_equal(
            lindblad_propagator(spec, t).ptm, unitary_propagator(ham, t).ptm
        )


def test_unitary_rotation_sense():
    # quarter turn about x takes +z to -y in the state picture; pinned
    # against exp(-i w t sx) |0><0| exp(+i w t sx) computed directly
    ham = HamiltonianSpec(1.0)  # rotation rate 2
    ch = unitary_propagator(ham, math.pi / 4.0)
    rho = DensityOperator.from_bloch([0.0, 0.0, 1.0])
    out = ch.apply_to_state(rho)
    assert np.allclose(out.bloch_vector, [0.0, -1.0, 0.0], atol=1e-12)


def test_half_convention_halves_the_rate():
    full = unitary_propagator(HamiltonianSpec(1.0), 0.6)
    half = unitary_propagator(HamiltonianSpec(1.0, half=True), 1.2)
    assert np.allclose(full.ptm, half.ptm, atol=1e-12)


def test_heisenberg_picture_duality():
    # Tr(Q N_t(rho)) == Tr(Q(t) rho) for the closed system
    ham = HamiltonianSpec(0.9)
    q = sigma_theta(0.4)
    rho = DensityOperator.from_bloch([0.2, -0.3, 0.55])
    for t in (0.3, 1.1, 2.7):
        lhs = expectation(q, unitary_propagator(ham, t).apply_to_state(rho))
        rhs = expectation(heisenberg_observable(ham, q, t), rho)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_heisenberg_z_evolution():
    ham = HamiltonianSpec(1.0)
    q = heisenberg_observable(ham, pauli("z"), 0.25 * math.pi)
    # W t = pi/2: sz -> sy in the Heisenberg picture
    assert np.allclose(q.matrix, pauli("y").matrix, atol=1e-12)


@given(
    omega=st.floats(min_value=0.01, max_value=2.0),
    half=st.booleans(),
    t=st.floats(min_value=0.0, max_value=4.0 * math.pi),
)
@settings(max_examples=200, deadline=None)
def test_heisenberg_unitary_matches_expm(omega, half, t):
    # the closed-form exp(-i angle sx) against the matrix exponential
    from scipy.linalg import expm

    u = expm(-1j * omega * (0.5 if half else 1.0) * t * SIGMA_X)
    for q in (pauli("y"), pauli("z"), sigma_theta(0.7)):
        evolved = heisenberg_observable(HamiltonianSpec(omega, half=half), q, t)
        assert np.max(np.abs(evolved.matrix - u.conj().T @ q.matrix @ u)) <= 1e-14


IMPORT_GUARD = """
import json, sys
from pathlib import Path

loaded = {}
out = Path(sys.argv[1])
import lgsim
loaded["import lgsim"] = "scipy.linalg" in sys.modules
from lgsim.cli import main, read_table
assert main(["fig2", "--theta", "0:3.141592653589793:9", "--n", "1,2",
             "--out", str(out / "fig2.csv")]) == 0
loaded["fig2"] = "scipy.linalg" in sys.modules
assert main(["classic", "--out", str(out / "classic.csv")]) == 0
loaded["classic"] = "scipy.linalg" in sys.modules
read_table(out / "fig2.csv")
loaded["read_table"] = "scipy.linalg" in sys.modules
lgsim.lindblad_propagator(lgsim.LindbladSpec(lgsim.HamiltonianSpec(1.0), 0.01), 1.0)
loaded["damped propagator"] = "scipy.linalg" in sys.modules
print(json.dumps(loaded))
"""


def test_scipy_loads_only_with_the_first_damped_propagator(tmp_path):
    src = str(Path(lgsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import lgsim": False,
        "fig2": False,
        "classic": False,
        "read_table": False,
        "damped propagator": True,
    }


def test_full_period_returns_identity():
    # QND timing: tau = pi*m/omega closes a full Bloch revolution
    for m in (1, 2, 3):
        ch = lindblad_propagator(LindbladSpec(HamiltonianSpec(1.0)), math.pi * m)
        assert np.allclose(ch.ptm, np.eye(4), atol=1e-12)


def test_propagator_cache_returns_same_object():
    spec = LindbladSpec(HamiltonianSpec(1.0), 0.01)
    assert lindblad_propagator(spec, 1.5) is lindblad_propagator(spec, 1.5)


def test_validation_errors():
    with pytest.raises(ValueError, match="omega"):
        HamiltonianSpec(0.0)
    with pytest.raises(ValueError, match="omega"):
        HamiltonianSpec(-1.0)
    with pytest.raises(ValueError, match=r"rotation rate 2\*omega overflows"):
        HamiltonianSpec(1e308)
    assert HamiltonianSpec(1e308, half=True).rotation_rate == 1e308
    with pytest.raises(ValueError, match="gamma"):
        LindbladSpec(HamiltonianSpec(1.0), -0.1)
    with pytest.raises(ValueError, match="duration"):
        lindblad_propagator(LindbladSpec(HamiltonianSpec(1.0)), -0.5)
    with pytest.raises(ValueError, match="duration"):
        unitary_propagator(HamiltonianSpec(1.0), math.nan)


def test_rotation_rate_property():
    assert HamiltonianSpec(1.5).rotation_rate == 3.0
    assert HamiltonianSpec(1.5, half=True).rotation_rate == 1.5
