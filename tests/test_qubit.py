"""Operator algebra: Pauli expansion, validated states/observables, channels.

Most checks here are exact identities, so tolerances are ATOL-tight.  The
randomized properties use hypothesis with small, well-conditioned draws;
channel complete positivity is probed both ways (valid maps accepted, the
transpose map rejected).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgsim import protocol
from lgsim.dynamics import HamiltonianSpec, LindbladSpec
from lgsim.qubit import (
    ATOL,
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Channel,
    DensityOperator,
    Observable,
    anticommutator,
    compose,
    dephase_theta,
    dephase_z,
    expectation,
    identity_channel,
    is_hermitian,
    measure_channel,
    operator_from_coefficients,
    operators_close,
    pauli,
    pauli_coefficients,
    sigma_theta,
)
from lgsim.qubit import _choi_matrix

finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi, allow_nan=False)


# ---------------------------------------------------------------------------
# Pauli basis plumbing


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_pauli_involution(axis):
    q = pauli(axis)
    assert operators_close(q.matrix @ q.matrix, IDENTITY)
    assert abs(np.trace(q.matrix)) <= ATOL


def test_pauli_product_xy_is_iz():
    assert operators_close(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        pauli("w")


@given(st.lists(finite_floats, min_size=8, max_size=8))
def test_coefficients_round_trip(vals):
    op = np.array(vals[:4]).reshape(2, 2) + 1j * np.array(vals[4:]).reshape(2, 2)
    back = operator_from_coefficients(pauli_coefficients(op))
    assert np.allclose(back, op, atol=1e-12)


@given(st.lists(finite_floats, min_size=4, max_size=4))
def test_hermitian_operators_have_real_coefficients(vals):
    op = vals[0] * IDENTITY + vals[1] * SIGMA_X + vals[2] * SIGMA_Y + vals[3] * SIGMA_Z
    coeffs = pauli_coefficients(op)
    assert np.max(np.abs(coeffs.imag)) <= 1e-12
    assert np.allclose(coeffs.real, vals, atol=1e-12)


def test_operators_close_uses_absolute_tolerance():
    assert operators_close(IDENTITY, IDENTITY + 0.5 * ATOL)
    assert not operators_close(IDENTITY, IDENTITY + 3.0 * ATOL)


@given(st.lists(finite_floats, min_size=8, max_size=8))
def test_anticommutator_matches_definition(vals):
    a = vals[0] * IDENTITY + vals[1] * SIGMA_X + vals[2] * SIGMA_Y + vals[3] * SIGMA_Z
    b = vals[4] * IDENTITY + vals[5] * SIGMA_X + vals[6] * SIGMA_Y + vals[7] * SIGMA_Z
    assert np.allclose(anticommutator(a, b), a @ b + b @ a, atol=1e-12)
    # {A, B}/2 in coefficients: scalar part is the 4-dot, vector part mixes
    ca, cb = pauli_coefficients(a).real, pauli_coefficients(b).real
    half = pauli_coefficients(anticommutator(a, b)).real / 2.0
    assert abs(half[0] - ca @ cb) <= 1e-10
    assert np.allclose(half[1:], ca[0] * cb[1:] + cb[0] * ca[1:], atol=1e-10)


# ---------------------------------------------------------------------------
# states


def test_maximally_mixed_state():
    rho = DensityOperator.maximally_mixed()
    assert np.allclose(rho.matrix, IDENTITY / 2.0)
    assert rho.purity == pytest.approx(0.5)
    assert np.allclose(rho.bloch_vector, 0.0)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[1.0, 0.5], [0.1, 0.0]]),  # not Hermitian
        np.diag([0.7, 0.7]),  # trace 1.4
        np.diag([1.2, -0.2]),  # negative eigenvalue
    ],
)
def test_density_operator_rejects_invalid(bad):
    with pytest.raises(ValueError):
        DensityOperator(bad)


@given(st.lists(st.floats(min_value=-0.57, max_value=0.57), min_size=3, max_size=3))
def test_from_bloch_round_trip(r):
    rho = DensityOperator.from_bloch(r)
    assert np.allclose(rho.bloch_vector, r, atol=1e-12)
    assert rho.purity == pytest.approx(0.5 * (1.0 + float(np.dot(r, r))))


def test_from_bloch_rejects_outside_sphere():
    with pytest.raises(ValueError):
        DensityOperator.from_bloch([1.0, 1.0, 0.0])


def test_density_matrix_is_write_protected():
    rho = DensityOperator.maximally_mixed()
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0


# ---------------------------------------------------------------------------
# observables


@given(angles)
def test_sigma_theta_matrix(theta):
    q = sigma_theta(theta)
    expected = math.cos(theta) * SIGMA_Z + math.sin(theta) * SIGMA_X
    assert operators_close(q.matrix, expected)
    assert np.allclose(q.bloch_axis, [math.sin(theta), 0.0, math.cos(theta)], atol=1e-12)


def test_sigma_theta_endpoints():
    assert operators_close(sigma_theta(0.0).matrix, SIGMA_Z)
    assert operators_close(sigma_theta(math.pi / 2).matrix, SIGMA_X)
    assert operators_close(sigma_theta(math.pi).matrix, -SIGMA_Z)


def test_observable_rejects_non_involution():
    with pytest.raises(ValueError, match="square to the identity"):
        Observable(0.5 * SIGMA_Z)
    with pytest.raises(ValueError, match="Hermitian"):
        Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_observable_projectors():
    q = sigma_theta(0.3)
    p_plus = q.projector(+1)
    p_minus = q.projector(-1)
    assert operators_close(p_plus + p_minus, IDENTITY)
    assert operators_close(p_plus @ p_plus, p_plus)
    assert operators_close(p_minus @ p_minus, p_minus)
    assert operators_close(p_plus - p_minus, q.matrix)
    with pytest.raises(ValueError):
        q.projector(0)


def test_identity_observable_has_no_axis():
    q = Observable(IDENTITY)
    with pytest.raises(ValueError, match="identity component"):
        q.bloch_axis


def test_is_hermitian():
    assert is_hermitian(SIGMA_Y)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# channels


def test_identity_channel_is_unit():
    ident = identity_channel()
    other = dephase_z()
    assert np.allclose((ident @ other).ptm, other.ptm)
    assert np.allclose((other @ ident).ptm, other.ptm)
    assert ident.is_unital


def test_channel_rejects_trace_breaking():
    bad = np.eye(4)
    bad[0, 1] = 0.2
    with pytest.raises(ValueError, match="trace preserving"):
        Channel(bad)


def test_channel_rejects_transpose_map():
    # the transpose is positive but not completely positive
    with pytest.raises(ValueError, match="completely positive"):
        Channel(np.diag([1.0, 1.0, -1.0, 1.0]))


def choi_by_mapping_matrix_units(ptm):
    """The Choi matrix built one matrix unit at a time (the oracle)."""
    j = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[a, b] = 1.0
            mapped = operator_from_coefficients(ptm @ pauli_coefficients(e))
            j += np.kron(e, mapped)
    return j


@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=16, max_size=16),
    st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=300)
def test_choi_contraction_is_bit_identical_to_the_oracle(entries, log_scale):
    ptm = np.array(entries).reshape(4, 4) * 10.0**log_scale
    assert np.array_equal(_choi_matrix(ptm), choi_by_mapping_matrix_units(ptm))


def test_composition_matches_matrix_product():
    a = dephase_z()
    b = dephase_theta(0.7)
    assert np.allclose((a @ b).ptm, a.ptm @ b.ptm)
    assert np.allclose(compose(b, a).ptm, a.ptm @ b.ptm)


@given(angles, angles, st.lists(finite_floats, min_size=4, max_size=4))
@settings(max_examples=40)
def test_measure_channel_equals_the_walkers_projection(polar, azimuth, x):
    # the exact walker's projection step (an event at the current time, then
    # a last event that is not measured) against the Kraus-built channel
    axis = [math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth)]
    axis.append(math.cos(polar))
    q = Observable(axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z)
    x = np.array(x)
    events = [(0.0, q.bloch_axis), (0.0, None)]
    projected = protocol._walk(LindbladSpec(HamiltonianSpec(1.0)), x, 0.0, events)
    assert np.allclose(projected, measure_channel(q).ptm @ x, rtol=0.0, atol=1e-12)


def test_dephase_z_kills_transverse_parts():
    ch = dephase_z()
    rho = DensityOperator.from_bloch([0.3, -0.4, 0.5])
    out = ch.apply_to_state(rho)
    assert np.allclose(out.bloch_vector, [0.0, 0.0, 0.5], atol=1e-12)
    assert ch.is_unital


@given(angles)
@settings(max_examples=40)
def test_dephasing_is_idempotent(theta):
    ch = dephase_theta(theta)
    assert np.allclose((ch @ ch).ptm, ch.ptm, atol=1e-12)


def test_kraus_round_trip():
    ch = dephase_theta(1.1)
    ops = ch.kraus_operators()
    total = sum(k.conj().T @ k for k in ops)
    assert np.allclose(total, IDENTITY, atol=1e-9)
    rebuilt = Channel.from_kraus(ops)
    assert np.allclose(rebuilt.ptm, ch.ptm, atol=1e-9)


def test_from_kraus_validates():
    with pytest.raises(ValueError, match="at least one"):
        Channel.from_kraus([])
    # half an identity is not trace preserving
    with pytest.raises(ValueError, match="trace preserving"):
        Channel.from_kraus([IDENTITY / 2.0])


def test_channel_call_acts_by_linearity():
    ch = dephase_z()
    op = 0.3 * SIGMA_X + 2.0 * IDENTITY
    assert np.allclose(ch(op), 2.0 * IDENTITY, atol=1e-12)


def test_expectation_values():
    rho = DensityOperator.from_bloch([0.0, 0.0, 0.8])
    assert expectation(pauli("z"), rho) == pytest.approx(0.8)
    assert expectation(pauli("x"), rho) == pytest.approx(0.0, abs=1e-12)
    assert expectation(sigma_theta(0.5), rho) == pytest.approx(0.8 * math.cos(0.5))
