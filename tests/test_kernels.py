"""The theta-batched kernels and the batched battery against the exact
engine, and the sampler walk against the per-shot recurrence it replaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgsim import _kernels
from lgsim.dynamics import HamiltonianSpec, LindbladSpec, lindblad_propagator
from lgsim.protocol import (
    adroitness_experiments,
    adroitness_grid,
    build_protocol_schedule,
    epsilon_adroitness,
    lg_quantity,
)

GRID = np.linspace(0.05, math.pi - 0.05, 37)


def propagators(gamma, tau, n):
    spec = LindbladSpec(HamiltonianSpec(1.0), gamma)
    gap = lindblad_propagator(spec, tau).ptm
    gap2 = lindblad_propagator(spec, 2.0 * tau).ptm
    gap13 = lindblad_propagator(spec, (2 * n + 3) * tau).ptm
    return spec, gap, gap2, gap13


@pytest.mark.parametrize("gamma", [0.0, 0.003])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_protocol_kernel_matches_exact_engine(gamma, n):
    tau = math.pi
    spec, gap, _, gap13 = propagators(gamma, tau, n)
    c12, c23, c13p = _kernels.protocol_lg(GRID, n, gap, gap13)
    for k, theta in enumerate(GRID):
        cs = lg_quantity(build_protocol_schedule(float(theta), n, tau, spec))
        assert c12[k] == pytest.approx(cs.c12, abs=1e-12)
        assert c23[k] == pytest.approx(cs.c23, abs=1e-12)
        assert c13p[k] == pytest.approx(cs.c13_prime, abs=1e-12)


@pytest.mark.parametrize("gamma", [0.0, 0.002, 0.01])
def test_battery_kernel_matches_exact_engine(gamma):
    tau = math.pi
    spec, gap, gap2, _ = propagators(gamma, tau, 1)
    eps = _kernels.battery_eps(GRID[::4], gap, gap2)
    assert eps.shape == (len(GRID[::4]), 4)
    for k, theta in enumerate(GRID[::4]):
        exact = [epsilon_adroitness(s) for s in adroitness_experiments(float(theta), tau, spec)]
        assert eps[k] == pytest.approx(exact, abs=1e-12)


@st.composite
def battery_cases(draw):
    omega = draw(st.floats(min_value=0.2, max_value=2.0))
    half = draw(st.booleans())
    rate = omega if half else 2.0 * omega  # Bloch rotation rate W
    # gamma = W/2 is critical damping of the y-z block; 4*gamma = W is
    # where the damping rate meets the rotation rate
    gamma = draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=2.0),
            st.sampled_from([0.0, min(rate / 2.0, 2.0), rate / 4.0, 2.0]),
        )
    )
    m = draw(st.integers(min_value=1, max_value=4))
    tau = math.pi * m / omega if draw(st.booleans()) else draw(st.floats(0.05, 8.0))
    thetas = [
        0.0,
        math.pi,
        draw(st.floats(min_value=-20.0, max_value=-1e-3)),
        draw(st.floats(min_value=2.0 * math.pi, max_value=40.0)),
    ]
    thetas += draw(st.lists(st.floats(min_value=-40.0, max_value=40.0), max_size=4))
    order = draw(st.permutations(range(len(thetas))))
    spec = LindbladSpec(HamiltonianSpec(omega, half=half), gamma)
    return [thetas[k] for k in order], tau, spec


@given(battery_cases())
@settings(max_examples=40, deadline=None)
def test_batched_battery_matches_every_engine(case):
    thetas, tau, spec = case
    grid = adroitness_grid(thetas, tau, spec)
    assert grid.shape == (len(thetas), 4)
    for b, theta in enumerate(thetas):
        exact = [epsilon_adroitness(s) for s in adroitness_experiments(theta, tau, spec)]
        assert grid[b].tolist() == exact  # the general walker, bit for bit
        assert adroitness_grid([theta], tau, spec)[0].tolist() == exact
    gap = lindblad_propagator(spec, tau).ptm
    gap2 = lindblad_propagator(spec, 2.0 * tau).ptm
    assert np.max(np.abs(grid - _kernels.battery_eps(thetas, gap, gap2))) <= 1e-12


def reference_paths(u, lin, aff, axes, r0, out):
    # the per-shot recurrence: evolve each shot's Bloch vector through the
    # gap, compare p(+1) against the uniform, collapse onto +/- the axis
    shots = u.shape[0]
    rx = np.full(shots, r0[0])
    ry = np.full(shots, r0[1])
    rz = np.full(shots, r0[2])
    for j in range(u.shape[1]):
        nx = aff[j, 0] + (lin[j, 0, 0] * rx + lin[j, 0, 1] * ry + lin[j, 0, 2] * rz)
        ny = aff[j, 1] + (lin[j, 1, 0] * rx + lin[j, 1, 1] * ry + lin[j, 1, 2] * rz)
        nz = aff[j, 2] + (lin[j, 2, 0] * rx + lin[j, 2, 1] * ry + lin[j, 2, 2] * rz)
        p = 0.5 * (1.0 + (axes[j, 0] * nx + axes[j, 1] * ny + axes[j, 2] * nz))
        pos = u[:, j] < p
        out[:, j] = np.where(pos, 1, -1)
        sg = np.where(pos, 1.0, -1.0)
        rx = sg * axes[j, 0]
        ry = sg * axes[j, 1]
        rz = sg * axes[j, 2]


@pytest.mark.parametrize("k", [1, 6])
def test_sampler_paths_are_bit_identical(k):
    rng = np.random.default_rng(k)
    u = rng.random((4096, k))
    lin = rng.normal(size=(k, 3, 3)) * 0.4
    aff = rng.normal(size=(k, 3)) * 0.05
    axes = rng.normal(size=(k, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    r0 = np.array([0.3, -0.2, 0.5])
    expected = np.empty((4096, k), dtype=np.int8)
    got = np.empty((4096, k), dtype=np.int8)
    reference_paths(u, lin, aff, axes, r0, expected)
    _kernels.sample_paths(u, lin, aff, axes, r0, got)
    assert np.array_equal(got, expected)
    # both outcomes occur in every column, so the lookup is exercised
    assert np.all((got == 1).any(axis=0)) and np.all((got == -1).any(axis=0))


def test_dispatcher_validation():
    _, gap, _, gap13 = propagators(0.0, math.pi, 1)
    with pytest.raises(ValueError, match="one dimensional"):
        _kernels.protocol_lg(np.ones((2, 2)), 1, gap, gap13)
    with pytest.raises(ValueError, match="nonnegative integer"):
        _kernels.protocol_lg(GRID, -1, gap, gap13)
    with pytest.raises(ValueError, match="4x4 transfer matrix"):
        _kernels.protocol_lg(GRID, 1, gap[:3, :3], gap13)
    with pytest.raises(ValueError, match="4x4 transfer matrix"):
        _kernels.battery_eps(GRID, gap, np.eye(3))
