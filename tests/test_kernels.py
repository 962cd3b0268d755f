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

from test_protocol import reference_epsilon

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
        schedules = adroitness_experiments(theta, tau, spec)
        exact = [reference_epsilon(s) for s in schedules]
        assert grid[b].tolist() == exact  # the scalar reference walker, bit for bit
        assert [epsilon_adroitness(s) for s in schedules] == exact
        assert adroitness_grid([theta], tau, spec)[0].tolist() == exact
    gap = lindblad_propagator(spec, tau).ptm
    gap2 = lindblad_propagator(spec, 2.0 * tau).ptm
    assert np.max(np.abs(grid - _kernels.battery_eps(thetas, gap, gap2))) <= 1e-12


# exactly zero in every propagator of the paper's family: each gap is
# unital, and the x component (the drive axis) is decoupled from y and z
STRUCTURAL_ZEROS = ((1, 2, 3, 0, 0, 0, 1, 1, 2, 3), (0, 0, 0, 1, 2, 3, 2, 3, 1, 1))


def closed_forms(thetas, n, gap, gap2, gap13):
    """``protocol_lg`` and ``battery_eps`` in closed form.

    Each projection maps one axis onto a scalar times the other, so the
    box's period map has rank one and n enters only as a power: with
    c = cos(theta), c12 = (G33 c)^(2n+2), c23 = G33 c and c13' = G13_33 c.
    Experiment (q1, probe p, q3) of the battery gives
    |(q3.G p)(p.G q1) - q3.G2 q1|, where theta.G theta = G33 + (G11 - G33)
    sin(theta)^2 and z.G theta = theta.G z = G33 c.
    """
    for g in (gap, gap2, gap13):
        assert g[0, 0] == 1.0 and not g[STRUCTURAL_ZEROS].any()
    c = np.cos(thetas)
    s2 = np.sin(thetas) ** 2

    def dot(g, u, v):  # u.G v for the axes "t" (theta) and "z"
        if u != v:
            return g[3, 3] * c
        return g[3, 3] + (g[1, 1] - g[3, 3]) * s2 if u == "t" else np.full_like(c, g[3, 3])

    correlators = ((gap[3, 3] * c) ** (2 * n + 2), gap[3, 3] * c, gap13[3, 3] * c)
    battery = [
        np.abs(dot(gap, q3, p) * dot(gap, p, q1) - dot(gap2, q3, q1))
        for q1, p, q3 in ("ttz", "tzz", "zzt", "ztt")  # experiments a-d
    ]
    return correlators, np.stack(battery, axis=1)


@given(battery_cases(), st.integers(min_value=0, max_value=50))
@settings(max_examples=40, deadline=None)
def test_the_kernels_match_their_closed_forms(case, n):
    thetas, tau, drawn = case
    thetas = np.array(thetas)
    for spec in (drawn, LindbladSpec(HamiltonianSpec(1.0), 1.0)):  # and critical damping
        gap, gap2, gap13 = (lindblad_propagator(spec, k * tau).ptm for k in (1, 2, 2 * n + 3))
        correlators, battery = closed_forms(thetas, n, gap, gap2, gap13)
        for got, want in zip(_kernels.protocol_lg(thetas, n, gap, gap13), correlators):
            assert np.max(np.abs(got - want)) <= 1e-14
        assert np.max(np.abs(_kernels.battery_eps(thetas, gap, gap2) - battery)) <= 1e-14


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


def word_uniforms(words):
    # what numpy's Generator.random() makes of each Philox word
    return (words >> np.uint64(11)) * 2.0**-53


def run_both(words, lin, aff, axes, r0):
    expected = np.empty(words.shape, dtype=np.int8)
    got = np.empty(words.shape, dtype=np.int8)
    reference_paths(word_uniforms(words), lin, aff, axes, r0, expected)
    _kernels.sample_paths(words, lin, aff, axes, r0, got)
    return got, expected


@pytest.mark.parametrize("k", [1, 6])
def test_sampler_paths_are_bit_identical(k):
    rng = np.random.default_rng(k)
    words = rng.integers(0, 2**64, size=(4096, k), dtype=np.uint64)
    lin = rng.normal(size=(k, 3, 3)) * 0.4
    aff = rng.normal(size=(k, 3)) * 0.05
    axes = rng.normal(size=(k, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    r0 = np.array([0.3, -0.2, 0.5])
    got, expected = run_both(words, lin, aff, axes, r0)
    assert np.array_equal(got, expected)
    # both outcomes occur in every column, so the lookup is exercised
    assert np.all((got == 1).any(axis=0)) and np.all((got == -1).any(axis=0))


def test_sampler_paths_repeat_a_certain_outcome():
    # +z, +z, -z, -z measured with no gaps: every later p(+1) is exactly 0 or
    # 1, and p(+1) = 1 (a cut-off of 2**64, which no uint64 holds) occurs
    # after a +1 and after a -1
    rng = np.random.default_rng(0)
    words = rng.integers(0, 2**64, size=(512, 4), dtype=np.uint64)
    words[:4, 1:] = [[0, 0, 0], [2**64 - 1] * 3, [2**11 - 1] * 3, [2**11] * 3]
    lin = np.broadcast_to(np.eye(3), (4, 3, 3))
    aff = np.zeros((4, 3))
    axes = np.array([[0.0, 0.0, 1.0]] * 2 + [[0.0, 0.0, -1.0]] * 2)
    got, expected = run_both(words, lin, aff, axes, np.array([0.0, 0.0, 0.2]))
    assert np.array_equal(got, expected)
    assert np.all(got * [1, 1, -1, -1] == got[:, :1]) and set(got[:, 0]) == {1, -1}


@pytest.mark.parametrize("rz", [1.0, -1.0])
def test_sampler_paths_start_from_a_certain_outcome(rz):
    # r0 = +/- z measured along z: the first event's p(+1) is exactly 1 or 0,
    # and a cut-off of 2**64 at the first event has no "after a -1" side
    rng = np.random.default_rng(1)
    words = rng.integers(0, 2**64, size=(512, 2), dtype=np.uint64)
    words[:2, 0] = [0, 2**64 - 1]
    lin = np.broadcast_to(np.eye(3), (2, 3, 3))
    axes = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    got, expected = run_both(words, lin, np.zeros((2, 3)), axes, np.array([0.0, 0.0, rz]))
    assert np.array_equal(got, expected)
    assert np.all(got[:, 0] == rz) and set(got[:, 1]) == {1, -1}


@pytest.mark.parametrize("runs", [1, 3])
def test_outcome_columns_of_runs_side_by_side_are_their_own_columns(runs):
    # (runs, shots, k) words with (k, 2, runs, 1) cut-offs give, run by run,
    # the columns of a call on that run's words with its scalar cut-offs;
    # p(+1) = 1 (``always``) occurs after a +1 and after a -1, each in a single run
    k = 4
    rng = np.random.default_rng(runs)
    words = rng.integers(0, 2**64, size=(runs, 256, k), dtype=np.uint64)
    p = rng.uniform(size=(k, 2, runs, 1))
    p[1, 0, 0] = p[2, 1, -1] = p[0, 0, -1] = 1.0
    cut, always = _kernels.word_cutoffs(p)
    assert always[:, 0].any() and always[:, 1].any()
    got = np.array(list(_kernels.outcome_columns(words, cut, always)))
    assert got.shape == (k, runs, 256)
    for run in range(runs):
        lone = _kernels.outcome_columns(words[run], cut[..., run, 0], always[..., run, 0])
        assert np.array_equal(got[:, run], np.array(list(lone)))
    assert got.any() and not got.all()


def word_below(w, p):
    # the comparison the cut-offs replace: numpy's uniform for w against p
    return ((w >> 11) * 2.0**-53) < p


def cutoff_decides(w, p):
    cut, always = _kernels.word_cutoffs(p)
    return bool((np.uint64(w) < cut) | always)


@st.composite
def grid_neighbourhoods(draw):
    # p on the 2**-53 grid or one float either side, w at the edge c * 2**11
    c = draw(st.integers(0, 2**53))
    p = c * 2.0**-53
    p = draw(st.sampled_from([math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf)]))
    w = draw(st.sampled_from([c * 2**11 - 1, c * 2**11]).filter(lambda w: 0 <= w < 2**64))
    return w, p


@given(st.one_of(st.tuples(st.integers(0, 2**64 - 1), st.floats()), grid_neighbourhoods()))
@settings(max_examples=500, deadline=None)
def test_word_cutoffs_match_the_double_comparison(case):
    w, p = case
    assert cutoff_decides(w, p) == word_below(w, p)


# values below 0, signed zeros, the smallest subnormal and normal, the first
# grid step and its lower neighbour, both neighbours of 1, values above 1, NaN
EDGE_PS = [-math.inf, -1.0, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 2.0**-53]
EDGE_PS += [math.nextafter(2.0**-53, 0.0), 0.5, math.nextafter(1.0, 0.0), 1.0]
EDGE_PS += [math.nextafter(1.0, 2.0), 2.0, math.inf, math.nan]
EDGE_WS = [0, 1, 2**11 - 1, 2**11, 2**63, 2**64 - 2**11 - 1, 2**64 - 2**11, 2**64 - 1]


def test_word_cutoffs_on_edge_values():
    ps = np.array(EDGE_PS)
    with np.errstate(all="raise"):  # no NaN or out-of-range float reaches the cast
        cut, always = _kernels.word_cutoffs(ps)
    assert cut.dtype == np.uint64 and cut.shape == always.shape == ps.shape
    for w in EDGE_WS:
        got = (np.uint64(w) < cut) | always
        assert got.tolist() == [word_below(w, p) for p in EDGE_PS], w


@pytest.mark.parametrize("key", [(0, 0), (9, 1), (2**64 - 1, 2**32)])
def test_philox_words_map_to_numpy_uniforms(key):
    # the sampler decides on raw words because Generator.random() on Philox
    # maps each word w to (w >> 11) * 2**-53; a numpy that changes this
    # would silently change every seeded record
    key = np.array(key, dtype=np.uint64)
    uniforms = np.random.Generator(np.random.Philox(key=key)).random(1000)
    words = np.random.Philox(key=key).random_raw(1000)
    assert np.array_equal(uniforms, word_uniforms(words)), (
        f"numpy {np.__version__} no longer maps Philox words to uniforms as "
        "(w >> 11) * 2**-53; the sampler's word cut-offs assume that mapping"
    )


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
