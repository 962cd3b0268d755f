"""The theta-batched kernels and the batched battery against the exact
engine, and the sampler walk against the per-shot recurrence it replaces."""

import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
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

from oracles import dense_battery_eps, dense_protocol_lg
from test_protocol import reference_epsilon

GRID = np.linspace(0.05, math.pi - 0.05, 37)
# exactly zero in every propagator of the paper's family: each gap is
# unital, and the x component (the drive axis) is decoupled from y and z
STRUCTURAL_ZEROS = ((1, 2, 3, 0, 0, 0, 1, 1, 2, 3), (0, 0, 0, 1, 2, 3, 2, 3, 1, 1))


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


def magnitudes():
    # 10^-300 to 10^300, a uniform exponent, plus the ends and 1
    return st.one_of(
        st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e),
        st.sampled_from([1e-300, 1.0, 1e300]),
    )


@given(
    magnitudes(),
    st.booleans(),
    st.one_of(st.just(0.0), magnitudes()),
    st.one_of(st.just(0.0), magnitudes()),
)
@settings(max_examples=400, deadline=None)
def test_every_propagator_has_the_kernels_zero_pattern(omega, half, gamma, t):
    # the kernels skip these entries: G[0, 0] = 1 and the structural zeros
    # hold exactly for every gap the dynamics hands out; what it refuses
    # (a rotation rate or duration that overflows, a propagator that fails
    # CPTP validation) never reaches a kernel
    with np.errstate(all="ignore"):
        try:
            gap = lindblad_propagator(LindbladSpec(HamiltonianSpec(omega, half=half), gamma), t).ptm
        except ValueError:
            reject()
    assert gap[0, 0] == 1.0
    assert (gap[STRUCTURAL_ZEROS] == 0.0).all(), gap


# signed zeros, the smallest subnormals, huge values, where cos(theta) is
# closest to 0, and a theta past pi (both sin and cos negative)
EDGE_THETAS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.pi / 2, 3 * math.pi / 2, 3.2]
CRITICAL = LindbladSpec(HamiltonianSpec(1.0), 1.0)  # gamma = W/2 at omega = 1


@given(battery_cases(), st.integers(min_value=0, max_value=12))
@example(([0.4, 2.0], math.pi, CRITICAL), 2)
@example(([0.4, 2.0], 200.0 * math.pi, CRITICAL), 1)  # G33 underflows to 0
@settings(max_examples=60, deadline=None)
def test_the_kernels_equal_the_dense_walk_bit_for_bit(case, n):
    # the kernels skip what the dynamics family makes exactly zero; the
    # dense walk multiplies it, and every output keeps its bits, zeros'
    # signs included
    thetas, tau, spec = case
    thetas = thetas + EDGE_THETAS
    gap, gap2, gap13 = (lindblad_propagator(spec, k * tau).ptm for k in (1, 2, 2 * n + 3))
    got = _kernels.protocol_lg(thetas, n, gap, gap13) + (_kernels.battery_eps(thetas, gap, gap2),)
    want = dense_protocol_lg(thetas, n, gap, gap13) + (dense_battery_eps(thetas, gap, gap2),)
    for name, a, b in zip(("c12", "c23", "c13_prime", "eps"), got, want):
        assert a.tobytes() == b.tobytes(), name


@st.composite
def chunked_grids(draw):
    chunk = draw(st.sampled_from([1, 3, 4099, 8192]))
    size = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, min(200 * chunk, 20_003))))
    lo = draw(st.floats(min_value=-10.0, max_value=10.0))
    hi = draw(st.floats(min_value=-10.0, max_value=10.0))
    return np.linspace(lo, hi, size), chunk


@given(chunked_grids(), st.sampled_from([0.0, 0.3, 1.0, 10.0]), st.sampled_from([0, 2, 7]))
@settings(max_examples=40, deadline=None)
def test_kernels_on_theta_chunks_equal_the_whole_grid(grid, gamma, n):
    # a theta slice gives the whole-grid call's bits, so a block's kernels
    # may run chunk by chunk
    thetas, chunk = grid
    _, gap, gap2, gap13 = propagators(gamma, math.pi, n)
    whole = _kernels.protocol_lg(thetas, n, gap, gap13) + (_kernels.battery_eps(thetas, gap, gap2),)
    parts = [
        _kernels.protocol_lg(thetas[k : k + chunk], n, gap, gap13)
        + (_kernels.battery_eps(thetas[k : k + chunk], gap, gap2),)
        for k in range(0, max(len(thetas), 1), chunk)
    ]
    for j, want in enumerate(whole):
        assert np.concatenate([p[j] for p in parts]).tobytes() == want.tobytes(), j


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
    # the sampler's compile step (p_plus_table, then word_cutoffs) and its
    # walk on the 53-bit draws of the words
    expected = np.empty(words.shape, dtype=np.int8)
    reference_paths(word_uniforms(words), lin, aff, axes, r0, expected)
    cut = _kernels.word_cutoffs(_kernels.p_plus_table(lin, aff, axes, r0))
    draws = words >> np.uint64(11)
    got = np.where(np.column_stack(list(_kernels.outcome_columns(draws, cut))), 1, -1)
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
    # 1, and p(+1) = 1 (the cut-off 2**53, above every draw) occurs after a
    # +1 and after a -1
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
    # and the cut-off 2**53 or 0 at the first event has no "after a -1" side
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
    # (runs, shots, k) draws with (k, 2, runs, 1) cut-offs give, run by run,
    # the columns of a call on that run's draws with its scalar cut-offs;
    # p(+1) = 1 (cut-off 2**53) occurs after a +1 and after a -1, each in a single run
    k = 4
    rng = np.random.default_rng(runs)
    draws = rng.integers(0, 2**64, size=(runs, 256, k), dtype=np.uint64) >> np.uint64(11)
    p = rng.uniform(size=(k, 2, runs, 1))
    p[1, 0, 0] = p[2, 1, -1] = p[0, 0, -1] = 1.0
    cut = _kernels.word_cutoffs(p)
    assert (cut[:, 0] == 2**53).any() and (cut[:, 1] == 2**53).any()
    got = np.array(list(_kernels.outcome_columns(draws, cut)))
    assert got.shape == (k, runs, 256)
    for run in range(runs):
        lone = _kernels.outcome_columns(draws[run], cut[..., run, 0])
        assert np.array_equal(got[:, run], np.array(list(lone)))
    assert got.any() and not got.all()


def word_below(w, p):
    # the comparison the cut-offs replace: numpy's uniform for w against p
    return ((w >> 11) * 2.0**-53) < p


def cutoff_decides(w, p):
    return bool(np.uint64(w) >> np.uint64(11) < _kernels.word_cutoffs(p))


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
        cut = _kernels.word_cutoffs(ps)
        one = _kernels.word_cutoffs(1.0)
    # one uint64 cut-off per p: a certain outcome is 2**53, which a uint64 holds
    assert isinstance(cut, np.ndarray) and cut.dtype == np.uint64 and cut.shape == ps.shape
    assert one.dtype == np.uint64 and one == 2**53
    # the largest draw, 2**53 - 1 (from the word 2**64 - 1), still decides +1 at p = 1
    top = np.uint64(2**64 - 1) >> np.uint64(11)
    assert top == 2**53 - 1 and top < one
    for w in EDGE_WS:
        got = np.uint64(w) >> np.uint64(11) < cut
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


@pytest.mark.parametrize("n", [0, 2])
def test_an_empty_grid_gives_empty_columns(n):
    _, gap, gap2, gap13 = propagators(0.003, math.pi, n)
    assert [c.shape for c in _kernels.protocol_lg([], n, gap, gap13)] == [(0,)] * 3
    assert _kernels.battery_eps([], gap, gap2).shape == (0, 4)
