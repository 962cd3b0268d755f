"""Grid sweeps, violation windows, and noise cutoffs."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgsim import _kernels, sweeps
from lgsim.dynamics import HamiltonianSpec, LindbladSpec
from lgsim.protocol import (
    Verdict,
    build_protocol_schedule,
    epsilon_total,
    lg_quantity,
    violation_verdict,
)
from lgsim.sweeps import (
    CurveArrays,
    SweepRecord,
    gamma_cutoff,
    lg_curve,
    sweep_blocks,
    sweep_records,
    violation_window,
)
from lgsim.tables import SCHEMAS


def test_curve_matches_exact_engine():
    thetas = np.linspace(0.1, 3.0, 23)
    curve = lg_curve(thetas, n=1, gamma=0.002, tau=math.pi)
    spec = LindbladSpec(HamiltonianSpec(1.0), 0.002)
    for k, theta in enumerate(thetas):
        cs = lg_quantity(build_protocol_schedule(float(theta), 1, math.pi, spec))
        assert curve.c12[k] == pytest.approx(cs.c12, abs=1e-12)
        assert curve.c23[k] == pytest.approx(cs.c23, abs=1e-12)
        assert curve.c13_prime[k] == pytest.approx(cs.c13_prime, abs=1e-12)
        assert curve.lg[k] == pytest.approx(cs.lg_quantity, abs=1e-12)
        assert curve.eps_total[k] == pytest.approx(
            epsilon_total(float(theta), math.pi, spec), abs=1e-12
        )


def test_curve_argument_validation():
    with pytest.raises(ValueError, match="tau must be positive"):
        lg_curve(np.array([0.5]), 1, 0.0, 0.0)


# each entry point, called at gamma 0 with a theta grid, an n and a tau
ENTRY_POINTS = {
    "lg_curve": lambda thetas, n, tau: lg_curve(thetas, n, 0.0, tau),
    "sweep_blocks": lambda thetas, n, tau: sweep_blocks(thetas, [0.0], [n], tau),
    "violation_window": lambda thetas, n, tau: violation_window(n, 0.0, tau),
    "gamma_cutoff": lambda thetas, n, tau: gamma_cutoff(n, tau),
}
BAD_INPUTS = [
    pytest.param(entry, thetas, n, message, id=f"{entry}-{bad}")
    for bad, thetas, n, message in [
        ("2d-grid", np.ones((2, 2)), 1, "theta grid must be one dimensional, got shape (2, 2)"),
        ("nan-theta", [0.5, math.nan], 1, "theta must be finite, got nan"),
        ("inf-theta", [0.5, -math.inf, math.inf], 1, "theta must be finite, got -inf"),
        ("n=-1", [0.5], -1, "n must be a nonnegative integer, got -1"),
        ("n=1.5", [0.5], 1.5, "n must be a nonnegative integer, got 1.5"),
        ("n=None", [0.5], None, "n must be a nonnegative integer, got None"),
        ("n=inf", [0.5], math.inf, "n must be a nonnegative integer, got inf"),
        ("n=nan", [0.5], math.nan, "n must be a nonnegative integer, got nan"),
        ("n='2'", [0.5], "2", "n must be a nonnegative integer, got 2"),
    ]
    for entry in ENTRY_POINTS
    if bad.startswith("n=") or entry in ("lg_curve", "sweep_blocks")  # the two that take a grid
]


@pytest.mark.parametrize("tau", [math.pi, 0.0], ids=["tau=pi", "tau=0"])
@pytest.mark.parametrize("entry, thetas, n, message", BAD_INPUTS)
def test_entry_points_refuse_a_bad_grid_or_n_before_any_propagator(
    monkeypatch, entry, thetas, n, message, tau
):
    # the rules are protocol's, checked before any gap is built, so a bad
    # tau is named after them
    built = []
    monkeypatch.setattr(sweeps, "lindblad_propagator", lambda *a: built.append(a))
    with pytest.raises(ValueError) as exc:
        ENTRY_POINTS[entry](thetas, n, tau)
    assert (str(exc.value), built) == (message, [])


def test_sweep_blocks_checks_its_inputs_in_lg_curves_order():
    # theta, n, omega, gamma, then tau: each call fixes the fault named before
    args = [[math.nan], -1.0, 0.0, -1.0, 0.0]  # thetas, n, omega, gamma, tau
    for fix, message in enumerate(
        [
            "theta must be finite, got nan",
            "n must be a nonnegative integer, got -1.0",
            "omega must be positive and finite, got 0.0",
            "gamma must be nonnegative and finite, got -1.0",
            "tau must be positive and finite, got 0.0",
        ]
    ):
        thetas, n, omega, gamma, tau = args
        for call in (
            lambda: lg_curve(thetas, n, gamma, tau, omega),
            lambda: sweep_blocks(thetas, [gamma], [n], tau, omega),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message
        args[fix] = [[0.5], 1, 1.0, 0.0, math.pi][fix]


def test_sweep_row_order_and_columns():
    thetas = np.array([0.2, 1.4])
    table = sweep_records(thetas, gammas=[0.0, 0.005], ns=[0, 1], tau=math.pi, omega=1.0)
    assert len(table) == 8
    rows = table.records()
    assert len(rows) == 8
    key = [(r.n, r.gamma, r.theta) for r in rows]
    assert key == sorted(key)
    # a record's fields are the sweep table's columns, in order
    assert SweepRecord._fields == tuple(SCHEMAS["sweep"]) == (
        "theta",
        "gamma",
        "n",
        "c12",
        "c23",
        "c13_prime",
        "lg_quantity",
        "eps_total",
        "verdict",
    )


@pytest.mark.parametrize("n_blocks", [1, 2])
@pytest.mark.parametrize(
    "gammas",
    [[0.0, 0.004, 0.009], [0.004, 0.0, 0.004], [0.0, -0.0]],
    ids=["distinct", "repeated", "signed-zero"],
)
def test_the_battery_runs_once_per_gamma(monkeypatch, n_blocks, gammas):
    # eps_total does not depend on n, so every n block of a gamma shares one
    # array, and one n block runs it as often; gammas that differ only in the
    # sign of zero each get their own
    thetas = np.linspace(0.0, math.pi, 17)
    calls = []
    real = _kernels.battery_eps

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(_kernels, "battery_eps", counted)
    table = sweep_records(thetas, gammas, [0, 5][:n_blocks], math.pi, 1.0)
    distinct = {g.hex() for g in map(float, gammas)}
    assert calls == [len(thetas)] * len(distinct)
    monkeypatch.setattr(_kernels, "battery_eps", real)
    shared = {}
    for b in table.blocks:
        want = lg_curve(thetas, b.n, b.gamma, math.pi, 1.0)
        for got, ref in zip(b.curve, want):
            assert got.tobytes() == ref.tobytes()
        assert shared.setdefault(b.gamma.hex(), b.curve.eps_total) is b.curve.eps_total
    assert len(shared) == len(distinct)


def test_a_sweep_block_is_one_theta_chunk(monkeypatch):
    # with 3-theta chunks, 7 thetas make blocks of 3, 3 and 1 rows per
    # (n, gamma), in n, gamma, chunk order; the blocks over one chunk share
    # its theta view, those of one gamma its eps_total, and each block holds
    # the bits of a whole-grid curve
    monkeypatch.setattr(sweeps, "_CHUNK_ROWS", 3)
    thetas = np.linspace(0.0, math.pi, 7)
    gammas, ns = [0.0, 0.01], [0, 2]
    table = sweep_records(thetas, gammas, ns, math.pi, 1.0)
    assert [(b.n, b.gamma, len(b.thetas)) for b in table.blocks] == [
        (n, g, size) for n in ns for g in gammas for size in (3, 3, 1)
    ]
    assert len(table) == len(table.records()) == 7 * 4
    views, eps = {}, {}
    for k, b in enumerate(table.blocks):
        assert views.setdefault(k % 3, b.thetas) is b.thetas
        assert eps.setdefault((b.gamma, k % 3), b.curve.eps_total) is b.curve.eps_total
    for i in range(0, len(table.blocks), 3):
        run = table.blocks[i : i + 3]
        want = lg_curve(thetas, run[0].n, run[0].gamma, math.pi, 1.0)
        assert np.concatenate([b.thetas for b in run]).tobytes() == thetas.tobytes()
        for field, ref in zip(CurveArrays._fields, want):
            got = np.concatenate([getattr(b.curve, field) for b in run])
            assert got.tobytes() == ref.tobytes()


def test_an_empty_theta_grid_is_one_empty_block_per_pair():
    table = sweep_records([], [0.0, 0.01], [0, 1], math.pi, 1.0)
    assert [(b.n, b.gamma, len(b.thetas)) for b in table.blocks] == [
        (0, 0.0, 0), (0, 0.01, 0), (1, 0.0, 0), (1, 0.01, 0)
    ]
    assert len(table) == 0 and table.records() == []


def test_a_chunk_battery_lives_from_its_first_block_to_its_last(monkeypatch):
    # with 3-theta chunks, each (gamma, chunk)'s battery runs when the first
    # block over it is made, and once the last n's block over it is let go
    # nothing holds its eps_total
    monkeypatch.setattr(sweeps, "_CHUNK_ROWS", 3)
    calls = []
    real = _kernels.battery_eps
    monkeypatch.setattr(_kernels, "battery_eps", lambda *a: calls.append(len(a[0])) or real(*a))
    blocks = sweep_blocks(np.linspace(0.0, math.pi, 7), [0.0, 0.01], [0, 2], math.pi)
    held = []
    for b in blocks:  # not enumerate, whose reused tuple would hold the block
        assert calls == [3, 3, 1, 3, 3, 1][: len(held) + 1]
        held.append(weakref.ref(b.curve.eps_total))
        del b
        assert (held[-1]() is None) == (len(held) > 6)
    assert len(held) == 12


def test_a_corrupt_block_leaves_the_shared_eps_alone(monkeypatch):
    # the per-block seam gets the shared eps_total; what one block makes of
    # it must not reach the other blocks of its gamma
    thetas = np.linspace(0.1, 3.0, 5)
    clean = sweep_records(thetas, [0.004], [0, 1, 2], math.pi, 1.0)
    real = sweeps._curve

    def corrupt(*args):
        cur = real(*args)
        if args[1] == 1:
            cur = cur._replace(eps_total=cur.eps_total + 1.0)
        return cur

    monkeypatch.setattr(sweeps, "_curve", corrupt)
    table = sweep_records(thetas, [0.004], [0, 1, 2], math.pi, 1.0)
    eps = [b.curve.eps_total for b in table.blocks]
    want = clean.blocks[0].curve.eps_total
    assert eps[0].tobytes() == eps[2].tobytes() == want.tobytes()
    assert eps[1].tobytes() == (want + 1.0).tobytes()


def test_verdicts_in_swept_rows_are_consistent():
    rows = sweep_records(np.linspace(0.05, 3.1, 31), [0.0, 0.01], [1], math.pi, 1.0).records()
    assert len(rows) == 62
    for r in rows:
        if r.verdict is Verdict.VIOLATES_STRICT:
            assert r.lg_quantity < -r.eps_total
        elif r.verdict is Verdict.VIOLATES_LENIENT:
            assert -r.eps_total <= r.lg_quantity < 0.0
        else:
            assert r.lg_quantity >= 0.0


def test_table_verdicts_match_the_scalar_verdict():
    # theta = 0 and pi, and gamma = 0, put lg and eps_total at roundoff
    thetas = np.linspace(0.0, math.pi, 201)
    table = sweep_records(thetas, [0.0, 0.004, 0.02], [0, 1, 2], math.pi, 1.0)
    assert len(table) == 201 * 9
    seen = set()
    for block in table.blocks:
        for lg, eps, verdict in zip(block.curve.lg, block.curve.eps_total, block.verdict):
            want = violation_verdict(float(lg), float(eps))
            assert verdict == want.value
            seen.add(want)
    assert seen == set(Verdict)


# ---------------------------------------------------------------------------
# violation window


def test_ideal_onset_for_one_boxed_measurement():
    win = violation_window(n=1, gamma=0.0, tau=math.pi, omega=1.0)
    assert win.criterion == "lenient"
    assert win.lo / math.pi == pytest.approx(0.682973047, abs=1e-6)
    # the ideal violation only closes at theta = pi itself, where the
    # quantity touches zero; the bisected edge lands within the refinement
    # tolerance of pi and its bracket reaches the endpoint
    assert win.hi == pytest.approx(math.pi, abs=5e-6)
    assert win.hi_bracket[1] == math.pi
    assert win.lo_bracket[0] <= win.lo <= win.lo_bracket[1]
    assert win.width == pytest.approx(win.hi - win.lo)


def test_window_absent_for_the_control():
    # n = 0 never violates: the quantity is a perfect square
    assert violation_window(n=0, gamma=0.0, tau=math.pi, omega=1.0) is None


def test_window_none_when_noise_washes_it_out():
    assert violation_window(n=1, gamma=0.05, tau=math.pi, omega=1.0) is None


def test_window_shrinks_with_noise():
    widths = []
    for gamma in (0.0, 0.004, 0.008):
        win = violation_window(n=1, gamma=gamma, tau=math.pi, omega=1.0)
        assert win is not None
        widths.append(win.width)
    assert widths[0] > widths[1] > widths[2]


def test_strict_window_is_narrower():
    lenient = violation_window(n=1, gamma=0.004, tau=math.pi, omega=1.0)
    strict = violation_window(n=1, gamma=0.004, tau=math.pi, omega=1.0, criterion="strict")
    assert strict.lo >= lenient.lo
    assert strict.width < lenient.width


def test_window_validation():
    with pytest.raises(ValueError, match="criterion must be one of"):
        violation_window(1, 0.0, math.pi, 1.0, criterion="both")


def test_window_edges_at_the_ends_of_the_grid():
    # only a free tau (not whole drive periods, as the CLI's pi*m/omega is)
    # puts the violation at an end of [0, pi]: from theta = 0 there is no
    # onset to bracket, and a violation still open at pi ends there
    with pytest.raises(ValueError, match="violation extends to theta=0; no onset to bracket"):
        violation_window(1, 0.0, 1.0, 1.0)
    win = violation_window(1, 0.0, 0.55, 1.0)
    assert win.hi == math.pi and win.hi_bracket == (math.pi, math.pi)
    assert win.lo_bracket[0] <= win.lo <= win.lo_bracket[1] < math.pi


@given(
    st.integers(min_value=0, max_value=20),
    st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=2.0)),  # 1: critical at omega 1
    st.sampled_from([0.7, 1.0, 1.3]),
    st.one_of(st.integers(min_value=1, max_value=4), st.floats(min_value=0.05, max_value=8.0)),
)
@settings(max_examples=40, deadline=None)
def test_the_lenient_violation_set_is_one_theta_interval(n, gamma, omega, m):
    # lg = 1 + (G33 c)^(2n+2) + (G33 + G13_33) c is convex in c = cos(theta),
    # so lg < 0 on one interval of c, and of theta in [0, pi]; a window's two
    # bisected edges assume it.  A float m stands for a free spacing.
    tau = math.pi * m / omega if isinstance(m, int) else m
    lg = lg_curve(np.linspace(0.0, math.pi, 2001), n, gamma, tau, omega).lg
    violated = np.flatnonzero(lg < 0.0)
    assert violated.size == 0 or violated[-1] - violated[0] + 1 == violated.size


def test_window_bisection_stops_at_one_float():
    # a width below the float spacing cannot be met; the bisection must stop
    # once the bracket of each theta edge holds two adjacent floats
    def violated(theta):
        return sweeps._margin_curve(np.array([theta]), 1, 0.0, math.pi, 1.0, "lenient")[0] < 0.0

    grid = np.linspace(0.0, math.pi, 101)
    neg = np.flatnonzero([violated(theta) for theta in grid])
    ref = violation_window(1, 0.0, math.pi, 1.0)
    edges = ((neg[0], violated, ref.lo), (neg[-1] + 1, lambda t: not violated(t), ref.hi))
    for k, below, edge in edges:
        mid, (lo, hi) = sweeps._bisect(float(grid[k - 1]), float(grid[k]), 1e-300, below)
        assert np.nextafter(lo, math.inf) == hi
        assert mid == pytest.approx(edge, abs=1e-5)


# ---------------------------------------------------------------------------
# gamma cutoff


def test_gamma_cutoffs_pin_reference_values():
    lenient = gamma_cutoff(n=1, tau=math.pi, omega=1.0, criterion="lenient")
    strict = gamma_cutoff(n=1, tau=math.pi, omega=1.0, criterion="strict")
    assert lenient == pytest.approx(0.011193710193037987, abs=1e-6)
    assert strict == pytest.approx(0.009349830076098442, abs=1e-6)
    assert strict < lenient


def test_gamma_cutoff_brackets_the_window_collapse():
    cut = gamma_cutoff(n=1, tau=math.pi, omega=1.0, criterion="lenient")
    assert violation_window(1, cut * 0.98, math.pi, 1.0) is not None
    assert violation_window(1, cut * 1.02, math.pi, 1.0) is None


def test_gamma_cutoff_validation():
    # tau is checked before the gap rate pi/tau is formed
    for bad in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            gamma_cutoff(1, bad)
    with pytest.raises(ValueError, match="criterion must be one of"):
        gamma_cutoff(1, math.pi, criterion="both")


def test_gamma_cutoff_bisection_stops_at_one_float():
    grid = np.linspace(0.0, math.pi, 201)

    def closed(gamma):
        return not sweeps._margin_curve(grid, 1, gamma, math.pi, 1.0, "lenient").min() < 0.0

    cut, (lo, hi) = sweeps._bisect(0.0, 0.05, 1e-300, closed)
    assert np.nextafter(lo, math.inf) == hi
    assert cut == pytest.approx(sweeps._bisect(0.0, 0.05, 1e-9, closed)[0], abs=1e-8)


def test_gamma_cutoff_undefined_for_the_control():
    with pytest.raises(ValueError, match="no violation at gamma=0"):
        gamma_cutoff(n=0, tau=math.pi, omega=1.0, criterion="lenient")


def test_gamma_cutoff_tries_the_gap_rate_before_it_gives_up(monkeypatch):
    # the doubling bracket stops at the gap rate r = pi/tau: a free tau of
    # 0.05 keeps the window open at every top up to r
    tried = []
    margin_curve = sweeps._margin_curve
    monkeypatch.setattr(
        sweeps,
        "_margin_curve",
        lambda grid, n, gamma, *rest: tried.append(gamma) or margin_curve(grid, n, gamma, *rest),
    )
    r = math.pi / 0.05
    with pytest.raises(ValueError, match="violation window persists at gamma=62.8319;"):
        gamma_cutoff(n=1, tau=0.05)
    assert tried == [0.0, *(0.05 * r * 2**k for k in range(5)), r]
    # a lower first top doubles until the window closes, at 0.016; the cutoff
    # lands within the bisection tolerance of the default search's
    tried.clear()
    monkeypatch.setattr(sweeps, "_CUTOFF_TOP", 0.001)
    cut = gamma_cutoff(n=1, tau=math.pi)
    assert tried[:6] == [0.0, 0.001, 0.002, 0.004, 0.008, 0.016]
    assert len(tried) <= sweeps._CUTOFF_CALLS
    assert f"{cut:.9g}" == "0.0111937099"
    monkeypatch.undo()
    assert cut == pytest.approx(gamma_cutoff(n=1, tau=math.pi), abs=1e-9)


@pytest.mark.parametrize("criterion", ["lenient", "strict"])
def test_the_cutoffs_scale_with_the_drive(criterion):
    # at m = 1 the dynamics depend only on gamma * tau, so each cutoff is the
    # same fraction of the gap rate pi/tau = omega at every drive
    ref = gamma_cutoff(1, math.pi, 1.0, criterion)
    for omega in (1e-5, 0.01, 1.3, 80.0, 120.0):
        cut = gamma_cutoff(1, math.pi / omega, omega, criterion)
        assert cut / omega == pytest.approx(ref, abs=2e-9)


# ---------------------------------------------------------------------------
# the lenient margin skips the battery


def full_curve_margin(thetas, n, gamma, tau, omega, criterion):
    """The margin read off the full ``lg_curve`` (the oracle)."""
    cur = lg_curve(thetas, n, gamma, tau, omega)
    return cur.lg + cur.eps_total if criterion == "strict" else cur.lg


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("omega", [1.0, 0.7])
def test_lenient_margin_equals_the_full_curve(monkeypatch, omega):
    tau = math.pi / omega
    gammas = (0.0, 0.004, 0.011, 0.03)
    grid = np.linspace(0.0, math.pi, 201)
    for n in range(11):
        for gamma in gammas:
            assert np.array_equal(
                sweeps._margin_curve(grid, n, gamma, tau, omega, "lenient"),
                lg_curve(grid, n, gamma, tau, omega).lg,
            )

    def windows_and_cutoffs():
        windows = [violation_window(n, gamma, tau, omega) for n in range(11) for gamma in gammas]
        cutoffs = [outcome(gamma_cutoff, n, tau, omega) for n in range(11)]
        return windows, cutoffs

    monkeypatch.setattr(sweeps, "_WINDOW_THETAS", 401)
    monkeypatch.setattr(sweeps, "_CUTOFF_THETAS", 101)
    windows, cutoffs = windows_and_cutoffs()
    monkeypatch.setattr(sweeps, "_margin_curve", full_curve_margin)
    assert (windows, cutoffs) == windows_and_cutoffs()
    assert any(w is not None for w in windows) and any(w is None for w in windows)
    assert any(isinstance(c, float) for c in cutoffs) and "no violation" in cutoffs[0]


def test_only_the_strict_margin_runs_the_battery(monkeypatch):
    calls = []
    real = _kernels.battery_eps

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(_kernels, "battery_eps", counted)
    monkeypatch.setattr(sweeps, "_WINDOW_THETAS", 101)
    monkeypatch.setattr(sweeps, "_CUTOFF_THETAS", 101)
    violation_window(1, 0.002, math.pi, 1.0)
    gamma_cutoff(1, math.pi)
    assert calls == []
    violation_window(1, 0.002, math.pi, 1.0, criterion="strict")
    gamma_cutoff(1, math.pi, criterion="strict")
    assert len(calls) > 2
