"""Grid sweeps, violation windows, and noise cutoffs."""

import math

import numpy as np
import pytest

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
    SWEEP_COLUMNS,
    gamma_cutoff,
    lg_curve,
    sweep_records,
    violation_window,
)


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
    with pytest.raises(ValueError, match="one dimensional"):
        lg_curve(np.ones((2, 2)), 1, 0.0, math.pi)


def test_sweep_row_order_and_columns():
    thetas = np.array([0.2, 1.4])
    table = sweep_records(thetas, gammas=[0.0, 0.005], ns=[0, 1], tau=math.pi, omega=1.0)
    assert len(table) == 8
    rows = table.records()
    assert len(rows) == 8
    key = [(r.n, r.gamma, r.theta) for r in rows]
    assert key == sorted(key)
    assert set(SWEEP_COLUMNS) == {
        "theta",
        "gamma",
        "n",
        "c12",
        "c23",
        "c13_prime",
        "lg_quantity",
        "eps_total",
        "verdict",
    }


def test_parallel_sweep_matches_serial():
    thetas = np.linspace(0.1, 3.0, 9)
    kwargs = dict(gammas=[0.0, 0.004, 0.009], ns=[1, 2], tau=math.pi, omega=1.0)
    serial = sweep_records(thetas, **kwargs).records()
    parallel = sweep_records(thetas, workers=3, **kwargs).records()
    assert len(serial) == 54
    assert serial == parallel


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "gammas",
    [[0.0, 0.004, 0.009], [0.004, 0.0, 0.004], [0.0, -0.0]],
    ids=["distinct", "repeated", "signed-zero"],
)
def test_the_battery_runs_once_per_gamma(monkeypatch, workers, gammas):
    # eps_total does not depend on n, so every n block of a gamma shares one
    # array; gammas that differ only in the sign of zero each get their own
    thetas = np.linspace(0.0, math.pi, 17)
    calls = []
    real = _kernels.battery_eps

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(_kernels, "battery_eps", counted)
    table = sweep_records(thetas, gammas, [0, 1, 5], math.pi, 1.0, workers=workers)
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


def test_sweep_worker_validation():
    with pytest.raises(ValueError, match="workers"):
        sweep_records(np.array([0.5]), [0.0], [1], math.pi, 1.0, workers=0)


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
    with pytest.raises(ValueError, match="coarse_points"):
        violation_window(1, 0.0, math.pi, 1.0, coarse_points=2)
    for refine in (0.0, -1e-6, math.nan, math.inf):
        with pytest.raises(ValueError, match="refine must be positive and finite"):
            violation_window(1, 0.0, math.pi, 1.0, refine=refine)


def test_window_bisection_stops_at_one_float():
    # a refine below the float spacing cannot be met; the bisection must stop
    # once the bracket holds two adjacent floats
    w = violation_window(1, 0.0, math.pi, 1.0, coarse_points=101, refine=1e-300)
    for lo, hi in (w.lo_bracket, w.hi_bracket):
        assert np.nextafter(lo, math.inf) == hi
    ref = violation_window(1, 0.0, math.pi, 1.0, coarse_points=101)
    assert w.lo == pytest.approx(ref.lo, abs=1e-5)
    assert w.hi == pytest.approx(ref.hi, abs=1e-5)


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
    for name in ("tol", "gamma_hi"):
        for bad in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                gamma_cutoff(n=1, tau=math.pi, **{name: bad})


def test_gamma_cutoff_bisection_stops_at_one_float():
    cut = gamma_cutoff(n=1, tau=math.pi, tol=1e-300, theta_points=201)
    ref = gamma_cutoff(n=1, tau=math.pi, theta_points=201)
    assert cut == pytest.approx(ref, abs=1e-8)


def test_gamma_cutoff_undefined_for_the_control():
    with pytest.raises(ValueError, match="no violation at gamma=0"):
        gamma_cutoff(n=0, tau=math.pi, omega=1.0, criterion="lenient")


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
        windows = [
            violation_window(n, gamma, tau, omega, coarse_points=401)
            for n in range(11)
            for gamma in gammas
        ]
        cutoffs = [outcome(gamma_cutoff, n, tau, omega, theta_points=101) for n in range(11)]
        return windows, cutoffs

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
    violation_window(1, 0.002, math.pi, 1.0, coarse_points=101)
    gamma_cutoff(1, math.pi, theta_points=101)
    assert calls == []
    violation_window(1, 0.002, math.pi, 1.0, criterion="strict", coarse_points=101)
    gamma_cutoff(1, math.pi, criterion="strict", theta_points=101)
    assert len(calls) > 2
