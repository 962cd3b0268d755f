"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Every criterion prints its verdict before asserting, so a failure
still leaves the full scoreboard on screen.  Runtime budgets are part of the
assertions; the warmup below keeps one-off first-call costs out of the timed
regions.
"""

import math
import time

import numpy as np
import pytest

from lgsim.dynamics import (
    HamiltonianSpec,
    LindbladSpec,
    lindblad_propagator,
    unitary_propagator,
)
from lgsim.protocol import (
    adroitness_experiments,
    adroitness_report,
    build_protocol_schedule,
    classic_lg,
    epsilon_adroitness,
    lg_quantity,
)
from lgsim.sampling import (
    enumerate_outcomes,
    enumerated_correlator,
    enumerated_joint,
    estimate_correlator,
    sample_trajectories,
)
from lgsim.sweeps import gamma_cutoff, lg_curve, violation_window
from oracles import compose, dephase_theta

IDEAL = LindbladSpec(HamiltonianSpec(1.0))


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    # one-off first-call costs must not count against the runtime budgets
    lg_curve(np.array([0.5]), 1, 0.001, math.pi)
    sample_trajectories(build_protocol_schedule(0.5, 0, math.pi, IDEAL), 2, seed=0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    thetas = rng.uniform(0.0, 2.0 * math.pi, 200)
    worst = 0.0
    for n in range(1, 11):
        lg = lg_curve(thetas, n, 0.0, math.pi).lg
        ideal = 1.0 + np.cos(thetas) ** (2 * (n + 1)) + 2.0 * np.cos(thetas)
        worst = max(worst, float(np.max(np.abs(lg - ideal))))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 1.0
    _report(1, ok, f"max closed-form deviation {worst:.3e} over n=1..10, 200 thetas ({dt:.2f}s)")


def test_criterion_2_violation_window_n1():
    t0 = time.perf_counter()
    win = violation_window(n=1, gamma=0.0, tau=math.pi, omega=1.0)
    onset_err = abs(win.lo / math.pi - 0.683)
    grid = np.linspace(0.0, math.pi, 201)
    lg = lg_curve(grid, 1, 0.0, math.pi).lg
    inside = (grid > win.lo + 1e-9) & (grid < math.pi - 1e-12)
    persists = bool(np.all(lg[inside] < 0.0))
    at_pi = float(lg_curve(np.array([math.pi]), 1, 0.0, math.pi).lg[0])
    dt = time.perf_counter() - t0
    ok = onset_err <= 1e-3 and persists and abs(at_pi) <= 1e-12 and dt < 1.0
    _report(
        2,
        ok,
        f"onset {win.lo / math.pi:.6f}pi (|err| {onset_err:.1e}pi), "
        f"violation persists to pi, lg(pi)={at_pi:.1e} ({dt:.2f}s)",
    )


def test_criterion_3_large_n_limit():
    t0 = time.perf_counter()
    onsets = {}
    for n in (1, 2, 4, 8, 16, 32, 50):
        onsets[n] = violation_window(n=n, gamma=0.0, tau=math.pi, omega=1.0).lo
    seq = [onsets[n] for n in (1, 2, 4, 8, 16, 32, 50)]
    monotone = all(b <= a + 1e-9 for a, b in zip(seq, seq[1:]))
    limit_err = abs(onsets[50] - 2.0 * math.pi / 3.0)
    dt = time.perf_counter() - t0
    ok = monotone and limit_err <= 1e-2 * math.pi and dt < 5.0
    _report(
        3,
        ok,
        f"onset(n=50)={onsets[50] / math.pi:.6f}pi (|err from 2/3| {limit_err / math.pi:.2e}pi), "
        f"non-increasing over n ({dt:.2f}s)",
    )


def test_criterion_4_classic_test():
    t0 = time.perf_counter()
    lg = classic_lg().lg_quantity
    err = abs(lg - (1.0 - math.sqrt(2.0)))
    dt = time.perf_counter() - t0
    ok = err < 1e-12 and dt < 1.0
    _report(4, ok, f"classic lg={lg:.15f}, |err from 1-sqrt(2)|={err:.1e} ({dt:.2f}s)")


def test_criterion_5_ideal_adroitness():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (1, 2, 3):
        for theta in np.linspace(0.05, math.pi - 0.05, 25):
            rep = adroitness_report(float(theta), math.pi * m, IDEAL)
            worst = max(worst, max(e for _, e in rep.entries))
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and dt < 1.0
    _report(5, ok, f"max battery epsilon {worst:.3e} at gamma=0, m in 1..3 ({dt:.2f}s)")


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(50):
        theta = float(rng.uniform(0.02, math.pi - 0.02))
        n = int(rng.integers(0, 4))
        gamma = float(rng.uniform(0.0, 0.02))
        tau = math.pi * float(rng.integers(1, 3))
        spec = LindbladSpec(HamiltonianSpec(1.0), gamma)

        sch = build_protocol_schedule(theta, n, tau, spec)
        cs = lg_quantity(sch)
        tree = enumerate_outcomes(sch)
        i1, i2, i3 = (sch.index_of(t) for t in ("Q1", "Q2", "Q3"))
        primed = enumerate_outcomes(sch, mask=[ev.tag in ("Q1", "Q3") for ev in sch.events])
        worst = max(
            worst,
            abs(cs.c12 - enumerated_correlator(tree, i1, i2)),
            abs(cs.c23 - enumerated_correlator(tree, i2, i3)),
            abs(cs.c13_prime - enumerated_correlator(primed, 0, 1)),
        )

        for exp in adroitness_experiments(theta, tau, spec):
            with_probe = enumerated_joint(enumerate_outcomes(exp), 0, 2)
            skipped = enumerate_outcomes(exp, mask=(True, False, True))
            eps_enum = float(np.abs(with_probe - enumerated_joint(skipped, 0, 1)).sum())
            worst = max(worst, abs(epsilon_adroitness(exp) - eps_enum))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 30.0
    _report(6, ok, f"max |channel - enumeration| {worst:.3e} over 50 configs ({dt:.2f}s)")


def test_criterion_7_monte_carlo_consistency():
    t0 = time.perf_counter()
    sch = build_protocol_schedule(0.75 * math.pi, 1, math.pi, IDEAL)
    cs = lg_quantity(sch)
    exact = {"c12": cs.c12, "c23": cs.c23, "c13": cs.c13_prime}
    primed_mask = [ev.tag in ("Q1", "Q3") for ev in sch.events]
    hits = {"c12": 0, "c23": 0, "c13": 0}
    shots = 1_000_000
    for seed in range(700, 720):
        rec = sample_trajectories(sch, shots, seed=seed)
        primed = sample_trajectories(sch, shots, seed=seed + 1000, mask=primed_mask)
        for key, est in (
            ("c12", estimate_correlator(rec, "Q1", "Q2")),
            ("c23", estimate_correlator(rec, "Q2", "Q3")),
            ("c13", estimate_correlator(primed, "Q1", "Q3")),
        ):
            if abs(est.mean - exact[key]) <= 5.0 * est.standard_error:
                hits[key] += 1
    dt = time.perf_counter() - t0
    ok = all(h >= 19 for h in hits.values()) and dt < 120.0
    _report(
        7,
        ok,
        f"within 5 SE in {hits['c12']}/20, {hits['c23']}/20, {hits['c13']}/20 seeds "
        f"(c12, c23, c13'; 1e6 shots each) ({dt:.1f}s)",
    )


def test_criterion_8_dephasing_thresholds():
    t0 = time.perf_counter()
    lenient = gamma_cutoff(n=1, tau=math.pi, omega=1.0, criterion="lenient")
    strict = gamma_cutoff(n=1, tau=math.pi, omega=1.0, criterion="strict")
    widths = []
    for gamma in (0.0, 0.003, 0.006, 0.009):
        widths.append(violation_window(1, gamma, math.pi, 1.0).width)
    shrinking = all(b < a for a, b in zip(widths, widths[1:]))
    in_band = 0.5 * 0.012 <= lenient <= 1.5 * 0.012 and 0.5 * 0.007 <= strict <= 1.5 * 0.007
    dt = time.perf_counter() - t0
    ok = (
        math.isfinite(lenient)
        and math.isfinite(strict)
        and strict <= lenient
        and shrinking
        and in_band
        and dt < 60.0
    )
    _report(
        8,
        ok,
        f"cutoffs lenient={lenient:.6f}, strict={strict:.6f} (bands 0.012/0.007 +-50%), "
        f"window shrinks with gamma ({dt:.1f}s)",
    )


def test_criterion_9_negative_control():
    t0 = time.perf_counter()
    grid = np.linspace(0.0, math.pi, 10_000)
    lg = lg_curve(grid, 0, 0.0, math.pi).lg
    low = float(lg.min())
    dt = time.perf_counter() - t0
    ok = low >= -1e-12 and dt < 5.0
    _report(9, ok, f"min lg over 1e4-point n=0 grid is {low:.3e} >= -1e-12 ({dt:.2f}s)")


def test_criterion_10_channel_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    worst_tp = worst_cp = worst_unital = worst_semigroup = worst_reduction = 0.0
    for _ in range(500):
        omega = float(rng.uniform(0.2, 3.0))
        gamma = float(rng.uniform(0.0, 0.05))
        t1 = float(rng.uniform(0.0, 4.0))
        t2 = float(rng.uniform(0.0, 4.0))
        half = bool(rng.integers(0, 2))
        spec = LindbladSpec(HamiltonianSpec(omega, half=half), gamma)

        ch = lindblad_propagator(spec, t1)
        worst_tp = max(worst_tp, float(np.max(np.abs(ch.ptm[0] - e0))))
        choi_min = float(np.linalg.eigvalsh(ch.choi_matrix()).min())
        worst_cp = max(worst_cp, max(0.0, -choi_min))

        deph = dephase_theta(float(rng.uniform(0.0, math.pi)))
        worst_unital = max(worst_unital, float(np.max(np.abs(deph.ptm[:, 0] - e0))))

        combined = compose(ch, lindblad_propagator(spec, t2))
        direct = lindblad_propagator(spec, t1 + t2)
        worst_semigroup = max(worst_semigroup, float(np.max(np.abs(combined.ptm - direct.ptm))))

        free = LindbladSpec(HamiltonianSpec(omega, half=half), 0.0)
        drift = lindblad_propagator(free, t1).ptm - unitary_propagator(free.hamiltonian, t1).ptm
        worst_reduction = max(worst_reduction, float(np.max(np.abs(drift))))
    dt = time.perf_counter() - t0
    ok = (
        worst_tp < 1e-12
        and worst_cp < 1e-10
        and worst_unital < 1e-12
        and worst_semigroup < 1e-9
        and worst_reduction == 0.0
        and dt < 10.0
    )
    _report(
        10,
        ok,
        f"TP {worst_tp:.1e}, CP {worst_cp:.1e}, unital {worst_unital:.1e}, "
        f"semigroup {worst_semigroup:.1e}, gamma=0 reduction exact, 500 draws ({dt:.1f}s)",
    )
