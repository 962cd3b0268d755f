"""Schedules, correlators, the boxed protocol, and the probe battery."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgsim import protocol
from lgsim.dynamics import HamiltonianSpec, LindbladSpec
from lgsim.protocol import (
    BATTERY_IDS,
    AdroitnessReport,
    CorrelatorSet,
    ExperimentSchedule,
    MeasurementEvent,
    Verdict,
    adroitness_experiments,
    adroitness_grid,
    adroitness_report,
    build_protocol_schedule,
    classic_lg,
    correlator_exact,
    epsilon_adroitness,
    epsilon_total,
    joint_distribution,
    lg_quantity,
    violation_verdict,
)
from lgsim.qubit import (
    ATOL,
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityOperator,
    Observable,
    pauli,
    sigma_theta,
)

IDEAL = LindbladSpec(HamiltonianSpec(1.0))
NOISY = LindbladSpec(HamiltonianSpec(1.0), 0.002)


def ideal_lg(theta, n):
    return 1.0 + math.cos(theta) ** (2 * n + 2) + 2.0 * math.cos(theta)


# ---------------------------------------------------------------------------
# reference: the scalar event walker the exact engine used before its walk
# carried rows.  It steps one coefficient vector at a time with 1-D ``g @ x``
# and walks each first outcome separately, so the row-wise walker in
# ``protocol`` is checked against code that shares none of its steps.


def reference_walk(schedule, x, start, stop, between):
    events = schedule.events
    t = events[start].time if start >= 0 else 0.0
    for ev in events[start + 1 : stop] if between else ():
        if ev.time != t:
            x = protocol.lindblad_propagator(schedule.dynamics, ev.time - t).ptm @ x
        t = ev.time
        x = reference_measured(ev.observable.coefficients, x)
    if events[stop].time != t:
        x = protocol.lindblad_propagator(schedule.dynamics, events[stop].time - t).ptm @ x
    return x


def reference_measured(q, x):
    if abs(abs(q[0]) - 1.0) <= ATOL:
        return x
    out = x.copy()
    proj = q[1] * x[1] + q[2] * x[2] + q[3] * x[3]
    out[1] = proj * q[1]
    out[2] = proj * q[2]
    out[3] = proj * q[3]
    return out


def reference_joint(schedule, first, second, between):
    i, j = schedule.index_of(first), schedule.index_of(second)
    x = reference_walk(schedule, schedule.initial_state.coefficients, -1, i, between)
    q1 = schedule.events[i].observable.bloch_axis
    q2 = schedule.events[j].observable.bloch_axis
    table = np.empty((2, 2))
    for row, s1 in enumerate((1.0, -1.0)):
        amp = x[0] + s1 * (q1 @ x[1:])
        w = np.empty(4)
        w[0] = 0.5 * amp
        w[1:] = 0.5 * s1 * amp * q1
        w = reference_walk(schedule, w, i, j, between)
        for col, s3 in enumerate((1.0, -1.0)):
            table[row, col] = w[0] + s3 * (q2 @ w[1:])
    return table


def reference_correlator(schedule, first, second, between):
    i, j = schedule.index_of(first), schedule.index_of(second)
    x = reference_walk(schedule, schedule.initial_state.coefficients, -1, i, between)
    y = protocol._half_anticommutator(schedule.events[i].observable.coefficients, x)
    y = reference_walk(schedule, y, i, j, between)
    return float(2.0 * (schedule.events[j].observable.coefficients @ y))


def reference_epsilon(schedule):
    kept = reference_joint(schedule, "Q1", "Q3", True)
    removed = reference_joint(schedule, "Q1", "Q3", False)
    return float(np.abs(kept - removed).sum())


def dense_propagators(rng):
    """Stand-in for ``lindblad_propagator``: one dense affine contraction of
    the Bloch ball per gap length.  The dephasing propagators have two
    nonzero terms per row, which no summation order can change; here every
    matvec term counts."""
    maps = {}

    def propagator(spec, t):
        if t not in maps:
            ptm = np.eye(4)
            ptm[1:, 1:] = rng.normal(size=(3, 3))
            ptm[1:, 1:] *= 0.6 / np.linalg.norm(ptm[1:, 1:], 2)
            ptm[1:, 0] = rng.normal(size=3)
            ptm[1:, 0] *= 0.4 * rng.random() / np.linalg.norm(ptm[1:, 0])
            maps[t] = types.SimpleNamespace(ptm=ptm)
        return maps[t]

    return propagator


# ---------------------------------------------------------------------------
# schedule construction


def test_protocol_schedule_layout():
    sch = build_protocol_schedule(0.7, 2, 1.5, IDEAL)
    times = [ev.time for ev in sch.events]
    tags = [ev.tag for ev in sch.events]
    assert times == [1.5 * k for k in range(1, 9)]
    assert tags == ["Q1", "boxed", "boxed", "boxed", "boxed", "boxed", "Q2", "Q3"]
    # box alternates sz / tilted, starting and ending with sz
    axes = [ev.observable.bloch_axis for ev in sch.events[1:6]]
    for k, ax in enumerate(axes):
        if k % 2 == 0:
            assert np.allclose(ax, [0, 0, 1])
        else:
            assert np.allclose(ax, [math.sin(0.7), 0, math.cos(0.7)])


def test_schedule_validation():
    qz = pauli("z")
    ev = MeasurementEvent(1.0, qz, "Q1")
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentSchedule(
            (ev, MeasurementEvent(1.0, qz, "Q3")), IDEAL, DensityOperator.maximally_mixed()
        )
    with pytest.raises(ValueError, match="tag"):
        MeasurementEvent(1.0, qz, "Q5")
    with pytest.raises(ValueError, match="time"):
        MeasurementEvent(-1.0, qz, "Q1")
    with pytest.raises(ValueError, match="n must be"):
        build_protocol_schedule(0.5, -1, 1.0, IDEAL)
    with pytest.raises(ValueError, match="tau"):
        build_protocol_schedule(0.5, 1, 0.0, IDEAL)


def test_index_of_requires_unique_tag():
    sch = build_protocol_schedule(0.7, 1, 1.0, IDEAL)
    assert sch.index_of("Q2") == 4
    with pytest.raises(ValueError, match="3 events"):
        sch.index_of("boxed")


# ---------------------------------------------------------------------------
# ideal closed form


@pytest.mark.parametrize("n", [0, 1, 2, 5])
@pytest.mark.parametrize("theta", [0.1, 0.7, 1.9, 0.75 * math.pi, 3.0])
def test_ideal_closed_form(n, theta):
    sch = build_protocol_schedule(theta, n, math.pi, IDEAL)
    assert lg_quantity(sch).lg_quantity == pytest.approx(ideal_lg(theta, n), abs=1e-12)


def test_lg_quantity_matches_correlator_exact():
    sch = build_protocol_schedule(2.1, 2, math.pi, NOISY)
    cs = lg_quantity(sch)
    assert cs.c12 == pytest.approx(correlator_exact(sch, "Q1", "Q2"), abs=1e-14)
    assert cs.c23 == pytest.approx(correlator_exact(sch, "Q2", "Q3"), abs=1e-14)
    assert cs.c13_prime == pytest.approx(
        correlator_exact(sch, "Q1", "Q3", include_intermediate=False), abs=1e-14
    )


def test_exact_walks_are_pinned():
    # float.hex of the values the event walkers gave before they shared one
    # propagate-then-measure helper: a noisy n = 2 box, omega != 1, tau != pi
    spec = LindbladSpec(HamiltonianSpec(1.3), 0.003)
    sch = build_protocol_schedule(0.7, 2, 0.9 * math.pi, spec)
    cs = lg_quantity(sch)
    assert [v.hex() for v in (cs.c12, cs.c23, cs.c13_prime)] == [
        "0x1.2fdfa26649bf0p-9",
        "0x1.74883cc58c1b0p-2",
        "0x1.019cb77fb1b47p-2",
    ]
    same, cross = "0x1.00374655ddba2p-2", "0x1.ff917354448bcp-3"
    kept = joint_distribution(sch).ravel().tolist()
    assert [v.hex() for v in kept] == [same, cross, cross, same]
    same, cross = 0.3128935974046786, 0.1871064025953214
    removed = joint_distribution(sch, include_intermediate=False).ravel().tolist()
    assert removed == [same, cross, cross, same]


def test_n_zero_is_a_nonviolating_control():
    for theta in np.linspace(0.0, math.pi, 101):
        sch = build_protocol_schedule(theta, 0, math.pi, IDEAL)
        lg = lg_quantity(sch).lg_quantity
        assert lg == pytest.approx((1.0 + math.cos(theta)) ** 2, abs=1e-12)
        assert lg >= -1e-12


def test_violation_exists_for_n_one():
    sch = build_protocol_schedule(0.8 * math.pi, 1, math.pi, IDEAL)
    assert lg_quantity(sch).lg_quantity < -0.15


def test_classic_three_time_test():
    cs = classic_lg()
    assert cs.lg_quantity == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-12)
    assert cs.c12 == pytest.approx(-math.sqrt(2.0) / 2.0, abs=1e-12)
    assert cs.c23 == pytest.approx(-math.sqrt(2.0) / 2.0, abs=1e-12)
    assert cs.c13_prime == pytest.approx(0.0, abs=1e-12)
    # omega only rescales time, not the result
    assert classic_lg(3.0).lg_quantity == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-12)


# ---------------------------------------------------------------------------
# joint distributions


def test_joint_distribution_is_normalized():
    sch = build_protocol_schedule(1.3, 1, 1.0, NOISY)
    table = joint_distribution(sch, "Q1", "Q3")
    assert table.shape == (2, 2)
    assert table.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(table >= -1e-12)


def test_joint_distribution_reproduces_correlator():
    sch = build_protocol_schedule(1.3, 1, 1.0, NOISY)
    for pair, inter in ((("Q1", "Q2"), True), (("Q1", "Q3"), False)):
        table = joint_distribution(sch, *pair, include_intermediate=inter)
        from_table = table[0, 0] - table[0, 1] - table[1, 0] + table[1, 1]
        assert from_table == pytest.approx(
            correlator_exact(sch, *pair, include_intermediate=inter), abs=1e-12
        )


def test_joint_distribution_ordering_check():
    sch = build_protocol_schedule(1.3, 1, 1.0, IDEAL)
    with pytest.raises(ValueError, match="before"):
        joint_distribution(sch, "Q3", "Q1")


# ---------------------------------------------------------------------------
# adroitness battery


def test_battery_layout():
    exps = adroitness_experiments(0.9, 1.2, IDEAL)
    assert len(exps) == 4
    z, t = [0, 0, 1], [math.sin(0.9), 0, math.cos(0.9)]
    expected = [(t, t, z), (t, z, z), (z, z, t), (z, t, t)]
    for sch, (q1, qp, q3) in zip(exps, expected):
        assert [ev.tag for ev in sch.events] == ["Q1", "probe", "Q3"]
        assert [ev.time for ev in sch.events] == pytest.approx([1.2, 2.4, 3.6])
        assert np.allclose(sch.events[0].observable.bloch_axis, q1)
        assert np.allclose(sch.events[1].observable.bloch_axis, qp)
        assert np.allclose(sch.events[2].observable.bloch_axis, q3)


def test_ideal_battery_is_perfectly_adroit():
    # QND spacing: every epsilon vanishes identically at gamma = 0
    for m in (1, 2, 3):
        for theta in (0.3, 1.1, 2.5):
            for sch in adroitness_experiments(theta, math.pi * m, IDEAL):
                assert epsilon_adroitness(sch) <= 1e-12


def test_battery_off_qnd_timing():
    # quarter-period spacing at theta = pi/4 disturbs every experiment by
    # exactly sqrt(2)/2 in the ideal dynamics
    for sch in adroitness_experiments(math.pi / 4.0, math.pi / 4.0, IDEAL):
        assert epsilon_adroitness(sch) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)


def test_noisy_battery_regression():
    # frozen reference values at theta = 0.75*pi, tau = pi, gamma = 0.002:
    # the tilted-first experiments (a, d) pick up a first-order back-action,
    # the z-first ones (b, c) only a tiny second-order one
    rep = adroitness_report(0.75 * math.pi, math.pi, NOISY)
    eps = dict(rep.entries)
    assert rep.epsilon_total == pytest.approx(0.008610989753189469, abs=1e-15)
    assert eps["a"] == pytest.approx(0.004305494767703644, abs=1e-13)
    assert eps["d"] == pytest.approx(0.004305494767703644, abs=1e-13)
    assert eps["b"] == pytest.approx(1.0889106283329397e-10, rel=1e-6)
    assert eps["c"] == pytest.approx(1.0889106283329397e-10, rel=1e-6)
    assert epsilon_total(0.75 * math.pi, math.pi, NOISY) == pytest.approx(
        rep.epsilon_total, abs=1e-16
    )


def test_battery_vanishes_on_the_rotation_axis():
    # theta = pi/2 aligns the tilted observable with the drive axis; every
    # conditional state is then stationary up to global dephasing symmetry
    rep = adroitness_report(math.pi / 2.0, math.pi, NOISY)
    assert rep.epsilon_total <= 1e-12


def test_epsilon_requires_probe_tag():
    sch = build_protocol_schedule(0.7, 1, 1.0, IDEAL)
    with pytest.raises(ValueError, match="probe"):
        epsilon_adroitness(sch)


def test_adroitness_report_fields():
    rep = adroitness_report(0.4, math.pi, NOISY)
    assert [eid for eid, _ in rep.entries] == ["a", "b", "c", "d"]
    assert rep.gamma == 0.002
    assert rep.omega == 1.0
    assert rep.epsilon_total == pytest.approx(sum(e for _, e in rep.entries))
    with pytest.raises(ValueError, match="epsilon"):
        AdroitnessReport(0.4, math.pi, 0.002, 1.0, entries=(("a", -0.1),))
    with pytest.raises(ValueError, match="epsilon"):
        AdroitnessReport(0.4, math.pi, 0.002, 1.0, entries=(("a", 2.5),))


def test_grid_validation():
    with pytest.raises(ValueError, match="one dimensional"):
        adroitness_grid(np.ones((2, 2)), math.pi, NOISY)
    with pytest.raises(ValueError, match="theta must be finite"):
        adroitness_grid([0.5, math.nan], math.pi, NOISY)
    with pytest.raises(ValueError, match="tau must be positive"):
        adroitness_grid([0.5], 0.0, NOISY)
    with pytest.raises(ValueError, match="event time must be nonnegative and finite, got inf"):
        adroitness_grid([0.5], 1e308, NOISY)
    with pytest.raises(ValueError, match="LindbladSpec"):
        adroitness_grid([0.5], math.pi, 0.002)
    assert adroitness_grid([], math.pi, NOISY).shape == (0, 4)


def scalar_battery_error(thetas, tau, spec):
    """The error the per-schedule walk raises first on this grid, or None."""
    for theta in thetas:
        try:
            eps = [epsilon_adroitness(s) for s in adroitness_experiments(theta, tau, spec)]
            AdroitnessReport(theta, tau, spec.gamma, 1.0, tuple(zip(BATTERY_IDS, eps)))
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize(
    ("bloch_scale", "fragment"),
    [
        # identity row scaled: not trace preserving, so no joint table sums to 1
        ((1.05, 1.05, 1.05, 1.05), "joint distribution sums to"),
        # Bloch part stretched: trace preserving, but tables go negative and
        # some epsilons leave [0, 2]
        ((1.0, 3.0, 3.0, 3.0), "epsilon for experiment 'a' must lie in"),
    ],
)
def test_corrupt_propagators_are_refused(monkeypatch, capsys, bloch_scale, fragment):
    from lgsim.cli import main

    real = protocol.lindblad_propagator
    monkeypatch.setattr(
        protocol,
        "lindblad_propagator",
        lambda spec, t: types.SimpleNamespace(ptm=np.diag(bloch_scale) @ real(spec, t).ptm),
    )
    thetas = [1.0, 0.3, 2.0]
    expected = scalar_battery_error(thetas, 1.0, NOISY)
    assert fragment in expected
    with pytest.raises(ValueError) as exc:
        adroitness_grid(thetas, 1.0, NOISY)
    assert str(exc.value) == expected  # same check, same first failing cell
    with pytest.raises(ValueError) as exc:
        adroitness_report(0.3, 1.0, NOISY)
    assert str(exc.value) == scalar_battery_error([0.3], 1.0, NOISY)

    argv = ["adroitness", "--theta", "0:3:7", "--gamma", "0.002:0.002:1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    cli_thetas = np.linspace(0.0, 3.0, 7).tolist()
    assert err == f"lgsim: error: {scalar_battery_error(cli_thetas, math.pi, NOISY)}\n"


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=5),
    st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=30, deadline=None)
def test_grid_matches_the_walker_on_dense_maps(seed, thetas, tau):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "lindblad_propagator", dense_propagators(np.random.default_rng(seed)))
        grid = adroitness_grid(thetas, tau, NOISY)
        for b, theta in enumerate(thetas):
            exact = [reference_epsilon(s) for s in adroitness_experiments(theta, tau, NOISY)]
            assert grid[b].tolist() == exact


@st.composite
def random_schedules(draw):
    """2-8 events at strictly increasing times (the first may sit at 0), axes
    anywhere on the sphere, +/- I events between the tagged pair, and a
    random input state.  The pair is tagged Q1 and Q3."""
    size = draw(st.integers(min_value=2, max_value=8))
    i, j = sorted(draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True)))
    t = draw(st.sampled_from([0.0, 0.3]))
    angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi)
    events = []
    for k in range(size):
        trivial = k not in (i, j) and draw(st.integers(0, 3)) == 0
        if trivial:
            obs = Observable(draw(st.sampled_from([1.0, -1.0])) * IDENTITY)
        else:
            polar, azimuth = draw(angles), draw(angles)
            axis = (math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth))
            obs = Observable(axis[0] * SIGMA_X + axis[1] * SIGMA_Y + math.cos(polar) * SIGMA_Z)
        tag = "Q1" if k == i else "Q3" if k == j else "boxed"
        events.append(MeasurementEvent(t, obs, tag))
        t += draw(st.floats(min_value=0.05, max_value=3.0))
    r = np.array([draw(st.floats(min_value=-1.0, max_value=1.0)) for _ in range(3)])
    r *= draw(st.floats(min_value=0.0, max_value=1.0)) / max(1.0, float(np.linalg.norm(r)))
    return ExperimentSchedule(tuple(events), NOISY, DensityOperator.from_bloch(r))


@given(random_schedules(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_schedules_match_the_scalar_walker(sch, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "lindblad_propagator", dense_propagators(np.random.default_rng(seed)))
        for between in (True, False):
            c = correlator_exact(sch, "Q1", "Q3", include_intermediate=between)
            assert c == reference_correlator(sch, "Q1", "Q3", between)
            table = joint_distribution(sch, "Q1", "Q3", include_intermediate=between)
            assert table.tolist() == reference_joint(sch, "Q1", "Q3", between).tolist()


# ---------------------------------------------------------------------------
# verdicts


def test_violation_verdict_thresholds():
    assert violation_verdict(0.0, 0.1) is Verdict.NO_VIOLATION
    assert violation_verdict(-0.05, 0.1) is Verdict.VIOLATES_LENIENT
    assert violation_verdict(-0.2, 0.1) is Verdict.VIOLATES_STRICT
    with pytest.raises(ValueError):
        violation_verdict(math.nan, 0.1)
    with pytest.raises(ValueError):
        violation_verdict(0.0, -0.1)


def test_strict_implies_lenient():
    # ordering invariant: anything below -eps_total is also below 0
    for lg in np.linspace(-2.0, 2.0, 41):
        for eps in (0.0, 0.05, 0.5):
            v = violation_verdict(float(lg), eps)
            if v is Verdict.VIOLATES_STRICT:
                assert lg < 0.0


def test_correlator_set_validation():
    cs = CorrelatorSet(c12=0.25, c23=-0.5, c13_prime=-0.5)
    assert cs.lg_quantity == pytest.approx(0.25)
    with pytest.raises(ValueError, match="c12"):
        CorrelatorSet(c12=1.5, c23=0.0, c13_prime=0.0)
    with pytest.raises(ValueError, match="c23"):
        CorrelatorSet(c12=0.0, c23=math.inf, c13_prime=0.0)
