"""Exact enumeration and the Monte Carlo sampler.

The enumeration tests double as an independent check on the fused channel
engine: the two go through completely different code paths (projector
branching on 2x2 matrices versus transfer-matrix algebra on Pauli
coefficients) and must agree to near machine precision.
"""

import dataclasses
import hashlib
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgsim import _kernels, sampling
from lgsim.dynamics import HamiltonianSpec, LindbladSpec
from lgsim.protocol import (
    adroitness_experiments,
    build_protocol_schedule,
    correlator_exact,
    epsilon_adroitness,
    joint_distribution,
    lg_quantity,
)
from lgsim.qubit import ATOL, DensityOperator
from lgsim.sampling import (
    BLOCK_SHOTS,
    EstimateWithError,
    OutcomeTrajectory,
    TrajectoryRecords,
    enumerate_outcomes,
    enumerated_correlator,
    enumerated_joint,
    estimate_adroitness,
    estimate_correlator,
    estimate_joint_distribution,
    sample_battery,
    sample_trajectories,
)

from test_protocol import random_schedules

IDEAL = LindbladSpec(HamiltonianSpec(1.0))
NOISY = LindbladSpec(HamiltonianSpec(1.0), 0.004)
CRITICAL = LindbladSpec(HamiltonianSpec(1.0), 1.0)  # critical damping at omega = 1


def protocol(theta=0.75 * math.pi, n=1, tau=math.pi, spec=NOISY):
    return build_protocol_schedule(theta, n, tau, spec)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_matches_channel_engine():
    sch = protocol()
    tree = enumerate_outcomes(sch)
    i1, i2, i3 = (sch.index_of(t) for t in ("Q1", "Q2", "Q3"))
    assert enumerated_correlator(tree, i1, i2) == pytest.approx(
        correlator_exact(sch, "Q1", "Q2"), abs=1e-12
    )
    assert enumerated_correlator(tree, i2, i3) == pytest.approx(
        correlator_exact(sch, "Q2", "Q3"), abs=1e-12
    )


def test_masked_enumeration_matches_primed_correlator():
    # dropping every event between Q1 and Q3 reproduces the two-point run
    sch = protocol()
    mask = [ev.tag in ("Q1", "Q3") for ev in sch.events]
    tree = enumerate_outcomes(sch, mask=mask)
    assert enumerated_correlator(tree, 0, 1) == pytest.approx(
        correlator_exact(sch, "Q1", "Q3", include_intermediate=False), abs=1e-12
    )
    assert enumerated_joint(tree, 0, 1) == pytest.approx(
        joint_distribution(sch, "Q1", "Q3", include_intermediate=False), abs=1e-12
    )


def test_enumeration_full_lg_quantity():
    sch = protocol(theta=1.9, n=2, spec=IDEAL)
    tree = enumerate_outcomes(sch)
    i1, i2, i3 = (sch.index_of(t) for t in ("Q1", "Q2", "Q3"))
    primed = enumerate_outcomes(sch, mask=[ev.tag in ("Q1", "Q3") for ev in sch.events])
    lg = (
        1.0
        + enumerated_correlator(tree, i1, i2)
        + enumerated_correlator(tree, i2, i3)
        + enumerated_correlator(primed, 0, 1)
    )
    assert lg == pytest.approx(lg_quantity(sch).lg_quantity, abs=1e-12)


def test_enumeration_probabilities():
    tree = enumerate_outcomes(protocol())
    total = sum(t.probability for t in tree)
    assert total == pytest.approx(1.0, abs=1e-10)
    assert all(0.0 <= t.probability <= 1.0 for t in tree)


def test_enumeration_order_is_plus_first_depth_first():
    tree = enumerate_outcomes(protocol(n=0, spec=IDEAL))
    keys = [tuple((1 - s) // 2 for s in t.outcomes) for t in tree]
    assert keys == sorted(keys)
    assert tree[0].outcomes == (1,) * len(tree[0].outcomes)


def test_enumeration_refuses_huge_trees():
    sch = protocol(n=9)  # 22 measurement events
    with pytest.raises(ValueError, match="22 events is refused"):
        enumerate_outcomes(sch)


def test_mask_validation():
    sch = protocol(n=0)
    with pytest.raises(ValueError, match="mask length"):
        enumerate_outcomes(sch, mask=[True, False])
    with pytest.raises(ValueError, match="excludes every event"):
        enumerate_outcomes(sch, mask=[False] * len(sch.events))


def test_outcome_trajectory_validation():
    with pytest.raises(ValueError, match=r"\+1/-1"):
        OutcomeTrajectory((1, 0, -1), 0.5)
    with pytest.raises(ValueError, match="probability"):
        OutcomeTrajectory((1, -1), 1.5)


# ---------------------------------------------------------------------------
# sampling


def test_sampler_is_deterministic_in_the_seed():
    sch = protocol(n=0)
    a = sample_trajectories(sch, 512, seed=11)
    b = sample_trajectories(sch, 512, seed=11)
    c = sample_trajectories(sch, 512, seed=12)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert not np.array_equal(a.outcomes, c.outcomes)


def test_longer_runs_extend_shorter_ones():
    # the stream is drawn in fixed-size blocks keyed by (seed, block), so a
    # longer run reproduces a shorter run's shots as its prefix, including
    # across the block boundary
    sch = adroitness_experiments(0.6, math.pi, NOISY)[0]
    short = sample_trajectories(sch, 1000, seed=3)
    crossing = sample_trajectories(sch, BLOCK_SHOTS + 7, seed=3)
    assert np.array_equal(crossing.outcomes[:1000], short.outcomes)
    exact_block = sample_trajectories(sch, BLOCK_SHOTS, seed=3)
    assert np.array_equal(crossing.outcomes[:BLOCK_SHOTS], exact_block.outcomes)


def test_sampled_frequencies_track_enumeration():
    sch = protocol(spec=IDEAL)
    records = sample_trajectories(sch, 40000, seed=5)
    est = estimate_correlator(records, "Q1", "Q2")
    exact = correlator_exact(sch, "Q1", "Q2")
    assert abs(est.mean - exact) < 5.0 * est.standard_error
    assert est.samples == 40000


def test_seeded_records_are_pinned():
    # digests recorded with the per-shot recurrence sampler: a kernel change
    # that moves a single outcome, in either block, fails here
    spec = LindbladSpec(HamiltonianSpec(1.0), 0.003)
    rho0 = DensityOperator.from_bloch((0.3, -0.2, 0.5))
    sch = build_protocol_schedule(0.7 * math.pi, 2, math.pi, spec, initial_state=rho0)
    primed = [ev.tag in ("Q1", "Q3") for ev in sch.events]
    full = sample_trajectories(sch, BLOCK_SHOTS + 7, seed=17)
    masked = sample_trajectories(sch, BLOCK_SHOTS + 7, seed=17, mask=primed)
    assert full.outcomes.shape == (BLOCK_SHOTS + 7, 8)
    assert masked.outcomes.shape == (BLOCK_SHOTS + 7, 2)
    assert (
        hashlib.sha256(full.outcomes.tobytes()).hexdigest()
        == "a0094b9590180bf7dfb6ea4c511878161273656882a8b83ca623e940eaafa71a"
    )
    assert (
        hashlib.sha256(masked.outcomes.tobytes()).hexdigest()
        == "4c2a2b051b1bc04973ece019756b7c069ab2c770b10b5f465d5363328f424c59"
    )


def sampler_joint(schedule, mask, first="Q1", second="Q3"):
    """The sampler's exact joint law of two tagged events, with no draws.

    After a collapse the outcomes form a two-state Markov chain: event k is
    +1 with the probability its cut-off gives a uniform 64-bit word,
    ``cut / 2**64`` (1 where ``always``), after a +1 / -1 at event k - 1.
    The law is the product of those 2x2 transition matrices.
    """
    included = sampling._resolve_mask(schedule, mask)
    lin, aff, axes, r0 = sampling._compile(schedule, included)
    cut, always = _kernels.word_cutoffs(_kernels.p_plus_table(lin, aff, axes, r0))
    p = np.where(always, 1.0, cut / 2.0**64)
    steps = [np.array([[q[0], 1.0 - q[0]], [q[1], 1.0 - q[1]]]) for q in p]
    tags = [schedule.events[i].tag for i in included]
    a, b = tags.index(first), tags.index(second)
    law = steps[0][0]  # event 0 starts from r0 after either "outcome"
    for step in steps[1 : a + 1]:
        law = law @ step
    table = np.diag(law)
    for step in steps[a + 1 : b + 1]:
        table = table @ step
    return table


@pytest.mark.parametrize("gamma", [0.0, 0.004, 1.0])  # 1.0: critical damping at omega = 1
def test_the_sampler_law_is_the_exact_joint_distribution(gamma):
    spec = LindbladSpec(HamiltonianSpec(1.0), gamma)
    for theta in (0.3, 0.75 * math.pi, 2.9):
        for tau in (math.pi, 2.2):
            for sch in adroitness_experiments(theta, tau, spec):
                for keep in (True, False):
                    got = sampler_joint(sch, (True, keep, True))
                    want = joint_distribution(sch, "Q1", "Q3", include_intermediate=keep)
                    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("gamma", [0.0, 0.004, 1.0])
def test_the_sampler_law_holds_from_a_polarised_state_through_a_box(gamma):
    # the battery starts maximally mixed, so r0 = 0 there; here the chain
    # also runs through the box and the events before the first of the pair
    rho0 = DensityOperator.from_bloch((0.3, -0.2, 0.5))
    spec = LindbladSpec(HamiltonianSpec(1.0), gamma)
    sch = build_protocol_schedule(0.7 * math.pi, 2, 2.2, spec, initial_state=rho0)
    for first, second in (("Q1", "Q2"), ("Q2", "Q3"), ("Q1", "Q3")):
        pair = [ev.tag in (first, second) for ev in sch.events]
        for mask, between in ((None, True), (pair, False)):
            got = sampler_joint(sch, mask, first, second)
            want = joint_distribution(sch, first, second, include_intermediate=between)
            assert np.max(np.abs(got - want)) <= 1e-12


SHOTS = 4000


@given(
    random_schedules(st.floats(0.0, 2.0).map(lambda g: LindbladSpec(HamiltonianSpec(1.0), g))),
    st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_enumeration_and_the_sampler_match_the_walker_on_random_schedules(drawn, seed):
    # kept: every event acts (the sampler, which measures only traceless
    # observables, drops the +/- I events, whose channel is the identity);
    # removed: the pair alone
    for sch in (drawn, dataclasses.replace(drawn, dynamics=CRITICAL)):
        i, j = sch.index_of("Q1"), sch.index_of("Q3")
        traceless = [abs(ev.observable.coefficients[0]) <= ATOL for ev in sch.events]
        pair = [k in (i, j) for k in range(len(sch.events))]
        for between, mask, tree, at in (
            (True, traceless, enumerate_outcomes(sch), (i, j)),
            (False, pair, enumerate_outcomes(sch, mask=pair), (0, 1)),
        ):
            want = joint_distribution(sch, include_intermediate=between)
            for got in (enumerated_joint(tree, *at), sampler_joint(sch, mask)):
                assert np.max(np.abs(got - want)) <= 1e-12
                assert abs(got.sum() - 1.0) <= 1e-12
            assert abs(want.sum() - 1.0) <= 1e-12
            # seeded frequencies within 5 standard errors of the exact law
            freq = estimate_joint_distribution(sample_trajectories(sch, SHOTS, seed, mask=mask))
            se = np.sqrt(np.clip(want, 0.0, 1.0) * np.clip(1.0 - want, 0.0, 1.0) / SHOTS)
            assert np.all(np.abs(freq - want) <= 5.0 * se)


def test_masked_sampling_drops_events():
    sch = adroitness_experiments(0.6, math.pi, NOISY)[0]
    records = sample_trajectories(sch, 64, seed=1, mask=(True, False, True))
    assert records.tags == ("Q1", "Q3")
    assert records.mask == (True, False, True)
    assert records.outcomes.shape == (64, 2)
    assert records.shots == 64


def test_sampler_argument_validation():
    sch = protocol(n=0)
    with pytest.raises(ValueError, match="shots must be"):
        sample_trajectories(sch, 0, seed=1)
    with pytest.raises(ValueError, match="seed must be"):
        sample_trajectories(sch, 10, seed=-1)
    with pytest.raises(ValueError, match="seed must be"):
        sample_trajectories(sch, 10, seed=2**64)


def test_records_are_read_only():
    records = sample_trajectories(protocol(n=0), 16, seed=9)
    with pytest.raises(ValueError):
        records.outcomes[0, 0] = -1


def test_records_validation():
    good = np.ones((4, 2), dtype=np.int8)
    with pytest.raises(ValueError, match="tags/times"):
        TrajectoryRecords(good, ("Q1",), (1.0, 2.0), (True, True), 0)
    with pytest.raises(ValueError, match="mask must include exactly one event"):
        TrajectoryRecords(good, ("Q1", "Q3"), (1.0, 2.0), (False,), 0)
    with pytest.raises(ValueError, match="mask must include exactly one event"):
        TrajectoryRecords(good, ("Q1", "Q3"), (1.0, 2.0), (True, True, True), 0)
    TrajectoryRecords(good, ("Q1", "Q3"), (1.0, 2.0), (True, False, True), 0)
    bad = good.copy()
    bad[0, 0] = 3
    with pytest.raises(ValueError, match=r"\+1/-1"):
        TrajectoryRecords(bad, ("Q1", "Q3"), (1.0, 2.0), (True, True), 0)
    # values that an int8 cast would wrap or truncate onto +1/-1
    for corrupt in ([[257, -1], [1, 255]], [[1.7, -1.2]]):
        with pytest.raises(ValueError, match=r"\+1/-1"):
            TrajectoryRecords(np.array(corrupt), ("Q1", "Q3"), (1.0, 2.0), (True, True), 0)


def test_tag_lookup_requires_exactly_one_column():
    records = sample_trajectories(protocol(n=1), 8, seed=2)
    with pytest.raises(ValueError, match="0 columns tagged"):
        records.column("probe")
    with pytest.raises(ValueError, match="3 columns tagged"):
        records.column("boxed")


# ---------------------------------------------------------------------------
# estimators


def test_standard_error_conventions():
    # a deterministic schedule: theta = 0 makes every observable sz, and a
    # full-period spacing keeps the +z initial state fixed, so all outcomes
    # are +1 and the spread collapses
    sch = build_protocol_schedule(
        0.0, 0, 2.0 * math.pi, IDEAL, initial_state=DensityOperator.from_bloch((0, 0, 1))
    )
    records = sample_trajectories(sch, 100, seed=4)
    est = estimate_correlator(records, "Q1", "Q2")
    assert est.mean == 1.0
    assert est.standard_error == 0.0
    single = sample_trajectories(sch, 1, seed=4)
    assert estimate_correlator(single, "Q1", "Q2").standard_error == 0.0


def test_estimate_with_error_validation():
    with pytest.raises(ValueError, match="samples"):
        EstimateWithError(0.0, 0.0, 0)
    with pytest.raises(ValueError, match="standard error"):
        EstimateWithError(0.0, -0.1, 5)


def test_estimated_joint_sums_to_one():
    records = sample_trajectories(protocol(), 777, seed=6)
    table = estimate_joint_distribution(records, "Q1", "Q3")
    assert table.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(table >= 0.0)


def test_estimate_adroitness_matches_exact():
    sch = adroitness_experiments(math.pi / 4.0, math.pi / 4.0, IDEAL)[0]
    with_probe = sample_trajectories(sch, 50000, seed=21)
    without = sample_trajectories(sch, 50000, seed=22, mask=(True, False, True))
    est = estimate_adroitness(with_probe, without)
    assert est.samples_with == est.samples_without == 50000
    assert est.p_with.sum() == pytest.approx(1.0, abs=1e-15)
    assert est.p_without.sum() == pytest.approx(1.0, abs=1e-15)
    exact = epsilon_adroitness(sch)
    budget = 5.0 * float(est.cell_standard_errors.sum())
    assert abs(est.epsilon - exact) < budget


# ---------------------------------------------------------------------------
# the batched battery sampler against its per-schedule oracle

SEED = st.integers(min_value=0, max_value=2**64 - 1)
CHUNK = sampling._CHUNK_ROWS
DEFAULTS = (CHUNK, BLOCK_SHOTS)  # chunk and block sizes


@st.composite
def battery_runs(draw):
    """A theta grid (with 0, pi and negative values), a gamma (with 0), a
    chunk and block size, and a shot count that crosses their edges: with
    the defaults, shot counts either side of the chunk and the 2**16 block
    edges; with a small chunk, several thetas per compiled slice, several
    short runs per chunk, and (with 16-shot blocks) chunks that end at a
    block edge, or (with a 64-row chunk) runs that share a chunk and cross a
    block edge."""
    edges = st.sampled_from([0.0, math.pi, -math.pi / 3.0])
    thetas = draw(st.lists(st.one_of(edges, st.floats(-7.0, 7.0)), min_size=1, max_size=3))
    gamma = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    chunk = draw(st.sampled_from([4, 12, 64, CHUNK]))
    block = BLOCK_SHOTS
    if chunk == CHUNK:
        shots = draw(st.sampled_from([1, 3, chunk - 1, chunk + 3, BLOCK_SHOTS + 1]))
    else:
        block = draw(st.sampled_from([16, BLOCK_SHOTS]))
        shots = draw(st.integers(1, 3 * chunk))
    seeds = [[[draw(SEED) for _ in range(2)] for _ in range(4)] for _ in thetas]
    return thetas, draw(st.floats(0.2, 3.5)), gamma, (chunk, block), shots, seeds


@given(battery_runs())
@settings(max_examples=20, deadline=None, derandomize=True)
# across the 2**16 block edge: at gamma = 0, theta = 0 and pi give p(+1) = 1
@example(([0.0, math.pi, -1.0], math.pi, 0.0, DEFAULTS, BLOCK_SHOTS + 1, [[[7, 8]] * 4] * 3))
@example(([2.2], 0.9, 0.3, DEFAULTS, 2 * BLOCK_SHOTS + 5, [[[2**64 - 1, 0]] * 4]))
@example(([0.4, 1.1], 2.0, 0.05, (12, 16), 35, [[[3, 4]] * 4] * 2))
# three 20-shot runs share each 64-row chunk, and each crosses a 16-shot block edge
@example(([0.3, 1.7, -2.5], 1.1, 0.2, (64, 16), 20, [[[5, 6]] * 4] * 3))
def test_the_battery_sampler_is_its_per_schedule_runs_bit_for_bit(drawn):
    thetas, tau, gamma, (chunk, block), shots, seeds = drawn
    spec = LindbladSpec(HamiltonianSpec(1.0), gamma)
    # both samplers read the block size, so a small one moves both streams alike
    with mock.patch.object(sampling, "_CHUNK_ROWS", chunk), mock.patch.object(
        sampling, "BLOCK_SHOTS", block
    ):
        got = sample_battery(thetas, tau, spec, shots, seeds)
        want = [
            estimate_adroitness(
                sample_trajectories(sch, shots, seeds[b][e][0]),
                sample_trajectories(sch, shots, seeds[b][e][1], mask=(True, False, True)),
            )
            for b, theta in enumerate(thetas)
            for e, sch in enumerate(adroitness_experiments(theta, tau, spec))
        ]
    assert got.shots == shots
    for field in ("epsilon", "p_with", "p_without", "cell_standard_errors"):
        expected = np.array([getattr(est, field) for est in want], dtype=np.float64)
        assert getattr(got, field).tobytes() == expected.tobytes(), field


def test_the_battery_samplers_memory_does_not_grow_with_the_shots():
    # one chunk of words and its walk, whatever the shots: 2**20 shots (16
    # blocks, 64 chunks a run) peak where 2**17 do, and so, near enough, does
    # a chunk of two short runs, which broadcast their cut-offs over their
    # shots rather than copy them onto each one
    peaks = []
    for shots in (2**17, 2**20, CHUNK // 2):
        tracemalloc.start()
        try:
            sample_battery([0.6], math.pi, NOISY, shots, [[[1, 2]] * 4])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 200_000, peaks
    assert abs(peaks[2] - peaks[0]) < 300_000, peaks


def test_the_samplers_draw_no_os_entropy(monkeypatch):
    # Philox(key=...) seeds a SeedSequence from the OS and then ignores it;
    # the samplers re-key one Philox instead, which gives the same words
    def refuse(size):
        raise AssertionError("OS entropy drawn")

    monkeypatch.setattr(random, "_urandom", refuse)
    with pytest.raises(AssertionError, match="OS entropy"):  # the patch sees numpy's draw
        np.random.Philox(key=np.array([1, 2], dtype=np.uint64))
    sch = adroitness_experiments(0.6, math.pi, NOISY)[0]
    sample_trajectories(sch, BLOCK_SHOTS + 7, seed=3)
    sample_battery([0.6], math.pi, NOISY, BLOCK_SHOTS + 7, [[[1, 2]] * 4])


def test_battery_sampler_argument_validation():
    seeds = [[[1, 2]] * 4]
    with pytest.raises(ValueError, match="shots must be"):
        sample_battery([0.5], math.pi, NOISY, 0, seeds)
    with pytest.raises(ValueError, match=r"seeds must have shape \(1, 4, 2\)"):
        sample_battery([0.5], math.pi, NOISY, 10, [[1, 2]] * 4)
    for bad in (-1, 2**64, 0.5):
        with pytest.raises(ValueError, match="seed must be"):
            sample_battery([0.5], math.pi, NOISY, 10, [[[1, bad]] * 4])
    with pytest.raises(ValueError, match="theta must be finite"):
        sample_battery([math.inf], math.pi, NOISY, 10, seeds)
    with pytest.raises(ValueError, match="tau must be positive"):
        sample_battery([0.5], 0.0, NOISY, 10, seeds)
    # the largest seed beside a small one, exact: np.asarray would make both floats
    top = sample_battery([0.5], math.pi, NOISY, 10, [[[2**64 - 1, 1]] * 4])
    sch = adroitness_experiments(0.5, math.pi, NOISY)[0]
    with_probe = sample_trajectories(sch, 10, 2**64 - 1)
    assert np.array_equal(top.p_with[0, 0], estimate_joint_distribution(with_probe))
