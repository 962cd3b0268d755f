"""Outcome-level views of a schedule: exact enumeration and Monte Carlo.

The enumeration path walks the binary tree of measurement records on
unnormalized 2x2 density matrices, applying Lueders projectors directly.  It
shares no state-update code with the transfer-matrix correlator engine, so
the two can check each other; it is exponential in the number of events and
refuses schedules with more than 20 included measurements.

The Monte Carlo path samples one outcome record per shot.  Conditional
states of this protocol are always fully determined by their Bloch vector,
and a projective two-outcome measurement collapses onto ``+/- q``, so a shot
is a short recurrence: evolve the Bloch vector through the gap (affine map
taken from the propagator's transfer matrix), compute ``p(+1) = (1+q.r)/2``,
compare against a uniform draw, collapse.  Because the collapse leaves only
``+/- q`` behind, ``p(+1)`` at each event takes one of two values fixed by
the previous outcome.  One compile step, ``_cutoffs``, computes both once per
run and turns each into an integer cut-off; both samplers then walk every
shot through that lookup with ``_kernels.outcome_columns``.

Randomness is counter based: shot block ``j`` of a run with seed ``s`` draws
one raw 64-bit word per (shot, event) from a Philox bit generator keyed
``(s, j)``, with a fixed block size of 2**16 shots.  An outcome is +1 when its
word's 53-bit draw ``w >> 11`` lies below the cut-off ``ceil(p(+1) * 2**53)``,
which is exactly when the uniform ``Generator.random()`` would make of that
word, ``(w >> 11) * 2**-53``, lies below ``p(+1)``; no doubles are drawn, and
a certain outcome is the cut-off 2**53.  The stream for any shot therefore
depends only on ``(seed, shot index)``, never on how the work is executed,
and identical ``(schedule, mask, shots, seed)`` inputs give bit-identical
records.  One Philox per run is re-keyed through its state at each block: the
same words as ``Philox(key=(s, j))``, without the OS entropy that
constructor draws and discards.

``sample_trajectories`` samples one schedule into records; it is the
per-schedule entry point and the oracle of ``sample_battery``, which samples
the whole adroitness battery over a theta grid (``lgsim adroitness
--shots``).  The battery sampler compiles every (theta, experiment, probe
kept or removed) run at once, draws each run's words from the stream
``sample_trajectories`` would, and walks ``_CHUNK_ROWS`` shot rows at a
time: as many whole runs as fit side by side, or one longer run alone.  It
holds one chunk of words and keeps only the Q1/Q3 counts, never a record,
so its memory does not grow with the shot count, and its estimates equal
``estimate_adroitness`` on the per-schedule records bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .dynamics import LindbladSpec, lindblad_propagator
from .protocol import _BATTERY_LAYOUT, _PROB_TOL, ExperimentSchedule, _battery_axes
from .qubit import DensityOperator

__all__ = [
    "BLOCK_SHOTS",
    "OutcomeTrajectory",
    "TrajectoryRecords",
    "EstimateWithError",
    "AdroitnessEstimate",
    "BatteryEstimate",
    "enumerate_outcomes",
    "enumerated_correlator",
    "enumerated_joint",
    "sample_trajectories",
    "sample_battery",
    "estimate_correlator",
    "estimate_joint_distribution",
    "estimate_adroitness",
]

BLOCK_SHOTS = 1 << 16
_PRUNE_TOL = 1e-14
_MAX_ENUM_EVENTS = 20
_CHUNK_ROWS = 1 << 13  # shot rows sample_battery walks at once


@dataclass(frozen=True)
class OutcomeTrajectory:
    """One complete measurement record and its exact probability."""

    outcomes: tuple[int, ...]
    probability: float

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.outcomes):
            raise ValueError(f"outcomes must be +1/-1, got {self.outcomes}")
        if not (0.0 <= self.probability <= 1.0 + 1e-12):
            raise ValueError(f"probability out of range: {self.probability}")


@dataclass(frozen=True, eq=False)
class TrajectoryRecords:
    """Sampled outcome records for the included events of one schedule.

    ``outcomes[s, k]`` is the +1/-1 result of the k-th included event in shot
    ``s``; ``tags`` and ``times`` describe the included events in order.
    """

    outcomes: np.ndarray
    tags: tuple[str, ...]
    times: tuple[float, ...]
    mask: tuple[bool, ...]
    seed: int

    def __post_init__(self):
        raw = np.asarray(self.outcomes)
        if raw.ndim != 2 or raw.shape[0] < 1:
            raise ValueError(f"outcomes must be a (shots, events) array, got {raw.shape}")
        if raw.shape[1] != len(self.tags) or len(self.tags) != len(self.times):
            raise ValueError("tags/times must match the outcome columns")
        if sum(bool(b) for b in self.mask) != len(self.tags):
            raise ValueError("mask must include exactly one event per outcome column")
        # check before the int8 cast, which would wrap 257 to 1 and truncate 1.7
        if not np.all((raw == 1) | (raw == -1)):
            raise ValueError("outcomes must be +1/-1")
        arr = np.asarray(raw, dtype=np.int8)
        arr.setflags(write=False)
        object.__setattr__(self, "outcomes", arr)
        object.__setattr__(self, "tags", tuple(self.tags))
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "mask", tuple(bool(b) for b in self.mask))

    @property
    def shots(self) -> int:
        return self.outcomes.shape[0]

    def tag_index(self, tag: str) -> int:
        hits = [k for k, t in enumerate(self.tags) if t == tag]
        if len(hits) != 1:
            raise ValueError(f"records have {len(hits)} columns tagged {tag!r}, need exactly 1")
        return hits[0]

    def column(self, tag: str) -> np.ndarray:
        return self.outcomes[:, self.tag_index(tag)]


@dataclass(frozen=True)
class EstimateWithError:
    """Sample mean with its standard error (sample std / sqrt(samples))."""

    mean: float
    standard_error: float
    samples: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not (self.standard_error >= 0.0 and math.isfinite(self.standard_error)):
            raise ValueError(f"standard error must be >= 0, got {self.standard_error}")


@dataclass(frozen=True, eq=False)
class AdroitnessEstimate:
    """Monte Carlo estimate of one experiment's adroitness.

    ``epsilon`` is the L1 distance between the estimated joint tables with
    and without the probe.  Note the absolute values make this estimator
    biased upward when the true cell differences are near zero, so criterion
    decisions should use the exact battery; this estimate is a cross-check.
    ``cell_standard_errors`` are per-cell binomial SEs of the difference.
    """

    epsilon: float
    p_with: np.ndarray
    p_without: np.ndarray
    cell_standard_errors: np.ndarray
    samples_with: int
    samples_without: int


@dataclass(frozen=True, eq=False)
class BatteryEstimate:
    """Monte Carlo adroitness of the battery over a theta grid (``sample_battery``).

    Entry ``[b, e]`` holds experiment ``e`` at theta ``b``: ``epsilon`` is
    (B, 4), and ``p_with``, ``p_without`` and ``cell_standard_errors`` are
    (B, 4, 2, 2), each as ``AdroitnessEstimate`` defines it.  Both runs of
    every experiment draw ``shots`` shots.
    """

    epsilon: np.ndarray
    p_with: np.ndarray
    p_without: np.ndarray
    cell_standard_errors: np.ndarray
    shots: int


def _resolve_mask(schedule: ExperimentSchedule, mask: Sequence[bool] | None) -> list[int]:
    if mask is None:
        return list(range(len(schedule.events)))
    mask = list(mask)
    if len(mask) != len(schedule.events):
        raise ValueError(
            f"mask length {len(mask)} does not match event count {len(schedule.events)}"
        )
    included = [k for k, keep in enumerate(mask) if keep]
    if not included:
        raise ValueError("mask excludes every event")
    return included


def enumerate_outcomes(
    schedule: ExperimentSchedule, mask: Sequence[bool] | None = None
) -> list[OutcomeTrajectory]:
    """All outcome records of the included events with exact probabilities.

    Branches are explored depth first with the +1 outcome first, so the
    result order is fixed.  Subtrees whose probability falls below 1e-14 are
    pruned.  The surviving probabilities must sum to 1 within 1e-10 or a
    ``ValueError`` is raised.  Schedules with more than 20 included events
    are refused (the tree would have over 2**20 leaves).
    """
    included = _resolve_mask(schedule, mask)
    if len(included) > _MAX_ENUM_EVENTS:
        raise ValueError(
            f"enumeration over {len(included)} events is refused (limit {_MAX_ENUM_EVENTS})"
        )
    spec = schedule.dynamics
    results: list[OutcomeTrajectory] = []

    def walk(pos: int, t: float, rho: np.ndarray, history: tuple[int, ...]) -> None:
        if pos == len(included):
            results.append(OutcomeTrajectory(history, float(np.real(np.trace(rho)))))
            return
        ev = schedule.events[included[pos]]
        if ev.time > t:
            rho = lindblad_propagator(spec, ev.time - t)(rho)
        for s in (1, -1):
            proj = ev.observable.projector(s)
            branch = proj @ rho @ proj
            if float(np.real(np.trace(branch))) < _PRUNE_TOL:
                continue
            walk(pos + 1, ev.time, branch, history + (s,))

    walk(0, 0.0, schedule.initial_state.matrix, ())
    total = sum(tr.probability for tr in results)
    if abs(total - 1.0) > _PROB_TOL:
        raise ValueError(f"enumerated probabilities sum to {total!r}, expected 1")
    return results


def enumerated_correlator(
    trajectories: Sequence[OutcomeTrajectory], a: int, b: int
) -> float:
    """``<s_a s_b>`` over enumerated records (positions index the outcome tuple)."""
    return float(sum(t.probability * t.outcomes[a] * t.outcomes[b] for t in trajectories))


def enumerated_joint(trajectories: Sequence[OutcomeTrajectory], a: int, b: int) -> np.ndarray:
    """Joint table ``P[i, j]`` of positions ``a`` and ``b`` (0 = +1, 1 = -1)."""
    table = np.zeros((2, 2))
    for t in trajectories:
        table[(1 - t.outcomes[a]) // 2, (1 - t.outcomes[b]) // 2] += t.probability
    return table


def _philox() -> np.random.Philox:
    """A Philox for ``_rekey``; a fixed seed spares the OS entropy a keyless one draws."""
    return np.random.Philox(0)


def _rekey(bitgen: np.random.Philox, seed, block: int) -> np.random.Philox:
    """``bitgen`` keyed ``(seed, block)`` at counter 0: the stream of
    ``Philox(key=(seed, block))``, which would draw OS entropy for a seed it
    then ignores."""
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([seed, block], np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bitgen


def _cutoffs(dynamics: LindbladSpec, times, axes, r0) -> np.ndarray:
    """``word_cutoffs`` of runs measured along ``axes`` at ``times``, from ``r0``.

    Gap ``k`` runs from the event before event ``k``, or from time 0, to it.
    ``axes`` is (k, 3), or has leading axes of runs that share ``times`` and
    ``r0`` (see ``_kernels.p_plus_table``).
    """
    lin = np.empty((len(times), 3, 3))
    aff = np.empty((len(times), 3))
    t = 0.0
    for col, time in enumerate(times):
        ptm = np.eye(4) if time == t else lindblad_propagator(dynamics, time - t).ptm
        t = time
        # normalized conditional states have Pauli coefficients (1/2, r/2),
        # so on Bloch vectors the propagator acts as r -> ptm[1:,0] + M r
        lin[col] = ptm[1:, 1:]
        aff[col] = ptm[1:, 0]
    return _kernels.word_cutoffs(_kernels.p_plus_table(lin, aff, axes, r0))


def _compile(schedule: ExperimentSchedule, included: list[int]):
    """The ``_cutoffs`` of the included events, as the sampler walks them."""
    events = [schedule.events[idx] for idx in included]
    axes = np.array([ev.observable.bloch_axis for ev in events])
    times = [ev.time for ev in events]
    return _cutoffs(schedule.dynamics, times, axes, schedule.initial_state.bloch_vector)


def _check_shots(shots) -> int:
    if shots != int(shots) or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots}")
    return int(shots)


def _check_seed(seed) -> int:
    if seed != int(seed) or not (0 <= int(seed) < 2**64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
    return int(seed)


def sample_trajectories(
    schedule: ExperimentSchedule,
    shots: int,
    seed: int,
    mask: Sequence[bool] | None = None,
) -> TrajectoryRecords:
    """Draw ``shots`` outcome records of the included events.

    Every included observable must be traceless (have a measurement axis).
    Excluded events are removed from the run entirely, matching the exact
    engine's primed semantics: one propagator bridges each removed stretch.
    This is the per-schedule sampler and the oracle of ``sample_battery``.
    """
    shots = _check_shots(shots)
    seed = _check_seed(seed)
    included = _resolve_mask(schedule, mask)
    cut = _compile(schedule, included)
    k = len(included)
    out = np.empty((shots, k), dtype=np.int8)
    bitgen = _philox()
    for block, start in enumerate(range(0, shots, BLOCK_SHOTS)):
        size = min(BLOCK_SHOTS, shots - start)
        draws = _rekey(bitgen, seed, block).random_raw(size * k).reshape(size, k)
        draws >>= np.uint64(11)
        for j, pos in enumerate(_kernels.outcome_columns(draws, cut)):
            out[start : start + size, j] = pos
    out *= 2  # 1/0 to +1/-1
    out -= 1
    return TrajectoryRecords(
        outcomes=out,
        tags=tuple(schedule.events[i].tag for i in included),
        times=tuple(schedule.events[i].time for i in included),
        mask=tuple(i in included for i in range(len(schedule.events))),
        seed=seed,
    )


def sample_battery(
    thetas, tau: float, dynamics: LindbladSpec, shots: int, seeds
) -> BatteryEstimate:
    """Monte Carlo adroitness of the four-experiment battery over a theta grid.

    Experiment ``e`` at ``thetas[b]`` is ``adroitness_experiments(thetas[b],
    tau, dynamics)[e]``, sampled for ``shots`` shots with the probe (seed
    ``seeds[b][e][0]``) and without it (mask ``(True, False, True)``, seed
    ``seeds[b][e][1]``).  Entry ``[b, e]`` of the result is what
    ``estimate_adroitness`` gives on those two ``sample_trajectories`` runs,
    bit for bit, but no records are built: the runs are compiled together,
    their shots walked ``_CHUNK_ROWS`` rows at a time, and only the Q1/Q3
    counts kept, so memory does not grow with ``shots``.
    """
    _, times, (z, tilted) = _battery_axes(thetas, tau, dynamics)
    shots = _check_shots(shots)
    size = tilted.shape[0]
    keys = np.asarray(seeds, dtype=object)  # exact for any Python int
    if keys.shape != (size, 4, 2):
        raise ValueError(f"seeds must have shape ({size}, 4, 2), got {keys.shape}")
    keys = np.array([_check_seed(s) for s in keys.flat], dtype=np.uint64).reshape(size, 4, 2)
    pair = np.stack((z, tilted), axis=1)  # (B, 2, 3): the axes that _BATTERY_LAYOUT picks
    r0 = DensityOperator.maximally_mixed().bloch_vector
    counts = np.empty((size, 4, 2, 3), dtype=np.int64)
    step = _CHUNK_ROWS // 4  # thetas compiled at once: _CHUNK_ROWS runs a side
    for side, events in enumerate(((0, 1, 2), (0, 2))):  # with the probe, without it
        layout = np.array(_BATTERY_LAYOUT)[:, events]
        for lo in range(0, size, step):
            axes = pair[lo : lo + step][:, layout]  # (b, 4, events, 3)
            cut = _cutoffs(dynamics, [times[i] for i in events], axes, r0)
            run_keys = keys[lo : lo + step, :, side].ravel()
            found = _count_runs(run_keys, cut.reshape(-1, len(events), 2), shots)
            counts[lo : lo + step, :, side] = found.reshape(-1, 4, 3)
    tables = _joint_table(*np.moveaxis(counts, -1, 0), shots)  # (B, 4, side, 2, 2)
    pw, pn = tables[:, :, 0], tables[:, :, 1]
    epsilon, se = _distance(pw, pn, shots, shots)
    return BatteryEstimate(
        epsilon=epsilon, p_with=pw, p_without=pn, cell_standard_errors=se, shots=shots
    )


def _count_runs(keys: np.ndarray, cut: np.ndarray, shots: int) -> np.ndarray:
    """The +1 counts ``(Q1, Q3, both)`` of runs that share an event count, (R, 3).

    Run ``r`` draws ``shots`` shots from seed ``keys[r]`` and decides them
    by ``cut[r]`` (``word_cutoffs``, (k, 2)); its first and last events are
    Q1 and Q3.  Runs are walked in groups of as many as fit in
    ``_CHUNK_ROWS`` shot rows, at least one: a chunk lays the group's runs
    side by side as (runs, size, k) draws ``w >> 11``, each run's cut-offs
    broadcast over its own shots.  A chunk ends at a ``BLOCK_SHOTS`` edge,
    where each run is re-keyed, so the words are those of
    ``sample_trajectories``; a run longer than a chunk is alone in its
    group, and its Philox continues from chunk to chunk.
    """
    runs, k = cut.shape[:2]
    cut = np.moveaxis(cut, 0, -1)[..., None]  # (k, 2, R, 1): outcome_columns reads [event, side]
    counts = np.empty((runs, 3), dtype=np.int64)
    per = max(1, _CHUNK_ROWS // shots)
    bitgen = _philox()
    for first in range(0, runs, per):
        group = slice(first, min(first + per, runs))
        lone = group.stop - group.start == 1
        c, found = cut[..., group, :], [0, 0, 0]
        shot = 0
        while shot < shots:
            block, offset = divmod(shot, BLOCK_SHOTS)
            size = min(_CHUNK_ROWS, shots - shot, BLOCK_SHOTS - offset)
            words = []
            for key in keys[group]:
                if offset == 0:  # only a lone run's chunk can start inside a block
                    _rekey(bitgen, key, block)
                words.append(bitgen.random_raw(size * k))
            draws = (words[0] if lone else np.concatenate(words)).reshape(-1, size, k)
            draws >>= np.uint64(11)
            q1, *_, q3 = _kernels.outcome_columns(draws, c)
            for col, q in enumerate((q1, q3, q1 & q3)):  # a count without an axis is the fast one
                found[col] += np.count_nonzero(q) if lone else np.count_nonzero(q, axis=-1)
            shot += size
        counts[group] = np.transpose(found)
    return counts


def estimate_correlator(
    records: TrajectoryRecords, first: str = "Q1", second: str = "Q2"
) -> EstimateWithError:
    """Sample correlator of two tagged columns.

    The standard error is the sample standard deviation (ddof=1) of the per-
    shot products divided by sqrt(shots); a single shot gets SE 0.  Constant
    products (all shots agree) also give SE 0.
    """
    prod = records.column(first).astype(np.float64) * records.column(second)
    n = prod.shape[0]
    se = float(prod.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return EstimateWithError(mean=float(prod.mean()), standard_error=se, samples=n)


def estimate_joint_distribution(
    records: TrajectoryRecords, first: str = "Q1", second: str = "Q3"
) -> np.ndarray:
    """Estimated joint table ``P[i, j]`` of two tagged columns (0 = +1, 1 = -1)."""
    a = records.column(first) == 1
    b = records.column(second) == 1
    return _joint_table(*map(np.count_nonzero, (a, b, a & b)), records.shots)


def _joint_table(n1, n3, n13, shots):
    """``P[i, j]`` of two columns of ``shots`` shots with ``n1``, ``n3`` and ``n13``
    +1s in the first, the second and both; array counts give (..., 2, 2)."""
    cells = np.stack((n13, n1 - n13, n3 - n13, shots - n1 - n3 + n13), axis=-1)
    return cells.reshape(cells.shape[:-1] + (2, 2)).astype(np.float64) / shots


def _distance(pw, pn, sw, sn):
    """L1 distance of the (..., 2, 2) tables ``pw`` and ``pn``, and its per-cell binomial SEs."""
    se = np.sqrt(pw * (1.0 - pw) / sw + pn * (1.0 - pn) / sn)
    return np.abs(pw - pn).sum(axis=(-2, -1)), se


def estimate_adroitness(
    with_probe: TrajectoryRecords, without_probe: TrajectoryRecords
) -> AdroitnessEstimate:
    """Adroitness estimate from two sampled runs of the same experiment."""
    pw = estimate_joint_distribution(with_probe, "Q1", "Q3")
    pn = estimate_joint_distribution(without_probe, "Q1", "Q3")
    sw, sn = with_probe.shots, without_probe.shots
    epsilon, se = _distance(pw, pn, sw, sn)
    return AdroitnessEstimate(
        epsilon=float(epsilon),
        p_with=pw,
        p_without=pn,
        cell_standard_errors=se,
        samples_with=sw,
        samples_without=sn,
    )
