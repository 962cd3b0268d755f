"""Measurement schedules, exact correlators, and the adroitness battery.

A schedule is a list of timed two-outcome measurements on one driven qubit.
Correlators are evaluated in the transfer-matrix picture without ever
enumerating outcome histories: for an involution ``Q`` the outcome-weighted
post-measurement state is ``sum_s s P_s rho P_s = {Q, rho}/2``, so a
two-point correlator is

    <Q_a Q_b> = Tr[Q_b * C({Q_a, rho_a}/2)]

where ``rho_a`` is the input state evolved to ``t_a`` through the
unconditioned measurement channels of every *included* event before ``a``,
and ``C`` carries the propagators and the included measurement channels
between ``a`` and ``b``.  Excluded stretches of time are covered by a single
propagator over the whole gap.

The boxed protocol interleaves a block of alternating measurements between
the first and second correlator slots; its Leggett-Garg quantity is

    lg = 1 + <Q1 Q2> + <Q2 Q3> + <Q1 Q3>'

with the primed correlator taken *without* the second measurement while the
block stays in place.  With ideal dynamics this reduces to
``1 + cos^(2n+2)(theta) + 2 cos(theta)``, which goes negative past an onset
angle once ``n >= 1``.

The adroitness battery quantifies measurement back-action on statistics: for
a three-event schedule whose middle event is tagged as the probe,

    epsilon = sum_{s1,s3} | P(s1,s3 | probe kept) - P(s1,s3 | probe removed) |

and the battery sums this over four probe placements.  Under dephasing noise
the battery's total feeds the softened bound ``lg >= -eps_total``.

One walker, ``_walk``, carries coefficient rows of any batch shape from
event to event, and ``correlator_exact``, ``joint_distribution`` and
``adroitness_grid`` all step through it.  The grid walks the whole battery
over a theta grid at once: one row per (theta, first outcome) pair and
``(B, 3)`` measurement axes.  Matvecs and 3-vector dots are stacked
``np.matmul`` calls (``(4, 4) @ (..., 4, 1)`` and ``(..., 1, 3) @ (..., 3,
1)``): numpy evaluates each stack item with the routine it uses for the
one-dimensional ``g @ w`` and ``q @ v``, whereas on dense matrices one big
``W @ g.T`` product, an ``einsum`` or a hand-written sum orders the terms
differently and changes the last bit.  So every row gets the bits a
one-schedule walk gives, and each grid epsilon equals ``epsilon_adroitness``
on its schedule.  ``adroitness_report`` and ``epsilon_total`` are one-theta
calls of the grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import LindbladSpec, lindblad_propagator
from .qubit import ATOL, DensityOperator, Observable, pauli, sigma_theta

__all__ = [
    "EVENT_TAGS",
    "MeasurementEvent",
    "ExperimentSchedule",
    "CorrelatorSet",
    "AdroitnessReport",
    "Verdict",
    "build_protocol_schedule",
    "classic_lg",
    "correlator_exact",
    "lg_quantity",
    "joint_distribution",
    "BATTERY_IDS",
    "adroitness_experiments",
    "adroitness_grid",
    "epsilon_adroitness",
    "epsilon_total",
    "adroitness_report",
    "violation_verdict",
]

EVENT_TAGS = ("Q1", "Q2", "Q3", "boxed", "probe")

_PROB_TOL = 1e-10  # joint distributions must sum to 1 this tightly

BATTERY_IDS = ("a", "b", "c", "d")  # the battery's experiments, in order
# per experiment: which of (first, probe, third) measure the tilted axis (1)
# rather than sz (0)
_BATTERY_LAYOUT = ((1, 1, 0), (1, 0, 0), (0, 0, 1), (0, 1, 1))


@dataclass(frozen=True, eq=False)
class MeasurementEvent:
    """One projective measurement at an absolute time."""

    time: float
    observable: Observable
    tag: str

    def __post_init__(self):
        t = float(self.time)
        if not (t >= 0.0 and math.isfinite(t)):
            raise ValueError(f"event time must be nonnegative and finite, got {self.time}")
        object.__setattr__(self, "time", t)
        if not isinstance(self.observable, Observable):
            raise ValueError("observable must be an Observable")
        if self.tag not in EVENT_TAGS:
            raise ValueError(f"tag must be one of {EVENT_TAGS}, got {self.tag!r}")


@dataclass(frozen=True, eq=False)
class ExperimentSchedule:
    """Timed measurements, the dynamics between them, and the input state."""

    events: tuple[MeasurementEvent, ...]
    dynamics: LindbladSpec
    initial_state: DensityOperator

    def __post_init__(self):
        events = tuple(self.events)
        if not events:
            raise ValueError("schedule needs at least one event")
        for a, b in zip(events, events[1:]):
            if not (b.time > a.time):
                raise ValueError(
                    f"event times must be strictly increasing, got {a.time} then {b.time}"
                )
        if not isinstance(self.dynamics, LindbladSpec):
            raise ValueError("dynamics must be a LindbladSpec")
        if not isinstance(self.initial_state, DensityOperator):
            raise ValueError("initial_state must be a DensityOperator")
        object.__setattr__(self, "events", events)

    def index_of(self, tag: str) -> int:
        """Index of the unique event with this tag (ValueError otherwise)."""
        hits = [k for k, ev in enumerate(self.events) if ev.tag == tag]
        if len(hits) != 1:
            raise ValueError(f"schedule has {len(hits)} events tagged {tag!r}, need exactly 1")
        return hits[0]


class Verdict(str, enum.Enum):
    """Classification of one evaluated configuration.

    ``VIOLATES_STRICT`` means lg < -eps_total (broken even after granting the
    measured back-action as slack); ``VIOLATES_LENIENT`` means lg < 0 but not
    below -eps_total; ``NO_VIOLATION`` means lg >= 0.
    """

    VIOLATES_STRICT = "violates_strict"
    VIOLATES_LENIENT = "violates_lenient"
    NO_VIOLATION = "no_violation"


def _check_positive(value: float, name: str) -> float:
    value = float(value)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def violation_verdict(lg: float, eps_total: float) -> Verdict:
    """Classify a Leggett-Garg value against both readings of the bound."""
    if not math.isfinite(lg):
        raise ValueError(f"lg must be finite, got {lg}")
    if not (eps_total >= 0.0 and math.isfinite(eps_total)):
        raise ValueError(f"eps_total must be nonnegative and finite, got {eps_total}")
    if lg < -eps_total:
        return Verdict.VIOLATES_STRICT
    if lg < 0.0:
        return Verdict.VIOLATES_LENIENT
    return Verdict.NO_VIOLATION


@dataclass(frozen=True)
class CorrelatorSet:
    """The three protocol correlators; ``lg_quantity`` derives from them."""

    c12: float
    c23: float
    c13_prime: float

    def __post_init__(self):
        for name in ("c12", "c23", "c13_prime"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            if abs(v) > 1.0 + 1e-9:
                raise ValueError(f"{name} must lie in [-1, 1], got {v}")
            object.__setattr__(self, name, v)

    @property
    def lg_quantity(self) -> float:
        return 1.0 + self.c12 + self.c23 + self.c13_prime


@dataclass(frozen=True)
class AdroitnessReport:
    """Per-experiment adroitness of one battery evaluation.

    ``entries`` pairs experiment ids ("a".."d") with their epsilon values in
    battery order; ``epsilon_total`` is their sum.
    """

    theta: float
    tau: float
    gamma: float
    omega: float
    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        for eid, eps in self.entries:
            if not (0.0 <= eps <= 2.0 + 1e-9):
                raise ValueError(
                    f"epsilon for experiment {eid!r} must lie in [0, 2], got {eps}"
                )

    @property
    def epsilon_total(self) -> float:
        return float(sum(eps for _, eps in self.entries))


# ---------------------------------------------------------------------------
# schedule builders


def build_protocol_schedule(
    theta: float,
    n: int,
    tau: float,
    dynamics: LindbladSpec,
    initial_state: DensityOperator | None = None,
) -> ExperimentSchedule:
    """The boxed three-correlator schedule.

    Events sit at ``tau, 2*tau, ..., (2n+4)*tau``: ``sigma_theta`` first,
    then the box (alternating sz / sigma_theta, ``2n+1`` events starting and
    ending with sz), ``sigma_theta`` again, and finally sz.  ``n = 0`` is
    accepted and gives the single-event box; that configuration is a control,
    its Leggett-Garg quantity is ``(1 + cos(theta))^2 >= 0`` under ideal
    dynamics, so no violation is possible there.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    n = int(n)
    tau = _check_positive(tau, "tau")
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")

    qt = sigma_theta(theta)
    qz = pauli("z")
    events = [MeasurementEvent(tau, qt, "Q1")]
    for k in range(2 * n + 1):
        obs = qz if k % 2 == 0 else qt
        events.append(MeasurementEvent((k + 2) * tau, obs, "boxed"))
    events.append(MeasurementEvent((2 * n + 3) * tau, qt, "Q2"))
    events.append(MeasurementEvent((2 * n + 4) * tau, qz, "Q3"))
    rho0 = initial_state if initial_state is not None else DensityOperator.maximally_mixed()
    return ExperimentSchedule(tuple(events), dynamics, rho0)


def adroitness_experiments(
    theta: float, tau: float, dynamics: LindbladSpec
) -> tuple[ExperimentSchedule, ...]:
    """The four-experiment probe battery at times ``tau, 2*tau, 3*tau``.

    Each schedule has a first measurement, a probe, and a third measurement;
    the four combinations place sz and ``sigma_theta`` so that every probe
    basis appears against every outer-pair arrangement:

        a: sigma_theta, sigma_theta, sz
        b: sigma_theta, sz,          sz
        c: sz,          sz,          sigma_theta
        d: sz,          sigma_theta, sigma_theta
    """
    tau = _check_positive(tau, "tau")
    pair = (pauli("z"), sigma_theta(float(theta)))
    rho0 = DensityOperator.maximally_mixed()
    out = []
    for layout in _BATTERY_LAYOUT:
        first, probe, third = (pair[k] for k in layout)
        events = (
            MeasurementEvent(tau, first, "Q1"),
            MeasurementEvent(2.0 * tau, probe, "probe"),
            MeasurementEvent(3.0 * tau, third, "Q3"),
        )
        out.append(ExperimentSchedule(events, dynamics, rho0))
    return tuple(out)


# ---------------------------------------------------------------------------
# exact evaluation on Pauli coefficients

_SIGNS = np.array([1.0, -1.0])  # outcomes +1, -1: the index order of joint tables


def _half_anticommutator(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coefficients of ``{Q, X}/2`` from coefficient vectors."""
    out = np.empty(4)
    out[0] = q[0] * x[0] + q[1] * x[1] + q[2] * x[2] + q[3] * x[3]
    out[1:] = q[0] * x[1:] + x[0] * q[1:]
    return out


def _dots(axes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise ``axes @ w[1:]`` as stacked 3-vector dots (see module doc)."""
    return np.matmul(axes[..., None, :], w[..., 1:, None])[..., 0, 0]


def _walk(dynamics: LindbladSpec, x: np.ndarray, t: float, events) -> np.ndarray:
    """Carry coefficient rows ``x`` (``(..., 4)``) at time ``t`` through ``events``.

    ``events`` are ``(time, axis)`` pairs: propagate to each time and, at all
    but the last, project the Bloch part onto ``axis`` (the unconditioned
    measurement channel; axes broadcast against the rows, ``None`` is a
    trivial ``+/- I`` event).  The result is before the last event measures.
    """
    last = len(events) - 1
    for k, (time, axis) in enumerate(events):
        if time != t:  # stacked matvecs (see module doc)
            x = np.matmul(lindblad_propagator(dynamics, time - t).ptm, x[..., None])[..., 0]
        t = time
        if axis is not None and k < last:
            proj = axis[..., 0] * x[..., 1] + axis[..., 1] * x[..., 2]
            proj += axis[..., 2] * x[..., 3]
            x = np.concatenate((x[..., :1], proj[..., None] * axis), axis=-1)
    return x


def _joint_tables(dynamics: LindbladSpec, x: np.ndarray, head: list, tails) -> list:
    """Joint outcome tables ``P[..., s1, s2]`` of two measurements, one per tail.

    ``head`` walks the input rows ``x`` from time 0 to the first measurement,
    its last event; each tail walks on to the second, its own last event.
    Axes broadcast against the rows of ``x``; index 0 is outcome +1.
    """
    x = _walk(dynamics, x, 0.0, head)
    t, first = head[-1]
    amp = x[..., 0, None] + _SIGNS * _dots(first, x)[..., None]
    w = np.concatenate(
        ((0.5 * amp)[..., None], (0.5 * _SIGNS * amp)[..., None] * first[..., None, :]), axis=-1
    )
    tables = []
    for tail in tails:
        tail = [(time, q if q is None else q[..., None, :]) for time, q in tail]
        end = _walk(dynamics, w, t, tail)
        tables.append(end[..., 0, None] + _SIGNS * _dots(tail[-1][1], end)[..., None])
    return tables


def _paths(schedule: ExperimentSchedule, first: str, second: str, between: bool):
    """Indices of two tagged events and ``_walk``'s paths to the first and on to the second.

    Without ``between`` every other event is removed from the run.
    """
    i = schedule.index_of(first)
    j = schedule.index_of(second)
    if i >= j:
        raise ValueError(f"{first!r} must come before {second!r} in the schedule")
    steps = []
    for ev in schedule.events:
        q = ev.observable.coefficients
        steps.append((ev.time, None if abs(abs(q[0]) - 1.0) <= ATOL else q[1:]))
    if between:
        return i, j, steps[: i + 1], steps[i + 1 : j + 1]
    return i, j, steps[i : i + 1], steps[j : j + 1]


def correlator_exact(
    schedule: ExperimentSchedule,
    first: str = "Q1",
    second: str = "Q2",
    include_intermediate: bool = True,
) -> float:
    """Two-point correlator ``<Q_first Q_second>`` for tagged events.

    With ``include_intermediate=False`` every other event is removed from the
    run entirely (no measurement channel), and each removed stretch of time
    is covered by one propagator; this is the primed-correlator semantics.
    """
    i, j, head, tail = _paths(schedule, first, second, include_intermediate)
    x = _walk(schedule.dynamics, schedule.initial_state.coefficients, 0.0, head)
    y = _half_anticommutator(schedule.events[i].observable.coefficients, x)
    y = _walk(schedule.dynamics, y, head[-1][0], tail)
    return float(2.0 * (schedule.events[j].observable.coefficients @ y))


def lg_quantity(schedule: ExperimentSchedule) -> CorrelatorSet:
    """All three protocol correlators of a Q1/Q2/Q3 schedule.

    ``c12`` and ``c23`` keep every event in place; ``c13_prime`` keeps only
    Q1 and Q3, bridging the gap with a single propagator.  ``correlator_exact``
    refuses a schedule that does not order Q1 before Q2 before Q3.
    """
    return CorrelatorSet(
        c12=correlator_exact(schedule, "Q1", "Q2"),
        c23=correlator_exact(schedule, "Q2", "Q3"),
        c13_prime=correlator_exact(schedule, "Q1", "Q3", include_intermediate=False),
    )


def joint_distribution(
    schedule: ExperimentSchedule,
    first: str = "Q1",
    second: str = "Q3",
    include_intermediate: bool = True,
) -> np.ndarray:
    """Joint outcome distribution ``P[i, j]`` of two tagged events.

    Index 0 means outcome +1, index 1 means outcome -1.  Intermediate events
    act through their unconditioned channels when included and are removed
    entirely otherwise.  Both tagged observables must be traceless (a
    trivial ``+/- I`` event has a single outcome and no joint table).

    Raises ``ValueError`` if the resulting table fails to sum to 1 within
    1e-10, which would indicate a non-CPTP propagator upstream.
    """
    i, j, head, tail = _paths(schedule, first, second, include_intermediate)
    for k in (i, j):
        schedule.events[k].observable.bloch_axis  # raises for a trivial event
    (table,) = _joint_tables(schedule.dynamics, schedule.initial_state.coefficients, head, [tail])
    _check_normalised(table.sum())
    return table


def _check_normalised(total) -> None:
    if abs(total - 1.0) > _PROB_TOL:
        raise ValueError(f"joint distribution sums to {total!r}, expected 1")


def epsilon_adroitness(schedule: ExperimentSchedule) -> float:
    """Back-action of the probe on the outer pair's joint statistics.

    L1 distance between the two-outcome joint distributions with the probe's
    channel kept versus the probe removed from the run.
    """
    schedule.index_of("probe")
    with_probe = joint_distribution(schedule, "Q1", "Q3", include_intermediate=True)
    without = joint_distribution(schedule, "Q1", "Q3", include_intermediate=False)
    return float(np.abs(with_probe - without).sum())


def adroitness_grid(thetas, tau: float, dynamics: LindbladSpec) -> np.ndarray:
    """Per-experiment adroitness of the battery over a theta grid, shape (B, 4).

    Row ``b`` holds experiments ``BATTERY_IDS`` at ``thetas[b]``, each equal
    bit for bit to ``epsilon_adroitness`` on the matching schedule of
    ``adroitness_experiments``: each experiment is one ``_joint_tables`` call
    over the three events at ``tau, 2*tau, 3*tau`` with ``(B, 3)`` axes, the
    probe kept on one tail and removed on the other.  A joint table that
    fails to sum to 1 raises ``joint_distribution``'s error, and an epsilon
    outside [0, 2] raises ``AdroitnessReport``'s, each for the first failing
    cell in grid order.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1:
        raise ValueError(f"theta grid must be one dimensional, got shape {thetas.shape}")
    tau = _check_positive(tau, "tau")
    times = (tau, 2.0 * tau, 3.0 * tau)
    if not math.isfinite(times[2]):
        raise ValueError(f"event time must be nonnegative and finite, got {times[2]}")
    if not isinstance(dynamics, LindbladSpec):
        raise ValueError("dynamics must be a LindbladSpec")
    size = thetas.shape[0]
    tilted = np.zeros((size, 3))
    for b, theta in enumerate(thetas.tolist()):
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}")
        tilted[b, 0] = math.sin(theta)
        tilted[b, 2] = math.cos(theta)
    pair = (np.broadcast_to(pauli("z").bloch_axis, tilted.shape), tilted)
    rho0 = DensityOperator.maximally_mixed().coefficients

    tables = np.empty((size, 4, 2, 4))  # per experiment: probe kept/removed, (s1, s3)
    for e, layout in enumerate(_BATTERY_LAYOUT):
        first, probe, third = (pair[k] for k in layout)
        tails = ([(times[1], probe), (times[2], third)], [(times[2], third)])
        sides = _joint_tables(dynamics, rho0, [(times[0], first)], tails)
        tables[:, e] = np.stack(sides, axis=1).reshape(size, 2, 4)
    totals = tables.sum(axis=-1)
    eps = np.abs(tables[..., 0, :] - tables[..., 1, :]).sum(axis=-1)

    bad = (np.abs(totals - 1.0) > _PROB_TOL).any(axis=(1, 2))
    bad |= ~((eps >= 0.0) & (eps <= 2.0 + 1e-9)).all(axis=1)
    if bad.any():
        b = int(np.argmax(bad))
        for total in totals[b].ravel():
            _check_normalised(total)
        _report(thetas[b], tau, dynamics, eps[b])
        raise AssertionError("unreachable: a flagged cell fails one of the checks")
    return eps


def _report(theta, tau: float, dynamics: LindbladSpec, eps: np.ndarray) -> AdroitnessReport:
    return AdroitnessReport(
        theta=float(theta),
        tau=float(tau),
        gamma=dynamics.gamma,
        omega=dynamics.hamiltonian.omega,
        entries=tuple(zip(BATTERY_IDS, eps.tolist())),
    )


def adroitness_report(theta: float, tau: float, dynamics: LindbladSpec) -> AdroitnessReport:
    """Battery evaluation with per-experiment resolution (one-theta grid)."""
    return _report(theta, tau, dynamics, adroitness_grid([theta], tau, dynamics)[0])


def epsilon_total(theta: float, tau: float, dynamics: LindbladSpec) -> float:
    """Summed adroitness over the four-experiment battery."""
    return adroitness_report(theta, tau, dynamics).epsilon_total


def classic_lg(omega: float = 1.0) -> CorrelatorSet:
    """The textbook three-time test: sz at 0, tau, 2*tau with tau = 3*pi/(4*omega).

    Uses the half-convention drive (``H = omega sx / 2``) so each gap rotates
    the Bloch sphere by 3*pi/4; the result is ``lg = 1 - sqrt(2)``, the
    maximal qubit violation.  No box and no probes are involved, so the
    lenient reading of the bound is the applicable one.
    """
    spec = LindbladSpec.closed(omega, half=True)
    tau = 3.0 * math.pi / (4.0 * spec.hamiltonian.omega)
    qz = pauli("z")
    events = (
        MeasurementEvent(0.0, qz, "Q1"),
        MeasurementEvent(tau, qz, "Q2"),
        MeasurementEvent(2.0 * tau, qz, "Q3"),
    )
    schedule = ExperimentSchedule(events, spec, DensityOperator.maximally_mixed())
    return lg_quantity(schedule)
