"""Grid evaluation over protocol parameters, violation windows, noise cutoffs.

Everything here runs on the kernel layer, so a 10^4-point theta grid is one
call, and a gamma bisection is a few dozen of them.  ``sweep_records``
returns a columnar ``SweepTable``: one block of kernel arrays and verdicts
per (n, gamma), checked as whole arrays, never one object per grid point.
Parsing a table back runs the same column checks, and ``SweepRecord`` is a
plain row that checked columns expand into, in both directions.  Row order
is a pure function of the requested grids (n outermost, then gamma, then
theta).  The battery reads theta, gamma and tau but never n, so its kernel
runs once per distinct gamma and every n block of that gamma shares the one
``eps_total`` array; the protocol kernel and the checks run per (n, gamma).
Worker threads parallelise the battery and curve evaluations and never
reorder rows.
"""

from __future__ import annotations

import contextlib
import gc
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .dynamics import HamiltonianSpec, LindbladSpec, lindblad_propagator
from .protocol import Verdict, _check_positive, violation_verdict

__all__ = [
    "SWEEP_COLUMNS",
    "CurveArrays",
    "SweepBlock",
    "SweepRecord",
    "SweepTable",
    "ViolationWindow",
    "lg_curve",
    "sweep_records",
    "violation_window",
    "gamma_cutoff",
]

SWEEP_COLUMNS = (
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

_CRITERIA = ("lenient", "strict")


class CurveArrays(NamedTuple):
    """Vectorized protocol evaluation over one theta grid."""

    c12: np.ndarray
    c23: np.ndarray
    c13_prime: np.ndarray
    lg: np.ndarray
    eps_total: np.ndarray


class SweepRecord(NamedTuple):
    """One row of a sweep table, expanded from checked columns."""

    theta: float
    gamma: float
    n: int
    c12: float
    c23: float
    c13_prime: float
    lg_quantity: float
    eps_total: float
    verdict: Verdict


class SweepBlock(NamedTuple):
    """The rows of one (n, gamma) pair: its curve over theta and verdict values."""

    n: int
    gamma: float
    curve: CurveArrays
    verdict: np.ndarray


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, which building one tuple per row
    keeps triggering over every live parsed row; then restore its setting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True, eq=False)
class SweepTable:
    """A swept (n, gamma, theta) grid held as columns.

    ``blocks`` run n outermost, then gamma; the rows of each block follow
    ``thetas``.  In a table from ``sweep_records`` the blocks of one gamma
    share one ``eps_total`` array object.  ``len`` counts rows.
    """

    thetas: np.ndarray
    blocks: tuple[SweepBlock, ...]

    def __len__(self) -> int:
        return len(self.thetas) * len(self.blocks)

    @_gc_paused()
    def records(self) -> list[SweepRecord]:
        """Every row as a ``SweepRecord``, in table order."""
        thetas = self.thetas.tolist()
        rows: list[SweepRecord] = []
        for b in self.blocks:
            cols = [col.tolist() for col in b.curve]
            rows += _expand(thetas, repeat(b.gamma), repeat(b.n), cols, b.verdict.tolist())
        return rows


# object scalars, so a verdict column holds references to three shared strings
_STRICT, _LENIENT, _CLEAN = (
    np.asarray(v.value, dtype=object)
    for v in (Verdict.VIOLATES_STRICT, Verdict.VIOLATES_LENIENT, Verdict.NO_VIOLATION)
)
_VERDICT = {v.value: v for v in Verdict}


def _expand(thetas, gammas, ns, cols, verdicts) -> list[SweepRecord]:
    """``SweepRecord`` rows from checked columns (iterables of Python values)."""
    return list(map(SweepRecord, thetas, gammas, ns, *cols, map(_VERDICT.get, verdicts)))


def _coordinates(thetas: np.ndarray, gammas: np.ndarray, ns) -> list[int]:
    """Check a grid, or a table's first three columns; return ``ns`` as ints.

    theta must be finite, gamma nonnegative and finite, and n a nonnegative
    int or its decimal text; the first bad value of a column raises.
    """
    for name, values, ok, rule in (
        ("theta", thetas, np.isfinite(thetas), "finite"),
        ("gamma", gammas, (gammas >= 0.0) & np.isfinite(gammas), "nonnegative and finite"),
    ):
        if not ok.all():
            raise ValueError(f"{name} must be {rule}, got {float(values[np.argmin(ok)])}")
    ints = []
    for value in ns:
        try:
            n = int(value, 10) if isinstance(value, str) else operator.index(value)
        except (TypeError, ValueError):
            n = -1
        if n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {value}")
        ints.append(n)
    return ints


def _verdicts(cur: CurveArrays, verdict: np.ndarray | None = None) -> np.ndarray:
    """``violation_verdict`` of every point, with its checks and errors.

    Also requires ``lg`` to match its correlators within 1e-12 and, when a
    ``verdict`` column is given, that column to equal the computed one.
    """
    lg, eps = cur.lg, cur.eps_total
    bad = ~(np.isfinite(lg) & (eps >= 0.0) & np.isfinite(eps))
    if bad.any():
        i = int(np.argmax(bad))
        violation_verdict(float(lg[i]), float(eps[i]))  # raises for the first bad point
    expected = 1.0 + cur.c12 + cur.c23 + cur.c13_prime
    bad = ~(np.abs(lg - expected) <= 1e-12)
    if bad.any():
        raise ValueError(
            f"lg_quantity {float(lg[bad][0])!r} inconsistent with correlators "
            f"(expected {float(expected[bad][0])!r})"
        )
    computed = np.where(lg < -eps, _STRICT, np.where(lg < 0.0, _LENIENT, _CLEAN))
    if verdict is not None and (computed != verdict).any():
        i = int(np.argmax(computed != verdict))
        raise ValueError(
            f"verdict {verdict[i]} inconsistent with lg={float(lg[i])!r}, "
            f"eps_total={float(eps[i])!r}"
        )
    return computed


@_gc_paused()
def _records_from_cells(cells) -> list[SweepRecord]:
    """Sweep records from a table's cells, one sequence per ``SWEEP_COLUMNS``.

    ``float`` reads ``%.17g`` text back bit for bit.  The columns then pass
    the checks ``sweep_records`` runs on write, and the verdicts must match.
    """
    theta, gamma, n, *numbers, verdict = cells
    floats = []
    for name, col in zip(("theta", "gamma", *SWEEP_COLUMNS[3:8]), (theta, gamma, *numbers)):
        try:
            floats.append(list(map(float, col)))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from None
    theta, gamma, *numbers = floats
    ns = _coordinates(np.array(theta), np.array(gamma), n)
    verdicts = _verdicts(
        CurveArrays(*(np.array(col, dtype=float) for col in numbers)),
        np.fromiter(verdict, dtype=object, count=len(verdict)),
    )
    return _expand(theta, gamma, ns, numbers, verdicts.tolist())


@dataclass(frozen=True)
class ViolationWindow:
    """Contiguous theta interval where the chosen criterion is violated.

    ``lo``/``hi`` are bisection midpoints; the brackets record the interval
    each edge is known to lie in.
    """

    lo: float
    hi: float
    lo_bracket: tuple[float, float]
    hi_bracket: tuple[float, float]
    criterion: str

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _check_criterion(criterion: str) -> str:
    if criterion not in _CRITERIA:
        raise ValueError(f"criterion must be one of {_CRITERIA}, got {criterion!r}")
    return criterion


def _spec_and_gap(gamma, tau, omega):
    spec = LindbladSpec(HamiltonianSpec(omega), gamma)
    tau = _check_positive(tau, "tau")
    return spec, tau, lindblad_propagator(spec, tau).ptm


def _battery_total(thetas, gamma, tau, omega) -> np.ndarray:
    """The battery's ``eps_total`` over theta; it does not depend on n."""
    spec, tau, gap = _spec_and_gap(gamma, tau, omega)
    gap2 = lindblad_propagator(spec, 2.0 * tau).ptm
    return _kernels.battery_eps(thetas, gap, gap2).sum(axis=1)


def _curve(thetas, n, gamma, tau, omega, eps_total=None) -> CurveArrays:
    """The protocol kernel's curve at (n, gamma), carrying ``eps_total`` as given.

    Without the battery's arrays ``eps_total`` is None: the lenient margin
    never reads it, so it skips that kernel and the ``2 tau`` propagator.
    """
    spec, tau, gap = _spec_and_gap(gamma, tau, omega)
    gap13 = lindblad_propagator(spec, (2 * int(n) + 3) * tau).ptm
    c12, c23, c13p = _kernels.protocol_lg(thetas, n, gap, gap13)
    lg = 1.0 + c12 + c23 + c13p
    return CurveArrays(c12=c12, c23=c23, c13_prime=c13p, lg=lg, eps_total=eps_total)


def lg_curve(thetas, n: int, gamma: float, tau: float, omega: float = 1.0) -> CurveArrays:
    """Correlators, lg, and battery total for every theta in one kernel pass."""
    return _curve(thetas, n, gamma, tau, omega, _battery_total(thetas, gamma, tau, omega))


def sweep_records(
    thetas,
    gammas: Sequence[float],
    ns: Iterable[int],
    tau: float,
    omega: float = 1.0,
    workers: int = 1,
) -> SweepTable:
    """Evaluate the full (n, gamma, theta) grid into a checked ``SweepTable``."""
    thetas = np.array(thetas, dtype=float)
    gammas = [float(g) for g in gammas]
    ns = _coordinates(thetas, np.array(gammas), ns)
    if workers != int(workers) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    workers = int(workers)

    # one battery per distinct gamma, told apart by bits: -0.0 and 0.0 get two
    distinct = {g.hex(): g for g in gammas}
    tasks = [(n, g) for n in ns for g in gammas]

    def battery(gamma: float) -> np.ndarray:
        return _battery_total(thetas, gamma, tau, omega)

    def curve(task: tuple[int, float]) -> CurveArrays:
        n, gamma = task
        return _curve(thetas, n, gamma, tau, omega, totals[gamma.hex()])

    serial = workers == 1 or len(tasks) == 1
    with contextlib.nullcontext() if serial else ThreadPoolExecutor(max_workers=workers) as pool:
        run = map if serial else pool.map
        totals = dict(zip(distinct, run(battery, distinct.values())))
        curves = list(run(curve, tasks))
    blocks = tuple(SweepBlock(n, g, cur, _verdicts(cur)) for (n, g), cur in zip(tasks, curves))
    return SweepTable(thetas, blocks)


def _margin_curve(thetas, n, gamma, tau, omega, criterion) -> np.ndarray:
    if criterion == "strict":
        cur = lg_curve(thetas, n, gamma, tau, omega)
        return cur.lg + cur.eps_total
    return _curve(thetas, n, gamma, tau, omega).lg


def violation_window(
    n: int,
    gamma: float,
    tau: float,
    omega: float = 1.0,
    criterion: str = "lenient",
    coarse_points: int = 10001,
    refine: float = math.pi * 1e-6,
) -> ViolationWindow | None:
    """Locate the theta window in [0, pi] where the criterion is violated.

    A coarse grid finds the sign structure, then each edge is bisected until
    its bracket is narrower than ``refine``.  Returns None when no grid point
    violates.  The lenient criterion tests ``lg < 0``, the strict one
    ``lg < -eps_total``.  A bracket one float wide ends the bisection even
    when ``refine`` asks for less.
    """
    criterion = _check_criterion(criterion)
    refine = _check_positive(refine, "refine")
    if coarse_points < 3:
        raise ValueError(f"coarse_points must be at least 3, got {coarse_points}")
    grid = np.linspace(0.0, math.pi, int(coarse_points))
    margin = _margin_curve(grid, n, gamma, tau, omega, criterion)
    neg = margin < 0.0
    if not bool(neg.any()):
        return None
    first = int(np.argmax(neg))
    last = int(len(grid) - 1 - np.argmax(neg[::-1]))
    if first == 0:
        raise ValueError("violation extends to theta=0; no onset to bracket")

    def bisect(lo: float, hi: float, violated_hi: bool) -> tuple[float, tuple[float, float]]:
        # invariant: margin < 0 holds at hi if violated_hi, else at lo, and not at the other end
        while hi - lo > refine:
            mid = lo + 0.5 * (hi - lo)
            if not lo < mid < hi:
                break
            margin_mid = _margin_curve(np.array([mid]), n, gamma, tau, omega, criterion)[0]
            if (margin_mid < 0.0) == violated_hi:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi), (lo, hi)

    lo_edge, lo_bracket = bisect(float(grid[first - 1]), float(grid[first]), True)
    if last == len(grid) - 1:
        hi_edge, hi_bracket = float(grid[-1]), (float(grid[-1]), float(grid[-1]))
    else:
        hi_edge, hi_bracket = bisect(float(grid[last]), float(grid[last + 1]), False)
    return ViolationWindow(
        lo=lo_edge, hi=hi_edge, lo_bracket=lo_bracket, hi_bracket=hi_bracket, criterion=criterion
    )


def gamma_cutoff(
    n: int,
    tau: float,
    omega: float = 1.0,
    criterion: str = "lenient",
    gamma_hi: float = 0.05,
    tol: float = 1e-9,
    theta_points: int = 2001,
) -> float:
    """Smallest dephasing rate that closes the violation window.

    Bisects on the worst-case (minimum over theta) criterion margin.  Raises
    ``ValueError`` if there is no violation at gamma=0 (nothing to close) or
    if the window survives past gamma=1.  A bracket one float wide ends the
    bisection even when ``tol`` asks for less.
    """
    criterion = _check_criterion(criterion)
    gamma_hi = _check_positive(gamma_hi, "gamma_hi")
    tol = _check_positive(tol, "tol")
    grid = np.linspace(0.0, math.pi, int(theta_points))

    def worst(gamma: float) -> float:
        return float(_margin_curve(grid, n, gamma, tau, omega, criterion).min())

    if worst(0.0) >= 0.0:
        raise ValueError(f"no violation at gamma=0 for n={n}; cutoff undefined")
    lo = 0.0
    hi = gamma_hi
    while worst(hi) < 0.0:
        hi *= 2.0
        if hi > 1.0:
            raise ValueError("violation window persists past gamma=1; no cutoff found")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if worst(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
