"""Grid evaluation over protocol parameters, violation windows, noise cutoffs.

Everything here runs on the kernel layer, so a 10^4-point theta grid is one
call, and a gamma bisection is a few dozen of them.  ``sweep_blocks``
evaluates a grid one block of kernel arrays and verdicts per (n, gamma,
theta chunk of at most ``_CHUNK_ROWS``), each block computed only when its
reader asks for it and checked as whole arrays, never one object per grid
point; ``sweep_records`` collects those blocks into a columnar
``SweepTable``.  A table read back (``tables.records_from_rows``) has its
columns checked by ``_table_records``, and ``SweepRecord`` is a plain row
that checked columns expand into, in both directions.  Row order is a pure
function of the requested grids (n outermost, then gamma, then theta).  The
battery reads theta, gamma and tau but never n, so its kernel runs once per
distinct gamma and chunk, which every n block of that gamma shares; the
protocol kernel and the checks run per block.

The entry points, ``lg_curve``, ``sweep_blocks``, ``violation_window`` and
``gamma_cutoff``, check theta by ``protocol._theta_grid``, then n by
``protocol._check_n``, omega and gamma by ``LindbladSpec`` and tau in
``_gaps``, before it builds any gap: ``tau``, ``2 tau`` or ``(2n + 3) tau``.
"""

from __future__ import annotations

import contextlib
import gc
import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice, repeat, starmap
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .dynamics import HamiltonianSpec, LindbladSpec, lindblad_propagator
from .protocol import _CHUNK_ROWS, _check_n, _check_positive, _theta_grid
from .protocol import Verdict, violation_verdict

__all__ = [
    "CurveArrays",
    "SweepBlock",
    "SweepRecord",
    "SweepTable",
    "ViolationWindow",
    "lg_curve",
    "sweep_blocks",
    "sweep_records",
    "violation_window",
    "gamma_cutoff",
]

_CRITERIA = ("lenient", "strict")

# The fixed window and cutoff searches: grid sizes, widths, worst-case calls
_WINDOW_THETAS = 10001  # spacing pi/1e4
_WINDOW_REFINE = math.pi * 1e-6
_WINDOW_STEPS = 14  # 7 halvings an edge from pi/1e4 to pi*1e-6
_CUTOFF_THETAS = 2001
_CUTOFF_TOP = 0.05  # this and the tolerance are in units of the gap rate pi/tau
_CUTOFF_TOL = 1e-9
_CUTOFF_CALLS = 37  # gamma=0, six bracket tops (0.05 ... 0.8, 1) and 30 halvings


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
    """The rows of one (n, gamma, theta chunk): its curve over ``thetas`` and verdict values."""

    n: int
    gamma: float
    thetas: np.ndarray
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

    ``blocks`` run n outermost, then gamma, then theta chunk.  In a table
    from ``sweep_records`` the blocks over one chunk share its ``thetas``
    view, and those of one gamma its ``eps_total`` array.  ``len`` counts rows.
    """

    blocks: tuple[SweepBlock, ...]

    def __len__(self) -> int:
        return sum(len(b.thetas) for b in self.blocks)

    @_gc_paused()
    def records(self) -> list[SweepRecord]:
        """Every row as a ``SweepRecord``, in table order."""
        rows: list[SweepRecord] = []
        for b in self.blocks:
            cols = [col.tolist() for col in b.curve]
            thetas, verdicts = b.thetas.tolist(), b.verdict.tolist()
            rows += _expand(thetas, repeat(b.gamma), repeat(b.n), cols, verdicts)
        return rows


# object scalars, so a verdict column holds references to three shared strings
_STRICT, _LENIENT, _CLEAN = (
    np.asarray(v.value, dtype=object)
    for v in (Verdict.VIOLATES_STRICT, Verdict.VIOLATES_LENIENT, Verdict.NO_VIOLATION)
)
_VERDICT = {v.value: v for v in Verdict}


def _expand(thetas, gammas, ns, cols, verdicts) -> list[SweepRecord]:
    """``SweepRecord`` rows from checked columns (iterables of Python values).

    Each row is made as ``SweepRecord._make`` makes it, without its frame.
    """
    columns = zip(thetas, gammas, ns, *cols, map(_VERDICT.get, verdicts))
    return list(map(tuple.__new__, repeat(SweepRecord), columns))


def _n(value) -> int:
    """A table's n cell as an int: a JSON integer that is not a bool, or the
    ``%d`` text the writer writes for one (ASCII digits, with no sign,
    padding, underscore or leading zero)."""
    n = value if type(value) is int else -1
    if isinstance(value, str):
        with contextlib.suppress(ValueError):  # not decimal text, or past int's digit limit
            n = int(value, 10)
    if n < 0 or isinstance(value, str) and "%d" % n != value:
        raise ValueError(f"n must be a nonnegative integer, got {value}")
    return n


def _table_records(thetas, gammas, ns, numbers, verdicts) -> list[SweepRecord]:
    """A parsed sweep table's columns, checked, as ``SweepRecord`` rows.

    The float columns come as lists (``numbers`` is c12 to eps_total), and
    the n and verdict cells as read.  The first bad value raises: theta's by
    ``_theta_grid``, then gamma's, then the n cells' by ``_n``, each distinct
    (type, value) parsed once, then the curve's and verdicts' by ``_verdicts``.
    """
    _theta_grid(thetas)
    gamma = np.array(gammas)
    ok = (gamma >= 0.0) & np.isfinite(gamma)
    if not ok.all():
        raise ValueError(f"gamma must be nonnegative and finite, got {float(gamma[np.argmin(ok)])}")
    keys = list(zip(map(type, ns), ns))  # 1 and 1.0 are equal, but only one is an n
    try:
        parsed = {key: _n(key[1]) for key in dict.fromkeys(keys)}
        ns = list(map(parsed.__getitem__, keys))
    except TypeError:  # an unhashable value, which _n refuses in row order
        ns = list(map(_n, ns))
    cur = CurveArrays(*(np.array(col, dtype=float) for col in numbers))
    verdicts = _verdicts(cur, np.fromiter(verdicts, dtype=object, count=len(thetas)))
    return _expand(thetas, gammas, ns, numbers, verdicts.tolist())


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


def _gaps(spec, tau, *steps) -> list[np.ndarray]:
    """The transfer matrices of the gaps ``step * tau`` under ``spec``, in order."""
    tau = _check_positive(tau, "tau")
    return [lindblad_propagator(spec, step * tau).ptm for step in steps]


def _battery_total(thetas, gap, gap2) -> np.ndarray:
    """The battery's ``eps_total`` at each theta; it does not depend on n."""
    return _kernels.battery_eps(thetas, gap, gap2).sum(axis=1)


def _curve(thetas, n, gap, gap13, eps_total=None) -> CurveArrays:
    """The protocol kernel's curve at n on the gap propagators ``gap`` (tau)
    and ``gap13`` (the box), carrying ``eps_total`` as given.

    Without the battery's arrays ``eps_total`` is None: the lenient margin
    never reads it, so it skips that kernel and the ``2 tau`` propagator.
    """
    c12, c23, c13p = _kernels.protocol_lg(thetas, n, gap, gap13)
    lg = 1.0 + c12 + c23 + c13p
    return CurveArrays(c12=c12, c23=c23, c13_prime=c13p, lg=lg, eps_total=eps_total)


def lg_curve(thetas, n: int, gamma: float, tau: float, omega: float = 1.0) -> CurveArrays:
    """Correlators, lg, and battery total for every theta in one kernel pass."""
    thetas, n = _theta_grid(thetas), _check_n(n)
    gap, gap2, gap13 = _gaps(LindbladSpec(HamiltonianSpec(omega), gamma), tau, 1, 2, 2 * n + 3)
    return _curve(thetas, n, gap, gap13, _battery_total(thetas, gap, gap2))


def sweep_blocks(
    thetas,
    gammas: Sequence[float],
    ns: Iterable[int],
    tau: float,
    omega: float = 1.0,
) -> Iterator[SweepBlock]:
    """The (n, gamma, theta) grid as an iterator of checked blocks, n outermost,
    then gamma, then theta chunk, each computed when the iterator reaches it.

    What the inputs can break fails before this returns: the coordinates are
    checked, every propagator is built (each distinct gamma's two battery
    gaps, then each (n, gamma)'s box gap, in block order) and the first block
    is computed.  Each chunk's battery runs with the first block that reads it
    and is held only while a later block will read it.
    """
    thetas = _theta_grid(np.array(thetas, dtype=float))
    ns = list(map(_check_n, ns))
    gammas = [float(g) for g in gammas]
    # an empty grid is one empty chunk, so each (n, gamma) still has its block
    chunks = [thetas[i : i + _CHUNK_ROWS] for i in range(0, len(thetas), _CHUNK_ROWS)] or [thetas]
    # one spec and battery per distinct gamma, told apart by bits (-0.0 and 0.0
    # get two), so the propagator cache keys hold one spec a gamma, not one an n
    specs = {g.hex(): LindbladSpec(HamiltonianSpec(omega), g) for g in gammas}
    batteries = {h: _gaps(spec, tau, 1, 2) for h, spec in specs.items()}
    tasks = []
    for n in ns:
        for g in gammas:
            gaps = *batteries[g.hex()], *_gaps(specs[g.hex()], tau, 2 * n + 3)
            tasks += [(n, g, c, *gaps) for c in range(len(chunks))]
    # each (gamma bits, chunk)'s eps_total, computed by the first block that
    # reads it and dropped by the last
    reads = Counter((g.hex(), c) for _, g, c, *_ in tasks)
    totals = {}

    def block(n, g, c, gap, gap2, gap13) -> SweepBlock:
        key = g.hex(), c
        if key not in totals:
            totals[key] = _battery_total(chunks[c], gap, gap2)
        reads[key] -= 1
        eps_total = totals[key] if reads[key] else totals.pop(key)
        cur = _curve(chunks[c], n, gap, gap13, eps_total)
        return SweepBlock(n, g, chunks[c], cur, _verdicts(cur))

    def all_blocks(first: list) -> Iterator[SweepBlock]:
        while first:  # popped, so the first block is not kept to the end
            yield first.pop()
        yield from blocks

    blocks = starmap(block, tasks)
    return all_blocks(list(islice(blocks, 1)))


def sweep_records(
    thetas,
    gammas: Sequence[float],
    ns: Iterable[int],
    tau: float,
    omega: float = 1.0,
) -> SweepTable:
    """Evaluate the full (n, gamma, theta) grid into a checked ``SweepTable``."""
    return SweepTable(tuple(sweep_blocks(thetas, gammas, ns, tau, omega)))


def _margin_curve(thetas, n, gamma, tau, omega, criterion) -> np.ndarray:
    if criterion == "strict":
        cur = lg_curve(thetas, n, gamma, tau, omega)
        return cur.lg + cur.eps_total
    gap, gap13 = _gaps(LindbladSpec(HamiltonianSpec(omega), gamma), tau, 1, 2 * n + 3)
    return _curve(thetas, n, gap, gap13).lg


def _bisect(lo: float, hi: float, width: float, below) -> tuple[float, tuple[float, float]]:
    """Halve the bracket ``(lo, hi)`` of an edge until it is at most ``width``
    wide; ``below(mid)`` is true when the edge lies at or below ``mid``.  A
    bracket one float wide ends the search even when ``width`` asks for less.
    Returns the last bracket's midpoint and the bracket.
    """
    while hi - lo > width:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            break
        if below(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), (lo, hi)


def violation_window(
    n: int, gamma: float, tau: float, omega: float = 1.0, criterion: str = "lenient"
) -> ViolationWindow | None:
    """Locate the theta window in [0, pi] where the criterion is violated.

    A fixed grid of ``_WINDOW_THETAS`` points finds the sign structure, then
    each edge is bisected until its bracket is narrower than
    ``_WINDOW_REFINE`` (pi * 1e-6): at most ``_WINDOW_STEPS`` one-point
    steps in all.  Returns None when no grid point violates.  The lenient
    criterion tests ``lg < 0``, the strict one ``lg < -eps_total``.
    """
    criterion, n = _check_criterion(criterion), _check_n(n)
    grid = np.linspace(0.0, math.pi, _WINDOW_THETAS)
    margin = _margin_curve(grid, n, gamma, tau, omega, criterion)
    neg = margin < 0.0
    if not bool(neg.any()):
        return None
    first = int(np.argmax(neg))
    last = int(len(grid) - 1 - np.argmax(neg[::-1]))
    if first == 0:
        raise ValueError("violation extends to theta=0; no onset to bracket")

    def violated(theta: float) -> bool:
        return _margin_curve(np.array([theta]), n, gamma, tau, omega, criterion)[0] < 0.0

    refine = _WINDOW_REFINE
    lo_edge, lo_bracket = _bisect(float(grid[first - 1]), float(grid[first]), refine, violated)
    if last == len(grid) - 1:
        hi_edge, hi_bracket = float(grid[-1]), (float(grid[-1]), float(grid[-1]))
    else:
        hi_edge, hi_bracket = _bisect(
            float(grid[last]), float(grid[last + 1]), refine, lambda theta: not violated(theta)
        )
    return ViolationWindow(
        lo=lo_edge, hi=hi_edge, lo_bracket=lo_bracket, hi_bracket=hi_bracket, criterion=criterion
    )


def gamma_cutoff(n: int, tau: float, omega: float = 1.0, criterion: str = "lenient") -> float:
    """Smallest dephasing rate that closes the violation window.

    Bisects on the worst-case (minimum over ``_CUTOFF_THETAS`` theta) margin
    in units of the gap rate ``r = pi / tau``, of which the cutoff at m = 1 is
    a fixed fraction.  The bracket's top starts at ``_CUTOFF_TOP * r`` and
    doubles while the window stays open, up to ``r``; the bisection stops at
    ``_CUTOFF_TOL * r`` or at a bracket one float wide.  Raises ``ValueError``
    if there is no violation at gamma=0 or if the window is still open at ``r``.
    """
    criterion, n = _check_criterion(criterion), _check_n(n)
    rate = math.pi / _check_positive(tau, "tau")
    grid = np.linspace(0.0, math.pi, _CUTOFF_THETAS)

    def worst(gamma: float) -> float:
        return float(_margin_curve(grid, n, gamma, tau, omega, criterion).min())

    if worst(0.0) >= 0.0:
        raise ValueError(f"no violation at gamma=0 for n={n}; cutoff undefined")
    hi = _CUTOFF_TOP * rate
    while worst(hi) < 0.0:
        if hi >= rate:
            raise ValueError(f"violation window persists at gamma={hi:g}; no cutoff found")
        hi = min(2.0 * hi, rate)
    return _bisect(0.0, hi, _CUTOFF_TOL * rate, lambda gamma: not worst(gamma) < 0.0)[0]
