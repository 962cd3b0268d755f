"""Command-line front end.

Commands
--------
fig2        violation curves over theta at gamma=0, one block per n
fig3        theta x gamma surface at fixed n, with both noise cutoffs
adroitness  the four-experiment probe battery, exact and optionally sampled
classic     the textbook three-time point of comparison
sweep       free-form (n, gamma, theta) grid

Grids are given as ``start:stop:steps`` (inclusive linspace), n as a comma
list.  A config file (``--config``) holds ``key=value`` lines with the same
keys as the long flags; flags override the file, the file overrides built-in
defaults.  The resolved configuration is echoed into the output as comment
lines so every table is self-describing.  CSV output puts comments on ``#``
lines; JSONL output puts them in a leading ``{"meta": ...}`` object.

Every command hands the writer column blocks, and one renderer writes them:
each block becomes one %-template, with its fixed cells written in once, and
each row is that template applied to the row's varying values.  A sweep's
repeated columns are formatted once too: theta once per table, and each
``eps_total`` array, which the n blocks of one gamma share, once.  CSV floats
are %.17g, so ``read_table`` / ``records_from_rows`` parse a table back bit
for bit, checking its columns as a sweep checks them on write.  JSONL floats
are %r, which is the text ``json.dumps`` writes for a finite float (and every
written float is checked to be finite).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .dynamics import HamiltonianSpec, LindbladSpec
from .protocol import BATTERY_IDS, adroitness_experiments, adroitness_grid, classic_lg
from .sampling import estimate_adroitness, sample_trajectories
from .sweeps import SWEEP_COLUMNS, SweepRecord, SweepTable, gamma_cutoff, sweep_records
from .sweeps import _records_from_cells, violation_window

__all__ = [
    "ConfigError",
    "SweepConfig",
    "main",
    "read_table",
    "records_from_rows",
]

_PI_TEXT = "3.141592653589793"

_COMMANDS = ("fig2", "fig3", "adroitness", "classic", "sweep")

_BASE_DEFAULTS = {
    "omega": "1",
    "m": "1",
    "criterion": "lenient",
    "shots": "0",
    "seed": "7",
    "format": "csv",
    "out": "",
    "workers": "1",
}

_GRID_DEFAULTS = {
    "fig2": {"theta": f"0:{_PI_TEXT}:201", "gamma": "0:0:1", "n": "1,2,5,10"},
    "fig3": {"theta": f"0:{_PI_TEXT}:201", "gamma": "0:0.02:21", "n": "1"},
    "adroitness": {"theta": f"0:{_PI_TEXT}:9", "gamma": "0:0.004:3", "n": "1"},
    "classic": {"theta": f"0:{_PI_TEXT}:201", "gamma": "0:0:1", "n": "1"},
    "sweep": {"theta": f"0:{_PI_TEXT}:201", "gamma": "0:0:1", "n": "1"},
}

# keys whose resolved values each command actually consumes (echoed in output)
_USED_KEYS = {
    "fig2": ("theta", "gamma", "n", "omega", "m", "criterion", "workers", "format", "out"),
    "fig3": ("theta", "gamma", "n", "omega", "m", "criterion", "workers", "format", "out"),
    "adroitness": ("theta", "gamma", "omega", "m", "shots", "seed", "format", "out"),
    "classic": ("omega", "format", "out"),
    "sweep": ("theta", "gamma", "n", "omega", "m", "workers", "format", "out"),
}

_ALL_KEYS = ("theta", "gamma", "n") + tuple(_BASE_DEFAULTS)

# work limits, checked from the grid sizes before any grid is built: rows of
# a table (theta x gamma x len(n) for fig2, fig3 and sweep; theta x gamma x 5
# for adroitness), and shots sampled by adroitness (shots x theta x gamma x 8:
# four experiments, each with the probe kept and dropped)
MAX_ROWS = 10**7
MAX_SAMPLED_SHOTS = 10**9


class ConfigError(Exception):
    """Invalid configuration; rendered as one stderr line with exit code 2."""


def _f17(v: float) -> str:
    return format(float(v), ".17g")


def _parse_float(text: str, where: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(f"{where}: not a number: {text!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{where}: must be finite, got {text!r}")
    return v


def _parse_int(text: str, where: str, minimum: int | None = None) -> int:
    try:
        v = int(text, 10)
    except ValueError:
        raise ConfigError(f"{where}: not an integer: {text!r}") from None
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {v}")
    return v


def _parse_range(text: str, where: str) -> tuple[float, float, int]:
    """``start:stop:steps``, checked but not yet expanded (see ``_linspace``)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{where}: expected start:stop:steps, got {text!r}")
    start = _parse_float(parts[0], where)
    stop = _parse_float(parts[1], where)
    steps = _parse_int(parts[2], where, minimum=1)
    if start > stop:
        raise ConfigError(f"{where}: range start must not exceed stop, got {text!r}")
    if steps == 1 and start != stop:
        raise ConfigError(f"{where}: a single-step range needs start == stop, got {text!r}")
    if not math.isfinite(stop - start):
        raise ConfigError(f"{where}: range is too wide (stop - start overflows), got {text!r}")
    return start, stop, steps


def _linspace(grid: tuple[float, float, int]) -> tuple[float, ...]:
    return tuple(float(v) for v in np.linspace(*grid))


def _parse_n_list(text: str, where: str) -> tuple[int, ...]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{where}: need at least one n")
    return tuple(_parse_int(s, where, minimum=0) for s in items)


def _parse_choice(text: str, where: str, choices: tuple[str, ...]) -> str:
    if text not in choices:
        raise ConfigError(f"{where}: must be one of {', '.join(choices)}, got {text!r}")
    return text


@dataclass(frozen=True)
class SweepConfig:
    """Fully resolved and validated configuration for one command run."""

    command: str
    thetas: tuple[float, ...]
    gammas: tuple[float, ...]
    ns: tuple[int, ...]
    omega: float
    m: int
    criterion: str
    shots: int
    seed: int
    format: str
    out: str
    workers: int
    echo: tuple[tuple[str, str], ...]

    @property
    def tau(self) -> float:
        """Measurement spacing: half a drive period times m."""
        return math.pi * self.m / self.omega


def _check_work(where: str, amount: int, what: str, limit: int) -> None:
    if amount > limit:
        raise ConfigError(f"{where}: {amount} {what} exceed the limit of {limit}")


def _read_config_file(path: str) -> dict[str, tuple[str, str]]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"--config: cannot read {path}: {exc}") from None
    out: dict[str, tuple[str, str]] = {}
    for ln, raw in enumerate(lines, 1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        key, sep, val = s.partition("=")
        key = key.strip()
        val = val.strip()
        if not sep or not key:
            raise ConfigError(f"config line {ln}: expected key=value, got {s!r}")
        if key not in _ALL_KEYS:
            raise ConfigError(f"config line {ln}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"config line {ln}: duplicate key {key!r}")
        out[key] = (val, f"config line {ln} ({key})")
    return out


def resolve_config(command: str, args: argparse.Namespace) -> SweepConfig:
    merged: dict[str, tuple[str, str]] = {}
    for key, val in {**_BASE_DEFAULTS, **_GRID_DEFAULTS[command]}.items():
        merged[key] = (val, f"default {key}")
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config))
    for key in _ALL_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = (str(flag), f"--{key}")

    forced_note = None
    if command == "fig2" and merged["gamma"][0] != "0:0:1":
        forced_note = f"gamma={merged['gamma'][0]} ignored: fig2 fixes gamma=0"
        merged["gamma"] = ("0:0:1", "forced by fig2")

    def get(key: str) -> tuple[str, str]:
        return merged[key]

    def named(keys) -> str:
        """The flags or config lines that set ``keys``, or all sources if none did."""
        sources = [merged[k][1] for k in keys]
        chosen = [w for w in sources if not w.startswith(("default ", "forced "))]
        return ", ".join(chosen or sources)

    theta_grid = _parse_range(*get("theta"))
    gamma_grid = _parse_range(*get("gamma"))
    ns = _parse_n_list(*get("n"))
    omega_text, omega_where = get("omega")
    omega = _parse_float(omega_text, omega_where)
    if omega <= 0:
        raise ConfigError(f"{omega_where}: omega must be positive, got {omega_text}")
    if command == "classic":
        tau = 3.0 * math.pi / (4.0 * omega)  # as classic_lg computes it
        if not (tau > 0.0 and math.isfinite(2.0 * tau)):
            raise ConfigError(
                f"{omega_where}: the event times tau and 2*tau must be positive and finite "
                f"(tau = 3*pi/(4*omega)), got tau = {tau!r}"
            )
    else:
        try:
            HamiltonianSpec(omega)  # the drive the other commands build
        except ValueError as exc:
            raise ConfigError(f"{omega_where}: {exc}") from None
    m_text, m_where = get("m")
    m = _parse_int(m_text, m_where, minimum=1)
    if m > sys.float_info.max / math.pi:  # exact int/float comparison
        raise ConfigError(f"{m_where}: m is too large (tau = pi*m/omega overflows)")
    criterion = _parse_choice(*get("criterion"), choices=("lenient", "strict"))
    shots = _parse_int(*get("shots"), minimum=0)
    seed = _parse_int(*get("seed"), minimum=0)
    if seed >= 2**64:
        raise ConfigError(f"{get('seed')[1]}: seed must be below 2**64")
    fmt = _parse_choice(*get("format"), choices=("csv", "jsonl"))
    out = get("out")[0]
    workers = _parse_int(*get("workers"), minimum=1)
    if gamma_grid[0] < 0:  # the grid's least point
        raise ConfigError(f"{get('gamma')[1]}: gamma must be nonnegative, got {gamma_grid[0]}")
    if command == "fig3" and len(ns) != 1:
        raise ConfigError(f"{get('n')[1]}: fig3 evaluates exactly one n, got {len(ns)}")
    timing = [k for k in ("n", "m", "omega") if k in _USED_KEYS[command]]
    if "m" in timing:
        steps, expr = (2 * max(ns) + 4, "(2*max(n)+4)*tau") if "n" in timing else (3, "3*tau")
        try:
            last = steps * (math.pi * m / omega)
        except OverflowError:  # steps is too large for a float
            last = math.inf
        if not math.isfinite(last):
            raise ConfigError(
                f"{named(timing)}: the last event time {expr} overflows (tau = pi*m/omega)"
            )
    cells = theta_grid[2] * gamma_grid[2]
    if command == "adroitness":
        _check_work(named(("theta", "gamma")), cells * 5, "rows (theta x gamma x 5)", MAX_ROWS)
        _check_work(
            named(("shots", "theta", "gamma")),
            shots * cells * 8,
            "sampled shots (shots x theta x gamma x 8)",
            MAX_SAMPLED_SHOTS,
        )
    elif command != "classic":
        _check_work(
            named(("theta", "gamma", "n")),
            cells * len(ns),
            "rows (theta x gamma x len(n))",
            MAX_ROWS,
        )
    # classic writes one row and reads neither grid
    thetas, gammas = ((), ()) if command == "classic" else map(_linspace, (theta_grid, gamma_grid))

    echo = [(k, merged[k][0]) for k in _USED_KEYS[command]]
    if forced_note is not None:
        echo.append(("note", forced_note))
    return SweepConfig(
        command=command,
        thetas=thetas,
        gammas=gammas,
        ns=ns,
        omega=omega,
        m=m,
        criterion=criterion,
        shots=shots,
        seed=seed,
        format=fmt,
        out=out,
        workers=workers,
        echo=tuple(echo),
    )


# ---------------------------------------------------------------------------
# command bodies: each returns (columns, blocks, summary_lines).  A block is
# (cells, rows): cells holds each column's fixed value for the block, or the
# type float or str for a column that varies by row; rows is an iterable of
# tuples of the varying values, in column order.  Varying text cells are
# identifiers (experiment ids, verdicts), so they need no escaping.  A
# _FLOAT_TEXT column varies by row and holds floats already written in the
# table's float conversion; they go into the row as they are.

_FLOAT_TEXT = object()


def _sweep_table(cfg: SweepConfig) -> SweepTable:
    return sweep_records(
        cfg.thetas, cfg.gammas, cfg.ns, tau=cfg.tau, omega=cfg.omega, workers=cfg.workers
    )


def _sweep_blocks(table: SweepTable, fmt: str):
    """One block per (n, gamma), turned into row tuples only as it is written.

    Columns that repeat across blocks are formatted once: theta once per
    table, and each ``eps_total`` array once per array object (the n blocks
    of one gamma share one).  The cache is keyed by identity, never by value:
    gamma does not determine eps in a table built by a caller, and equal
    arrays can differ in the sign of a zero, which the text shows.  Each
    array's text is kept as one joined string and split per block.
    """
    conv = _CONVERSIONS[fmt][float]
    thetas = [conv % v for v in table.thetas.tolist()]
    eps_texts: dict[int, str] = {}  # id of an eps_total array -> its rows' text
    for b in table.blocks:
        *cols, eps = b.curve
        text = eps_texts.get(id(eps))
        if text is None:
            text = eps_texts[id(eps)] = "\n".join([conv % v for v in eps.tolist()])
        rows = zip(thetas, *(col.tolist() for col in cols), text.split("\n"), b.verdict.tolist())
        yield (_FLOAT_TEXT, b.gamma, b.n, float, float, float, float, _FLOAT_TEXT, str), rows


def _cmd_fig2(cfg: SweepConfig):
    blocks = _sweep_blocks(_sweep_table(cfg), cfg.format)
    summary = []
    for n in cfg.ns:
        w = violation_window(n, 0.0, cfg.tau, cfg.omega, criterion=cfg.criterion)
        if w is None:
            summary.append(f"onset[n={n}] none (criterion={cfg.criterion})")
        else:
            summary.append(
                f"onset[n={n}] theta/pi={w.lo / math.pi:.9f} "
                f"width/pi={w.width / math.pi:.9f} (criterion={cfg.criterion})"
            )
    return SWEEP_COLUMNS, blocks, summary


def _cmd_fig3(cfg: SweepConfig):
    blocks = _sweep_blocks(_sweep_table(cfg), cfg.format)
    summary = []
    for crit in ("lenient", "strict"):
        try:
            cut = gamma_cutoff(cfg.ns[0], cfg.tau, cfg.omega, criterion=crit)
            summary.append(f"gamma_cutoff[{crit}]={cut:.9g}")
        except ValueError as exc:
            summary.append(f"gamma_cutoff[{crit}] undefined: {exc}")
    return SWEEP_COLUMNS, blocks, summary


_ADROIT_COLUMNS = (
    "experiment",
    "theta",
    "gamma",
    "tau",
    "omega",
    "epsilon",
    "epsilon_mc",
    "epsilon_mc_se",
)


def _cell_seed(base: int, cell: int, side: int) -> int:
    ss = np.random.SeedSequence(entropy=base, spawn_key=(cell, side))
    return int(ss.generate_state(1, np.uint64)[0])


def _sampled_epsilon(cfg: SweepConfig, sched, cell: int) -> tuple[float, float]:
    keep = sample_trajectories(sched, cfg.shots, _cell_seed(cfg.seed, cell, 0))
    drop = sample_trajectories(
        sched, cfg.shots, _cell_seed(cfg.seed, cell, 1), mask=(True, False, True)
    )
    est = estimate_adroitness(keep, drop)
    return est.epsilon, float(np.sqrt((est.cell_standard_errors**2).sum()))


_ADROIT_IDS = (*BATTERY_IDS, "total")


def _cmd_adroitness(cfg: SweepConfig):
    """One block per gamma: experiments a-d, then their total, for each theta."""
    mc_cell = float if cfg.shots else None  # without shots both MC cells are empty
    blocks = []
    cell = 0
    for gamma in cfg.gammas:
        spec = LindbladSpec(HamiltonianSpec(cfg.omega), gamma)
        grid = adroitness_grid(cfg.thetas, cfg.tau, spec).tolist()
        rows = []
        for theta, eps in zip(cfg.thetas, grid):
            mc = [()] * 5
            if cfg.shots:
                schedules = adroitness_experiments(theta, cfg.tau, spec)
                mc = [_sampled_epsilon(cfg, s, cell + k) for k, s in enumerate(schedules)]
                mc_eps, mc_se = zip(*mc)
                mc.append((sum(mc_eps), float(np.sqrt(np.sum(np.square(mc_se))))))
            rows += [(eid, theta, e, *m) for eid, e, m in zip(_ADROIT_IDS, [*eps, sum(eps)], mc)]
            cell += 4
        cells = (str, float, gamma, cfg.tau, cfg.omega, float, mc_cell, mc_cell)
        blocks.append((cells, rows))
    summary = []
    if cfg.shots:
        summary.append(
            "epsilon_mc is biased upward near zero (absolute differences of "
            "noisy cells); the exact column is the reference"
        )
    return _ADROIT_COLUMNS, blocks, summary


_CLASSIC_COLUMNS = ("c12", "c23", "c13_prime", "lg_quantity", "verdict")


def _cmd_classic(cfg: SweepConfig):
    cs = classic_lg(cfg.omega)
    verdict = "violates_lenient" if cs.lg_quantity < 0 else "no_violation"
    row = (cs.c12, cs.c23, cs.c13_prime, cs.lg_quantity, verdict)
    summary = [
        "no probe battery exists at this timing, so only the lenient reading applies",
        f"ideal value is 1-sqrt(2) = {_f17(1.0 - math.sqrt(2.0))}",
    ]
    return _CLASSIC_COLUMNS, [((float, float, float, float, str), [row])], summary


def _cmd_sweep(cfg: SweepConfig):
    return SWEEP_COLUMNS, _sweep_blocks(_sweep_table(cfg), cfg.format), []


_COMMAND_BODIES = {
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "adroitness": _cmd_adroitness,
    "classic": _cmd_classic,
    "sweep": _cmd_sweep,
}


# ---------------------------------------------------------------------------
# table serialisation

# each type's %-conversion, and the text of None; "%.17g" % x is
# format(x, ".17g"), and "%r" % x is what json.dumps writes for a finite float
_CONVERSIONS = {
    "csv": {float: "%.17g", int: "%d", str: "%s", None: "", _FLOAT_TEXT: "%s"},
    "jsonl": {float: "%r", int: "%d", str: '"%s"', None: "null", _FLOAT_TEXT: "%s"},
}


def _row_template(fmt: str, columns, cells) -> str:
    """The %-template of one block's rows: a varying column's conversion, or
    that conversion applied once to the block's fixed value."""
    conv = _CONVERSIONS[fmt]
    texts = [conv[c] if c in conv else conv[type(c)] % c for c in cells]
    if fmt == "csv":
        return ",".join(texts)
    return "{" + ", ".join(f'"{k}": {t}' for k, t in zip(columns, texts)) + "}"


def _table_lines(cfg: SweepConfig, columns, blocks, summary) -> Iterator[str]:
    """The table's lines without newlines; the rows of a block come as one chunk."""
    if cfg.format == "csv":
        yield f"# lgsim {cfg.command}"
        yield from (f"# config {k}={v}" for k, v in cfg.echo)
        yield from (f"# {s}" for s in summary)
        yield ",".join(columns)
    else:
        meta = {"command": cfg.command, "config": dict(cfg.echo), "summary": list(summary)}
        yield json.dumps({"meta": meta}, sort_keys=True)
    for cells, rows in blocks:
        yield "\n".join(map(_row_template(cfg.format, columns, cells).__mod__, rows))


def _emit(cfg: SweepConfig, columns, blocks, summary) -> None:
    chunks = (line + "\n" for line in _table_lines(cfg, columns, blocks, summary))
    if not cfg.out:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {cfg.out}: {exc}") from None


def read_table(path) -> tuple[dict, list[dict]]:
    """Parse a table written by any command back into (meta, rows).

    ``meta`` holds ``command``, ``config`` (dict) and ``summary`` (list).
    Row values come back as floats/ints/strings for JSONL and as strings for
    CSV (empty cells become None in both).  Numeric strings parse exactly
    because tables are written with %.17g.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty table")
    meta = {"command": None, "config": {}, "summary": []}
    rows: list[dict] = []
    if lines[0].lstrip().startswith("{"):
        for ln in lines:
            obj = json.loads(ln)
            if "meta" in obj:
                meta.update(obj["meta"])
            else:
                rows.append({k: (None if v == "" else v) for k, v in obj.items()})
        return meta, rows
    header: list[str] | None = None
    for ln in lines:
        if ln.startswith("#"):
            body = ln[1:].strip()
            if body.startswith("lgsim "):
                meta["command"] = body[len("lgsim ") :]
            elif body.startswith("config "):
                key, _, val = body[len("config ") :].partition("=")
                meta["config"][key] = val
            else:
                meta["summary"].append(body)
        elif header is None:
            header = ln.split(",")
        else:
            cells = ln.split(",")
            if len(cells) != len(header):
                raise ValueError(f"{path}: row has {len(cells)} cells, header has {len(header)}")
            rows.append({k: (None if c == "" else c) for k, c in zip(header, cells)})
    if header is None:
        raise ValueError(f"{path}: no header line found")
    return meta, rows


def records_from_rows(rows: list[dict]) -> list[SweepRecord]:
    """Rebuild sweep records from parsed rows (exact round trip).

    The cells are taken as one column each and checked as ``sweep_records``
    checks what it writes; the first bad row raises a one-line ``ValueError``.
    """
    return _records_from_cells([[row[c] for row in rows] for c in SWEEP_COLUMNS])


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgsim",
        description="Leggett-Garg protocol tables: violation curves, noise cutoffs, "
        "probe back-action.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--theta", help="theta grid as start:stop:steps (radians)")
    common.add_argument("--gamma", help="gamma grid as start:stop:steps")
    common.add_argument("--n", help="comma list of box sizes, e.g. 1,2,5")
    common.add_argument("--omega", help="drive amplitude (positive)")
    common.add_argument("--m", help="spacing multiplier: tau = pi*m/omega")
    common.add_argument("--criterion", help="lenient (lg >= 0) or strict (lg >= -eps_total)")
    common.add_argument("--shots", help="Monte Carlo shots per estimate (0 = exact only)")
    common.add_argument("--seed", help="base RNG seed (64-bit)")
    common.add_argument("--format", help="csv or jsonl")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--workers", help="threads for grid evaluation")
    common.add_argument("--config", help="key=value file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    helps = {
        "fig2": "violation curves over theta at gamma=0, one block per n",
        "fig3": "theta x gamma sweep at fixed n plus both noise cutoffs",
        "adroitness": "probe battery epsilons, exact and optionally sampled",
        "classic": "textbook three-time test (lg = 1 - sqrt(2))",
        "sweep": "free-form (n, gamma, theta) grid",
    }
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common], help=helps[name])
    return parser


_VALUE_FLAGS = frozenset(f"--{key}" for key in (*_ALL_KEYS, "config"))


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Join ``--flag -x`` into ``--flag=-x`` for a value that starts with one dash.

    argparse reads such a token as an option unless it is a plain negative
    number, so ``--theta -1:1:3`` would leave ``--theta`` without a value.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _VALUE_FLAGS and token.startswith("-") and not token.startswith("--"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


# the variables OpenBLAS reads for its thread count when it loads
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    """Run one command; ``argv`` None means run as the ``lgsim`` program.

    As the program, it starts the BLAS of scipy, which loads with the first
    gamma > 0 propagator, on one thread unless the user set a thread count:
    each ``expm`` on a 4x4 generator wakes that BLAS's worker pool, whose
    worker then spins on another core.  A caller passing ``argv`` keeps its
    environment.
    """
    if argv is None:
        if not any(os.environ.get(k) for k in _BLAS_THREAD_VARS):
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        argv = sys.argv[1:]
    args = build_parser().parse_args(_attach_dash_values(argv))
    try:
        cfg = resolve_config(args.command, args)
        columns, blocks, summary = _COMMAND_BODIES[args.command](cfg)
        _emit(cfg, columns, blocks, summary)
    except (ConfigError, ValueError) as exc:
        print(f"lgsim: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
