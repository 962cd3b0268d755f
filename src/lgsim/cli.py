"""Command-line front end: arguments, configuration, work budget and command bodies.

``_COMMANDS`` holds each command's body (its docstring is the help), its own
defaults, its keys and its work estimate.  Its keys are all a command takes:
its flags, the keys its ``--config`` file of ``key=value`` lines may hold and
its table's echo.  Any other key is refused; inside, it keeps its default.
Flags override the file, which overrides the defaults.  A body does the work
that its input can make fail, then returns its blocks (fixed cells, and
varying columns as arrays), each made only as ``tables`` writes it, and
summary lines; ``tables`` owns the format.
Run as ``python -m lgsim.cli``, the module hands off to the program,
``lgsim.__main__.main``, before numpy loads; imported, it leaves the
environment alone.
"""

from __future__ import annotations

if __name__ == "__main__":  # the program pins BLAS before numpy loads
    from .__main__ import main as _program

    raise SystemExit(_program())

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .dynamics import HamiltonianSpec, LindbladSpec
from .protocol import BATTERY_IDS, adroitness_grid, classic_lg
from .sampling import sample_battery
from .sweeps import _CUTOFF_CALLS, _CUTOFF_THETAS, _WINDOW_STEPS, _WINDOW_THETAS
from .sweeps import gamma_cutoff, sweep_blocks, violation_window
from .tables import _emit, _sweep_blocks, read_table, records_from_rows

__all__ = ["ConfigError", "SweepConfig", "main", "read_table", "records_from_rows"]

_PI_TEXT = "3.141592653589793"

# every key with its default, which a command's own defaults override (see
# _COMMANDS), and its flag's help
_KEYS = {
    "theta": (f"0:{_PI_TEXT}:201", "theta grid as start:stop:steps (radians)"),
    "gamma": ("0:0:1", "gamma grid as start:stop:steps"),
    "n": ("1", "comma list of box sizes, e.g. 1,2,5"),
    "omega": ("1", "drive amplitude (positive)"),
    "m": ("1", "spacing multiplier: tau = pi*m/omega"),
    "criterion": ("lenient", "lenient (lg >= 0) or strict (lg >= -eps_total)"),
    "shots": ("0", "Monte Carlo shots per estimate (0 = exact only)"),
    "seed": ("7", "base RNG seed (64-bit)"),
    "format": ("csv", "csv or jsonl"),
    "out": ("", "output path (default: stdout)"),
    "workers": ("1", "must be 1: grids are evaluated on one thread"),
}

# The work budget: a run's time, estimated from the grid sizes before any grid
# is built (see _work) and checked once.  Each unit costs the budget over what
# its own limit once was, in integer nanoseconds so that no boundary rests on
# float rounding; the README says where each cost was measured.
_BUDGET_NS = 20 * 10**9
_UNIT_NS = {
    "rows": 20_000,  # 10^6 adroitness rows as JSONL, the slowest per row, took 19.7 s
    "box steps": 40,  # a step of the protocol kernel's box loop takes 30-55 ns
    "gamma passes": 333_333,  # a gamma's fixed cost, whatever the theta count
    "sampled shots": 27,  # a shot of sample_battery's walk takes 25-27 ns
    "sampled cells": 300_000,  # a cell's eight run seeds, Philox keys and cut-offs
}
_BOX_PASS_POINTS = 300  # a box-loop pass's fixed cost in steps (about 11 us)
_GAMMA_PASSES = 4  # a gamma's passes for its propagators and battery, before its n blocks


class ConfigError(Exception):
    """Invalid configuration; rendered as one stderr line with exit code 2."""


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


def _linspace(grid: tuple[float, float, int]) -> np.ndarray:
    return np.linspace(*grid)


def _parse_n_list(text: str, where: str) -> tuple[int, ...]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{where}: need at least one n")
    return tuple(_parse_int(s, where, minimum=0) for s in items)


def _parse_choice(text: str, where: str, choices: tuple[str, ...]) -> str:
    if text not in choices:
        raise ConfigError(f"{where}: must be one of {', '.join(choices)}, got {text!r}")
    return text


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """Fully resolved and validated configuration for one command run (grids as arrays)."""

    command: str
    thetas: np.ndarray | None  # None for a command that takes no theta
    gammas: np.ndarray | None  # or no gamma grid
    ns: tuple[int, ...]
    omega: float
    m: int
    criterion: str
    shots: int
    seed: int
    format: str
    out: str
    echo: tuple[tuple[str, str], ...]

    @property
    def tau(self) -> float:
        """Measurement spacing: half a drive period times m."""
        return math.pi * self.m / self.omega


def _work(command: str, thetas: int, gammas: int, ns, shots: int) -> dict[str, int]:
    """How many of each ``_UNIT_NS`` unit ``command`` runs on its grid sizes."""
    cells = thetas * gammas
    if command == "adroitness":  # 5 rows a cell, sampled by 4 experiments with and without probe
        sampled = {"sampled shots": shots * cells * 8, "sampled cells": cells if shots else 0}
        return {"rows": cells * 5, "gamma passes": gammas * _GAMMA_PASSES, **sampled}
    summary = _COMMANDS[command].summary_points
    if summary is None:  # classic writes one row
        return {}
    per_pass = gammas * (thetas + _BOX_PASS_POINTS) + summary  # a call at n makes 2n + 1 passes
    return {
        "rows": cells * len(ns),
        "box steps": sum(2 * n + 1 for n in ns) * per_pass,
        "gamma passes": gammas * (_GAMMA_PASSES + len(ns)),
    }


def _seconds(nanoseconds: int) -> str:
    tenths = (nanoseconds + 5 * 10**7) // 10**8  # exact for any int, unlike a float quotient
    return f"{tenths // 10}.{tenths % 10} s"


def _read_config_file(path: str, command: str) -> dict[str, tuple[str, str]]:
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()  # skips a BOM
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"--config: cannot read {path}: {exc}") from None
    out: dict[str, tuple[str, str]] = {}
    for ln, raw in enumerate(lines, 1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        key, sep, val = s.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key:
            raise ConfigError(f"config line {ln}: expected key=value, got {s!r}")
        if key not in _COMMANDS[command].keys:
            problem = "unknown key" if key not in _KEYS else f"{command} does not read the key"
            raise ConfigError(f"config line {ln}: {problem} {key!r}")
        if key in out:
            raise ConfigError(f"config line {ln}: duplicate key {key!r}")
        out[key] = (val, f"config line {ln} ({key})")
    return out


def resolve_config(command: str, args: argparse.Namespace) -> SweepConfig:
    spec = _COMMANDS[command]
    defaults = {k: default for k, (default, _) in _KEYS.items()} | spec.defaults
    merged = {k: (v, f"default {k}") for k, v in defaults.items()}
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config, command))
    for key in spec.keys:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = (str(flag), f"--{key}")
    for text, where in merged.values():  # each value is echoed into one table line
        if text.splitlines() not in ([], [text]):
            raise ConfigError(f"{where}: must not contain a line break, got {text!r}")

    notes = []
    if command == "fig2" and merged["gamma"][0] != "0:0:1":
        notes.append(("note", f"gamma={merged['gamma'][0]} ignored: fig2 fixes gamma=0"))
        merged["gamma"] = ("0:0:1", "forced by fig2")

    def named(keys) -> str:
        """The flags or config lines that set ``keys``, or all sources if none did."""
        sources = [merged[k][1] for k in keys]
        chosen = [w for w in sources if not w.startswith(("default ", "forced "))]
        return ", ".join(chosen or sources)

    theta_grid = _parse_range(*merged["theta"])
    gamma_grid = _parse_range(*merged["gamma"])
    ns = _parse_n_list(*merged["n"])
    omega_text, omega_where = merged["omega"]
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
    m = _parse_int(*merged["m"], minimum=1)
    if m > sys.float_info.max / math.pi:  # exact int/float comparison
        raise ConfigError(f"{merged['m'][1]}: m is too large (tau = pi*m/omega overflows)")
    criterion = _parse_choice(*merged["criterion"], choices=("lenient", "strict"))
    shots = _parse_int(*merged["shots"], minimum=0)
    seed = _parse_int(*merged["seed"], minimum=0)
    if seed >= 2**64:
        raise ConfigError(f"{merged['seed'][1]}: seed must be below 2**64")
    fmt = _parse_choice(*merged["format"], choices=("csv", "jsonl"))
    out = merged["out"][0]
    _parse_choice(*merged["workers"], choices=("1",))  # grids run on one thread
    if gamma_grid[0] < 0:  # the grid's least point
        raise ConfigError(f"{merged['gamma'][1]}: gamma must be nonnegative, got {gamma_grid[0]}")
    if command == "fig3" and len(ns) != 1:
        raise ConfigError(f"{merged['n'][1]}: fig3 evaluates exactly one n, got {len(ns)}")
    timing = [k for k in ("n", "m", "omega") if k in spec.keys]
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
    work = _work(command, theta_grid[2], gamma_grid[2], ns, shots).items()
    charge = {unit: count * _UNIT_NS[unit] for unit, count in work}
    if sum(charge.values()) > _BUDGET_NS:
        where = named([k for k in ("shots", "theta", "gamma", "n") if k in spec.keys])
        terms = ", ".join(f"{unit} {_seconds(cost)}" for unit, cost in charge.items() if cost)
        total, budget = _seconds(sum(charge.values())), _BUDGET_NS // 10**9
        raise ConfigError(f"{where}: {total} of work ({terms}) exceeds the {budget} s budget")
    thetas = _linspace(theta_grid) if "theta" in spec.keys else None  # classic takes no grid
    gammas = _linspace(gamma_grid) if "gamma" in spec.keys else None

    echo = tuple([(k, merged[k][0]) for k in spec.keys] + notes)
    return SweepConfig(
        command, thetas, gammas, ns, omega, m, criterion, shots, seed, fmt, out, echo
    )


# ---------------------------------------------------------------------------
# command bodies: each returns (blocks, summary_lines), the blocks as
# ``tables`` takes them: a block's fixed cells, and its varying columns as
# arrays.  Before it returns, a body has built every propagator its table
# needs, so an input the dynamics refuse fails before any row is written.


def _sweep(cfg: SweepConfig):
    blocks = sweep_blocks(cfg.thetas, cfg.gammas, cfg.ns, tau=cfg.tau, omega=cfg.omega)
    return _sweep_blocks(blocks)


def _cmd_fig2(cfg: SweepConfig):
    """violation curves over theta at gamma=0, one block per n"""
    blocks = _sweep(cfg)
    summary = []
    for n in cfg.ns:
        try:
            w = violation_window(n, 0.0, cfg.tau, cfg.omega, criterion=cfg.criterion)
            at = "none"
            if w is not None:
                at = f"theta/pi={w.lo / math.pi:.9f} width/pi={w.width / math.pi:.9f}"
        except ValueError as exc:
            at = f"undefined: {exc}"
        summary.append(f"onset[n={n}] {at} (criterion={cfg.criterion})")
    return blocks, summary


def _cmd_fig3(cfg: SweepConfig):
    """theta x gamma sweep at fixed n plus both noise cutoffs"""
    blocks = _sweep(cfg)
    summary = []
    for crit in ("lenient", "strict"):
        try:
            cut = gamma_cutoff(cfg.ns[0], cfg.tau, cfg.omega, criterion=crit)
            summary.append(f"gamma_cutoff[{crit}]={cut:.9g}")
        except ValueError as exc:
            summary.append(f"gamma_cutoff[{crit}] undefined: {exc}")
    return blocks, summary


def _cell_seed(base: int, cell: int, side: int) -> int:
    ss = np.random.SeedSequence(entropy=base, spawn_key=(cell, side))
    return int(ss.generate_state(1, np.uint64)[0])


_ADROIT_IDS = (*BATTERY_IDS, "total")
_MC_NOTE = (
    "epsilon_mc is biased upward near zero (absolute differences of noisy cells); "
    "the exact column is the reference"
)


def _cmd_adroitness(cfg: SweepConfig):
    """probe battery epsilons, exact and optionally sampled"""
    # one block per gamma: experiments a-d, then their total, for each theta;
    # without shots both Monte Carlo cells are empty.  Every gamma's exact
    # grid is computed here, where a propagator that fails raises.
    no_mc = {} if cfg.shots else {"epsilon_mc": None, "epsilon_mc_se": None}
    specs = [LindbladSpec(HamiltonianSpec(cfg.omega), gamma) for gamma in cfg.gammas.tolist()]
    grids = [adroitness_grid(cfg.thetas, cfg.tau, spec) for spec in specs]
    blocks = (
        (
            {"gamma": spec.gamma, "tau": cfg.tau, "omega": cfg.omega, **no_mc},
            _adroitness_columns(cfg, spec, grid, 4 * k * len(cfg.thetas)),
        )
        for k, (spec, grid) in enumerate(zip(specs, grids))
    )
    return blocks, [_MC_NOTE] if cfg.shots else []


def _with_total(eps: np.ndarray) -> np.ndarray:
    """Each theta's experiments a-d and their total, added left to right, as
    one column in row order."""
    return np.column_stack((eps, eps[:, 0] + eps[:, 1] + eps[:, 2] + eps[:, 3])).ravel()


def _adroitness_columns(cfg: SweepConfig, spec, grid: np.ndarray, cell: int):
    """One gamma's varying columns, five rows a theta, sampled when the table
    reaches the block; ``cell`` numbers the first theta's first experiment."""
    ids = np.tile(np.array(_ADROIT_IDS, dtype=object), len(cfg.thetas))  # 8 bytes a row
    columns = (ids, np.repeat(cfg.thetas, 5), _with_total(grid))
    if not cfg.shots:
        return columns
    seeds = [
        [[_cell_seed(cfg.seed, cell + 4 * b + e, side) for side in (0, 1)] for e in range(4)]
        for b in range(len(cfg.thetas))
    ]
    est = sample_battery(cfg.thetas, cfg.tau, spec, cfg.shots, seeds)
    # an experiment's SE is its cells' SEs in quadrature, and the total's SE
    # is the experiments' SEs in quadrature
    mc_se = np.sqrt(np.square(est.cell_standard_errors).reshape(-1, 4, 4).sum(axis=-1))
    total_se = np.sqrt(np.square(mc_se).sum(axis=1))
    return (*columns, _with_total(est.epsilon), np.column_stack((mc_se, total_se)).ravel())


def _cmd_classic(cfg: SweepConfig):
    """textbook three-time test (lg = 1 - sqrt(2))"""
    cs = classic_lg(cfg.omega)
    verdict = "violates_lenient" if cs.lg_quantity < 0 else "no_violation"
    row = [np.array([v]) for v in (cs.c12, cs.c23, cs.c13_prime, cs.lg_quantity, verdict)]
    summary = [
        "no probe battery exists at this timing, so only the lenient reading applies",
        f"ideal value is 1-sqrt(2) = {1.0 - math.sqrt(2.0):.17g}",
    ]
    return [({}, row)], summary


def _cmd_sweep(cfg: SweepConfig):
    """free-form (n, gamma, theta) grid"""
    return _sweep(cfg), []


class _Command(NamedTuple):
    body: Callable  # SweepConfig -> (blocks, summary lines); its docstring is the help
    defaults: dict[str, str]  # the command's own, over _KEYS'
    keys: tuple[str, ...]  # all it takes: its flags, its config file's keys, its echo
    # box points per pass its summary adds, per n (see _work); None: no box loop
    summary_points: int | None


_SWEEP_KEYS = ("theta", "gamma", "n", "omega", "m", "criterion", "workers", "format", "out")
_ADROIT_KEYS = ("theta", "gamma", "omega", "m", "shots", "seed", "format", "out")
# fig2's violation window (its grid, then one-point bisection steps) and fig3's
# two gamma cutoffs, each at the worst-case call count that sweeps declares
_WINDOW_POINTS = _WINDOW_THETAS + _BOX_PASS_POINTS + _WINDOW_STEPS * (1 + _BOX_PASS_POINTS)
_CUTOFF_POINTS = 2 * _CUTOFF_CALLS * (_CUTOFF_THETAS + _BOX_PASS_POINTS)

_COMMANDS = {
    "fig2": _Command(_cmd_fig2, {"n": "1,2,5,10"}, _SWEEP_KEYS, _WINDOW_POINTS),
    "fig3": _Command(_cmd_fig3, {"gamma": "0:0.02:21"}, _SWEEP_KEYS, _CUTOFF_POINTS),
    "adroitness": _Command(
        _cmd_adroitness, {"theta": f"0:{_PI_TEXT}:9", "gamma": "0:0.004:3"}, _ADROIT_KEYS, None
    ),
    "classic": _Command(_cmd_classic, {}, ("omega", "format", "out"), None),
    "sweep": _Command(_cmd_sweep, {}, tuple(k for k in _SWEEP_KEYS if k != "criterion"), 0),
}


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose refusals raise ``ConfigError``, which
    ``main`` writes as one line, where argparse prints its usage and exits,
    and which reads a flag only by its full name; ``add_subparsers`` makes
    the subparsers of this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lgsim",
        description="Leggett-Garg protocol tables: violation curves, noise cutoffs, "
        "probe back-action.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in _COMMANDS.items():
        flags = sub.add_parser(name, help=command.body.__doc__)
        for key in command.keys:
            flags.add_argument(f"--{key}", help=_KEYS[key][1])
        flags.add_argument("--config", help="key=value file of these keys; flags override it")
    return parser


_VALUE_FLAGS = frozenset(f"--{key}" for key in (*_KEYS, "config"))


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Join ``--flag -x`` into ``--flag=-x`` for a value that starts with one
    dash, which argparse would read as an option unless it is a plain number
    (``--theta -1:1:3`` would leave ``--theta`` without a value)."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _VALUE_FLAGS and token.startswith("-") and not token.startswith("--"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    """Run one command on ``argv`` (None: ``sys.argv[1:]``).  It leaves the
    environment and stdout's file descriptor alone: the program (see
    ``__main__``) pins BLAS and ends a run whose reader leaves early."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_attach_dash_values(argv))
        cfg = resolve_config(args.command, args)
        blocks, summary = _COMMANDS[args.command].body(cfg)
        _emit(cfg, blocks, summary)
    except (ConfigError, ValueError) as exc:
        print(f"lgsim: error: {exc}", file=sys.stderr)
        return 2
    return 0
