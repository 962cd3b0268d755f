"""Record a before/after benchmark of two lgsim checkouts as one JSON file.

    python benchmarks/record.py --base DIR --head DIR --out BENCH_<pr>.json

``--base`` and ``--head`` are source checkouts (each holds ``src/lgsim``
and ``perfbench/``), for example a clone of the parent commit and the
change.  For each checkout the script records:

- each perfbench workload (``figures``, ``grid``, ``montecarlo``,
  ``battery``): the checkout's own, unchanged ``perfbench/run.py --workload
  W --seed S --seconds 20 --trace 0``, run from its root, and the last line
  of its stdout, which is one JSON object;
- five commands, each in a ``python -m lgsim.cli`` child timed with
  ``os.wait4`` (wall time, CPU time, peak RSS), beside the work budget's
  estimate for it (``cli._work`` times ``cli._UNIT_NS``), each writing to
  ``/dev/null``:

  - ``bigblock``, ``sweep --theta 0:3.14:200000`` (25 blocks of 8192 rows);
  - ``shortblocks``, ``sweep --theta 0:0:1 --gamma 0:1:500 --n
    1,2,3,4,5,6`` (3000 one-row blocks);
  - ``cells``, ``adroitness --theta 0:3.14:300 --gamma 0.01:0.01:2 --shots
    1`` (600 sampled cells, where a cell's fixed cost dominates);
  - ``manycells``, the same on ``--theta 0:3.14:5000 --gamma
    0.01:0.01:5`` (25,000 sampled cells);
  - ``exactblocks``, ``adroitness --theta 0:3.14:20000 --gamma 0:0.01:5``
    (five exact blocks of 100,000 rows);

- the Tier-1 suite's wall time and its pytest summary line, over
  ``TIER1_RUNS`` runs a side, so the file holds the median of three.

The two checkouts run alternately, ``PAIRS`` pairs of each workload and
command and ``TIER1_RUNS`` of the suite, and each side runs first in every
other pair, so drift in the host's speed falls on both.
The file holds the settings, the environment, both commits, every run,
and per metric the median and quartiles of each side and the change of
the medians.  A run that fails is kept and counted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10  # the fewest pairs that can show a gain in nine of ten
SECONDS = 20.0  # perfbench's --seconds, as BENCHMARK.json's run_seconds
TIER1_RUNS = 3
WORKLOADS = ("figures", "grid", "montecarlo", "battery")
END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "readback_s")
COMMANDS = {
    "bigblock": ("sweep", "--theta", "0:3.14:200000"),
    "shortblocks": ("sweep", "--theta", "0:0:1", "--gamma", "0:1:500", "--n", "1,2,3,4,5,6"),
    "cells": ("adroitness", "--theta", "0:3.14:300", "--gamma", "0.01:0.01:2", "--shots", "1"),
    "manycells": ("adroitness", "--theta", "0:3.14:5000", "--gamma", "0.01:0.01:5",
                  "--shots", "1"),
    "exactblocks": ("adroitness", "--theta", "0:3.14:20000", "--gamma", "0:0.01:5"),
}
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")
# the budget's charge for a command, printed by the checkout's own lgsim.cli
ESTIMATE = """
import sys
from lgsim import cli
args = cli.build_parser().parse_args(sys.argv[1:])
cfg = cli.resolve_config(args.command, args)
work = cli._work(args.command, len(cfg.thetas), len(cfg.gammas), cfg.ns, cfg.shots)
print(sum(count * cli._UNIT_NS[unit] for unit, count in work.items()) / 1e9)
"""


def env_for(root: Path) -> dict:
    """The environment with ``root``'s sources first on the import path."""
    paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def checkout(root: Path) -> dict:
    status = git(root, "status", "--porcelain")
    dirty = None if status is None else bool(status)
    return {"commit": git(root, "rev-parse", "HEAD"), "dirty": dirty}


def perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    env = next((ln[len("environment ") :] for ln in lines if ln.startswith("environment ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "error": done.stderr.strip()[-2000:]}
    result["exit"] = done.returncode
    result["environment"] = json.loads(env) if env else None
    return result


def timed(root: Path, args: tuple[str, ...]) -> dict:
    argv = [sys.executable, "-m", "lgsim.cli", *args]
    began = time.perf_counter()
    child = subprocess.Popen(argv, cwd=root, env=env_for(root), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    return {
        "ok": status == 0,
        "wall_s": time.perf_counter() - began,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # MB (10^6 bytes), as perfbench writes it; ru_maxrss is in KiB on Linux
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
    }


def estimate(root: Path, argv: tuple[str, ...]) -> float | None:
    done = subprocess.run([sys.executable, "-c", ESTIMATE, *argv], cwd=root, env=env_for(root),
                          capture_output=True, text=True)
    return float(done.stdout) if done.returncode == 0 else None


def tier1(root: Path) -> dict:
    began = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=root, env=env_for(root),
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - began, "exit": done.returncode,
            "summary": lines[-1] if lines else ""}


def in_turn(roots: dict, pair: int) -> list:
    """Both sides, the base first in even pairs and the head first in odd ones."""
    sides = list(roots.items())
    return sides if pair % 2 == 0 else sides[::-1]


def spread(values: list[float]) -> dict:
    """Median and quartiles (the inclusive method, so one value is its own)."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: dict[str, list[dict]], names) -> dict:
    """Per metric: each side's spread, and the head's median change."""
    out = {}
    for name in names:
        sides = {}
        for side, results in runs.items():
            values = [r[name] for r in results if r.get(name) is not None]
            if values:
                sides[side] = spread(values)
        if len(sides) == 2 and sides["base"]["median"]:
            sides["change"] = sides["head"]["median"] / sides["base"]["median"] - 1.0
        out[name] = sides
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    roots = {"base": args.base.resolve(), "head": args.head.resolve()}

    record = {
        "about": "before/after benchmark written by benchmarks/record.py; see its docstring",
        "settings": {"pairs": PAIRS, "seconds": SECONDS, "tier1_runs": TIER1_RUNS},
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "load_average_at_start": os.getloadavg(),
        },
        "checkouts": {side: checkout(root) for side, root in roots.items()},
        "workloads": {},
        "commands": {},
    }
    for workload in WORKLOADS:
        runs = {"base": [], "head": []}
        for seed in range(PAIRS):
            for side, root in in_turn(roots, seed):
                result = perfbench(root, workload, seed, SECONDS)
                runs[side].append(result)
                print(f"{workload} {side} seed={seed} correct={result.get('correct')} "
                      f"wall_s={result.get('metrics', {}).get('wall_s', {}).get('value')}",
                      file=sys.stderr, flush=True)
        values = {
            side: [{k: m["value"] for k, m in r.get("metrics", {}).items()} for r in results]
            for side, results in runs.items()
        }
        record["workloads"][workload] = {
            "failed_runs": {s: sum(not r.get("correct") for r in rs) for s, rs in runs.items()},
            "metrics": summarize(values, END_TO_END),
            "runs": runs,
        }

    for name, command in COMMANDS.items():
        command += ("--out", "/dev/null")
        runs = {"base": [], "head": []}
        for pair in range(PAIRS):
            for side, root in in_turn(roots, pair):
                runs[side].append(timed(root, command))
        record["commands"][name] = {
            "argv": ["lgsim", *command],
            "budget_estimate_s": {side: estimate(root, command) for side, root in roots.items()},
            "metrics": summarize(runs, ("wall_s", "cpu_s", "peak_rss_mb")),
            "runs": runs,
        }

    suite = {"base": [], "head": []}
    for pair in range(TIER1_RUNS):
        for side, root in in_turn(roots, pair):
            suite[side].append(tier1(root))
            print(f"tier1 {side}: {suite[side][-1]['summary']}", file=sys.stderr, flush=True)
    record["commands"]["tier1"] = {
        "argv": ["python", *TIER1],
        "metrics": summarize(suite, ("wall_s",)),
        "runs": suite,
    }
    record["environment"]["perfbench"] = next(
        (r["environment"] for r in record["workloads"][WORKLOADS[0]]["runs"]["head"]), None
    )
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
