"""lgsim benchmark: the ``lgsim`` CLI run as a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the one holding ``src/lgsim``).
Each command of a workload runs in a fresh ``python -m lgsim.cli``
subprocess.  The loop is closed with a single client: the next command
starts only after the previous one has exited, every command keeps the
default ``--workers 1``, and BLAS threading is left at the user's default.
Every table is checked (see ``check_table``) and parsed back with
``read_table``/``records_from_rows`` in a separate process.  Every time in
the end-to-end metrics is scaled to a reference host speed by the host
speed probes taken around it (``hostspeed.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reruns each
command in process, once plain and once with every layer wrapped
(``tracer.py``), and reports per-layer self times and counts.  The last
line of stdout is one JSON object; the lines above it give every metric
with its unit, median, tail percentile and sample count, and the
environment.  Outputs go to a temporary directory inside the checkout,
which is removed at exit.  Why each workload exists: ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed  # this script's directory is sys.path[0]

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
CHILD = HERE / "child.py"
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
PI = "3.141592653589793"
clock = time.perf_counter

CHILD_TIMEOUT_S = 120.0  # a child still running after this is killed and fails
RUN_BUDGET_S = 150.0  # no repetition starts once one more would pass this
SETUP_SAMPLES = 10  # fresh-interpreter imports behind setup_s, at least
# Monte Carlo check for seeds without a recorded digest: |epsilon_mc -
# epsilon| <= (MC_Z + sqrt(2 cells / pi)) * se, where a row sums `cells`
# |p_with - p_without| terms (4 per experiment, 16 for a total).  The second
# term bounds the upward bias of those terms when their true value is 0
# (E|N(0, s^2)| = s sqrt(2/pi), and sum s_i <= sqrt(cells) * se).
MC_Z = 6.0


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    out: str | None = None  # --out target; None means the table is stdout


@dataclass(frozen=True)
class Workload:
    kind: str  # "sweep" tables go through records_from_rows, "adroitness" do not
    # The parse-back of a repetition is `batches` timed batches of `batch`
    # passes over the tables, with a host speed probe after each batch.  A
    # batch takes at least about 10 ms, so that the probes around it see
    # the host as it was; a repetition parses for roughly half a second.
    batches: int
    batch: int

    @property
    def passes(self) -> int:
        return self.batches * self.batch


WORKLOADS = {
    "figures": Workload("sweep", 5, 1),
    "grid": Workload("sweep", 1, 1),
    "montecarlo": Workload("adroitness", 40, 25),
    "battery": Workload("adroitness", 15, 1),
}


def commands(workload: str, seed: int) -> tuple[Command, ...]:
    if workload == "figures":
        return (Command("fig2", ("fig2",)), Command("fig3", ("fig3", "--format", "jsonl")))
    if workload == "grid":
        grid = ("--theta", "0:3.14:2001", "--gamma", "0:0.02:41", "--n", "1,2,5")
        return (Command("sweep", ("sweep", *grid, "--out", "grid.csv"), out="grid.csv"),)
    if workload == "montecarlo":
        return (Command("adroitness", ("adroitness", "--shots", "100000", "--seed", str(seed))),)
    if workload == "battery":
        grid = ("--theta", f"0:{PI}:201", "--gamma", "0:0.004:11")
        return (Command("adroitness", ("adroitness", *grid)),)
    raise ValueError(workload)


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Exit:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stderr: str
    sampler: hostspeed.Sampler


def spawn(argv, cwd: Path, stdout_path: Path | None, env) -> Exit:
    """Run one child to completion; rusage comes from ``wait4`` on its pid.

    A ``hostspeed.Sampler`` probes the child's vCPU while it runs.
    """
    err_path = cwd / ".stderr"
    with open(stdout_path or os.devnull, "wb") as out, open(err_path, "wb") as err:
        start = clock()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            with hostspeed.Sampler(proc.pid) as sampler:
                _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = clock() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace").strip()
    return Exit(
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        stderr=stderr.splitlines()[-1] if stderr else "",
        sampler=sampler,
    )


def child_result(argv, cwd: Path, stdout_path: Path | None, env) -> tuple[Exit, dict | None]:
    result_path = cwd / ".result.json"
    result_path.unlink(missing_ok=True)
    done = spawn([sys.executable, str(CHILD), argv[0], str(result_path), *argv[1:]], cwd,
                 stdout_path, env)
    if done.rc != 0 or not result_path.exists():
        return done, None
    return done, json.loads(result_path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# output checks


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _csv_rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in body[1:]]


def montecarlo_problems(path: Path) -> list[str]:
    """Sampled epsilons against the exact column, within MC_Z standard errors."""
    problems = []
    try:
        rows = [
            (row, *(float(row[k]) for k in ("epsilon", "epsilon_mc", "epsilon_mc_se")))
            for row in _csv_rows(path)
        ]
    except (IndexError, KeyError, ValueError) as exc:
        return [f"table does not parse as an adroitness table: {exc!r}"]
    for row, eps, mc, se in rows:
        cells = 16 if row["experiment"] == "total" else 4
        allowed = (MC_Z + math.sqrt(2 * cells / math.pi)) * se + 1e-12
        if not abs(mc - eps) <= allowed:
            problems.append(
                f"epsilon_mc {mc!r} vs exact {eps!r} at experiment={row['experiment']} "
                f"theta={row['theta']} gamma={row['gamma']}: allowed {allowed:.3g}"
            )
    return problems


def check_table(workload: str, cmd: Command, path: Path, seed: int) -> list[str]:
    """Byte-for-byte digest against reference.json; Monte Carlo also by statistics."""
    if not path.exists():
        return [f"{cmd.name}: no table written"]
    digest = sha256(path)
    if workload == "montecarlo":
        expected = REFERENCE["montecarlo_sha256_by_seed"].get(str(seed))
        problems = montecarlo_problems(path)
    else:
        expected = REFERENCE["tables"][f"{workload}/{cmd.name}"]["sha256"]
        problems = []
    if expected is not None and digest != expected:
        problems.append(f"{cmd.name}: table sha256 {digest} differs from reference {expected}")
    return problems


def expected_rows(workload: str, cmd: Command) -> int:
    if workload == "montecarlo":
        return REFERENCE["montecarlo_rows"]
    return REFERENCE["tables"][f"{workload}/{cmd.name}"]["rows"]


# ---------------------------------------------------------------------------
# one benchmark run


class Run:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.cmds = commands(workload, seed)
        self.env = dict(os.environ)
        # An installed lgsim imports from compiled .pyc files, so let the
        # children write them (the warm-up does) even where this is disabled.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # -- bookkeeping ---------------------------------------------------------

    def _settle(self, per_command: dict[str, list[str]]) -> None:
        """Count each command run as one operation, failed on any problem."""
        for name, problems in per_command.items():
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"[{self.workload}/{name}] {p}" for p in problems)

    def _fresh_dir(self, name: str) -> Path:
        d = self.work / name
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d

    def _table_path(self, d: Path, cmd: Command) -> Path:
        return d / (cmd.out or f"{cmd.name}.out")

    def _readback(self, d: Path, mode: str, per_command) -> tuple[Exit, dict | None]:
        tables = [str(self._table_path(d, c)) for c in self.cmds]
        done, res = child_result(
            ["readback", mode, str(self.spec.batches), str(self.spec.batch), self.spec.kind,
             *tables],
            d, None, self.env,
        )
        for cmd, table in zip(self.cmds, tables):
            if res is None:
                per_command[cmd.name].append(f"parse-back failed: {done.stderr}")
            elif res["rows"].get(table) != expected_rows(self.workload, cmd):
                per_command[cmd.name].append(
                    f"parse-back gave {res['rows'].get(table)} rows, "
                    f"expected {expected_rows(self.workload, cmd)}"
                )
        return done, res

    # -- the measured steps --------------------------------------------------

    def setup_probe(self) -> tuple[Exit, dict]:
        done, res = child_result(["setup"], self.work, None, self.env)
        if res is None:
            raise RuntimeError(f"import lgsim failed: {done.stderr}")
        lgsim_file = Path(res["lgsim_file"]).resolve()
        if (ROOT / "src") not in lgsim_file.parents:
            raise RuntimeError(f"lgsim imported from {lgsim_file}, not from {ROOT / 'src'}")
        return done, res

    def repetition(self, parse_back: bool = True) -> dict[str, list[float]]:
        """The workload's CLI commands once, as subprocesses, then the parse-back.

        Returns samples per metric; a ``raw.`` key holds a time before it was
        scaled to the reference host speed.
        """
        d = self._fresh_dir("e2e")
        per_command = {}
        walls, cpus, rss, probes = [], [], [], []
        for cmd in self.cmds:
            stdout = None if cmd.out else self._table_path(d, cmd)
            done = spawn([sys.executable, "-m", "lgsim.cli", *cmd.argv], d, stdout, self.env)
            # Every command outlives the sampling interval (import alone
            # does); a probe just after it stands in should one not.
            during = [p for _, p in done.sampler.samples] or [hostspeed.probe()]
            probes += during
            walls.append((done.wall_s, hostspeed.scale(done.wall_s, during)))
            cpus.append((done.cpu_s, hostspeed.scale(done.cpu_s, during)))
            rss.append(done.maxrss_mb)
            per_command[cmd.name] = (
                [f"exit code {done.rc}: {done.stderr}"] if done.rc != 0
                else check_table(self.workload, cmd, self._table_path(d, cmd), self.seed)
            )
        done, res = self._readback(d, "e2e", per_command) if parse_back else (None, None)
        self._settle(per_command)
        values = {
            "wall_s": [sum(s for _, s in walls)],
            "cpu_s": [sum(s for _, s in cpus)],
            "peak_rss_mb": [max(rss)],
            "raw.wall_s": [sum(r for r, _ in walls)],
            "raw.cpu_s": [sum(r for r, _ in cpus)],
            "host.probe_s": probes,
        }
        if res is not None:  # the parse-back starts in a fresh interpreter too
            values["raw.readback_s"] = res["pass_s"]
            values["readback_s"] = []
            for i, (t, at) in enumerate(zip(res["pass_s"], res["pass_at"])):
                around = res["probe_s"][i:i + 2] + done.sampler.within(*at)
                values["readback_s"].append(hostspeed.scale(t, around))
                values["host.probe_s"] += around
            for k, v in import_samples(done, res).items():
                values.setdefault(k, []).extend(v)
        return values

    def traced_repetition(self, traced_first: bool) -> dict:
        """Each command in process, plain and traced, then both parse-backs."""
        order = (True, False) if traced_first else (False, True)
        per_command = {c.name: [] for c in self.cmds}
        results = {True: [], False: []}
        dirs = {}
        for traced in order:
            d = dirs[traced] = self._fresh_dir("traced" if traced else "plain")
            for cmd in self.cmds:
                stdout = None if cmd.out else self._table_path(d, cmd)
                done, res = child_result(
                    ["cli", "1" if traced else "0", *cmd.argv], d, stdout, self.env
                )
                if res is None:
                    per_command[cmd.name].append(f"exit code {done.rc}: {done.stderr}")
                else:
                    results[traced].append(res)
                    per_command[cmd.name] += check_table(
                        self.workload, cmd, self._table_path(d, cmd), self.seed
                    )
        for traced in order:
            _, res = self._readback(dirs[traced], "traced" if traced else "plain", per_command)
            if res is not None:
                results[traced].append(res)
        self._settle(per_command)
        tables = [self._table_path(dirs[True], c) for c in self.cmds]
        return layer_metrics(results[True], results[False], tables, self.spec.passes)


def import_samples(done: Exit, res: dict) -> dict[str, list[float]]:
    """``setup_s`` samples from a child that timed ``import lgsim`` between probes."""
    around = res["import_probe_s"] + done.sampler.within(*res["import_at"])
    return {
        "setup_s": [hostspeed.scale(res["import_s"], around, elasticity=0.5)],
        "raw.setup_s": [res["import_s"]],
        "host.probe_s": around,
    }


def layer_metrics(traced: list[dict], plain: list[dict], tables: list[Path], passes: int):
    """Per-layer numbers of one repetition, summed over its traced processes."""
    spans, under, counts = {}, {}, {}
    hits = misses = 0
    for res in traced:
        for name, agg in res["spans"]["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += agg[k]
        for label, agg in res["spans"]["under"].items():
            acc = under.setdefault(label, {"calls": 0, "total_s": 0.0})
            for k in acc:
                acc[k] += agg[k]
        for k, v in res["spans"]["counts"].items():
            counts[k] = counts.get(k, 0) + v
        if "cache" in res:
            hits += res["cache"]["hits"]
            misses += res["cache"]["misses"]

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(*names):
        return sum(spans.get(n, {}).get("total_s", 0.0) for n in names)

    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    traced_wall = sum(r["wall_s"] for r in traced)
    plain_wall = sum(r["wall_s"] for r in plain)
    records_total = total_s("sweeps.sweep_records")
    kernels_in_records = sum(
        under.get(k, {}).get("total_s", 0.0) for k in ("sweep_protocol_lg", "sweep_battery_eps")
    )
    rows_out = sum(v for r in traced if "rows" in r for v in r["rows"].values())
    return {
        "import.lgsim_s": total_s("import"),
        "import.scipy_linalg_s": total_s("import.scipy_linalg"),
        "qubit.channel_s": self_s("qubit.channel"),
        "qubit.channels": calls("qubit.channel"),
        "qubit.objects_s": self_s("qubit.observable", "qubit.state"),
        "qubit.objects": calls("qubit.observable", "qubit.state"),
        "dynamics.propagator_s": self_s("dynamics.lindblad_propagator"),
        "dynamics.propagator_calls": calls("dynamics.lindblad_propagator"),
        "dynamics.cache_hits": hits,
        "dynamics.cache_misses": misses,
        "dynamics.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "kernels.protocol_lg_s": self_s("kernels.protocol_lg"),
        "kernels.protocol_lg_points": counts.get("protocol_lg.points", 0),
        "kernels.battery_eps_s": self_s("kernels.battery_eps"),
        "kernels.battery_eps_points": counts.get("battery_eps.points", 0),
        "kernels.sample_paths_s": self_s("kernels.sample_paths"),
        "kernels.sample_paths_steps": counts.get("sample_paths.steps", 0),
        "kernels.sample_paths_bytes": counts.get("sample_paths.bytes", 0),
        "sampling.sample_s": self_s("sampling.sample_trajectories"),
        "sampling.shots": counts.get("sampling.shots", 0),
        "sampling.estimate_s": self_s("sampling.estimate_adroitness"),
        "protocol.report_s": self_s("protocol.adroitness_report"),
        "protocol.reports": calls("protocol.adroitness_report"),
        "protocol.experiments_s": self_s("protocol.adroitness_experiments"),
        "protocol.joint_s": self_s("protocol.joint_distribution"),
        "protocol.joint_calls": calls("protocol.joint_distribution"),
        "sweeps.lg_curve_s": self_s("sweeps.lg_curve"),
        "sweeps.lg_curve_calls": calls("sweeps.lg_curve"),
        "sweeps.records_s": self_s("sweeps.sweep_records"),
        "sweeps.records": counts.get("sweeps.records", 0),
        "sweeps.bisect_s": self_s("sweeps.violation_window", "sweeps.gamma_cutoff"),
        "sweeps.bisect_evals": under.get("bisect_evals", {}).get("calls", 0),
        "sweeps.kernel_share": kernels_in_records / records_total if records_total else 0.0,
        "cli.resolve_s": self_s("cli.resolve_config"),
        "cli.self_s": self_s("cli.main"),
        "cli.rows_out": rows_out,
        "cli.bytes_out": sum(p.stat().st_size for p in tables if p.exists()),
        "cli.read_table_s": self_s("cli.read_table") / passes,
        "cli.records_from_rows_s": self_s("cli.records_from_rows") / passes,
        "trace.wall_s": traced_wall,
        "trace.untraced_s": plain_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.coverage": (
            sum(a["self_s"] for a in spans.values()) / traced_wall if traced_wall else 0.0
        ),
    }


# ---------------------------------------------------------------------------
# reporting


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples above it."""
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def report(declared: list[dict], samples: dict[str, list[float]]) -> dict:
    metrics = {}
    for m in declared:
        values = samples.get(m["name"]) or [0.0]  # none only when every attempt failed
        median = statistics.median(values)
        t = tail(values)
        tail_text = f"p{t[0]:g} {t[1]:.6g}" if t else "no tail percentile (needs >= 20 samples)"
        print(f"  {m['name']:<28} {median:>14.6g} {m['unit']:<6} "
              f"median of {len(values)}; {tail_text}")
        raw = samples.get(f"raw.{m['name']}")
        if raw:
            print(f"  {'':<28} {statistics.median(raw):>14.6g} {m['unit']:<6} "
                  f"as timed, before scaling to the reference host speed")
        metrics[m["name"]] = {"value": median, "unit": m["unit"]}
    probes = samples.get("host.probe_s")
    if probes:
        q = statistics.quantiles(probes, n=4) if len(probes) > 1 else probes * 3
        print(f"  host speed probe: median {statistics.median(probes) * 1e3:.4g} ms, quartiles "
              f"{q[0] * 1e3:.4g}/{q[2] * 1e3:.4g} ms over {len(probes)}; reference "
              f"{hostspeed.REFERENCE_S * 1e3:.4g} ms")
    return metrics


def environment(probe: dict) -> dict:
    env = dict(probe["env"])
    env["nproc"] = os.cpu_count()
    env["blas_threads_env"] = {
        k: os.environ.get(k, "unset")
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=False)
            commit = git.stdout.strip() or None
        except OSError:  # no git program
            pass
    env["git_commit"] = commit or "unknown (not a git checkout)"
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = h.hexdigest()
    return env


def measure(run: Run, seconds: float, trace: bool) -> dict[str, list[float]]:
    """Warm up once, then repeat the workload until ``seconds`` have passed."""
    began = clock()
    samples: dict[str, list[float]] = {}
    # Warm-up: the commands once, so cold .pyc and page-cache costs stay out
    # of the numbers.  The parse-back would only reread what is now warm.
    run.repetition(parse_back=False)
    start = clock()
    reps = 0
    while reps == 0 or clock() - start < seconds:
        rep_began = clock()
        if trace:
            values = {k: [v] for k, v in run.traced_repetition(reps % 2 == 1).items()}
        else:
            values = run.repetition()
        for k, v in values.items():
            samples.setdefault(k, []).extend(v)
        reps += 1
        if clock() - began + (clock() - rep_began) > RUN_BUDGET_S:
            break
    while not trace and len(samples.setdefault("setup_s", [])) < SETUP_SAMPLES:
        for k, v in import_samples(*run.setup_probe()).items():
            samples.setdefault(k, []).extend(v)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "lgsim" / "__init__.py").is_file():
        print(f"perfbench: no lgsim source tree at {ROOT / 'src'}; run from the checkout root",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        run = Run(args.workload, args.seed, work)
        _, probe = run.setup_probe()
        samples = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"closed loop, 1 client, sequential subprocesses")
    print("environment " + json.dumps(environment(probe), sort_keys=True))
    metrics = report(declared, samples)
    correct = run.failed == 0
    if args.trace:
        coverage = statistics.median(samples["trace.coverage"])
        if abs(coverage - 1.0) > 0.05:
            correct = False
            print(f"  trace coverage {coverage:.4f} is not within 5% of 1")
    for p in run.problems:
        print(f"  FAILED {p}")
    print(f"  operations attempted={run.attempted} failed={run.failed} "
          f"error_rate={run.failed / run.attempted:.6g}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
