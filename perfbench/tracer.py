"""Span recorder that times lgsim's layers from outside the package.

Nothing under ``src/`` is changed.  ``install`` wraps the public functions
of each layer by rebinding the names that the calling modules imported
(``cli.sweep_records``, ``protocol.lindblad_propagator``, ...); module
internal calls such as ``sweeps._margin_curve -> lg_curve`` go through the
module global, so rebinding it there catches them too.  Dataclass
validation (``Channel``, ``Observable``, ``DensityOperator``) is reached
through ``__post_init__``, which is patched on the class.

Each call becomes one span ``(name, start, end, parent)`` kept in memory;
``summary`` turns them into per-name call counts, total and self time (a
span's duration minus the part its child spans cover).  A name that a later
version of lgsim no longer has is skipped, so its metrics read 0.
"""

from __future__ import annotations

import builtins
import sys
import time
from collections import Counter
from contextlib import contextmanager

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    @contextmanager
    def span(self, name: str):
        idx = self._open()
        start = clock()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = clock()
        self._stack.pop()
        self.spans[idx] = (name, start, end, self._stack[-1])

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(args, result)`` adds counters."""
        open_, close, counts = self._open, self._close, self.counts

        def traced(*args, **kwargs):
            idx = open_()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx, name, start)
            if count is not None:
                counts.update(count(args, result))
            return result

        return traced

    @contextmanager
    def imports(self, watched: dict[str, str]):
        """Record a span for each watched module the first time it is imported."""
        original = builtins.__import__

        def timed_import(name, globals=None, locals=None, fromlist=(), level=0):
            if level == 0 and name in watched and name not in sys.modules:
                with self.span(watched[name]):
                    return original(name, globals, locals, fromlist, level)
            return original(name, globals, locals, fromlist, level)

        builtins.__import__ = timed_import
        try:
            yield
        finally:
            builtins.__import__ = original

    def summary(self, under: dict[str, tuple[str, ...]]) -> dict:
        """Per-name ``calls``/``total_s``/``self_s``, plus ``under`` totals.

        ``under`` maps a label to ``(child_name, ancestor_names...)``: the
        label gets the count and summed duration of ``child_name`` spans
        that have any of the ancestors above them.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        names = [s[0] for s in self.spans]
        ancestors: list[frozenset] = []
        for name, _, _, parent in self.spans:
            ancestors.append(ancestors[parent] | {names[parent]} if parent >= 0 else frozenset())
        per_name: dict[str, dict] = {}
        nested = {label: {"calls": 0, "total_s": 0.0} for label in under}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = per_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            for label, (child, *above) in under.items():
                if name == child and not ancestors[i].isdisjoint(above):
                    nested[label]["calls"] += 1
                    nested[label]["total_s"] += end - start
        return {"spans": per_name, "under": nested, "counts": dict(self.counts)}


def _rebind(tracer: Tracer, name: str, sites, count=None) -> None:
    """Wrap the function found at the first site and bind it at every site."""
    sites = [(mod, attr) for mod, attr in sites if hasattr(mod, attr)]
    if not sites:
        return
    traced = tracer.wrap(name, getattr(*sites[0]), count)
    for mod, attr in sites:
        setattr(mod, attr, traced)


def _sample_paths(args, result):
    u, lin, aff, axes, r0, out = args[:6]
    arrays = (u, lin, aff, axes, r0, out)
    return {
        "sample_paths.steps": u.shape[0] * u.shape[1],
        "sample_paths.bytes": sum(a.nbytes for a in arrays),
    }


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of an already imported lgsim."""
    from lgsim import _kernels, cli, protocol, qubit, sampling, sweeps

    for cls_name, span in (
        ("Channel", "qubit.channel"),
        ("Observable", "qubit.observable"),
        ("DensityOperator", "qubit.state"),
    ):
        cls = getattr(qubit, cls_name, None)
        if cls is not None and "__post_init__" in vars(cls):
            cls.__post_init__ = tracer.wrap(span, cls.__post_init__)

    _rebind(
        tracer,
        "dynamics.lindblad_propagator",
        [(m, "lindblad_propagator") for m in (protocol, sampling, sweeps)],
    )
    _rebind(
        tracer,
        "kernels.protocol_lg",
        [(_kernels, "protocol_lg")],
        lambda a, r: {"protocol_lg.points": len(a[0])},
    )
    _rebind(
        tracer,
        "kernels.battery_eps",
        [(_kernels, "battery_eps")],
        lambda a, r: {"battery_eps.points": len(a[0])},
    )
    _rebind(tracer, "kernels.sample_paths", [(_kernels, "sample_paths")], _sample_paths)
    _rebind(
        tracer,
        "sampling.sample_trajectories",
        [(cli, "sample_trajectories")],
        lambda a, r: {"sampling.shots": int(a[1])},
    )
    _rebind(tracer, "sampling.estimate_adroitness", [(cli, "estimate_adroitness")])
    _rebind(tracer, "protocol.adroitness_report", [(cli, "adroitness_report")])
    _rebind(
        tracer,
        "protocol.adroitness_experiments",
        [(protocol, "adroitness_experiments"), (cli, "adroitness_experiments")],
    )
    _rebind(tracer, "protocol.joint_distribution", [(protocol, "joint_distribution")])
    _rebind(tracer, "protocol.classic_lg", [(cli, "classic_lg")])
    _rebind(tracer, "sweeps.lg_curve", [(sweeps, "lg_curve")])
    _rebind(
        tracer,
        "sweeps.sweep_records",
        [(cli, "sweep_records")],
        lambda a, r: {"sweeps.records": len(r)},
    )
    _rebind(tracer, "sweeps.violation_window", [(cli, "violation_window")])
    _rebind(tracer, "sweeps.gamma_cutoff", [(cli, "gamma_cutoff")])
    _rebind(tracer, "cli.resolve_config", [(cli, "resolve_config")])
    _rebind(tracer, "cli.read_table", [(cli, "read_table")])
    _rebind(tracer, "cli.records_from_rows", [(cli, "records_from_rows")])
