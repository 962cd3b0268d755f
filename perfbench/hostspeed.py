"""Host-speed probe: a fixed block of interpreter work, timed next to a measurement.

The vCPUs of a shared host change speed under the benchmark: other tenants
on the same physical cores slow a vCPU by up to about 2x, in spells that
last from a second to minutes, and the process's CPU time slows with it
(it is not steal time).  A run-to-run spread of that size hides the changes
the benchmark is meant to show, and longer runs do not average it out.

So every time metric is reported at a reference host speed: the measured
time times ``REFERENCE_S / p``, where ``p`` is the mean probe time around
and during the measured interval.  Probes come from two places:

- a child process probes just before and just after each interval it times
  itself (``import lgsim``, a batch of parse-back passes);
- while a child runs, a ``Sampler`` thread of the benchmark probes every
  ``Sampler.INTERVAL_S`` on the vCPU the child is running on, which covers
  intervals too long for probes at their ends (a whole CLI command).

In one process, alternating probes with 10 ms of table parsing, the ratio's
spread over 2-second windows was 0.01 where the raw time's was 0.47.

This module imports only ``os``, ``threading`` and ``time`` (no numpy), so a
child's probe before ``import lgsim`` leaves nearly all of lgsim's import
cost inside ``setup_s``.
"""

import os
import threading
import time

clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes

# A probe time seen on the 2-vCPU virtual machine the benchmark was written
# on, where probes took 0.55-1.3 ms.  Only the scale of the reported numbers
# depends on it: both sides of a comparison use the same constant.
REFERENCE_S = 0.0007


def _block() -> float:
    """Seconds for the fixed work: float arithmetic, dict stores, repr and join."""
    start = clock()
    acc = 0.0
    table = {}
    parts = []
    for i in range(800):
        acc += i * 0.5 - acc * 1e-3
        table[i & 127] = acc
        parts.append(repr(acc))
    ",".join(parts).split(",")
    return clock() - start


def probe() -> float:
    """Median of three blocks (about 2 ms), so one preemption cannot decide it."""
    return sorted(_block() for _ in range(3))[1]


def scale(seconds: float, probes: list[float], elasticity: float = 1.0) -> float:
    """``seconds`` at the reference host speed, given the probes around it.

    ``elasticity`` is how strongly the measured work follows the probe: 1 for
    interpreter work like the probe's own.  ``import lgsim`` follows it about
    half as strongly (0.3 per import, 0.64 between a fast and a slow spell of
    the host), so ``setup_s`` uses 0.5; with 1 its median moved by 24%
    between two sets of runs an hour apart.
    """
    return seconds * (REFERENCE_S * len(probes) / sum(probes)) ** elasticity


def _cpu_of(pid: int) -> int | None:
    """The CPU that process ``pid`` last ran on, or None once it has gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
    except OSError:
        return None
    fields = stat[stat.rindex(b")") + 2:].split()
    return int(fields[36])  # field 39 of stat(5); the list starts at field 3


class Sampler:
    """Probe the vCPU that a child process runs on, while it runs.

    The thread pins itself (only itself) to that vCPU before each probe, so
    the probe meets the same contention as the child; the child loses 2-3 ms
    of its vCPU per sample, 1-2% of its time.
    """

    INTERVAL_S = 0.15

    def __init__(self, pid: int):
        self.pid = pid
        self.samples: list[tuple[float, float]] = []  # (time, probe seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        allowed = os.sched_getaffinity(0)
        while not self._stop.wait(self.INTERVAL_S):
            cpu = _cpu_of(self.pid)
            if cpu is None or cpu not in allowed:
                continue
            os.sched_setaffinity(0, {cpu})  # 0 is this thread
            start = clock()
            p = probe()
            self.samples.append(((start + clock()) / 2, p))

    def within(self, start: float, end: float) -> list[float]:
        return [p for t, p in self.samples if start <= t <= end]
