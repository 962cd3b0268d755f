"""Code that runs inside one child process of the benchmark.

    child.py setup RESULT
        time ``import lgsim`` in this fresh interpreter, between two host
        speed probes, and describe the environment (versions, BLAS, kernel
        path).
    child.py cli RESULT TRACED ARG...
        import ``lgsim.cli`` and call ``main(ARG...)`` in process, as
        ``python -m lgsim.cli ARG...`` would; the table goes to stdout or
        ``--out`` exactly as there.
    child.py readback RESULT MODE BATCHES BATCH KIND TABLE...
        parse each table back with ``read_table`` and, for sweep tables,
        ``records_from_rows``: BATCHES timed batches of BATCH passes each.

TRACED is 0 or 1.  With 1, the layers are wrapped (see ``tracer.py``) and
RESULT gets a span summary; with 0 only the import and the top-level call
are timed, which is the baseline for the tracing overhead.  MODE is
``traced`` or ``plain`` (the same pair), or ``e2e``: untraced, with a host
speed probe (``hostspeed.py``) before the import, after it and after each
batch.  ``wall_s`` in RESULT runs from just before the lgsim import to the
end of the work.
"""

import sys

import hostspeed  # this script's directory is sys.path[0]
import tracer as tr

t0 = tr.clock()

# lg_curve and kernel spans that sit below a given caller: the bisection's
# curve evaluations, and kernel time inside sweep_records.
UNDER = {
    "bisect_evals": ("sweeps.lg_curve", "sweeps.violation_window", "sweeps.gamma_cutoff"),
    "sweep_protocol_lg": ("kernels.protocol_lg", "sweeps.sweep_records"),
    "sweep_battery_eps": ("kernels.battery_eps", "sweeps.sweep_records"),
}


def _import_lgsim(tracer, traced, result, probing=False):
    """Import ``lgsim.cli``; ``result["import_s"]`` gets ``import lgsim`` alone.

    With ``probing``, ``result["import_probe_s"]`` gets the host speed probes
    taken just before and just after ``import lgsim``, and
    ``result["import_at"]`` the clock at its start and end.
    """
    global t0
    if probing:
        before = hostspeed.probe()
        t0 = tr.clock()
    with tracer.span("import"):
        if traced:
            with tracer.imports({"scipy.linalg": "import.scipy_linalg"}):
                import lgsim
        else:
            import lgsim
        result["import_s"] = tr.clock() - t0
        if probing:
            result["import_at"] = [t0, t0 + result["import_s"]]
            result["import_probe_s"] = [before, hostspeed.probe()]
        import lgsim.cli
    if traced:
        tr.install(tracer)
    return lgsim.cli


def _finish(tracer, traced, result):
    result["wall_s"] = tr.clock() - t0
    result["spans"] = tracer.summary(UNDER) if traced else None
    propagator = getattr(sys.modules.get("lgsim.dynamics"), "lindblad_propagator", None)
    cache_info = getattr(propagator, "cache_info", None)
    if cache_info is not None:
        info = cache_info()
        result["cache"] = {"hits": info.hits, "misses": info.misses}
    return result


def setup():
    tracer = tr.Tracer()
    result = {}
    _import_lgsim(tracer, False, result, probing=True)
    import lgsim
    import numpy
    import platform

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        **result,
        "lgsim_file": lgsim.__file__,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy_version,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
            "using_numba": bool(getattr(lgsim._kernels, "using_numba", False)),
        },
    }


def run_cli(traced, argv):
    tracer = tr.Tracer()
    result = {}
    cli = _import_lgsim(tracer, traced, result)
    with tracer.span("cli.main"):
        result["rc"] = cli.main(argv)
    sys.stdout.flush()
    return _finish(tracer, traced, result)


def readback(mode, batches, batch, kind, tables):
    """``pass_s`` gets each batch's time per pass, ``pass_at`` the clock at its
    start and end, and ``probe_s`` the probes around the batches."""
    tracer = tr.Tracer()
    traced, probing = mode == "traced", mode == "e2e"
    result = {"pass_s": [], "pass_at": [], "probe_s": [], "rows": {}}
    cli = _import_lgsim(tracer, traced, result, probing)
    if probing:
        result["probe_s"].append(hostspeed.probe())
    for _ in range(batches):
        start = tr.clock()
        for _ in range(batch):
            for path in tables:
                _, parsed = cli.read_table(path)
                if kind == "sweep" and len(cli.records_from_rows(parsed)) != len(parsed):
                    raise ValueError(f"{path}: records_from_rows dropped rows")
                result["rows"][path] = len(parsed)
        end = tr.clock()
        result["pass_s"].append((end - start) / batch)
        result["pass_at"].append([start, end])
        if probing:
            result["probe_s"].append(hostspeed.probe())
    return _finish(tracer, traced, result)


def main(argv):
    mode, result_path = argv[0], argv[1]
    if mode == "setup":
        result = setup()
    elif mode == "cli":
        result = run_cli(argv[2] == "1", argv[3:])
    elif mode == "readback":
        result = readback(argv[2], int(argv[3]), int(argv[4]), argv[5], argv[6:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    import json

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
