"""The ``lgsim`` program: the console script, ``python -m lgsim`` and
``python -m lgsim.cli`` all run ``main``, which pins the BLAS thread count
before numpy loads.  OpenBLAS reads it once, when its library loads: numpy's
with the first ``import numpy``, scipy's with the first gamma > 0
propagator.  With more than one thread, each call on a 4x4 matrix wakes a
worker pool whose worker then spins on another core before it sleeps, and
the commands gain nothing from it.
"""

from __future__ import annotations

import os
import sys

# the variables OpenBLAS reads for its thread count when it loads
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main() -> int:
    """Run ``cli.main`` with BLAS on one thread, unless a ``_BLAS_THREAD_VARS``
    value chooses (an empty one counts as unset), and end quietly, with exit
    code 1, when stdout's reader leaves early."""
    if not any(os.environ.get(k) for k in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from . import cli

    try:
        return cli.main()
    except BrokenPipeError:  # stdout's reader left early: its flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
