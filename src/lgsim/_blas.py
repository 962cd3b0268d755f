"""One BLAS thread for the ``lgsim`` program, set before numpy loads.

OpenBLAS reads its thread count from the environment once, when its library
loads: numpy's with the first ``import numpy``, scipy's with the first gamma
> 0 propagator.  With more than one thread, each call on a 4x4 matrix wakes
a worker pool whose worker then spins on another core before it sleeps, and
the commands gain nothing from it.  This module imports no numpy, so the
program's entry points can call ``pin_blas_threads`` before anything does.
"""

from __future__ import annotations

import os

# the variables OpenBLAS reads for its thread count when it loads
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def pin_blas_threads() -> None:
    """Set ``OPENBLAS_NUM_THREADS=1`` unless one of ``_BLAS_THREAD_VARS`` holds
    a value; an empty value chooses nothing, so it counts as unset."""
    if not any(os.environ.get(k) for k in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
