"""The ``lgsim`` console script, also run by ``python -m lgsim``.

It imports no numpy: it pins the BLAS thread count first (see ``_blas``),
then hands off to ``cli.main``.
"""

from __future__ import annotations

import sys

from ._blas import pin_blas_threads


def main() -> int:
    pin_blas_threads()
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
