"""Simulator and analysis toolkit for Leggett-Garg tests with dephasing probes.

The package is organised around one representation choice: a single-qubit
operator is a plain 2x2 complex ndarray, and every linear map on operators
(unitary evolution, Lindblad evolution, unconditioned measurement) is a real
4x4 transfer matrix acting on Pauli expansion coefficients.  Everything else
is built on top of that.

Modules
-------
qubit      operator algebra, channel type, CPTP validation
dynamics   closed- and open-system propagators for the driven qubit
protocol   measurement schedules, exact correlators, adroitness battery
sampling   outcome enumeration oracle and Monte Carlo trajectory sampler
sweeps     grid evaluation, violation windows, noise cutoffs
tables     the table format: one schema per command, writer and reader
cli        command-line front end (``lgsim``)

The package exports every name that one of its first five modules lists in
its ``__all__``; ``__all__`` here is their sorted union.  Importing the
package loads nothing else: a name is looked up on first use (PEP 562) by
importing those modules in dependency order up to the first that lists it,
so the ``lgsim`` program can choose its BLAS thread count before numpy loads
(see ``__main__``).  Listing ``__all__`` or ``dir()`` imports all five.
"""

import importlib

__version__ = "0.7.0"

# the modules whose __all__ the package exports, in dependency order
_HOMES = ("qubit", "dynamics", "protocol", "sampling", "sweeps")
_SUBMODULES = (*_HOMES, "tables", "cli", "_kernels")


def _load(module: str):
    return importlib.import_module(f".{module}", __name__)


def _exports() -> list[str]:
    """The sorted union of the home modules' ``__all__``."""
    return sorted(name for home in _HOMES for name in _load(home).__all__)


def __getattr__(name: str):
    """Import a submodule, or a public name's home module, on first use."""
    if name in _SUBMODULES:
        value = _load(name)
    elif name == "__all__":
        value = _exports()
    elif name.startswith("__"):  # a probe such as __wrapped__ loads nothing
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        home = next((m for m in map(_load, _HOMES) if name in m.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_exports(), *_SUBMODULES})
