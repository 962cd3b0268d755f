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

Importing the package loads nothing else: each name in ``__all__``, and each
submodule, is imported on first use (PEP 562), so the ``lgsim`` program can
choose its BLAS thread count before numpy loads (see ``_blas``).
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "qubit": (
            "ATOL",
            "CHOI_ATOL",
            "IDENTITY",
            "SIGMA_X",
            "SIGMA_Y",
            "SIGMA_Z",
            "Channel",
            "DensityOperator",
            "Observable",
            "anticommutator",
            "compose",
            "dephase_theta",
            "dephase_z",
            "expectation",
            "identity_channel",
            "measure_channel",
            "operators_close",
            "pauli",
            "sigma_theta",
        ),
        "dynamics": (
            "HamiltonianSpec",
            "LindbladSpec",
            "heisenberg_observable",
            "lindblad_propagator",
            "liouvillian",
            "unitary_propagator",
        ),
        "protocol": (
            "BATTERY_IDS",
            "AdroitnessReport",
            "CorrelatorSet",
            "ExperimentSchedule",
            "MeasurementEvent",
            "Verdict",
            "adroitness_experiments",
            "adroitness_grid",
            "adroitness_report",
            "build_protocol_schedule",
            "classic_lg",
            "correlator_exact",
            "epsilon_adroitness",
            "epsilon_total",
            "joint_distribution",
            "lg_quantity",
            "violation_verdict",
        ),
        "sampling": (
            "AdroitnessEstimate",
            "EstimateWithError",
            "OutcomeTrajectory",
            "TrajectoryRecords",
            "enumerate_outcomes",
            "estimate_adroitness",
            "estimate_correlator",
            "estimate_joint_distribution",
            "sample_trajectories",
        ),
        "sweeps": (
            "SweepRecord",
            "SweepTable",
            "ViolationWindow",
            "gamma_cutoff",
            "lg_curve",
            "sweep_records",
            "violation_window",
        ),
    }.items()
    for name in names
}

_SUBMODULES = ("qubit", "dynamics", "protocol", "sampling", "sweeps", "tables", "cli", "_kernels")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import a public name's submodule, or a submodule, on first use."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
