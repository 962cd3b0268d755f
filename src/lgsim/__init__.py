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
cli        command-line front end (``lgsim``)
"""

from .qubit import (
    ATOL,
    CHOI_ATOL,
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Channel,
    DensityOperator,
    Observable,
    anticommutator,
    compose,
    dephase_theta,
    dephase_z,
    expectation,
    identity_channel,
    measure_channel,
    operators_close,
    pauli,
    sigma_theta,
)
from .dynamics import (
    HamiltonianSpec,
    LindbladSpec,
    heisenberg_observable,
    lindblad_propagator,
    liouvillian,
    unitary_propagator,
)
from .protocol import (
    BATTERY_IDS,
    AdroitnessReport,
    CorrelatorSet,
    ExperimentSchedule,
    MeasurementEvent,
    Verdict,
    adroitness_experiments,
    adroitness_grid,
    adroitness_report,
    build_protocol_schedule,
    classic_lg,
    correlator_exact,
    epsilon_adroitness,
    epsilon_total,
    joint_distribution,
    lg_quantity,
    violation_verdict,
)
from .sampling import (
    AdroitnessEstimate,
    EstimateWithError,
    OutcomeTrajectory,
    TrajectoryRecords,
    enumerate_outcomes,
    estimate_adroitness,
    estimate_correlator,
    estimate_joint_distribution,
    sample_trajectories,
)
from .sweeps import (
    SweepRecord,
    SweepTable,
    ViolationWindow,
    gamma_cutoff,
    lg_curve,
    sweep_records,
    violation_window,
)

__version__ = "0.1.0"

__all__ = [
    "ATOL",
    "BATTERY_IDS",
    "CHOI_ATOL",
    "IDENTITY",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "AdroitnessEstimate",
    "AdroitnessReport",
    "Channel",
    "CorrelatorSet",
    "DensityOperator",
    "EstimateWithError",
    "ExperimentSchedule",
    "HamiltonianSpec",
    "LindbladSpec",
    "MeasurementEvent",
    "Observable",
    "OutcomeTrajectory",
    "SweepRecord",
    "SweepTable",
    "TrajectoryRecords",
    "Verdict",
    "ViolationWindow",
    "adroitness_experiments",
    "adroitness_grid",
    "adroitness_report",
    "anticommutator",
    "build_protocol_schedule",
    "classic_lg",
    "compose",
    "correlator_exact",
    "dephase_theta",
    "dephase_z",
    "enumerate_outcomes",
    "epsilon_adroitness",
    "epsilon_total",
    "estimate_adroitness",
    "estimate_correlator",
    "estimate_joint_distribution",
    "expectation",
    "gamma_cutoff",
    "heisenberg_observable",
    "identity_channel",
    "joint_distribution",
    "lg_curve",
    "lg_quantity",
    "lindblad_propagator",
    "liouvillian",
    "measure_channel",
    "operators_close",
    "pauli",
    "sample_trajectories",
    "sigma_theta",
    "sweep_records",
    "unitary_propagator",
    "violation_verdict",
    "violation_window",
]
