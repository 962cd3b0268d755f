"""The package namespace: ``import lgsim`` loads nothing until a name is used."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lgsim
import oracles

SUBMODULES = ("qubit", "dynamics", "protocol", "sampling", "sweeps", "tables", "cli", "_kernels")
HOMES = SUBMODULES[:5]  # the modules whose __all__ the package exports, in dependency order

IMPORT_ONLY = """
import json, sys
import lgsim
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith(("numpy.", "lgsim")))
from lgsim import Channel
print(json.dumps({"import lgsim": loaded, "numpy after a name": "numpy" in sys.modules}))
"""


def test_import_lgsim_loads_no_numpy():
    src = str(Path(lgsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ONLY], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import lgsim": ["lgsim"], "numpy after a name": True}


# what a fresh interpreter has loaded after each step: a dunder probe loads
# nothing, and a name loads the home modules up to its own (with their imports)
LOADS = """
import json, sys
import lgsim
def loaded():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("lgsim"))
steps = [[hasattr(lgsim, p) for p in ("__wrapped__", "__signature__", "__test__")], loaded()]
from lgsim import Channel
steps.append(loaded())
from lgsim import EVENT_TAGS
steps.append(loaded())
from lgsim import BLOCK_SHOTS, SweepBlock
steps.append(loaded())
print(json.dumps(steps))
"""


def test_a_name_loads_its_home_modules_and_a_dunder_probe_loads_nothing():
    src = str(Path(lgsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", LOADS], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    probes, bare, qubit, protocol, sweeps = json.loads(proc.stdout)
    assert probes == [False, False, False]
    assert bare == ["lgsim"]
    assert [m for m in qubit if m.startswith("lgsim")] == ["lgsim", "lgsim.qubit"]
    assert "numpy" in qubit
    assert [m for m in protocol if m.startswith("lgsim")] == [
        "lgsim",
        "lgsim.dynamics",
        "lgsim.protocol",
        "lgsim.qubit",
    ]
    assert {m for m in sweeps if m.startswith("lgsim")} == {
        "lgsim",
        *(f"lgsim.{m}" for m in (*HOMES, "_kernels")),
    }


def test_the_package_exports_each_home_modules_all_once():
    declared = [
        (name, module)
        for module in map(importlib.import_module, (f"lgsim.{m}" for m in HOMES))
        for name in module.__all__
    ]
    names = [name for name, _ in declared]
    assert len(set(names)) == len(names)  # no name declared by two modules
    assert lgsim.__all__ == sorted(names)
    for name, module in declared:
        assert getattr(lgsim, name) is getattr(module, name)


# the public API, pinned: the engines, the program's types and the table API
EXPORTS = [
    "ATOL", "AdroitnessEstimate", "AdroitnessReport", "BATTERY_IDS", "BLOCK_SHOTS",
    "BatteryEstimate", "CHOI_ATOL", "Channel", "CorrelatorSet", "CurveArrays",
    "DensityOperator", "EVENT_TAGS",
    "EstimateWithError", "ExperimentSchedule", "HamiltonianSpec", "IDENTITY",
    "LindbladSpec", "MeasurementEvent", "Observable", "OutcomeTrajectory", "SIGMA_X",
    "SIGMA_Y", "SIGMA_Z", "SweepBlock", "SweepRecord", "SweepTable", "TrajectoryRecords",
    "Verdict", "ViolationWindow", "adroitness_experiments", "adroitness_grid",
    "adroitness_report", "build_protocol_schedule", "classic_lg", "correlator_exact",
    "enumerate_outcomes", "enumerated_correlator", "enumerated_joint", "epsilon_adroitness",
    "epsilon_total", "estimate_adroitness", "estimate_correlator",
    "estimate_joint_distribution", "gamma_cutoff", "joint_distribution", "lg_curve",
    "lg_quantity", "lindblad_propagator", "liouvillian", "operators_close", "pauli",
    "sample_battery", "sample_trajectories", "sigma_theta", "sweep_blocks", "sweep_records",
    "unitary_propagator", "violation_verdict", "violation_window",
]  # fmt: skip

# names lgsim exported up to 0.1.0 that only tests called: they live in tests/oracles.py
MOVED = {
    "anticommutator": "qubit",
    "compose": "qubit",
    "dephase_theta": "qubit",
    "dephase_z": "qubit",
    "expectation": "qubit",
    "identity_channel": "qubit",
    "measure_channel": "qubit",
    "heisenberg_observable": "dynamics",
}


def test_the_package_exports_exactly_the_pinned_names():
    assert len(EXPORTS) == 59
    assert lgsim.__all__ == EXPORTS


@pytest.mark.parametrize("name", MOVED)
def test_a_moved_name_is_gone(name):
    assert not hasattr(lgsim, name)
    assert not hasattr(importlib.import_module(f"lgsim.{MOVED[name]}"), name)
    assert callable(getattr(oracles, name))


# methods lgsim's classes had up to 0.3.0 that only tests called, now plain
# functions in tests/oracles.py
MOVED_METHODS = {
    ("Channel", "__matmul__"): "compose",
    ("DensityOperator", "from_bloch"): "from_bloch",
}


@pytest.mark.parametrize(("cls", "method"), MOVED_METHODS)
def test_a_moved_method_is_gone(cls, method):
    assert not hasattr(getattr(lgsim, cls), method)
    assert callable(getattr(oracles, MOVED_METHODS[cls, method]))


@pytest.mark.parametrize("name", lgsim.__all__)
def test_every_exported_name_is_its_submodules_object(name):
    value = getattr(lgsim, name)
    homes = [m for m in SUBMODULES if name in vars(importlib.import_module(f"lgsim.{m}"))]
    assert homes  # some submodule holds it
    assert all(getattr(importlib.import_module(f"lgsim.{m}"), name) is value for m in homes)
    if callable(value):  # and it is the one that defines it
        assert value.__module__ in {f"lgsim.{m}" for m in homes}
    assert vars(lgsim)[name] is value  # resolved once, then cached


def test_submodules_resolve_as_attributes():
    for m in SUBMODULES:
        assert getattr(lgsim, m) is importlib.import_module(f"lgsim.{m}")


def test_the_namespace_lists_and_star_imports_every_name():
    assert set(lgsim.__all__) <= set(dir(lgsim))
    assert set(SUBMODULES) <= set(dir(lgsim))
    namespace = {}
    exec("from lgsim import *", namespace)
    assert set(lgsim.__all__) <= set(namespace)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'lgsim' has no attribute 'no_such_name'"):
        lgsim.no_such_name
    assert not hasattr(lgsim, "no_such_name")
