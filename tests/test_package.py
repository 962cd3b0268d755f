"""The package namespace: ``import lgsim`` loads nothing until a name is used."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lgsim

SUBMODULES = ("qubit", "dynamics", "protocol", "sampling", "sweeps", "tables", "cli", "_kernels")

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
