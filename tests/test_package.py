"""The package's public API: `daqflow` re-exports every module's `__all__`.

The module list is found on disk, so a module added to the package is
checked without editing this file; only the command-line front end is left
out, since `import daqflow` does not load it.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import daqflow

FRONT_ENDS = {"cli"}
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(daqflow.__path__) if info.name not in FRONT_ENDS
)


def test_the_module_list_is_found():
    assert {"graph", "scenario", "config", "units"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_of_a_module_is_its_own_object_in_the_package(name):
    module = importlib.import_module(f"daqflow.{name}")
    for public in module.__all__:
        assert public in daqflow.__all__, (name, public)
        assert getattr(daqflow, public) is getattr(module, public), (name, public)


def test_the_package_exports_only_module_names_and_each_once():
    from_modules = [n for m in MODULES for n in importlib.import_module(f"daqflow.{m}").__all__]
    assert len(daqflow.__all__) == len(set(daqflow.__all__))
    assert sorted(daqflow.__all__) == sorted(["__version__", *from_modules])


def test_a_star_import_binds_every_name():
    namespace = {}
    exec("from daqflow import *", namespace)
    for name in daqflow.__all__:
        assert namespace[name] is getattr(daqflow, name), name


def test_importing_the_package_loads_no_numpy():
    # numpy loads at the first menu sample (calibration), not at import
    src = str(Path(daqflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, daqflow; print(len(daqflow.__all__), 'numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == [str(len(daqflow.__all__)), "False"]
