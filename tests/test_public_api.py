"""Every exported name resolves, so ``from <module> import *`` works, and
importing the CLI leaves scipy unloaded."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stochfio

MODULES = sorted(m.name for m in pkgutil.iter_modules(stochfio.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"stochfio.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_resolve():
    assert [n for n in stochfio.__all__ if not hasattr(stochfio, n)] == []


def test_make_speed_has_one_definition():
    assert stochfio.applications.make_speed is stochfio.jets.make_speed


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy.special takes about 0.3 s to import, and only the truncated
    # speed model needs it, so it is imported where that model uses it
    src = str(Path(stochfio.__file__).resolve().parents[1])
    code = ("import sys, stochfio.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
