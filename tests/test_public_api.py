"""Every exported name resolves, so ``from <module> import *`` works."""

import importlib
import pkgutil

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
