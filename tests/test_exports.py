"""Every name a ``repro`` module exports resolves.

A deletion that leaves a name in some ``__all__`` (or a re-export of a
name that is gone) fails here, not at a user's ``from repro.x import *``.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _modules() -> list[str]:
    names = ["repro"]
    names += [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    return sorted(name for name in names if not name.endswith("__main__"))


MODULES = _modules()


def test_every_package_is_walked():
    packages = {name for name in MODULES if hasattr(importlib.import_module(name), "__path__")}
    assert {"repro", "repro.core", "repro.nn", "repro.nn.layers", "repro.sim"} <= packages


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module does not define: {missing}"
