"""Every name a qkdpost module exports in __all__ is bound in that module."""

import importlib
import pkgutil

import pytest

import qkdpost

MODULES = sorted(info.name for info in pkgutil.iter_modules(qkdpost.__path__))


def test_modules_found():
    assert {"channel", "cli", "keyrate", "oracle", "protocol"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"qkdpost.{name}")
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"qkdpost.{name}.__all__ names unbound {export!r}"
