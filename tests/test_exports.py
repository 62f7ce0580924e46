"""Every name a qkdpost module exports in __all__ is bound in that module,
every dataclass validates its fields, and the README's library example runs
against the current API."""

import contextlib
import dataclasses
import importlib
import io
import pkgutil
import re
from pathlib import Path

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


@pytest.mark.parametrize("name", MODULES)
def test_dataclasses_validate(name):
    # A record that only holds fields is a NamedTuple; a dataclass must check
    # its fields in __post_init__ or in an __init__ of its own, not the
    # generated one (compiled from a string, so it has no source file).
    module = importlib.import_module(f"qkdpost.{name}")
    for cls in vars(module).values():
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__):
            continue
        init = vars(cls).get("__init__")
        own_init = init is not None and init.__code__.co_filename == module.__file__
        assert "__post_init__" in vars(cls) or own_init, f"{cls.__qualname__} checks no field"


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"^## Library example\n.*?^```python\n(.*?)^```", readme, re.S | re.M)
    assert example, "README.md has no python block under ## Library example"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example.group(1), "README.md", "exec"), {})
    assert out.getvalue().startswith("0.5443")
