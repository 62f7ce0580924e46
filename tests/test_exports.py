"""Every name a qkdpost module exports in __all__ is bound in that module,
every private module-level name is used by the package itself, every
dataclass validates its fields, and the README's library example runs
against the current API."""

import ast
import collections
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


def _loads(node) -> collections.Counter:
    """How often each name is read in node, as a name or an attribute."""
    return collections.Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) or (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load))
    )


def _private_definitions(tree):
    """(name, node) of every module-level private function, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def test_private_names_used_in_src():
    # A private helper that only tests reach is dead code that a test keeps
    # alive: each must be read somewhere in the package outside its own
    # definition.
    trees = {path.stem: ast.parse(path.read_text()) for path in Path(qkdpost.__file__).parent.glob("*.py")}
    reads = sum((_loads(tree) for tree in trees.values()), collections.Counter())
    unused = [
        f"{stem}.{name}"
        for stem, tree in sorted(trees.items())
        for name, node in _private_definitions(tree)
        if reads[name] - _loads(node)[name] <= 0
    ]
    assert not unused, f"private names no program code reads: {unused}"


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
