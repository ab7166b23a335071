"""The package namespace is the ``__all__`` of each module it re-exports."""

import ast
import importlib
from pathlib import Path

import pytest

import groundhold as gh

REEXPORTED = ("domain", "evaluate", "ingest", "milp", "models", "solver", "wasserstein")


@pytest.mark.parametrize("name", REEXPORTED)
def test_module_all_is_exported(name):
    module = importlib.import_module(f"groundhold.{name}")
    for public in module.__all__:
        assert getattr(gh, public) is getattr(module, public), public


def test_init_names_no_public_symbol():
    tree = ast.parse(Path(gh.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert [(node.module, [a.name for a in node.names]) for node in imports] == [
        (name, ["*"]) for name in REEXPORTED]


def test_no_other_public_names():
    public = {n for n in dir(gh) if not n.startswith("_") and not isinstance(getattr(gh, n), type(gh))}
    expected = set()
    for name in REEXPORTED:
        expected.update(importlib.import_module(f"groundhold.{name}").__all__)
    assert public == expected
