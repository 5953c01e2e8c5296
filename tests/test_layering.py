"""Module boundaries of the package: no module imports another's private names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hwtracks"


def private_imports(path):
    """``(line, module, name)`` of every underscore-prefixed name that the
    file imports from a module of the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if node.level == 0 and module.split(".")[0] != "hwtracks":
            continue
        found += [(node.lineno, module, alias.name) for alias in node.names
                  if alias.name.startswith("_")]
    return found


def test_the_package_is_found():
    assert len(list(PACKAGE.glob("*.py"))) > 10


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_private_names(path):
    assert private_imports(path) == []


def test_a_private_import_is_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .dataset_io import (\n    _Scanner,\n    validate,\n)\n"
                    "from hwtracks.core import _store_columns\n"
                    "from os import _exit\n")
    assert private_imports(path) == [(1, ".dataset_io", "_Scanner"),
                                     (5, "hwtracks.core", "_store_columns")]
