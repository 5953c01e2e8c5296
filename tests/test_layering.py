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


#: The modules that may call ``write_table``: ``core``, whose ``write_rows``
#: writes every event and statistics table, and ``dataset_io``, whose large
#: tables take their kinds from their parsers.
WRITE_TABLE_CALLERS = {"core.py", "dataset_io.py"}


def write_table_calls(path):
    """Lines of the file that call ``write_table``, by name or attribute."""
    return [node.lineno
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "write_table"]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name not in WRITE_TABLE_CALLERS),
                         ids=lambda p: p.name)
def test_no_other_module_writes_a_table_by_kinds(path):
    assert write_table_calls(path) == []


def test_a_write_table_call_is_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from . import core\nfrom .core import write_table\n"
                    "write_table(p, ['a'], 'g', [])\n"
                    "core.write_table(p, ['a'], 'd', [])\n"
                    "write_rows(p, ['a'], [])\n")
    assert write_table_calls(path) == [3, 4]
