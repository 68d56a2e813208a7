"""The package has no runtime dependencies: ``src/qmod`` imports only the
standard library and itself, and ``pyproject.toml`` declares none."""

import ast
import sys
from pathlib import Path

import pytest

import qmod

SOURCES = sorted(Path(qmod.__file__).parent.glob("*.py"))
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_imports_only_the_standard_library(path):
    assert [name for name in _absolute_imports(path)
            if name not in sys.stdlib_module_names] == []


def test_pyproject_declares_no_dependencies():
    project = PYPROJECT.read_text().split("[project]\n", 1)[1].split("\n[", 1)[0]
    assert "\ndependencies = []\n" in project
