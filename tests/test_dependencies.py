"""The package has no runtime dependencies: ``src/qmod`` imports only the
standard library and itself, and ``pyproject.toml`` declares none.  Inside
it, ``linalg`` alone picks the elimination: the packed loop is named
nowhere else, a bit length is taken only in ``linalg.slot_width``, the one
slot-width rule, and the private ``linalg`` names other modules import
are pinned, so the list can only shrink.  ``surface`` runs over F_p
alone: one guard tests for ``PrimeField`` and nothing names QQ.  The
caller names the field: no ``field`` parameter has a default, and only the
CLI names ``DEFAULT_PRIME`` outside ``fields``.  Starting a command loads
none of the introspection modules that ``dataclasses`` would pull in, and
importing one layer loads no other layer than the ones it imports."""

import ast
import os
import subprocess
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


# The packed Gauss-Jordan loop, reached only through linalg.rows_kernel.
LINALG_ONLY = {"_gauss_jordan_packed"}
PRIVATE_LINALG_IMPORTS = {("surface", "_pack"), ("surface", "_unpack"),
                          ("unipoly", "_pack"), ("unipoly", "_unpack"),
                          ("quadlab", "_rank_packed")}


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_packed_elimination_is_named_only_in_linalg():
    assert sorted((path.name, name) for path in SOURCES if path.stem != "linalg"
                  for name in _names(_tree(path)) if name in LINALG_ONLY) == []


def test_bit_length_is_taken_only_by_the_width_rule():
    # Every packed kernel states its largest slot value and takes its width
    # from linalg.slot_width, so no other top-level definition sizes a slot.
    assert sorted((path.name, getattr(top, "name", None)) for path in SOURCES
                  for top in _tree(path).body
                  for name in _names(top) if name == "bit_length") == [("linalg.py", "slot_width")]


def test_private_linalg_imports_are_pinned():
    imported = set()
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[-1] == "linalg"):
                imported.update((path.stem, a.name) for a in node.names
                                if a.name.startswith("_"))
    assert imported == PRIVATE_LINALG_IMPORTS


def _prime_field_tests(node, scope=""):
    # The qualified scope of each isinstance(..., PrimeField) under node.
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _prime_field_tests(child, f"{scope}{child.name}.")
        elif (isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance"
              and "PrimeField" in _names(child.args[1])):
            yield scope.rstrip(".")
        else:
            yield from _prime_field_tests(child, scope)


def test_surface_names_no_rational_field():
    # PointConfig.__init__ refuses every field but F_p, which covers the
    # whole blow-up chain, so no surface kernel needs a QQ twin; one that
    # came back would name QQ or test for PrimeField again.
    tree = _tree(Path(qmod.__file__).parent / "surface.py")
    assert {"QQ", "RationalField"} & set(_names(tree)) == set()
    assert list(_prime_field_tests(tree)) == ["PointConfig.__init__"]


def test_default_prime_is_named_only_by_the_cli():
    assert sorted(path.name for path in SOURCES
                  if "DEFAULT_PRIME" in _names(_tree(path))) == ["cli.py", "fields.py"]


def _defaulted_params(args):
    positional = args.posonlyargs + args.args
    yield from positional[len(positional) - len(args.defaults):]
    yield from (a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def test_no_field_parameter_has_a_default():
    assert sorted((path.name, node.name) for path in SOURCES for node in ast.walk(_tree(path))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(a.arg == "field" for a in _defaulted_params(node.args))) == []


# What dataclasses pulls in; a command's start-up needs none of them.
STARTUP_UNLOADED = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _modules_after(code):
    # The modules a fresh interpreter holds after running code, writing no
    # bytecode cache.
    path = [str(Path(qmod.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    out = subprocess.run([sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
                         env=env, check=True, capture_output=True, text=True).stdout
    return set(out.split())


def test_command_start_up_loads_no_introspection_modules():
    started = _modules_after("from qmod import cli\n"
                             "from qmod.fields import DEFAULT_PRIME, PrimeField\n"
                             "cli.build_parser()\nPrimeField(DEFAULT_PRIME)")
    assert sorted(STARTUP_UNLOADED & (started - _modules_after("pass"))) == []


def test_importing_fields_loads_no_other_layer():
    # The package root imports nothing, so a layer costs only itself and
    # what it imports: fields needs errors alone.
    loaded = _modules_after("import qmod.fields")
    assert sorted(m for m in loaded if m.split(".")[0] == "qmod") == [
        "qmod", "qmod.errors", "qmod.fields"]
