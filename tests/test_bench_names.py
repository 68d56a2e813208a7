"""Every name the benchmark uses from qmod must exist, and every command
it runs must parse.

bench/layers.py wraps SPAN_TARGETS entries by name, and bench/workloads.py
builds its command lists from qmod's case tables; a deleted or renamed
target, table or option would otherwise fail only inside a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from qmod.cli import HANDLERS, build_parser

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


TARGETS = [(layer, name) for layer, names in _load("layers").SPAN_TARGETS.items()
           for name in names]
WORKLOADS = _load("workloads")


@pytest.mark.parametrize("layer, name", TARGETS, ids=[f"{l}.{n}" for l, n in TARGETS])
def test_span_target_exists(layer, name):
    # Looked up the way bench/tracer.patch_method wraps a method: in the
    # class's own __dict__, so an inherited method does not count.
    obj = importlib.import_module("qmod." + layer)
    if "." in name:
        cls, meth = name.split(".")
        obj = vars(getattr(obj, cls))[meth]
        obj = getattr(obj, "__func__", obj)
    else:
        obj = getattr(obj, name)
    assert callable(obj)


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_workload_commands_parse(workload):
    commands = WORKLOADS.commands(workload, 0)
    assert commands
    parser = build_parser()
    for _, argv in commands:
        assert parser.parse_args(argv).command in HANDLERS, argv
