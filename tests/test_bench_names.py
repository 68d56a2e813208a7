"""Every name the benchmark uses from qmod must exist, every command it
runs must parse, and every span tag must read a real result.

bench/layers.py wraps SPAN_TARGETS entries by name and tags some spans
from the call's result (TAGS), and bench/workloads.py builds its command
lists from qmod's case tables; a deleted or renamed target, result field,
table or option would otherwise fail only inside a traced benchmark run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qmod.cli import HANDLERS, build_parser
from qmod.fields import DEFAULT_PRIME, PrimeField
from qmod.linalg import Matrix

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


LAYERS = _load("layers")
TARGETS = [(layer, name) for layer, names in LAYERS.SPAN_TARGETS.items()
           for name in names]
WORKLOADS = _load("workloads")


def _target(layer, name):
    # Looked up the way bench/tracer.patch_method wraps a method: in the
    # class's own __dict__, so an inherited method does not count.
    obj = importlib.import_module("qmod." + layer)
    if "." in name:
        cls, meth = name.split(".")
        obj = vars(getattr(obj, cls))[meth]
        return getattr(obj, "__func__", obj)
    return getattr(obj, name)


@pytest.mark.parametrize("layer, name", TARGETS, ids=[f"{l}.{n}" for l, n in TARGETS])
def test_span_target_exists(layer, name):
    assert callable(_target(layer, name))


FP = PrimeField(DEFAULT_PRIME)

# The arguments of one real call per tagged span.
TAG_ARGS = {
    "linalg.Matrix.rref": lambda: (Matrix.from_rows(FP, [[1, 2, 3], [4, 5, 6]]),),
    "linalg.Matrix.det": lambda: (Matrix.from_rows(FP, [[1, 2], [3, 4]]),),
    "quadlab.genus5_net_check": lambda: (1,),
    "surface.blowup_report": lambda: (0,),
}


@pytest.mark.parametrize("name", sorted(LAYERS.TAGS))
def test_span_tag_reads_a_real_result(name):
    layer, target = name.split(".", 1)
    args = TAG_ARGS[name]()
    tag = LAYERS.TAGS[name](args, _target(layer, target)(*args))
    assert tag is not None
    assert json.loads(json.dumps(tag)) == tag


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_workload_commands_parse(workload):
    commands = WORKLOADS.commands(workload, 0)
    assert commands
    parser = build_parser()
    for _, argv in commands:
        assert parser.parse_args(argv).command in HANDLERS, argv
