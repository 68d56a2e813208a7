"""Every function the benchmark spans by name must exist in qmod.

bench/layers.py wraps SPAN_TARGETS entries by name; a deleted or renamed
target would otherwise fail only inside the benchmark's traced pass.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _span_targets() -> dict:
    spec = importlib.util.spec_from_file_location("_bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module.SPAN_TARGETS


TARGETS = [(layer, name) for layer, names in _span_targets().items() for name in names]


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
