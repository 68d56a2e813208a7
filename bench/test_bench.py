"""Self-test of the benchmark: run with ``python3 -m pytest bench``.

It runs the real workloads at seed 5 (about two minutes): every
per-layer metric must record work on the workload that exercises its
layer, linalg and prime-field work must be exactly absent from
``divisor``, the traced and counting passes must print the same bytes
as the untraced pass, and field-op counts must repeat exactly.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402

SEED = 5

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def traced():
    """per_layer results of every workload, computed once."""
    return {w: run.per_layer(w, SEED) for w in ("divisor", "curves", "verify-all")}


def _values(outcome):
    return {name: m["value"] for name, m in outcome.metrics.items()}


def test_per_layer_names_match_spec(traced):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for outcome in traced.values():
        assert {n: m["unit"] for n, m in outcome.metrics.items()} == declared


def test_traced_and_counted_outputs_equal_untraced(traced):
    for workload, outcome in traced.items():
        assert outcome.attempted >= 3, workload
        assert outcome.failed == 0, outcome.problems


@pytest.mark.parametrize("layer", sorted(layers.LAYER_MAP))
def test_layer_records_work_where_exercised(traced, layer):
    spec = layers.LAYER_MAP[layer]
    values = _values(traced[spec["exercised_on"]])
    idle = [m for m in spec["metrics"] if not values[m] > 0]
    assert not idle, f"{layer} records nothing on {spec['exercised_on']}: {idle}"
    if spec["bypassed_on"] is not None:
        values = _values(traced[spec["bypassed_on"]])
        busy = [m for m in spec["metrics"] if values[m] != 0]
        assert not busy, f"{layer} records work on {spec['bypassed_on']}: {busy}"


def test_workload_figures_present(traced):
    for key in layers.CHECK_METRICS:
        assert _values(traced["verify-all"])[f"check.{key}_s"] > 0
    for group, workload in layers.CMD_METRICS.items():
        assert _values(traced[workload])[f"cmd.{group}_s"] > 0


def test_spans_see_functions_imported_by_name(traced):
    # cli and verify call z_class_15_9 through their own names, surface
    # calls form_matrix_det through its own name: the wrappers must see
    # those calls, not only the ones made inside the defining module.
    assert _values(traced["divisor"])["picard.z_class_calls"] == 4
    spans = traced["verify-all"].spans
    names, parent = spans["name"], spans["parent"]
    under_surface = [i for i, n in enumerate(names)
                     if n == "quadlab.form_matrix_det"
                     and names[parent[i]] == "surface.pencil_nondegeneracy"]
    assert under_surface


def test_field_counts_repeat_exactly():
    first = run.run_worker("count", "curves", SEED)["counts"]
    second = run.run_worker("count", "curves", SEED)["counts"]
    assert first == second
    assert layers.field_metrics(first)["fields.fp_ops"] > 0


def _bench(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_end_to_end_line_matches_spec(tmp_path):
    out = tmp_path / "divisor.json"
    proc = _bench(["--workload", "divisor", "--seed", "3", "--seconds", "1",
                   "--trace", "0", "--out", str(out)], run.ROOT)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in last["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in last["metrics"].values())
    stamp = json.loads(out.read_text())["stamp"]
    assert stamp["seed"] == 3 and stamp["nproc"] >= 1 and stamp["prime"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "divisor", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_lists_differing_commands(tmp_path):
    def results(digest):
        return {"commands": [{"argv": ["z-class"], "sha256": "a"},
                             {"argv": ["dp-class"], "sha256": digest}]}

    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(results("b")))
    new.write_text(json.dumps(results("c")))
    proc = _bench(["--compare", str(old), str(new)], run.ROOT)
    assert proc.returncode == 1
    assert proc.stdout.count("DIFFERS") == 1
    assert "DIFFERS qmod dp-class" in proc.stdout
    proc = _bench(["--compare", str(old), str(old)], run.ROOT)
    assert proc.returncode == 0
