"""qmod benchmark driver.

Run from the root of a qmod checkout:

    python3 bench/run.py --workload verify-all --seed 5 --seconds 30 --trace 0
    python3 bench/run.py --compare OLD.json NEW.json

The load is a closed loop of one client: each repetition of a workload
runs in a fresh worker interpreter (``bench/worker.py``), one at a time,
because a CLI user pays imports and cold caches on every call.

``--trace 0`` times set-up (fresh interpreter to parser built and
working prime proven) several times, then repeats the workload until
``--seconds`` are used, and reports the end-to-end metrics as medians.
Times are reference seconds: each worker calibrates the host's current
speed as it measures (``bench/calibrate.py``), because on a shared host
raw seconds drift by tens of percent between runs.
``--trace 1`` runs one timed, one traced and one counting pass and
reports the per-layer metrics.  Every command's exit code, verify
results and stdout digest are checked; a digest that differs between
passes counts as a failure.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full results file (digests, samples,
stamp) goes to ``.bench_out/`` unless ``--out`` names another path;
``--compare`` lists the commands whose digests differ between two such
files.
"""

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_WARMUP = 1
SETUP_PROBES = 15
MIN_PASSES = 3
HARD_LIMIT_S = 150
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


@dataclasses.dataclass
class Outcome:
    """What one benchmark run measured and judged."""

    attempted: int
    failed: int
    problems: list
    metrics: dict  # the metrics BENCHMARK.json declares for this trace mode
    extra: dict  # further figures, kept in the results file
    passes: list
    spans: dict | None = None


def _worker_env():
    env = dict(os.environ)
    # The working prime is the package default, and hashing is fixed so
    # that set iteration order, and with it the work done, is the same in
    # every worker.
    env.pop("QMOD_PRIME", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(mode: str, workload: str, seed: int) -> dict:
    argv = [sys.executable, os.path.join(BENCH, "worker.py"), mode, workload, str(seed)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    result["elapsed_s"] = time.monotonic() - t0
    # Workers time passes and their own imports in reference seconds; the
    # interpreter start before that is timed from here and scaled by the
    # worker's calibration of its imports.
    start = result["started_at"] - t0
    result["setup_factor"] = result["import_s"] / result["raw_import_s"]
    result["raw_setup_s"] = start + result["raw_import_s"]
    result["setup_s"] = start * result["setup_factor"] + result["import_s"]
    return result


def judge(passes, reference) -> tuple[int, int, list]:
    """Attempted and failed command runs, with the reason for each failure.

    A run fails on a non-zero exit, a verify check reporting
    ``pass: false``, or a stdout digest other than ``reference``'s.
    """
    attempted = failed = 0
    problems = []
    ref = [c["sha256"] for c in reference["commands"]]
    for label, p in passes:
        if len(p["commands"]) != len(ref):
            raise BenchError(f"{label} pass ran {len(p['commands'])} commands, "
                             f"expected {len(ref)}")
        for c, digest in zip(p["commands"], ref):
            attempted += 1
            why = []
            if c["code"] != 0:
                why.append(f"exit {c['code']}: {c['stderr'].strip()}")
            if c["failed_checks"]:
                why.append("failed checks " + ", ".join(c["failed_checks"]))
            if c["sha256"] != digest:
                why.append("stdout digest differs from the first timed pass")
            if why:
                failed += 1
                problems.append(f"{label}: qmod {' '.join(c['argv'])}: {'; '.join(why)}")
    return attempted, failed, problems


def _median_metric(values, unit):
    return {"value": statistics.median(values), "unit": unit, "samples": len(values)}


def end_to_end(workload, seed, seconds):
    start = time.monotonic()
    probes = [run_worker("setup", workload, seed)
              for _ in range(SETUP_WARMUP + SETUP_PROBES)][SETUP_WARMUP:]
    passes = []
    while True:
        passes.append(run_worker("timed", workload, seed))
        elapsed = time.monotonic() - start
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if elapsed + typical > HARD_LIMIT_S:
            break
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    attempted, failed, problems = judge(
        [(f"timed {i}", p) for i, p in enumerate(passes)], passes[0])
    metrics = {
        "wall_s": _median_metric([p["wall_s"] for p in passes], "s"),
        "setup_s": _median_metric([p["setup_s"] for p in probes], "s"),
        "peak_rss_mb": _median_metric([p["peak_rss_mb"] for p in passes], "MB"),
    }
    extra = {"failed_ratio": {"value": failed / attempted, "unit": "ratio",
                              "samples": attempted},
             "raw_wall_s": _median_metric([p["raw_wall_s"] for p in passes], "s"),
             "raw_setup_s": _median_metric([p["raw_setup_s"] for p in probes], "s"),
             "factor": {"passes": [p["factor"] for p in passes],
                        "setup": [p["setup_factor"] for p in probes]}}
    extra.update({name: _median_metric(v, "s")
                  for name, v in layers.workload_figures(workload, passes).items()})
    return Outcome(attempted, failed, problems, metrics, extra, passes)


def per_layer(workload, seed):
    timed = run_worker("timed", workload, seed)
    traced = run_worker("traced", workload, seed)
    counted = run_worker("count", workload, seed)
    attempted, failed, problems = judge(
        [("timed", timed), ("traced", traced), ("count", counted)], timed)
    values = layers.layer_metrics(traced["spans"])
    values.update(layers.field_metrics(counted["counts"]))
    values["trace.overhead_s"] = traced["wall_s"] - timed["wall_s"]
    figures = layers.workload_figures(workload, [timed])
    for name in layers.figure_names():
        values[name] = figures.get(name, [0.0])[0]
    metrics = {name: {"value": v, "unit": layers.unit_of(name), "samples": 1}
               for name, v in values.items()}
    extra = {"failed_ratio": {"value": failed / attempted, "unit": "ratio",
                              "samples": attempted},
             "field_counts": counted["counts"],
             "factor": {"timed": timed["factor"], "traced": traced["factor"]}}
    return Outcome(attempted, failed, problems, metrics, extra, [timed, traced, counted],
                   traced["spans"])


def _git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _write_json(path, payload):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def bench(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "qmod", "cli.py")):
        print(f"error: no qmod sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            res = per_layer(args.workload, args.seed)
        else:
            res = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = args.out or os.path.join(
        ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    stamp = {"python": sys.version.split()[0], "git_sha": _git_sha(),
             "nproc": os.cpu_count(), "prime": res.passes[0]["prime"],
             "workload": args.workload, "seed": args.seed, "trace": args.trace,
             "run_seconds": args.seconds, "passes": len(res.passes),
             "time_unit": "reference seconds, see bench/calibrate.py"}
    _write_json(out, {
        "stamp": stamp, "correct": res.failed == 0, "attempted": res.attempted,
        "failed": res.failed, "problems": res.problems, "metrics": res.metrics,
        "extra": res.extra,
        "commands": [{"argv": c["argv"], "group": c["group"], "code": c["code"],
                      "sha256": c["sha256"],
                      "seconds": [p["commands"][i]["seconds"] for p in res.passes]}
                     for i, c in enumerate(res.passes[0]["commands"])],
    })
    if res.spans is not None:
        _write_json(out[:-len(".json")] + "-spans.json", res.spans)

    for line in res.problems:
        print("FAILED " + line)
    for name, m in sorted({**res.metrics, **res.extra}.items()):
        if "value" in m:
            print(f"{name:34s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}")
    print(f"results: {out}")
    print(json.dumps({
        "correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in res.metrics.items()},
    }))
    return 0


def compare(old_path, new_path) -> int:
    """List commands whose stdout digest differs between two results files."""
    with open(old_path) as fh:
        old = {tuple(c["argv"]): c["sha256"] for c in json.load(fh)["commands"]}
    with open(new_path) as fh:
        new = {tuple(c["argv"]): c["sha256"] for c in json.load(fh)["commands"]}
    differ = 0
    for argv in sorted(set(old) | set(new)):
        a, b = old.get(argv), new.get(argv)
        if a != b:
            differ += 1
            print(f"DIFFERS qmod {' '.join(argv)}: {a or 'absent'} -> {b or 'absent'}")
    print(f"{differ} of {len(set(old) | set(new))} commands differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="results file (default .bench_out/...)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="list commands whose output digest differs")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
