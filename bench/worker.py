"""One repetition of a workload in a fresh interpreter.

Usage: ``python3 bench/worker.py MODE WORKLOAD SEED`` from the root of a
qmod checkout, where MODE is

* ``setup``: import qmod, build the parser, prove the working prime, stop;
* ``timed``: run the workload's commands through ``qmod.cli.main`` with
  only the nine ``verify`` check spans installed;
* ``traced``: the same with every layer target of ``layers.py`` spanned;
* ``count``: the same with the field methods counted.

Prints one JSON object on stdout, times in reference seconds (see
``calibrate.py``).  The command output is captured, so only its sha256
and exit code leave the worker.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_INTERVAL_S = 0.02
sys.path.insert(0, os.path.join(ROOT, "src"))


def _setup():
    from qmod import cli
    from qmod.fields import DEFAULT_PRIME, PrimeField

    cli.build_parser()
    PrimeField(DEFAULT_PRIME)
    return cli, DEFAULT_PRIME


def _run_commands(cli, cmds, clock):
    out = []
    wall0 = clock()
    for group, argv in cmds:
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        seconds = clock() - t0
        text = stdout.getvalue()
        out.append({
            "group": group,
            "argv": argv,
            "code": code,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "seconds": seconds,
            "failed_checks": _failed_checks(argv, text),
            "stderr": stderr.getvalue()[-500:],
        })
    return out, clock() - wall0


def _failed_checks(argv, text):
    if argv[0] != "verify":
        return []
    try:
        results = json.loads(text)["results"]
    except (ValueError, KeyError, TypeError):
        return ["<unparsable verify output>"]
    return [r["check"] for r in results if not r["pass"]]


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import calibrate

    # The driver times set-up from the spawn to here; from here on it is
    # calibrated as it runs, in this process, because the host's vCPUs
    # drift apart.
    started_at = time.monotonic()
    with calibrate.Sampler(SETUP_INTERVAL_S) as setup:
        cli, prime = _setup()
    result = {"started_at": started_at, "import_s": setup.ref,
              "raw_import_s": setup.raw, "prime": prime}
    import layers
    import workloads
    from tracer import Counter, Tracer

    if mode != "setup":
        cmds = workloads.commands(workload, seed)
        sampler = calibrate.Sampler()
        tracer = Tracer(sampler.clock)
        counter = None
        if mode == "traced":
            layers.install_spans(tracer)
        else:
            layers.install_check_spans(tracer)
        if mode == "count":
            counter = Counter()
            layers.install_counters(counter)
        with sampler:
            commands, wall = _run_commands(cli, cmds, sampler.clock)
        result.update(commands=commands, wall_s=wall, factor=sampler.factor(),
                      raw_wall_s=wall / sampler.factor(),
                      checks=layers.check_times(tracer.spans()),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if mode == "traced":
            result["spans"] = tracer.spans()
        if counter is not None:
            result["counts"] = counter.totals()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
