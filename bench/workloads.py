"""The benchmark workloads: CLI argument lists built from a seed.

Each command is ``(group, argv)``; the group names the ``cmd.*`` metric
its time adds to.  Every command is expected to exit 0 on a correct
program.  The lists need ``qmod`` for the case tables, so they are built
inside the worker after the import.
"""

import random

# Why each workload exists is recorded beside its name in BENCHMARK.json.
WORKLOADS = ("verify-all", "divisor", "curves")

# Sized so that each cmd.* group of ``curves`` takes about a second per pass.
GENUS5_SEEDS = 12
GENUS4_REPEAT = 200
SECANT_REPEAT = 20
FAMILY_R = (6, 8, 9)
RNC_RATIONAL_R = range(3, 11)


def commands(workload: str, seed: int) -> list:
    common = ["--seed", str(seed), "--format", "json"]
    if workload == "verify-all":
        return [("verify-all", ["verify", "all"] + common)]
    if workload == "divisor":
        return _divisor(seed, common)
    if workload == "curves":
        return _curves(seed, common)
    raise ValueError(f"unknown workload {workload!r}")


def _divisor(seed, common):
    from qmod.invariants import enumerate_quad_cases

    quad = [("quad-class", ["quad-class", "--g", str(g), "--n", str(n), "--k", str(k)])
            for g, n, k in enumerate_quad_cases(40)]
    # The seed orders the class computations; the CLI ignores --seed here.
    random.Random(seed).shuffle(quad)
    cmds = [
        ("z-class", ["z-class"]),
        ("certificate", ["certificate"]),
        ("certificate", ["certificate", "--solve", "--z", "13/66"]),
        ("dp-class", ["dp-class"]),
        ("canonical-class", ["canonical-class", "--g", "15", "--n", "9"]),
        ("enumerate-cases", ["enumerate-cases", "--g-max", "40"]),
    ] + quad
    return [(group, argv + common) for group, argv in cmds]


def _curves(seed, common):
    from qmod.quadlab import rank3_strata, rank4_strata

    cmds = []
    for i in range(GENUS5_SEEDS):
        cmds.append(("genus5-net", ["genus5-net", "--seed", str(seed + i), "--format", "json"]))
    cmds.append(("genus4", ["genus4", "--repeat", str(GENUS4_REPEAT)] + common))
    for r in range(3, 9):
        cmds.append(("secant", ["secant", "--r", str(r), "--repeat", str(SECANT_REPEAT)] + common))
    for r in FAMILY_R:
        for x in rank3_strata(r):
            cmds.append(("family", ["rank3-family", "--r", str(r), "--x", str(x)] + common))
        for m1, m2, x in rank4_strata(r):
            cmds.append(("family", ["rank4-family", "--r", str(r), "--m1", str(m1),
                                    "--m2", str(m2), "--x", str(x)] + common))
    for r in RNC_RATIONAL_R:
        cmds.append(("rnc-i2-rational", ["rnc-i2", "--r", str(r), "--rational"] + common))
    return cmds
