"""Command line front end.

Every subcommand prints either a human-readable table or a JSON payload
(--format json, keys sorted, deterministic for a fixed seed and prime).
Each handler returns (passed, payload, lines): whether its check passed,
a zero-argument callable that builds the JSON payload, and the table
lines.  ``main`` alone prints, and it builds only the form it prints.
Exit codes: 0 success, 1 verification failure, 2 usage, domain or
configuration error.  A usage error is reported by the subcommand's own
parser, so it prints that subcommand's usage line.
"""

import argparse
import functools
import itertools
import json
import os
import re
import sys
from fractions import Fraction

from .errors import ConfigurationError, DomainError, GenericityError
from .fields import DEFAULT_PRIME, QQ, PrimeField, derived_rng
from .invariants import (
    RamificationSequence,
    adjusted_rho,
    brill_noether_rho,
    enumerate_quad_cases,
    expected_dim_q,
    harris_tu_degree,
)
from .picard import (
    DEFAULT_MULTIPLIERS,
    boundary_indices,
    canonical_class,
    chern_pair,
    fr_dp_class,
    general_type_certificate,
    quad_class_unscaled,
    solve_certificate_multipliers,
    z_class_15_9,
)
from .quadlab import (
    ParamCurve,
    expected_family_dim,
    family_dimension,
    genus4_check,
    genus5_net_check,
    i2_basis,
    random_chord,
    rnc_i2_dim,
    secant_condition,
)
from .surface import blowup_report
from .verify import CHECKS, check_names, run_check


def _coeff_str(c) -> str:
    return ("" if c.is_exact else ">= ") + str(c.value)


def _class_lines(d):
    yield f"g={d.g} n={d.n}"
    yield f"lambda: {_coeff_str(d.lam)}"
    if d.n:
        yield f"psi: {_coeff_str(d.psi)} on each of {d.n} markings"
    yield f"b_irr: {_coeff_str(d.b_irr)}"
    for key in boundary_indices(d.g, d.n):
        yield f"b[{key[0]},{key[1]}]: {_coeff_str(d.b[key])}"


def _class_result(cls):
    return True, lambda: {"class": cls.to_json_dict()}, _class_lines(cls)


def _cmd_expected_dim(args):
    v = expected_dim_q(args.g, args.r, args.d, args.k)
    return True, lambda: {"g": args.g, "r": args.r, "d": args.d, "k": args.k, "q": v}, [str(v)]


def _cmd_rho(args):
    v = brill_noether_rho(args.g, args.r, args.d)
    return True, lambda: {"g": args.g, "r": args.r, "d": args.d, "rho": v}, [str(v)]


def _cmd_adjusted_rho(args):
    alpha = RamificationSequence(args.alpha)
    v = adjusted_rho(args.g, args.r, args.d, alpha)
    return True, lambda: {"g": args.g, "r": args.r, "d": args.d,
                          "alpha": list(alpha), "rho": v}, [str(v)]


def _cmd_harris_tu(args):
    v = harris_tu_degree(args.e, args.k)
    return True, lambda: {"e": args.e, "k": args.k, "degree": v}, [str(v)]


def _cmd_enumerate_cases(args):
    cases = enumerate_quad_cases(args.g_max)
    lines = itertools.chain((f"g={g} n={n} k={k}" for g, n, k in cases),
                            [f"count: {len(cases)}"])
    return True, lambda: {"g_max": args.g_max, "count": len(cases),
                          "cases": [list(c) for c in cases]}, lines


def _cmd_quad_class(args):
    uns = quad_class_unscaled(args.g, args.n, args.k)
    alpha = harris_tu_degree(args.g - args.n, args.k)
    cls = uns.scale(alpha)
    lines = itertools.chain(
        [f"alpha: {alpha}"], _class_lines(cls), ["unscaled (divided by alpha):"],
        ("  " + ln for ln in _class_lines(uns)))
    return True, lambda: {"alpha": str(alpha), "class": cls.to_json_dict(),
                          "unscaled": uns.to_json_dict()}, lines


def _cmd_dp_class(args):
    return _class_result(fr_dp_class(chern_pair(args.g, args.n)))


def _cmd_z_class(args):
    return _class_result(z_class_15_9())


def _cmd_canonical_class(args):
    return _class_result(canonical_class(args.g, args.n))


def _certificate_lines(rep):
    needed = [s for s in rep.boundary if s.required_bound is not None]
    yield f"multipliers: x={rep.x} y={rep.y} z={rep.z}"
    yield f"lambda residual: {rep.lambda_residual}"
    yield f"psi residual: {rep.psi_residual}"
    yield f"E_irr: {rep.e_irr}"
    yield f"boundary slots needing a bound: {len(needed)}/{len(rep.boundary)}"
    for slot in needed:
        yield f"  b[{slot.i},{slot.s}] needs >= {slot.required_bound}"
    yield f"passed: {rep.passed}"


def _cmd_certificate(args):
    z = args.z
    if args.solve:
        if args.x is not None or args.y is not None:
            raise argparse.ArgumentError(None, "--x and --y conflict with --solve")
        x, y = solve_certificate_multipliers(z)
        # A negative z is the certificate's own refusal; a z >= 0 can
        # still solve to a negative x or y.
        for name, v in (("x", x), ("y", y)) if z >= 0 else ():
            if v < 0:
                raise DomainError(f"--solve at z={z} gives {name}={v}, "
                                  "but certificate multipliers must be nonnegative")
    else:
        x0, y0, _ = DEFAULT_MULTIPLIERS
        x = x0 if args.x is None else args.x
        y = y0 if args.y is None else args.y
    rep = general_type_certificate(x, y, z)
    return rep.passed, rep.to_json_dict, _certificate_lines(rep)


def _cmd_rnc_i2(args):
    field = QQ if args.rational else PrimeField(args.prime)
    system = i2_basis(ParamCurve.rational_normal(field, args.r))
    expected = rnc_i2_dim(args.r)

    def payload():
        out = {"r": args.r, "dim": system.dim, "expected": expected,
               "rational": args.rational}
        if args.dump:
            out["system"] = system.to_json_dict()
        return out

    return system.dim == expected, payload, [f"dim I2 = {system.dim} (expected {expected})"]


def _family_result(args, k, stratum, key):
    got = family_dimension(args.r, k, stratum, field=PrimeField(args.prime), seed=args.seed)
    want = expected_family_dim(args.r, k, stratum)
    return (got == want,
            lambda: {"r": args.r, key: stratum, "dim": got, "expected": want},
            [f"family dimension {got} (expected {want})"])


def _cmd_rank3_family(args):
    return _family_result(args, 3, args.x, "x")


def _cmd_rank4_family(args):
    return _family_result(args, 4, [args.m1, args.m2, args.x], "stratum")


def _cmd_secant(args):
    if (args.t1 is None) != (args.t2 is None):
        raise argparse.ArgumentError(None, "--t1 and --t2 must be given together")
    if args.t1 is not None and args.repeat != 1:
        # A given chord is evaluated once; more repeats would be dropped unseen.
        raise argparse.ArgumentError(None, "--repeat conflicts with --t1/--t2")
    field = PrimeField(args.prime)
    curve = ParamCurve.rational_normal(field, args.r)
    system = i2_basis(curve)
    if args.t1 is not None:
        chords = [(field.coerce(args.t1), field.coerce(args.t2))]
    else:
        rng = derived_rng(args.seed, "secant-cli", args.r)
        chords = [random_chord(field, rng) for _ in range(args.repeat)]
    codims = [secant_condition(curve, t1, t2, system=system) for t1, t2 in chords]
    good = codims.count(1)
    return (good == len(codims),
            lambda: {"r": args.r, "chords": len(codims), "codims": codims},
            [f"chords: {len(codims)}", f"codimension 1: {good}/{len(codims)}"])


def _cmd_genus4(args):
    seeds = list(range(args.seed, args.seed + args.repeat))
    field = PrimeField(args.prime)
    ranks = [genus4_check(s, field=field) for s in seeds]
    good = ranks.count(4)
    lines = itertools.chain((f"seed {s}: rank {rk}" for s, rk in zip(seeds, ranks)),
                            [f"rank 4: {good}/{len(ranks)}"])
    return good == len(ranks), lambda: {"seeds": seeds, "ranks": ranks}, lines


def _cmd_genus5_net(args):
    rep = genus5_net_check(args.seed, field=PrimeField(args.prime))
    return rep.passed, rep.to_json_dict, [
        f"seed: {rep.seed}",
        f"discriminant nonzero: {rep.discriminant_nonzero}",
        f"partials coprime in the chart z = 1: {rep.chart_coprime}",
        f"partials coprime on the line z = 0: {rep.line_coprime}",
        f"passed: {rep.passed}",
    ]


def _blowup_lines(rep):
    yield f"seed: {rep.seed}"
    yield f"stage reached: {rep.stage}"
    yield f"h^0: hyperplane {rep.h_dim}, curve {rep.curve_dim}, residual {rep.residual_dim}"
    yield f"dim I2: {rep.i2_dim}"
    if rep.pencil is not None:
        yield (f"pencil discriminant: degree {rep.pencil.degree}, "
               f"squarefree {rep.pencil.squarefree}")
    yield f"passed: {rep.passed}"


def _cmd_blowup_verify(args):
    rep = blowup_report(args.seed, field=PrimeField(args.prime))

    def payload():
        out = rep.to_json_dict()
        if args.dump and rep.passed:
            out["dump"] = {"points": rep.config.to_json_dict(),
                           "hyperplane_system": rep.hyperplane.to_json_dict(),
                           "quadrics": rep.quadrics.to_json_dict()}
        return out

    return rep.passed, payload, _blowup_lines(rep)


def _cmd_pencil_disc(args):
    rep = blowup_report(args.seed, field=PrimeField(args.prime))
    pencil = rep.pencil
    if pencil is None:
        return (False, lambda: {"seed": rep.seed, "stage": rep.stage, "pencil": None},
                [f"construction stopped at stage {rep.stage}"])

    def payload():
        out = {"seed": rep.seed, "pencil": pencil.to_json_dict()}
        if args.dump:
            out["dump"] = rep.quadrics.to_json_dict()
        return out

    return pencil.nondegenerate, payload, [
        f"seed: {rep.seed}",
        f"degree: {pencil.degree}",
        f"nonzero: {pencil.nonzero}",
        f"squarefree: {pencil.squarefree}",
        f"nondegenerate: {pencil.nondegenerate}",
    ]


def _cmd_verify(args):
    names = check_names() if "all" in args.checks else list(dict.fromkeys(args.checks))
    field = PrimeField(args.prime)
    results = [run_check(name, seed=args.seed, field=field) for name in names]
    return (all(r.passed for r in results),
            lambda: {"seed": args.seed, "prime": field.p,
                     "results": [r.to_json_dict() for r in results]},
            (f"{r.check}: {'pass' if r.passed else 'FAIL'}" for r in results))


HANDLERS = {
    "expected-dim": _cmd_expected_dim,
    "rho": _cmd_rho,
    "adjusted-rho": _cmd_adjusted_rho,
    "harris-tu": _cmd_harris_tu,
    "enumerate-cases": _cmd_enumerate_cases,
    "quad-class": _cmd_quad_class,
    "dp-class": _cmd_dp_class,
    "z-class": _cmd_z_class,
    "canonical-class": _cmd_canonical_class,
    "certificate": _cmd_certificate,
    "rnc-i2": _cmd_rnc_i2,
    "rank3-family": _cmd_rank3_family,
    "rank4-family": _cmd_rank4_family,
    "secant": _cmd_secant,
    "genus4": _cmd_genus4,
    "genus5-net": _cmd_genus5_net,
    "blowup-verify": _cmd_blowup_verify,
    "pencil-disc": _cmd_pencil_disc,
    "verify": _cmd_verify,
}


def _int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


# Largest --r of the curve commands, whose matrices grow like a power of r.
MAX_R = 40


def _curve_r(text: str) -> int:
    try:
        r = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if r > MAX_R:
        raise argparse.ArgumentTypeError(f"expected r <= {MAX_R}, got {r}")
    return r


def _check_name(text: str) -> str:
    if text != "all" and text not in CHECKS:
        raise argparse.ArgumentTypeError(
            f"unknown check {text!r}; known: {', '.join(check_names())} or all")
    return text


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational number such as 13/66, got {text!r}") from None


# Built once per process: parsing keeps no state between calls, and no
# action appends to or mutates a default, so every call can share it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="base seed for sampling (default 0)")
    common.add_argument("--format", choices=("table", "json"), default="table",
                        help="output format (default table)")
    prime = {"type": int, "default": DEFAULT_PRIME,
             "help": "working prime (default 2^61-1)"}

    parser = argparse.ArgumentParser(
        prog="qmod",
        description="Exact quadric-rank and moduli-divisor workbench.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expected-dim", parents=[common],
                       help="expected dimension of the rank-<=k quadric locus")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("rho", parents=[common], help="Brill-Noether number")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("adjusted-rho", parents=[common],
                       help="Brill-Noether number adjusted by ramification")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=_int_list, required=True,
                   help="comma-separated ramification indices, r+1 entries")

    p = sub.add_parser("harris-tu", parents=[common],
                       help="degree of the rank-<=k symmetric determinantal locus")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("enumerate-cases", parents=[common],
                       help="list (g, n, k) with an expected divisor of quadric type")
    p.add_argument("--g-max", type=int, default=40)

    p = sub.add_parser("quad-class", parents=[common],
                       help="divisor class of the rank-<=k locus closure")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("dp-class", parents=[common],
                       help="divisor class of the du Val-type rank locus")
    p.add_argument("--g", type=int, default=15)
    p.add_argument("--n", type=int, default=8)

    sub.add_parser("z-class", parents=[common],
                   help="pushed-forward quadric divisor on the (15, 9) space")

    p = sub.add_parser("canonical-class", parents=[common],
                       help="canonical class of the pointed moduli space")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("certificate", parents=[common],
                       help="general-type decomposition check on (15, 9)")
    x0, y0, z0 = DEFAULT_MULTIPLIERS
    p.add_argument("--x", type=_fraction, help=f"default {x0}")
    p.add_argument("--y", type=_fraction, help=f"default {y0}")
    p.add_argument("--z", type=_fraction, default=z0)
    p.add_argument("--solve", action="store_true",
                   help="derive x and y from z instead of taking them as given")
    # argparse takes only integers and decimals such as -1 or -.5 for
    # values, so "--z -1/3" would read -1/3 as an unknown option.  No
    # option here starts with "-" and a digit: let any such token be a value.
    p._negative_number_matcher = re.compile(r"-\.?\d")

    p = sub.add_parser("rnc-i2", parents=[common],
                       help="quadrics through the rational normal curve")
    p.add_argument("--r", type=_curve_r, required=True)
    # --rational works over QQ; a given --prime would be dropped unseen.
    over = p.add_mutually_exclusive_group()
    over.add_argument("--rational", action="store_true",
                      help="compute over the rationals instead of F_p")
    over.add_argument("--prime", **prime)
    p.add_argument("--dump", action="store_true",
                   help="include the basis matrices in the payload")

    p = sub.add_parser("rank3-family", parents=[common],
                       help="sampled dimension of a rank-3 quadric family")
    p.add_argument("--r", type=_curve_r, required=True)
    p.add_argument("--x", type=int, required=True,
                   help="degree of the residual factor")

    p = sub.add_parser("rank4-family", parents=[common],
                       help="sampled dimension of a rank-4 quadric family")
    p.add_argument("--r", type=_curve_r, required=True)
    p.add_argument("--m1", type=int, required=True, help="degree of the first pencil")
    p.add_argument("--m2", type=int, required=True, help="degree of the second pencil")
    p.add_argument("--x", type=int, required=True,
                   help="degree of the residual factor")

    p = sub.add_parser("secant", parents=[common],
                       help="codimension imposed by a chord on the quadric system")
    p.add_argument("--r", type=_curve_r, required=True)
    p.add_argument("--t1", type=int, default=None)
    p.add_argument("--t2", type=int, default=None)
    p.add_argument("--repeat", type=_positive_int, default=1, help="chords to draw (default 1)")

    p = sub.add_parser("genus4", parents=[common],
                       help="rank of seeded random symmetric 4x4 matrices")
    p.add_argument("--repeat", type=_positive_int, default=1, help="seeds to draw (default 1)")

    sub.add_parser("genus5-net", parents=[common],
                   help="smoothness certificate of a random genus-5 quadric net")

    p = sub.add_parser("blowup-verify", parents=[common],
                       help="15-point blow-up surface construction check")
    p.add_argument("--dump", action="store_true",
                   help="include the linear systems in the payload")

    p = sub.add_parser("pencil-disc", parents=[common],
                       help="discriminant of the surface quadric pencil")
    p.add_argument("--dump", action="store_true",
                   help="include the quadric pair in the payload")

    p = sub.add_parser("verify", parents=[common],
                       help="run named verification checks")
    p.add_argument("checks", nargs="*", type=_check_name, default=["all"],
                   help="check names, or 'all' (default)")

    # Only the commands that compute over F_p read a working prime.
    for name in ("rank3-family", "rank4-family", "secant", "genus4",
                 "genus5-net", "blowup-verify", "pencil-disc", "verify"):
        sub.choices[name].add_argument("--prime", **prime)
    # main reports a usage error that the parser cannot see through the
    # subcommand's own parser, so it prints that subcommand's usage.
    for p in sub.choices.values():
        p.set_defaults(command_parser=p)
    return parser


def main(argv=None) -> int:
    try:
        args, extras = build_parser().parse_known_args(argv)
        if extras:
            args.command_parser.error(f"unrecognized arguments: {' '.join(extras)}")
        try:
            passed, payload, lines = HANDLERS[args.command](args)
        except argparse.ArgumentError as exc:
            args.command_parser.error(str(exc))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    except GenericityError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (DomainError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(payload(), sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0 if passed else 1


def entry() -> None:
    try:
        rc = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``qmod ... | head``).  Point stdout at
        # devnull so the flush at exit cannot raise again, as the ``signal``
        # module docs recommend, and exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(rc)
