"""Command line front end.

Every subcommand prints either a human-readable table or a JSON payload
(--format json, keys sorted, deterministic for a fixed seed and prime).
Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
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


def _emit(args, payload: dict, lines) -> int:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


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


def _cmd_expected_dim(field, args):
    v = expected_dim_q(args.g, args.r, args.d, args.k)
    payload = {"g": args.g, "r": args.r, "d": args.d, "k": args.k, "q": v}
    return _emit(args, payload, [str(v)])


def _cmd_rho(field, args):
    v = brill_noether_rho(args.g, args.r, args.d)
    payload = {"g": args.g, "r": args.r, "d": args.d, "rho": v}
    return _emit(args, payload, [str(v)])


def _cmd_adjusted_rho(field, args):
    alpha = RamificationSequence(args.alpha)
    v = adjusted_rho(args.g, args.r, args.d, alpha)
    payload = {"g": args.g, "r": args.r, "d": args.d,
               "alpha": list(alpha), "rho": v}
    return _emit(args, payload, [str(v)])


def _cmd_harris_tu(field, args):
    v = harris_tu_degree(args.e, args.k)
    payload = {"e": args.e, "k": args.k, "degree": v}
    return _emit(args, payload, [str(v)])


def _cmd_enumerate_cases(field, args):
    cases = enumerate_quad_cases(args.g_max)
    payload = {"g_max": args.g_max, "count": len(cases),
               "cases": [list(c) for c in cases]}
    lines = [f"g={g} n={n} k={k}" for g, n, k in cases]
    lines.append(f"count: {len(cases)}")
    return _emit(args, payload, lines)


def _cmd_quad_class(field, args):
    uns = quad_class_unscaled(args.g, args.n, args.k)
    alpha = harris_tu_degree(args.g - args.n, args.k)
    cls = uns.scale(alpha)
    payload = {"alpha": str(alpha), "class": cls.to_json_dict(),
               "unscaled": uns.to_json_dict()}
    lines = itertools.chain(
        [f"alpha: {alpha}"], _class_lines(cls), ["unscaled (divided by alpha):"],
        ("  " + ln for ln in _class_lines(uns)))
    return _emit(args, payload, lines)


def _cmd_dp_class(field, args):
    cls = fr_dp_class(chern_pair(args.g, args.n))
    return _emit(args, {"class": cls.to_json_dict()}, _class_lines(cls))


def _cmd_z_class(field, args):
    cls = z_class_15_9()
    return _emit(args, {"class": cls.to_json_dict()}, _class_lines(cls))


def _cmd_canonical_class(field, args):
    cls = canonical_class(args.g, args.n)
    return _emit(args, {"class": cls.to_json_dict()}, _class_lines(cls))


def _cmd_certificate(field, args):
    z = args.z
    if args.solve:
        if args.x is not None or args.y is not None:
            print("error: --x and --y conflict with --solve", file=sys.stderr)
            return 2
        x, y = solve_certificate_multipliers(z)
        # A negative z is the certificate's own refusal; a z >= 0 can
        # still solve to a negative x or y.
        for name, v in (("x", x), ("y", y)) if z >= 0 else ():
            if v < 0:
                raise DomainError(f"--solve at z={z} gives {name}={v}, "
                                  "but certificate multipliers must be nonnegative")
    else:
        x = Fraction(25, 297) if args.x is None else args.x
        y = Fraction(2, 297) if args.y is None else args.y
    rep = general_type_certificate(x, y, z)
    bound_slots = sum(1 for s in rep.boundary if s.required_bound is not None)
    lines = [
        f"multipliers: x={rep.x} y={rep.y} z={rep.z}",
        f"lambda residual: {rep.lambda_residual}",
        f"psi residual: {rep.psi_residual}",
        f"E_irr: {rep.e_irr}",
        f"boundary slots needing a bound: {bound_slots}/{len(rep.boundary)}",
    ]
    for slot in rep.boundary:
        if slot.required_bound is not None:
            lines.append(f"  b[{slot.i},{slot.s}] needs >= {slot.required_bound}")
    lines.append(f"passed: {rep.passed}")
    _emit(args, rep.to_json_dict(), lines)
    return 0 if rep.passed else 1


def _cmd_rnc_i2(field, args):
    if args.rational and args.prime is not None:
        # --rational works over QQ; a given prime would be dropped unseen.
        print("error: --prime conflicts with --rational", file=sys.stderr)
        return 2
    field = QQ if args.rational else field
    system = i2_basis(ParamCurve.rational_normal(field, args.r))
    expected = rnc_i2_dim(args.r)
    payload = {"r": args.r, "dim": system.dim, "expected": expected,
               "rational": bool(args.rational)}
    if args.dump:
        payload["system"] = system.to_json_dict()
    lines = [f"dim I2 = {system.dim} (expected {expected})"]
    _emit(args, payload, lines)
    return 0 if system.dim == expected else 1


def _cmd_rank3_family(field, args):
    got = family_dimension(args.r, 3, args.x, field=field, seed=args.seed)
    want = expected_family_dim(args.r, 3, args.x)
    payload = {"r": args.r, "x": args.x, "dim": got, "expected": want}
    _emit(args, payload, [f"family dimension {got} (expected {want})"])
    return 0 if got == want else 1


def _cmd_rank4_family(field, args):
    stratum = (args.m1, args.m2, args.x)
    got = family_dimension(args.r, 4, stratum, field=field, seed=args.seed)
    want = expected_family_dim(args.r, 4, stratum)
    payload = {"r": args.r, "stratum": list(stratum), "dim": got, "expected": want}
    _emit(args, payload, [f"family dimension {got} (expected {want})"])
    return 0 if got == want else 1


def _cmd_secant(field, args):
    if (args.t1 is None) != (args.t2 is None):
        print("error: --t1 and --t2 must be given together", file=sys.stderr)
        return 2
    if args.t1 is not None and args.repeat != 1:
        # A given chord is evaluated once; more repeats would be dropped unseen.
        print("error: --repeat conflicts with --t1/--t2", file=sys.stderr)
        return 2
    curve = ParamCurve.rational_normal(field, args.r)
    system = i2_basis(curve)
    if args.t1 is not None:
        chords = [(field.coerce(args.t1), field.coerce(args.t2))]
    else:
        rng = derived_rng(args.seed, "secant-cli", args.r)
        chords = [random_chord(field, rng) for _ in range(args.repeat)]
    codims = [secant_condition(curve, t1, t2, system=system)
              for t1, t2 in chords]
    payload = {"r": args.r, "chords": len(codims), "codims": codims}
    good = sum(1 for c in codims if c == 1)
    lines = [f"chords: {len(codims)}", f"codimension 1: {good}/{len(codims)}"]
    _emit(args, payload, lines)
    return 0 if good == len(codims) else 1


def _cmd_genus4(field, args):
    seeds = list(range(args.seed, args.seed + args.repeat))
    ranks = [genus4_check(s, field=field) for s in seeds]
    payload = {"seeds": seeds, "ranks": ranks}
    good = sum(1 for rk in ranks if rk == 4)
    lines = [f"seed {s}: rank {rk}" for s, rk in zip(seeds, ranks)]
    lines.append(f"rank 4: {good}/{len(ranks)}")
    _emit(args, payload, lines)
    return 0 if good == len(ranks) else 1


def _cmd_genus5_net(field, args):
    rep = genus5_net_check(args.seed, field=field)
    lines = [
        f"seed: {rep.seed}",
        f"discriminant nonzero: {rep.discriminant_nonzero}",
        f"partials coprime in the chart z = 1: {rep.chart_coprime}",
        f"partials coprime on the line z = 0: {rep.line_coprime}",
        f"passed: {rep.passed}",
    ]
    _emit(args, rep.to_json_dict(), lines)
    return 0 if rep.passed else 1


def _cmd_blowup_verify(field, args):
    rep = blowup_report(args.seed, field=field)
    payload = rep.to_json_dict()
    if args.dump and rep.passed:
        payload["dump"] = {"points": rep.config.to_json_dict(),
                           "hyperplane_system": rep.hyperplane.to_json_dict(),
                           "quadrics": rep.quadrics.to_json_dict()}
    lines = [
        f"seed: {rep.seed}",
        f"stage reached: {rep.stage}",
        f"h^0: hyperplane {rep.h_dim}, curve {rep.curve_dim}, residual {rep.residual_dim}",
        f"dim I2: {rep.i2_dim}",
    ]
    if rep.pencil is not None:
        lines.append(f"pencil discriminant: degree {rep.pencil.degree}, "
                     f"squarefree {rep.pencil.squarefree}")
    lines.append(f"passed: {rep.passed}")
    _emit(args, payload, lines)
    return 0 if rep.passed else 1


def _cmd_pencil_disc(field, args):
    rep = blowup_report(args.seed, field=field)
    if rep.pencil is None:
        payload = {"seed": rep.seed, "stage": rep.stage, "pencil": None}
        _emit(args, payload, [f"construction stopped at stage {rep.stage}"])
        return 1
    payload = {"seed": rep.seed, "pencil": rep.pencil.to_json_dict()}
    if args.dump:
        payload["dump"] = rep.quadrics.to_json_dict()
    pencil = rep.pencil
    lines = [
        f"seed: {rep.seed}",
        f"degree: {pencil.degree}",
        f"nonzero: {pencil.nonzero}",
        f"squarefree: {pencil.squarefree}",
        f"nondegenerate: {pencil.nondegenerate}",
    ]
    _emit(args, payload, lines)
    return 0 if pencil.nondegenerate else 1


def _cmd_verify(field, args):
    requested = args.checks or ["all"]
    for name in requested:
        if name != "all" and name not in CHECKS:
            print(f"error: unknown check {name!r}; known: "
                  f"{', '.join(check_names())} or all", file=sys.stderr)
            return 2
    names = check_names() if "all" in requested else list(dict.fromkeys(requested))
    results = [run_check(name, seed=args.seed, field=field)
               for name in names]
    payload = {"seed": args.seed, "prime": field.p,
               "results": [r.to_json_dict() for r in results]}
    lines = [f"{r.check}: {'pass' if r.passed else 'FAIL'}" for r in results]
    _emit(args, payload, lines)
    return 0 if all(r.passed for r in results) else 1


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


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational number such as 13/66, got {text!r}") from None


# Built once per process: parse_args keeps no state between calls, and no
# action appends to or mutates a default, so every call can share it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, default=None,
                        help="working prime (default: QMOD_PRIME or 2^61-1)")
    common.add_argument("--seed", type=int, default=0,
                        help="base seed for sampling (default 0)")
    common.add_argument("--format", choices=("table", "json"), default="table",
                        help="output format (default table)")
    common.add_argument("--repeat", type=int, default=1,
                        help="number of sampling repetitions (default 1)")

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
    p.add_argument("--x", type=_fraction, help="default 25/297")
    p.add_argument("--y", type=_fraction, help="default 2/297")
    p.add_argument("--z", type=_fraction, default=Fraction(13, 66))
    p.add_argument("--solve", action="store_true",
                   help="derive x and y from z instead of taking them as given")
    # argparse takes only integers and decimals such as -1 or -.5 for
    # values, so "--z -1/3" would read -1/3 as an unknown option.  No
    # option here starts with "-" and a digit: let any such token be a value.
    p._negative_number_matcher = re.compile(r"-\.?\d")

    p = sub.add_parser("rnc-i2", parents=[common],
                       help="quadrics through the rational normal curve")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--rational", action="store_true",
                   help="compute over the rationals instead of F_p")
    p.add_argument("--dump", action="store_true",
                   help="include the basis matrices in the payload")

    p = sub.add_parser("rank3-family", parents=[common],
                       help="sampled dimension of a rank-3 quadric family")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--x", type=int, required=True,
                   help="degree of the residual factor")

    p = sub.add_parser("rank4-family", parents=[common],
                       help="sampled dimension of a rank-4 quadric family")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m1", type=int, required=True, help="degree of the first pencil")
    p.add_argument("--m2", type=int, required=True, help="degree of the second pencil")
    p.add_argument("--x", type=int, required=True,
                   help="degree of the residual factor")

    p = sub.add_parser("secant", parents=[common],
                       help="codimension imposed by a chord on the quadric system")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t1", type=int, default=None)
    p.add_argument("--t2", type=int, default=None)

    sub.add_parser("genus4", parents=[common],
                   help="rank of one seeded random symmetric 4x4 matrix")

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
    p.add_argument("checks", nargs="*",
                   help="check names, or 'all' (default)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    prime = args.prime
    if prime is None:
        env = os.environ.get("QMOD_PRIME")
        if env is not None:
            try:
                prime = int(env)
            except ValueError:
                print(f"error: QMOD_PRIME must be an integer, got {env!r}",
                      file=sys.stderr)
                return 2
        else:
            prime = DEFAULT_PRIME
    try:
        field = PrimeField(prime)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.repeat < 1:
        print(f"error: --repeat must be >= 1, got {args.repeat}", file=sys.stderr)
        return 2
    handler = HANDLERS[args.command]
    try:
        return handler(field, args)
    except GenericityError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (DomainError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


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
