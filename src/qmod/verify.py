"""Named verification checks behind the ``verify`` subcommand.

Each check re-derives one advertised property of the library from
scratch and reports pass/fail plus a small data payload.  Checks are
deterministic functions of (field, seed); the same arguments twice
must produce identical output.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, QmodError
from .fields import QQ, DEFAULT_PRIME, PrimeField, derived_rng
from .invariants import (
    binom,
    enumerate_quad_cases,
    expected_dim_q,
    fiber_dim_identity,
    harris_tu_degree,
)
from .picard import (
    DivisorClass,
    boundary_indices,
    chern_pair,
    fr_dp_class,
    fr_sigma_class,
    general_type_certificate,
    tilde_b,
    z_class_15_9,
)
from .quadlab import (
    ParamCurve,
    bounded_rank_quadric,
    family_dimension,
    genus4_check,
    genus5_net_check,
    i2_basis,
    random_chord,
    random_decomposition,
    rank3_strata,
    rank4_strata,
    rnc_i2_dim,
    secant_condition,
)
from .surface import blowup_report, lattice_checks


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check."""

    check: str
    seed: int
    prime: int
    passed: bool
    data: dict

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "seed": self.seed,
            "prime": self.prime,
            "pass": self.passed,
            "data": self.data,
        }


def _check_identities(field, seed):
    failures = 0
    fixed = 0
    for g in range(4, 41):
        fixed += 2
        if expected_dim_q(g, g - 1, 2 * g - 2, 3) != -1:
            failures += 1
        if expected_dim_q(g, g - 1, 2 * g - 2, 4) != g - 4:
            failures += 1
    for r in range(3, 13):
        fixed += 1
        if expected_dim_q(0, r, r, 3) != r - 2:
            failures += 1
    # Bumping (g, d) by one apiece drops the expected dimension by one,
    # independent of r and k.  10^4 cases.
    grid = 0
    for g in range(2, 22):
        for r in range(4, 9):
            for d in range(0, 20):
                for k in range(1, 6):
                    grid += 1
                    if expected_dim_q(g + 1, r, d + 1, k) != expected_dim_q(g, r, d, k) - 1:
                        failures += 1
    fiber = 0
    for g in range(1, 41):
        for k in range(1, g + 2):
            fiber += 1
            if not fiber_dim_identity(g, k):
                failures += 1
    data = {"fixed_cases": fixed, "grid_cases": grid, "fiber_cases": fiber,
            "failures": failures}
    return failures == 0, data


def _check_harris_tu(field, seed):
    failures = 0
    cases = 0
    for e in range(3, 15):
        for k in range(3, e + 1):
            cases += 1
            value = harris_tu_degree(e, k)  # raises if non-integral
            if k == e - 1 and value != e:
                failures += 1
            if k == e - 2 and value != binom(e + 1, 3):
                failures += 1
    return failures == 0, {"cases": cases, "failures": failures}


def _check_closed_forms(field, seed):
    failures = 0
    cases = enumerate_quad_cases(40)
    for g, n, k in cases:
        e = g - n
        alpha = Fraction(harris_tu_degree(e, k))
        cls = fr_sigma_class(chern_pair(g, n), k)
        if cls.lam.value != alpha * Fraction(7 * g - 9 * n + 6, e):
            failures += 1
        if cls.psi.value != alpha * Fraction(g + n - 6, e):
            failures += 1
        if cls.b_irr.value != alpha:
            failures += 1
        # Degree-2 polynomials in s agree at 6 points, hence identically.
        for s in range(6):
            if tilde_b(g, n, 0, s) != Fraction(s * ((g - 3) * s + n - 3), e):
                failures += 1
        for i, s in boundary_indices(g, n):
            if i < s and tilde_b(g, n, i, s) < 1:
                failures += 1
    for s in range(1, 9):
        for i in range(0, s):
            if tilde_b(15, 8, i, s) < 1:
                failures += 1
    return failures == 0, {"family_cases": len(cases), "failures": failures}


def _check_dp_class(field, seed):
    dp = fr_dp_class(chern_pair(15, 8))
    expected = DivisorClass.build(
        15, 8, lam=234, psi=102, b_irr=42,
        b={key: 42 for key in boundary_indices(15, 8)},
    )
    z = z_class_15_9()
    dp_ok = dp == expected
    z_ok = (z.lam.value == 351 and z.lam.is_exact
            and z.n == 9
            and z.psi.value == 136 and z.psi.is_exact
            and z.b_irr.value == 63 and z.b_irr.is_exact)
    data = {
        "dp_lambda": str(dp.lam.value),
        "dp_psi": str(dp.psi.value),
        "dp_b_irr": str(dp.b_irr.value),
        "z_lambda": str(z.lam.value),
        "z_psi": str(z.psi.value),
        "z_b_irr": str(z.b_irr.value),
    }
    return dp_ok and z_ok, data


def _check_certificate(field, seed):
    report = general_type_certificate(
        Fraction(25, 297), Fraction(2, 297), Fraction(13, 66))
    bound_slots = [slot for slot in report.boundary
                   if slot.required_bound is not None]
    zero_slot_bounds = sorted(
        {str(slot.required_bound) for slot in bound_slots if slot.i == 0})
    ok = (report.passed
          and report.lambda_residual == 0
          and report.psi_residual == 0
          and report.e_irr == 0
          and bool(zero_slot_bounds))
    data = {
        "lambda_residual": str(report.lambda_residual),
        "psi_residual": str(report.psi_residual),
        "e_irr": str(report.e_irr),
        "bound_slots": len(bound_slots),
        "zero_slot_bounds": zero_slot_bounds,
    }
    return ok, data


def _check_quadric_lab(field, seed):
    failures = []
    for r in range(3, 9):
        if i2_basis(ParamCurve.rational_normal(field, r)).dim != rnc_i2_dim(r):
            failures.append(f"dim-fp-{r}")
    for r in range(3, 7):
        if i2_basis(ParamCurve.rational_normal(QQ, r)).dim != rnc_i2_dim(r):
            failures.append(f"dim-qq-{r}")
    instances = 0
    rank_drops = 0
    for r in range(4, 9):
        curve = ParamCurve.rational_normal(field, r)
        strata = {3: rank3_strata(r), 4: rank4_strata(r)}
        rng = derived_rng(seed, "qlab-instances", r)
        exact = 0
        for idx in range(100):
            k = 3 + idx % 2
            pd = random_decomposition(field, r, k, rng.choice(strata[k]), rng)
            quad = bounded_rank_quadric(pd, curve)
            # On the monomial curve Q pulls back to the binary form whose
            # t^s coefficient is the anti-diagonal sum of Q[i][j], i + j = s;
            # Q contains the curve exactly when all 2r + 1 sums vanish.
            pullback = [0] * (2 * r + 1)
            for i, row in enumerate(quad.entries):
                for j, a in enumerate(row):
                    pullback[i + j] += a
            if any(map(field.coerce, pullback)):
                failures.append(f"membership-{r}-{idx}")
            if quad.rank() == k:
                exact += 1
            instances += 1
        rank_drops += 100 - exact
        if exact < 99:
            failures.append(f"generic-rank-{r}:{exact}")
    family_bad = 0
    for r in range(4, 10):
        for x in rank3_strata(r):
            for bump in range(3):
                got = family_dimension(r, 3, x, field=field, seed=seed + bump)
                if got != r - 2:
                    family_bad += 1
    if family_bad:
        failures.append(f"family-dim:{family_bad}")
    data = {"instances": instances, "rank_drops": rank_drops, "failures": failures}
    return not failures, data


def _check_secant(field, seed):
    failures = 0
    chords = 0
    for r in range(3, 9):
        curve = ParamCurve.rational_normal(field, r)
        system = i2_basis(curve)
        rng = derived_rng(seed, "secant", r)
        for _ in range(100):
            t1, t2 = random_chord(field, rng)
            chords += 1
            if secant_condition(curve, t1, t2, system=system) != 1:
                failures += 1
    return failures == 0, {"chords": chords, "failures": failures}


def _check_canonical_curves(field, seed):
    # Seeds here are fixed by the check itself so the advertised seed
    # ranges are always the ones exercised.
    g4_bad = [s for s in range(1, 101) if genus4_check(s, field=field) != 4]
    g5_bad = [s for s in range(1, 21) if not genus5_net_check(s, field=field).passed]
    data = {
        "genus4_seeds": 100,
        "genus4_failures": g4_bad,
        "genus5_seeds": 20,
        "genus5_failures": g5_bad,
    }
    return not g4_bad and not g5_bad, data


def _check_surface(field, seed):
    config_seeds = [derived_rng(seed, "surface-seed", i).randrange(2 ** 32)
                    for i in range(20)]
    # Tallied as each report arrives: a report carries its built systems,
    # so keeping all twenty would hold every one of them at once.
    passed = 0
    stages = {}
    for s in config_seeds:
        rep = blowup_report(s, field=field)
        passed += rep.passed
        stages[rep.stage] = stages.get(rep.stage, 0) + 1
    lattice = lattice_checks()
    lattice_ok = (lattice["c_dot_h"] == 20 and lattice["h_self"] == 13
                  and lattice["genus_c"] == 15)
    data = {
        "seeds": len(config_seeds),
        "passed_reports": passed,
        "stages": {k: stages[k] for k in sorted(stages)},
        "lattice_exact": lattice_ok,
    }
    return passed >= 19 and lattice_ok, data


CHECKS = {
    "01-identities": _check_identities,
    "02-harris-tu": _check_harris_tu,
    "03-closed-forms": _check_closed_forms,
    "04-dp-class": _check_dp_class,
    "05-certificate": _check_certificate,
    "06-quadric-lab": _check_quadric_lab,
    "07-secant": _check_secant,
    "08-canonical-curves": _check_canonical_curves,
    "09-surface": _check_surface,
}


def check_names() -> list[str]:
    return sorted(CHECKS)


def run_check(name: str, *, seed: int = 0, field=None) -> CheckResult:
    if name not in CHECKS:
        raise DomainError(f"unknown check {name!r}; known: {', '.join(check_names())}")
    if field is None:
        field = PrimeField(DEFAULT_PRIME)
    try:
        passed, data = CHECKS[name](field, seed)
    except QmodError as exc:
        passed, data = False, {"error": f"{type(exc).__name__}: {exc}"}
    prime = field.p if isinstance(field, PrimeField) else 0
    return CheckResult(check=name, seed=seed, prime=prime, passed=passed, data=data)
