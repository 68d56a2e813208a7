"""Divisor-class bookkeeping on moduli of stable n-pointed genus-g curves.

Classes are stored against the standard generators: lambda, the point
classes psi_j, and the boundary divisors.  Every class here is
S_n-symmetric, so one psi coefficient serves all n markings.  Boundary
coefficients are kept NEGATED (a class is lambda-part + psi-part -
b_irr*delta_irr - sum of b_{i:s}*delta_{i:S}), matching how the results
of interest are displayed.

Coefficients carry a kind: Exact, or AtLeast for slots where only a lower
bound is proved.  Bound arithmetic is deliberately strict - anything
touching an AtLeast becomes AtLeast, and scaling an AtLeast by a negative
rational is a fatal internal error, never a silent sign flip.  That rule
lives in _require_bound_kept, checked once per scaled coefficient or class.

Symmetric classes index boundary slots by (i, s) = (component genus,
number of marked points on it) with the representative i <= g-i (ties by
smaller s).  A single pullback along a forgetful map is NOT symmetric -
the new point is special - but the sum of the pullbacks along all n+1
forgetful maps is, and it has a closed form in (i, s) storage built from
the Arbarello-Cornalba pullback rules (Publ. IHES 88, 1998); see
symmetrized_pullback_sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InternalCheckError
from .invariants import _q_formula, binom, harris_tu_degree

EXACT = "exact"
AT_LEAST = "at_least"


def _rational(v) -> Fraction:
    """v as an exact rational; floats, bools and non-numbers are refused."""
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise DomainError(f"expected an exact rational, got {v!r}")
    return Fraction(v)


def _times(a, v: Fraction) -> Fraction:
    """a * v (a an int or Fraction) as one normalising Fraction of integers."""
    return Fraction(a.numerator * v.numerator, a.denominator * v.denominator)


def _require_bound_kept(a: Fraction, coeffs):
    if a < 0 and any(c.kind == AT_LEAST for c in coeffs):
        raise InternalCheckError(
            "negative scaling of a lower-bound coefficient loses the bound"
        )


@dataclass(frozen=True)
class Coefficient:
    """An exact rational value, or a rational lower bound."""

    kind: str
    value: Fraction

    @classmethod
    def exact(cls, v) -> "Coefficient":
        return cls(EXACT, v)

    @classmethod
    def at_least(cls, v) -> "Coefficient":
        return cls(AT_LEAST, v)

    def __post_init__(self):
        if self.kind not in (EXACT, AT_LEAST):
            raise DomainError(f"unknown coefficient kind {self.kind!r}")
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", _rational(self.value))

    @property
    def is_exact(self) -> bool:
        return self.kind == EXACT

    def add(self, other: "Coefficient") -> "Coefficient":
        if other.kind == EXACT and not other.value:
            return self
        if self.kind == EXACT and not self.value:
            return other
        kind = EXACT if self.kind == other.kind == EXACT else AT_LEAST
        return Coefficient(kind, self.value + other.value)

    def scale(self, a) -> "Coefficient":
        a = _rational(a)
        if a == 0:
            return ZERO
        _require_bound_kept(a, (self,))
        return Coefficient(self.kind, _times(a, self.value))

    def as_bound(self) -> "Coefficient":
        """Forget exactness, keep the value as a lower bound."""
        return Coefficient(AT_LEAST, self.value)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "value": str(self.value)}


ZERO = Coefficient.exact(0)

# The multipliers (x, y, z) of the general-type certificate on (15, 9).
DEFAULT_MULTIPLIERS = (Fraction(25, 297), Fraction(2, 297), Fraction(13, 66))


def _coefficient(v) -> Coefficient:
    return v if isinstance(v, Coefficient) else Coefficient.exact(v)


def boundary_indices(g: int, n: int) -> list[tuple[int, int]]:
    """Canonical (i, s) slots for the boundary divisors of (g, n).

    i = 0 needs s >= 2 (a genus-0 limb needs three special points); the
    mirror constraint for i = g is absorbed by the representative choice
    i <= g - i.  For even g the middle slots keep s <= n - s.
    """
    if g < 2 or n < 0:
        raise DomainError("boundary bookkeeping needs g >= 2, n >= 0")
    out = []
    for s in range(2, n + 1):
        out.append((0, s))
    for i in range(1, g // 2 + 1):
        smax = n if 2 * i < g else n // 2
        for s in range(0, smax + 1):
            out.append((i, s))
    return out


def canonical_pair(g: int, n: int, i: int, s: int) -> tuple[int, int]:
    """Representative of the divisor (i, S with |S|=s) under (i,S) ~ (g-i, S^c)."""
    if not (0 <= i <= g and 0 <= s <= n):
        raise DomainError(f"slot ({i}, {s}) out of range for (g, n)=({g}, {n})")
    if i == 0 and s < 2:
        raise DomainError(f"slot (0, {s}) does not index a boundary divisor")
    if i == g and n - s < 2:
        raise DomainError(f"slot ({i}, {s}) does not index a boundary divisor")
    if 2 * i > g or (2 * i == g and 2 * s > n):
        i, s = g - i, n - s
    return i, s


class DivisorClass:
    """An S_n-symmetric class on (g, n): one psi for all markings, ZERO if
    n = 0.  A coefficient is given as a ``Coefficient`` or an exact rational.
    ``b`` holds every slot in ``boundary_indices`` order, which is sorted."""

    __slots__ = ("g", "n", "lam", "psi", "b_irr", "b")

    def __init__(self, g: int, n: int, *, lam=0, psi=0, b_irr=0, b=None):
        if g < 2 or n < 0:
            raise DomainError("divisor classes are kept for g >= 2, n >= 0")
        lam, psi, b_irr, b = _coefficient(lam), _coefficient(psi), _coefficient(b_irr), b or {}
        if not lam.is_exact or not psi.is_exact:
            raise DomainError("lower-bound kinds are only legal in boundary slots")
        bb = dict.fromkeys(boundary_indices(g, n), ZERO)
        extra = b.keys() - bb.keys()
        if extra:
            raise DomainError(f"coefficients at non-boundary slots: {sorted(extra)}")
        bb.update((key, _coefficient(v)) for key, v in b.items())
        self.g = g
        self.n = n
        self.lam = lam
        self.psi = psi if n else ZERO
        self.b_irr = b_irr
        self.b = bb

    def _derived(self, lam, psi, b_irr, b) -> "DivisorClass":
        """A class on this (g, n) whose b has exactly the keys of self.b, so
        the slot layout __init__ validated for self holds as it is."""
        out = object.__new__(DivisorClass)
        out.g, out.n, out.lam, out.psi, out.b_irr, out.b = self.g, self.n, lam, psi, b_irr, b
        return out

    def add(self, other: "DivisorClass") -> "DivisorClass":
        if (self.g, self.n) != (other.g, other.n):
            raise DomainError("divisor classes on different (g, n)")
        return self._derived(
            self.lam.add(other.lam),
            self.psi.add(other.psi),
            self.b_irr.add(other.b_irr),
            {k: self.b[k].add(other.b[k]) for k in self.b},
        )

    def scale(self, a) -> "DivisorClass":
        a = _rational(a)
        if a == 0:
            return self._derived(ZERO, ZERO, ZERO, dict.fromkeys(self.b, ZERO))
        # lam and psi are exact by construction; only boundary slots carry bounds
        _require_bound_kept(a, (self.b_irr, *self.b.values()))
        # Slots often share one coefficient object (all boundary slots of
        # c1(F) do): scale each once, keyed by the ids self keeps alive.
        done = {}

        def times(c):
            out = done.get(id(c))
            if out is None:
                out = done[id(c)] = c if not c.value else Coefficient(c.kind, _times(a, c.value))
            return out

        return self._derived(
            times(self.lam),
            times(self.psi),
            times(self.b_irr),
            {k: times(v) for k, v in self.b.items()},
        )

    def boundary_as_bounds(self) -> "DivisorClass":
        """Same class with every (i, s) slot downgraded to a lower bound."""
        return self._derived(
            self.lam, self.psi, self.b_irr,
            {k: v.as_bound() for k, v in self.b.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, DivisorClass)
            and (self.g, self.n) == (other.g, other.n)
            and self.lam == other.lam
            and self.psi == other.psi
            and self.b_irr == other.b_irr
            and self.b == other.b
        )

    def __repr__(self):
        return f"DivisorClass(g={self.g}, n={self.n}, lam={self.lam.value})"

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "n": self.n,
            "lambda": str(self.lam.value),
            "psi": [str(self.psi.value)] * self.n,
            "b_irr": self.b_irr.to_json_dict(),
            "b": [
                {"i": i, "s": s, "kind": c.kind, "value": str(c.value)}
                for (i, s), c in self.b.items()
            ],
        }


@dataclass(frozen=True)
class ChernPair:
    """First Chern data of the two tautological bundles on (g, n):
    c1(E) = lambda - sum psi_j and c1(F) = 13 lambda - 5 sum psi_j - delta,
    together with their ranks e = g - n and f = 3g - 3 - 2n.
    """

    g: int
    n: int
    c1_e: DivisorClass
    c1_f: DivisorClass
    e: int
    f: int


def chern_pair(g: int, n: int) -> ChernPair:
    if n < 1:
        raise DomainError("need at least one marked point")
    if g <= n:
        raise DomainError(f"need g > n for positive bundle rank, got g={g}, n={n}")
    c1_e = DivisorClass(g, n, lam=1, psi=-1)
    one = Coefficient.exact(1)
    c1_f = c1_e._derived(Coefficient.exact(13), Coefficient.exact(-5), one,
                         dict.fromkeys(c1_e.b, one))
    return ChernPair(g, n, c1_e, c1_f, g - n, 3 * g - 3 - 2 * n)


def _chern_combination(cp: ChernPair, a, b) -> DivisorClass:
    """c1_f.scale(a).add(c1_e.scale(b)), bound rules included, in one walk that
    works each distinct pair of coefficient objects (ids cp keeps alive) once."""
    f_cls, e_cls, done = cp.c1_f, cp.c1_e, {}

    def pair(cf, ce):
        key = (id(cf), id(ce))
        if key not in done:
            done[key] = cf.scale(a).add(ce.scale(b))
        return done[key]

    return f_cls._derived(pair(f_cls.lam, e_cls.lam), pair(f_cls.psi, e_cls.psi),
                          pair(f_cls.b_irr, e_cls.b_irr),
                          {k: pair(c, e_cls.b[k]) for k, c in f_cls.b.items()})


def fr_sigma_class(cp: ChernPair, k: int, alpha=None) -> DivisorClass:
    """Virtual class of the rank-<=k locus as a combination of the Chern
    data, scaled by an int alpha, by default the rank-locus degree A^k_e:

        alpha * (c1(F) - (2f/e) c1(E)).

    Requires the codimension-one calibration f = binom(e+1,2) - binom(e-k+1,2).
    """
    e, f = cp.e, cp.f
    if not 3 <= k <= e:
        raise DomainError(f"need 3 <= k <= e, got k={k}, e={e}")
    expected_f = binom(e + 1, 2) - binom(e - k + 1, 2)
    if f != expected_f:
        raise DomainError(
            f"calibration failed: f={f} but the rank-{k} locus needs {expected_f}"
        )
    alpha = harris_tu_degree(e, k) if alpha is None else alpha
    return _chern_combination(cp, alpha, Fraction(-2 * f * alpha, e))


def fr_dp_class(cp: ChernPair) -> DivisorClass:
    """Virtual class of the degenerate-pencil locus:

        (e - 1) * (e c1(F) - (e^2 + e - 4) c1(E)),

    under the pencil calibration f = binom(e+1,2) - 2.
    """
    e, f = cp.e, cp.f
    if e < 2:
        raise DomainError(f"need bundle rank e >= 2, got {e}")
    if f != binom(e + 1, 2) - 2:
        raise DomainError(
            f"calibration failed: f={f} but the pencil locus needs {binom(e + 1, 2) - 2}"
        )
    return _chern_combination(cp, e * (e - 1), -(e * e + e - 4) * (e - 1))


def tilde_b(g: int, n: int, i: int, s: int) -> Fraction:
    """Boundary lower-bound polynomial for slots with i < s, normalized by
    the bundle rank g - n (the unscaled-by-alpha convention)."""
    if g <= n:
        raise DomainError("need g > n")
    num = (
        -(i * i) * (g - 2 * n + 3)
        + i * (2 * g - 2 * s * n + 6 * s - 3 * n + 3)
        + s * ((g - 3) * s + n - 3)
    )
    return Fraction(num, g - n)


def quad_class(g: int, n: int, k: int) -> DivisorClass:
    """The rank-locus divisor class with its refined boundary knowledge,
    scaled by alpha = A^k_e: ``quad_class_unscaled(g, n, k)`` times alpha.
    """
    return quad_class_unscaled(g, n, k).scale(harris_tu_degree(g - n, k))


def quad_class_unscaled(g: int, n: int, k: int) -> DivisorClass:
    """The rank-locus divisor class at unit scale (divided by alpha = A^k_e),
    built once; ``quad_class`` scales it by alpha.  It exposes the (a, c)
    coefficients directly: lam and psi are those of ``fr_sigma_class`` at
    alpha = 1 (so alpha is not computed here), b_irr is exactly 1, the
    slots with i < s carry tilde_b (exact for k = 4 and i = 0, a lower
    bound otherwise), and the rest share one generic lower bound 1.
    """
    _require_family_member(g, n, k)
    base = fr_sigma_class(chern_pair(g, n), k, 1)
    generic = Coefficient.at_least(1)
    b = {}
    for (i, s) in base.b:
        kind = EXACT if k == 4 and i == 0 else AT_LEAST
        b[(i, s)] = Coefficient(kind, tilde_b(g, n, i, s)) if i < s else generic
    return base._derived(base.lam, base.psi, Coefficient.exact(1), b)


def _require_family_member(g: int, n: int, k: int):
    if n < 1 or not 4 <= k <= g - n:
        raise DomainError(f"(g, n, k)=({g}, {n}, {k}) outside the calibrated family")
    if _q_formula(g, g - n - 1, 2 * g - 2 - n, k) != -1:
        raise DomainError(
            f"(g, n, k)=({g}, {n}, {k}) fails the expected-dimension -1 condition"
        )


def symmetrized_pullback_sum(c: DivisorClass) -> DivisorClass:
    """Sum of the pullbacks of c along all n+1 forgetful maps (g, n+1) -> (g, n).

    Closed form in (i, s) storage, from the pullback rules of
    Arbarello-Cornalba (Publ. IHES 88, 1998): pi_j^* lambda = lambda,
    pi_j^* delta_irr = delta_irr, pi_j^* psi_k = psi_k - delta_{0:{k,j}} and
    pi_j^* delta_{i:S} = delta_{i:S} + delta_{i:S+j}.  Summed over j:

        lambda -> (n+1) lambda,  psi -> n psi,  delta_irr -> (n+1) delta_irr,
        b'(i, t) = t b(i, t-1) + (n+1-t) b(i, t)   (+ 2 psi at (0, 2)),

    where b(i, x) is the slot of c representing (i, x) and is absent (not
    zero-scaled) when no such divisor exists on (g, n).
    """
    g, n, psi = c.g, c.n, c.psi
    b = {}
    for i, t in boundary_indices(g, n + 1):
        coeff = psi.scale(2) if (i, t) == (0, 2) else ZERO
        for mult, s in ((t, t - 1), (n + 1 - t, t)):
            # (0, s < 2) names no divisor; i <= g/2 never meets the i = g rule
            if 0 <= s <= n and (i > 0 or s >= 2):
                coeff = coeff.add(c.b[canonical_pair(g, n, i, s)].scale(mult))
        b[(i, t)] = coeff
    return DivisorClass(g, n + 1, lam=c.lam.scale(n + 1), psi=psi.scale(n),
                        b_irr=c.b_irr.scale(n + 1), b=b)


def z_class_15_9() -> DivisorClass:
    """Average of the nine forgetful pullbacks of the (15, 8) pencil-locus
    class, with that class's boundary slots carried as lower bounds, scaled
    by 1/6.
    """
    dp = fr_dp_class(chern_pair(15, 8))
    z = symmetrized_pullback_sum(dp.boundary_as_bounds())
    return z.scale(Fraction(1, 6))


def canonical_class(g: int, n: int) -> DivisorClass:
    """Canonical class: 13 lambda + sum psi - 2 delta_irr - 2 delta_{0:S}
    - 3 delta_{1:S} - 2 delta_{i:S} for i >= 2 (negated storage)."""
    b = {}
    for (i, s) in boundary_indices(g, n):
        b[(i, s)] = Coefficient.exact(3 if min(i, g - i) == 1 else 2)
    return DivisorClass(g, n, lam=13, psi=1, b_irr=2, b=b)


def bn_class_15() -> DivisorClass:
    """Pullback to (15, 9) of the genus-15 rank-locus divisor on the
    unpointed moduli: 54 lambda - 8 delta_irr, with every other boundary
    coefficient carried as the trivial lower bound 0."""
    b = {key: Coefficient.at_least(0) for key in boundary_indices(15, 9)}
    return DivisorClass(15, 9, lam=54, psi=0, b_irr=8, b=b)


@dataclass(frozen=True)
class BoundarySlotReport:
    i: int
    s: int
    slack_kind: str
    slack_value: Fraction
    required_bound: Fraction | None

    @property
    def status(self) -> str:
        return "nonnegative" if self.slack_value >= 0 else "requires_bound"

    def to_json_dict(self) -> dict:
        out = {
            "i": self.i,
            "s": self.s,
            "status": self.status,
            "slack": {"kind": self.slack_kind, "value": str(self.slack_value)},
        }
        out["required_bound"] = None if self.required_bound is None else str(self.required_bound)
        return out


@dataclass(frozen=True)
class CertificateReport:
    x: Fraction
    y: Fraction
    z: Fraction
    lambda_residual: Fraction
    psi_residual: Fraction
    e_irr: Fraction
    boundary: tuple[BoundarySlotReport, ...]

    @property
    def passed(self) -> bool:
        return self.lambda_residual == 0 and self.psi_residual == 0 and self.e_irr >= 0

    def to_json_dict(self) -> dict:
        return {
            "multipliers": {"x": str(self.x), "y": str(self.y), "z": str(self.z)},
            "lambda_residual": str(self.lambda_residual),
            "psi_residual": str(self.psi_residual),
            "e_irr": str(self.e_irr),
            "boundary": [slot.to_json_dict() for slot in self.boundary],
            "passed": self.passed,
        }


def certificate_classes() -> tuple[DivisorClass, DivisorClass, DivisorClass]:
    """The classes (K, Z, BN) on (15, 9) that the certificate decomposes."""
    return canonical_class(15, 9), z_class_15_9(), bn_class_15()


def general_type_certificate(x, y, z, classes=None) -> CertificateReport:
    """Check K = x sum(psi) + y Z + z BN + E on (15, 9), on ``classes`` if given.

    Reports the exact lambda and psi residuals, the delta_irr slack of E,
    and per boundary slot either a verified nonnegative slack or the
    minimal lower bound on the Z slot that would produce one.  The
    certificate passes iff both residuals vanish and the delta_irr slack
    is nonnegative; boundary slots are informational.
    """
    x, y, z = _rational(x), _rational(y), _rational(z)
    if x < 0 or y < 0 or z < 0:
        raise DomainError("certificate multipliers must be nonnegative")
    K, Z, BN = classes or certificate_classes()

    lambda_residual = K.lam.value - (y * Z.lam.value + z * BN.lam.value)
    psi_residual = K.psi.value - (x + y * Z.psi.value + z * BN.psi.value)

    # delta_irr coefficient of E = K - x sum(psi) - y Z - z BN, with the
    # stored b values being the negated boundary coefficients.
    e_irr = -K.b_irr.value + y * Z.b_irr.value + z * BN.b_irr.value

    slots = []
    for (i, s) in boundary_indices(15, 9):
        kc, zc, bc = K.b[(i, s)], Z.b[(i, s)], BN.b[(i, s)]
        slack_value = -kc.value + y * zc.value + z * bc.value
        slack_kind = EXACT if (kc.is_exact and zc.is_exact and bc.is_exact) else AT_LEAST
        required = (kc.value - z * bc.value) / y if slack_value < 0 and y > 0 else None
        slots.append(BoundarySlotReport(i, s, slack_kind, slack_value, required))

    return CertificateReport(x, y, z, lambda_residual, psi_residual, e_irr, tuple(slots))


def solve_certificate_multipliers(z, classes=None) -> tuple[Fraction, Fraction]:
    """Given z, solve the two exact coefficient equations
    351 y + 54 z = 13 and x + 136 y = 1 for (x, y), on ``classes`` if given."""
    z = _rational(z)
    K, Z, BN = classes or certificate_classes()
    y = (K.lam.value - z * BN.lam.value) / Z.lam.value
    x = K.psi.value - y * Z.psi.value - z * BN.psi.value
    return x, y
