"""Numerical invariants of linear series: expected dimensions, the
Brill-Noether number and its ramification-adjusted variant, intersection
degrees of symmetric rank loci, and the enumeration of the calibrated
(g, n, k) family used by the divisor-class module.

Everything here is integer arithmetic; rationals appear only inside the
rank-locus degree product, which is asserted to clear to an integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import DomainError, InternalCheckError


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero outside the triangle."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def _require_ints(what: str, *values) -> None:
    """Refuse a value that is not an int (a bool is not one), not round it."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise DomainError(f"{what} must be integers, got {v!r}")


def _q_formula(g: int, r: int, d: int, k: int) -> int:
    return binom(r + 2, 2) - binom(r - k + 2, 2) - 2 * d + g - 2


def expected_dim_q(g: int, r: int, d: int, k: int) -> int:
    """Expected dimension of the rank-<=k quadric locus attached to a
    general series of degree d and rank r on a genus-g curve.

    binom(r+2, 2) - binom(r-k+2, 2) - 2d + g - 2 for 1 <= k <= r+1, exact.
    """
    _require_ints("g, r, d, k", g, r, d, k)
    if g < 0 or r < 0 or d < 0:
        raise DomainError("g, r, d must be nonnegative")
    if not 1 <= k <= r + 1:
        raise DomainError(f"rank bound k={k} is outside 1..r+1={r + 1}")
    return _q_formula(g, r, d, k)


def brill_noether_rho(g: int, r: int, d: int) -> int:
    """g - (r+1)(g - d + r)."""
    _require_ints("g, r, d", g, r, d)
    if g < 0 or r < 0 or d < 0:
        raise DomainError("g, r, d must be nonnegative")
    return g - (r + 1) * (g - d + r)


class RamificationSequence:
    """Nondecreasing nonnegative integers, one per section of a series."""

    __slots__ = ("values",)

    def __init__(self, values):
        values = tuple(values)
        _require_ints("ramification indices", *values)
        if any(v < 0 for v in values):
            raise DomainError("ramification indices must be nonnegative")
        if any(a > b for a, b in zip(values, values[1:])):
            raise DomainError(f"ramification sequence must be nondecreasing: {values}")
        self.values = values

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def total(self) -> int:
        return sum(self.values)

    def __repr__(self):
        return f"RamificationSequence{self.values}"


def adjusted_rho(g: int, r: int, d: int, alpha) -> int:
    """Brill-Noether number minus the total ramification at one point.

    alpha must have exactly r+1 entries (one per section).
    """
    seq = alpha if isinstance(alpha, RamificationSequence) else RamificationSequence(alpha)
    if len(seq) != r + 1:
        raise DomainError(
            f"ramification sequence has {len(seq)} entries, series needs {r + 1}"
        )
    return brill_noether_rho(g, r, d) - seq.total()


def harris_tu_degree(e: int, k: int) -> int:
    """Degree of the rank-<=k locus of symmetric forms on an e-space:
    product over t = 0 .. e-k-1 of binom(e+t, e-k-t) / binom(2t+1, t).

    The product clears to an integer for every case in range; a
    non-integer result would mean the formula is wired wrong, so it is
    treated as an internal failure rather than returned.
    """
    _require_ints("e, k", e, k)
    if not 3 <= k <= e:
        raise DomainError(f"need 3 <= k <= e, got k={k}, e={e}")
    acc = Fraction(1)
    for t in range(e - k):
        acc *= Fraction(binom(e + t, e - k - t), binom(2 * t + 1, t))
    if acc.denominator != 1:
        raise InternalCheckError(f"rank-locus degree ({e}, {k}) is non-integral: {acc}")
    return acc.numerator


def enumerate_quad_cases(g_max: int) -> list[tuple[int, int, int]]:
    """All (g, n, k) with n >= 1, 4 <= k <= g-n, g <= g_max for which the
    expected dimension of the rank-k locus attached to the canonical-minus-
    points series equals -1.

    Lexicographic in (g, n, k).
    """
    _require_ints("g_max", g_max)
    if g_max < 0:
        raise DomainError("g_max must be nonnegative")
    out = []
    for g in range(1, g_max + 1):
        for n in range(1, g - 3):
            r = g - n - 1
            d = 2 * g - 2 - n
            for k in range(4, g - n + 1):
                if _q_formula(g, r, d, k) == -1:
                    out.append((g, n, k))
    return out


def fiber_dim_identity(g: int, k: int) -> bool:
    """Check binom(g+1,2) - binom(g+1-k,2) - 3g + 2 against the expected
    dimension for the canonical series (r = g-1, d = 2g-2).

    Valid for 1 <= k <= g+1: at k = g+1 the rank bound is vacuous and both
    sides still agree, so the closed forms are compared directly.
    """
    _require_ints("g, k", g, k)
    if g < 1:
        raise DomainError("g must be positive")
    if not 1 <= k <= g + 1:
        raise DomainError(f"k={k} is outside 1..g+1={g + 1}")
    lhs = binom(g + 1, 2) - binom(g + 1 - k, 2) - 3 * g + 2
    rhs = _q_formula(g, g - 1, 2 * g - 2, k)
    return lhs == rhs
