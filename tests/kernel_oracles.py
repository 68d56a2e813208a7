"""Test oracles for two packed kernels and one class builder.

``unipoly.pow_mod`` multiplies residues packed into one int each, and
``quadlab._shifted_rows`` builds every quadric row of a member from one
outer product.  The routes here are the ones they replaced: a list
product and a remainder per step, and one exact sum per (upper pair,
term) entry.  They share no arithmetic with the kernels they judge.
``PACKED_PRIMES`` are the moduli the packed kernels and the field
inverse are tested at.

``linear_combination`` builds combinations of quadrics for tests, one
``fields.combine`` per matrix row; no production path combines quadrics.

``picard.quad_class`` is built at unit scale and scaled by alpha once;
``quad_class_by_slots`` is the route it replaced, which takes lam and psi
from the alpha-scaled ``fr_sigma_class`` and scales every tilde-b slot by
alpha on its own.
"""

from fractions import Fraction

from qmod import unipoly
from qmod.fields import DEFAULT_PRIME, combine
from qmod.invariants import harris_tu_degree
from qmod.picard import (
    Coefficient,
    DivisorClass,
    boundary_indices,
    chern_pair,
    fr_sigma_class,
    tilde_b,
)
from qmod.quadlab import SymQuadric

# 2^64 + 13 is above one machine word; 3 and 7 make rank drops common.
PACKED_PRIMES = [3, 7, 65537, DEFAULT_PRIME, 2 ** 64 + 13]


def mul_mod(field, f, g, m) -> list:
    return unipoly.rem(field, unipoly.mul(field, f, g), m)


def pow_mod(field, base, e: int, m) -> list:
    """base^e mod m by binary exponentiation through ``mul_mod``."""
    result = [field.one]
    base = unipoly.rem(field, base, m)
    while e > 0:
        if e & 1:
            result = mul_mod(field, result, base, m)
        base = mul_mod(field, base, base, m)
        e >>= 1
    return result


def combo_row(field, pairs, terms) -> list:
    """Coefficients, in the given upper-pair order, of the quadric
    sum w l(a) l(b) over the (w, a, b) terms; each entry is summed exactly
    and reduced once."""
    row = []
    for i, j in pairs:
        if i == j:
            acc = sum(w * a[i] * b[i] for w, a, b in terms)
        else:
            acc = sum(w * (a[i] * b[j] + a[j] * b[i]) for w, a, b in terms)
        row.append(field.coerce(acc))
    return row


def linear_combination(field, quadrics, coeffs) -> SymQuadric:
    """sum_k coeffs[k] * quadrics[k]; each weight is coerced into the field."""
    weights = [field.coerce(c) for c in coeffs]
    return SymQuadric(field, [combine(field, [q.entries[i] for q in quadrics], weights)
                              for i in range(quadrics[0].size)], _skip_check=True)


def quad_class_by_slots(g: int, n: int, k: int) -> DivisorClass:
    """The alpha-scaled rank-locus class, slot by slot: b_irr is exactly
    alpha, the i < s slots are alpha * tilde_b (exact for k = 4, i = 0,
    lower bounds otherwise) and the rest are the lower bound alpha."""
    base = fr_sigma_class(chern_pair(g, n), k)
    alpha = Fraction(harris_tu_degree(g - n, k))
    b = {}
    for (i, s) in boundary_indices(g, n):
        if i < s:
            v = alpha * tilde_b(g, n, i, s)
            b[(i, s)] = Coefficient.exact(v) if k == 4 and i == 0 else Coefficient.at_least(v)
        else:
            b[(i, s)] = Coefficient.at_least(alpha)
    return DivisorClass(g, n, base.lam, base.psi, Coefficient.exact(alpha), b)


def quad_class_unscaled_by_slots(g: int, n: int, k: int) -> DivisorClass:
    return quad_class_by_slots(g, n, k).scale(Fraction(1, harris_tu_degree(g - n, k)))
