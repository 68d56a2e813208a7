"""Test oracles for the packed kernels and one class builder.

``unipoly.pow_mod`` multiplies residues packed into one int each, and
``quadlab._shifted_rows`` builds every quadric row of a member from one
outer product.  The routes here are the ones they replaced: a list
product and a remainder per step, and one exact sum per (upper pair,
term) entry.  They share no arithmetic with the kernels they judge.
``PACKED_PRIMES`` are the moduli the packed kernels and the field
inverse are tested at.

``surface.PlaneSystem`` re-checks multiplicities in two stages on Pascal
weights, packed across members over F_p; ``taylor_misses`` is the route
it replaced, a synthetic-division Taylor shift per member, point and
column on unreduced scalars.  ``quadlab.form_matrix_det`` builds its
minors as coefficient lists; ``form_matrix_det_by_forms`` is the route it
replaced, one form product per (minor, entry) and one
``Form.combination`` per column subset.

``quadlab._quadrics_through`` builds its product matrix over F_p with
every pair of a form riding in one packed int; ``pair_product_rows`` is
the route it replaced, one ``Form.mul`` per upper pair.
``surface._interpolation_kernel`` builds its Hasse-derivative rows over
F_p packed, one multiply-add per x-exponent; ``hasse_rows`` is the route
it replaced, one product of binomials and powers and one ``coerce`` per
entry.  Both packed producers hand their rows to the elimination as they
are; ``packed_slots`` reads such rows back slot by slot, unreduced.

``linear_combination`` builds combinations of quadrics for tests, one
exact sum per matrix entry; no production path combines quadrics.

``picard.quad_class`` is built at unit scale and scaled by alpha once;
``quad_class_by_slots`` is the route it replaced, which takes lam and psi
from the alpha-scaled ``fr_sigma_class`` and scales every tilde-b slot by
alpha on its own.
"""

from fractions import Fraction
from math import comb

from qmod import unipoly
from qmod.fields import DEFAULT_PRIME
from qmod.invariants import harris_tu_degree
from qmod.picard import (
    Coefficient,
    DivisorClass,
    boundary_indices,
    chern_pair,
    fr_sigma_class,
    tilde_b,
)
from qmod.quadlab import SymQuadric, upper_pairs
from qmod.ternary import monomials

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


def pair_product_rows(forms) -> list[list]:
    """The matrix whose columns are the products forms[i] * forms[j], one
    per upper pair, in ``upper_pairs`` order."""
    pairs = upper_pairs(len(forms))
    return [list(row) for row in zip(*(forms[i].mul(forms[j]).coeffs for i, j in pairs))]


def hasse_rows(field, points, cls) -> list[list]:
    """Per affine point (x0, y0, 1) of multiplicity m, the rows (dx, dy),
    dx + dy < m: entry C(al, dx) C(be, dy) x0^(al - dx) y0^(be - dy) at
    monomial x^al y^be z^ga, zero where al < dx or be < dy."""
    rows = []
    for (x0, y0, _), m in zip(points, cls.mults):
        for dx in range(m):
            for dy in range(m - dx):
                rows.append([field.coerce(comb(al, dx) * comb(be, dy)
                                          * x0 ** (al - dx) * y0 ** (be - dy))
                             if al >= dx and be >= dy else field.zero
                             for al, be, _ in monomials(cls.a)])
    return rows


def packed_slots(rows, n: int, w: int) -> list[list]:
    """The n slots of w bits of each packed row, as ints, unreduced."""
    mask = (1 << w) - 1
    return [[v >> k * w & mask for k in range(n)] for v in rows]


def linear_combination(field, quadrics, coeffs) -> SymQuadric:
    """sum_k coeffs[k] * quadrics[k]; each weight is coerced into the field
    and each entry is summed exactly and reduced once."""
    weights = [field.coerce(c) for c in coeffs]
    n = quadrics[0].size
    entries = [[field.coerce(sum(w * q.entries[i][j] for q, w in zip(quadrics, weights)))
                for j in range(n)] for i in range(n)]
    return SymQuadric(field, entries, _skip_check=True)


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
    return DivisorClass(g, n, lam=base.lam, psi=base.psi, b_irr=alpha, b=b)


def quad_class_unscaled_by_slots(g: int, n: int, k: int) -> DivisorClass:
    return quad_class_by_slots(g, n, k).scale(Fraction(1, harris_tu_degree(g - n, k)))


def taylor(coeffs, x0, n: int) -> list:
    """The first n coefficients of p(x0 + u), p given highest power first:
    repeated synthetic division by x - x0 with unreduced scalars."""
    out = []
    for _ in range(n):
        acc, quot = 0, []
        for c in coeffs:
            acc = acc * x0 + c
            quot.append(acc)
        out.append(quot.pop() if quot else 0)
        coeffs = quot
    return out


def taylor_misses(field, cls, forms, points) -> set:
    """Every (point, member, a, b) with a + b < min(m, deg + 1) whose
    coefficient of u^a v^b in f(x0 + u, y0 + v) is nonzero, in the chart
    of the point's last nonzero coordinate."""
    d, misses = cls.a, set()
    for k, f in enumerate(forms):
        # Per chart, cols[d - j] holds the coefficient of v^j: a polynomial
        # in u, highest power first.
        columns = {}
        for n, (pt, m) in enumerate(zip(points, cls.mults)):
            chart = max(i for i in range(3) if pt[i])
            x0, y0 = (pt[i] for i in range(3) if i != chart)
            if chart not in columns:
                cols = columns[chart] = [[0] * (i + 1) for i in range(d + 1)]
                for e, c in zip(monomials(d), f.coeffs):
                    cols[d - e[1 if chart == 2 else 2]][e[chart]] = c
            top = min(m, d + 1)
            shifted = [taylor(col, x0, top) for col in columns[chart]]
            for a in range(top):
                for b, c in enumerate(taylor([s[a] for s in shifted], y0, top - a)):
                    if field.coerce(c):
                        misses.add((n, k, a, b))
    return misses


def form_matrix_det_by_forms(entries, unit):
    """Determinant of a square matrix of forms by the column-subset DP,
    with one ``Form.mul`` per (minor, entry) and the signed products of
    one subset summed by ``Form.combination``."""
    n = len(entries)
    states = {0: unit}
    for row in range(n):
        nxt: dict = {}
        for mask, minor in states.items():
            below = 0
            for j in range(n):
                if mask >> j & 1:
                    below += 1
                    continue
                terms, signs = nxt.setdefault(mask | (1 << j), ([], []))
                terms.append(entries[row][j].mul(minor))
                signs.append(-1 if (row - below) % 2 else 1)
        states = {key: type(unit).combination(terms, signs)
                  for key, (terms, signs) in nxt.items()}
    return states[(1 << n) - 1]
