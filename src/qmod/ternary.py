"""Dense homogeneous forms in three variables x, y, z.

Coefficients are stored against the graded-lex monomial list (x > y > z)
of the declared degree; the order is fixed so serialized coefficient
matrices are reproducible bit for bit.  Only what the curve and surface
labs need lives here: products, partials, evaluation and restriction to
lines, and one common-zero certificate.  No Groebner machinery.

There is one evaluation kernel: ``coeffs_in`` substitutes two of the
variables and leaves a univariate polynomial in the third, which
``evaluate`` finishes by Horner and ``eliminate`` feeds to the resultant.
The one restriction is ``restrict_to_line``; the line z = 0 is the line
through (1, 0, 0) and (0, 1, 0).
"""

from __future__ import annotations

from functools import lru_cache, reduce

from . import unipoly
from .errors import DomainError, FieldMismatchError
from .binforms import BinaryForm, Form, binary_gcd


@lru_cache(maxsize=None)
def monomials(degree: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples (i, j, k), i+j+k = degree, in graded-lex order."""
    if degree < 0:
        raise DomainError("degree must be nonnegative")
    out = []
    for i in range(degree, -1, -1):
        for j in range(degree - i, -1, -1):
            out.append((i, j, degree - i - j))
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(degree: int) -> dict[tuple[int, int, int], int]:
    return {e: n for n, e in enumerate(monomials(degree))}


def monomial_count(degree: int) -> int:
    return (degree + 1) * (degree + 2) // 2


@lru_cache(maxsize=None)
def _product_table(d1: int, d2: int) -> tuple[tuple[int, int, int], ...]:
    """(index1, index2, output index) triples for a degree d1 * d2 product."""
    idx = monomial_index(d1 + d2)
    table = []
    for n1, (i1, j1, k1) in enumerate(monomials(d1)):
        for n2, (i2, j2, k2) in enumerate(monomials(d2)):
            table.append((n1, n2, idx[(i1 + i2, j1 + j2, k1 + k2)]))
    return tuple(table)


class TernaryForm(Form):
    """Homogeneous form of a declared degree in x, y, z."""

    __slots__ = ()

    width = staticmethod(monomial_count)

    def mul(self, other: "TernaryForm") -> "TernaryForm":
        if self.field != other.field:
            raise FieldMismatchError("ternary forms over different fields")
        F = self.field
        out = [0] * monomial_count(self.degree + other.degree)
        a, b = self.coeffs, other.coeffs
        for n1, n2, no in _product_table(self.degree, other.degree):
            out[no] += a[n1] * b[n2]
        return TernaryForm(F, self.degree + other.degree, [F.coerce(c) for c in out],
                           _skip_check=True)

    def partial(self, var: int) -> "TernaryForm":
        """Partial derivative; var is 0, 1, 2 for x, y, z."""
        if self.degree == 0:
            raise DomainError("partial of a degree-0 form is not a form")
        F = self.field
        out = [F.zero] * monomial_count(self.degree - 1)
        idx = monomial_index(self.degree - 1)
        for e, c in zip(monomials(self.degree), self.coeffs):
            if not c or e[var] == 0:
                continue
            low = list(e)
            low[var] -= 1
            out[idx[tuple(low)]] = F.coerce(e[var] * c)
        return TernaryForm(F, self.degree - 1, out, _skip_check=True)

    def evaluate(self, x0, y0, z0):
        """f(x0, y0, z0): Horner in y on ``coeffs_in(1, x0, z0)``."""
        F = self.field
        return unipoly.evaluate(F, self.coeffs_in(1, x0, z0), F.coerce(y0))

    def coeffs_in(self, var: int, a0, z0) -> list:
        """Coefficients in x (var 0) or y (var 1) after substituting a0 for
        the other of the two and z0 for z (dense, padded to the degree)."""
        F = self.field
        a0, z0 = F.coerce(a0), F.coerce(z0)
        pa = _powers(F, a0, self.degree)
        pz = _powers(F, z0, self.degree)
        out = [0] * (self.degree + 1)
        for e, c in zip(monomials(self.degree), self.coeffs):
            out[e[var]] += c * pa[e[1 - var]] * pz[e[2]]
        return [F.coerce(c) for c in out]

    def restrict_to_line(self, p0, p1) -> BinaryForm:
        """Pull back along s*p0 + t*p1 as a binary form of the same degree."""
        F = self.field
        d = self.degree
        lin = [BinaryForm(F, 1, [F.coerce(p0[v]), F.coerce(p1[v])]) for v in range(3)]
        pw = []
        for v in range(3):
            powers = [BinaryForm(F, 0, [F.one])]
            for _ in range(d):
                powers.append(powers[-1].mul(lin[v]))
            pw.append(powers)
        terms = [pw[0][i].mul(pw[1][j]).mul(pw[2][k]) for i, j, k in monomials(d)]
        return BinaryForm.combination(terms, self.coeffs)


def eliminate(f: TernaryForm, g: TernaryForm, var: int) -> list:
    """Res(f, g) with respect to x (var 0) or y (var 1) in the chart z = 1,
    as a ``unipoly`` polynomial in the other affine variable.

    Each specialization is a polynomial in the eliminated variable taken
    at the declared degrees deg f and deg g, so a leader vanishing at a
    node is accounted for (``unipoly.resultant_fixed``).  That resultant
    has degree at most deg f * deg g in the remaining variable (Bezout;
    Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, Ch. 8 sec. 7),
    so it is interpolated from its values at the deg f * deg g + 1 nodes
    0, 1, 2, ...  Over F_p they are distinct only when p > deg f * deg g;
    ``unipoly.interpolate`` refuses a smaller prime.
    """
    if f.field != g.field:
        raise FieldMismatchError("ternary forms over different fields")
    if var not in (0, 1):
        raise DomainError("eliminate x (var 0) or y (var 1)")
    field = f.field
    vals = [unipoly.resultant_fixed(field, f.coeffs_in(var, a, field.one),
                                    g.coeffs_in(var, a, field.one), f.degree, g.degree)
            for a in range(f.degree * g.degree + 1)]
    return unipoly.interpolate(field, vals)


def no_common_zero(forms) -> tuple[bool, bool]:
    """(chart_ok, line_ok) for three forms f, g, h; both True proves they
    have no common zero in P^2 over the algebraic closure.

    chart_ok: R1 = Res_y(f, g) and R2 = Res_y(f, h) are nonzero with a
    constant gcd.  A common zero (a, b, 1) makes f(a, y, 1) and g(a, y, 1)
    share the root b, so R1(a) = 0 (``eliminate`` keeps the declared
    degrees), and likewise R2(a) = 0.  line_ok: the nonzero restrictions
    to z = 0 have a constant gcd, and at least one is nonzero.  A failure
    proves nothing: a chance common factor of R1 and R2 shows as one, and
    so does a zero that f shares with g or h at (0:1:0), where both
    y-leaders vanish and the resultant with them.
    """
    f, g, h = forms
    r1, r2 = eliminate(f, g, 1), eliminate(f, h, 1)
    chart_ok = (not unipoly.is_zero(r1) and not unipoly.is_zero(r2)
                and unipoly.degree(unipoly.gcd(f.field, r1, r2)) == 0)
    on_line = [b for b in (q.restrict_to_line((1, 0, 0), (0, 1, 0)) for q in forms)
               if not b.is_zero()]
    line_ok = bool(on_line) and reduce(binary_gcd, on_line).degree == 0
    return chart_ok, line_ok


def _powers(field, a, n: int) -> list:
    out = [field.one]
    for _ in range(n):
        out.append(field.coerce(out[-1] * a))
    return out
