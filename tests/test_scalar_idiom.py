"""The arithmetic idiom of the coefficient kernels, pinned.

The kernels in ``unipoly``, ``binforms``, ``ternary``, ``quadlab``,
``surface`` and ``linalg`` compute with the scalars' own ``+ - *`` and
reduce each stored value once with ``field.coerce`` (see the ``fields``
module docstring).  Four groups of tests hold that in place:

* the field classes carry no per-operation methods
  (``add/sub/mul/neg/div/is_zero``), so no kernel can call one;
* canonical output: over F_7, F_65537, F_(2^61-1) and QQ every kernel
  returns canonical scalars, also when handed negative integers or
  integers >= p;
* reduction homomorphism: integer data computed over QQ and reduced with
  ``PrimeField.from_rational`` gives the F_p result;
* plain-integer oracle: values at integer points agree with the same
  formula written out in Python ints and reduced mod p.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qmod import unipoly as up
from qmod.binforms import BinaryForm
from qmod.fields import QQ, PrimeField, RationalField
from qmod.quadlab import (ParamCurve, SymQuadric, form_matrix_det, i2_basis,
                          secant_condition, upper_pairs)
from qmod.surface import _det3, _normalize_point
from qmod.ternary import TernaryForm, _powers, monomials

from kernel_oracles import linear_combination

PRIMES = [PrimeField(7), PrimeField(65537), PrimeField((1 << 61) - 1)]
FIELDS = PRIMES + [QQ]

# Small values, and values far outside [0, p) on both sides for every p above.
raw = st.one_of(st.integers(-9, 9), st.integers(-(1 << 64), 1 << 64))


def raws(n):
    return st.lists(raw, min_size=n, max_size=n)


def _canonical(field, values) -> bool:
    return all(field.is_element(x) and type(x) is type(field.zero) for x in values)


def _plain(cs, x) -> int:
    return sum(c * x ** i for i, c in enumerate(cs))


def test_field_classes_define_no_per_step_methods():
    for cls in (RationalField, PrimeField):
        for name in ("add", "sub", "mul", "neg", "div", "is_zero"):
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"


# Canonical output ----------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=repr)
@given(f=st.lists(raw, max_size=6), g=st.lists(raw, max_size=4), lead=raw, x=raw,
       ys=st.lists(raw, max_size=6))
def test_unipoly_kernels_return_canonical_scalars(field, f, g, lead, x, ys):
    assume(field.coerce(lead))
    g = g + [lead]
    outs = [up.add(field, f, g), up.sub(field, f, g), up.mul(field, f, g),
            *up.divmod_poly(field, f, g), up.monic(field, g),
            up.derivative(field, f), [up.evaluate(field, f, x)],
            up.interpolate(field, ys),
            [up.resultant_prs(field, f, g)],
            [up.resultant_fixed(field, f, g, len(f), len(g) - 1)]]
    mult = up.root_multiplicity(field, g, x)
    assert all(_canonical(field, out) for out in outs)
    assert mult >= 0


@pytest.mark.parametrize("pf", PRIMES, ids=repr)
@given(roots=st.lists(raw, min_size=1, max_size=4), g=st.lists(raw, max_size=3))
def test_root_finding_returns_canonical_roots(pf, roots, g):
    f = g + [1]
    for r in roots:
        f = up.mul(pf, f, [-r, 1])
    found = up.rational_roots(pf, f)
    assert _canonical(pf, found)
    assert {pf.coerce(r) for r in roots} <= set(found)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@given(b1=raws(4), b2=raws(3), t1=raws(6), t2=raws(10), t3=raws(6), xs=raws(6))
def test_form_kernels_return_canonical_scalars(field, b1, b2, t1, t2, t3, xs):
    c = field.coerce
    b1 = BinaryForm(field, 3, [c(v) for v in b1])
    b2 = BinaryForm(field, 2, [c(v) for v in b2])
    t1 = TernaryForm(field, 2, [c(v) for v in t1])
    t2 = TernaryForm(field, 3, [c(v) for v in t2])
    t3 = TernaryForm(field, 2, [c(v) for v in t3])
    a, s, t, x, y, z = xs
    B, T = BinaryForm.combination, TernaryForm.combination
    outs = [B([b1], [a]).coeffs, B([b1, b1], [1, a]).coeffs,
            B([b1, b1], [1, -a]).coeffs, b1.mul(b2).coeffs, [b1.evaluate(s, t)],
            T([t1, t3], [1, 1]).coeffs, T([t1], [a]).coeffs, t1.mul(t2).coeffs,
            t2.partial(0).coeffs, t2.partial(2).coeffs, [t2.evaluate(x, y, z)],
            t2.coeffs_in(0, y, z), t2.coeffs_in(1, x, z), _powers(field, a, 4)]
    zeros = (B([b1], [0]).is_zero(), T([t2], [0]).is_zero(), B([b1, b1], [1, -1]).is_zero())
    assert all(_canonical(field, out) for out in outs)
    assert zeros == (True, True, True)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@given(u1=raws(10), u2=raws(10), pt=raws(4), pts=raws(9), a=raw, chord=raws(2))
def test_quadric_and_plane_kernels_return_canonical_scalars(field, u1, u2, pt, pts, a,
                                                            chord):
    assume(any(field.coerce(v) for v in pts[:3]))
    assume(field.coerce(chord[0]) != field.coerce(chord[1]))
    curve = ParamCurve.rational_normal(field, 3)
    q1 = SymQuadric.from_upper_coeffs(field, 4, u1)
    q2 = SymQuadric.from_upper_coeffs(field, 4, u2)
    outs = [*q1.entries, *linear_combination(field, [q1, q2], [1, 1]).entries,
            *linear_combination(field, [q1], [a]).entries,
            q1.upper_coeffs(), [q1.evaluate(pt)],
            form_matrix_det(BinaryForm, (q1, q2)).coeffs,
            _normalize_point(field, pts[:3]),
            [_det3(field, pts[:3], pts[3:6], pts[6:])]]
    zero = not any(map(any, linear_combination(field, [q1], [0]).entries))
    secant = secant_condition(curve, *chord, system=i2_basis(curve))
    assert all(_canonical(field, out) for out in outs)
    assert zero is True
    assert secant in (0, 1)


# Reduction homomorphism ----------------------------------------------------

def _reduce(pf, values) -> list:
    return [pf.from_rational(v) for v in values]


@pytest.mark.parametrize("pf", PRIMES, ids=repr)
@given(f=st.lists(raw, max_size=6), g=st.lists(raw, max_size=4), x=raw,
       ys=st.lists(raw, max_size=6))
def test_unipoly_kernels_commute_with_reduction(pf, f, g, x, ys):
    g = g + [1]  # monic, so division stays integral

    def red(h):
        return up.normalize(pf, _reduce(pf, h))

    fq, gq = [Fraction(v) for v in f], [Fraction(v) for v in g]
    fp, gp = [pf.coerce(v) for v in f], [pf.coerce(v) for v in g]
    assert red(up.add(QQ, fq, gq)) == up.add(pf, fp, gp)
    assert red(up.sub(QQ, fq, gq)) == up.sub(pf, fp, gp)
    assert red(up.mul(QQ, fq, gq)) == up.mul(pf, fp, gp)
    assert red(up.derivative(QQ, fq)) == up.derivative(pf, fp)
    q, r = up.divmod_poly(QQ, fq, gq)
    assert (red(q), red(r)) == up.divmod_poly(pf, fp, gp)
    assert pf.from_rational(up.evaluate(QQ, fq, Fraction(x))) == up.evaluate(pf, fp, x)
    m, n = len(f), len(g) - 1
    assert (pf.from_rational(up.resultant_fixed(QQ, fq, gq, m, n))
            == up.resultant_fixed(pf, fp, gp, m, n))
    # At most 6 values: the nodes 0 .. 5 stay distinct mod every p.
    assert (red(up.interpolate(QQ, ys))
            == up.interpolate(pf, [pf.coerce(v) for v in ys]))


@pytest.mark.parametrize("pf", PRIMES, ids=repr)
@given(b1=raws(4), b2=raws(3), t1=raws(6), t2=raws(10), u1=raws(10), u2=raws(10),
       xs=raws(4), pts=raws(9))
def test_form_kernels_commute_with_reduction(pf, b1, b2, t1, t2, u1, u2, xs, pts):
    def both(cls, degree, values):
        return (cls(QQ, degree, values),
                cls(pf, degree, [pf.coerce(v) for v in values]))

    bq1, bp1 = both(BinaryForm, 3, b1)
    bq2, bp2 = both(BinaryForm, 2, b2)
    tq1, tp1 = both(TernaryForm, 2, t1)
    tq2, tp2 = both(TernaryForm, 3, t2)
    s, t, z, a = xs
    assert _reduce(pf, bq1.mul(bq2).coeffs) == bp1.mul(bp2).coeffs
    assert (_reduce(pf, BinaryForm.combination([bq1], [a]).coeffs)
            == BinaryForm.combination([bp1], [a]).coeffs)
    assert pf.from_rational(bq1.evaluate(s, t)) == bp1.evaluate(s, t)
    assert _reduce(pf, tq1.mul(tq2).coeffs) == tp1.mul(tp2).coeffs
    assert _reduce(pf, tq2.partial(1).coeffs) == tp2.partial(1).coeffs
    assert pf.from_rational(tq2.evaluate(s, t, z)) == tp2.evaluate(s, t, z)
    assert _reduce(pf, tq2.coeffs_in(0, t, z)) == tp2.coeffs_in(0, t, z)
    qq1, qq2 = (SymQuadric.from_upper_coeffs(QQ, 4, u) for u in (u1, u2))
    qp1, qp2 = (SymQuadric.from_upper_coeffs(pf, 4, u) for u in (u1, u2))
    assert [_reduce(pf, row) for row in qq1.entries] == qp1.entries
    assert _reduce(pf, qq1.upper_coeffs()) == qp1.upper_coeffs()
    assert pf.from_rational(qq1.evaluate(xs)) == qp1.evaluate(xs)
    assert (_reduce(pf, form_matrix_det(BinaryForm, (qq1, qq2)).coeffs)
            == form_matrix_det(BinaryForm, (qp1, qp2)).coeffs)
    assert (pf.from_rational(_det3(QQ, pts[:3], pts[3:6], pts[6:]))
            == _det3(pf, pts[:3], pts[3:6], pts[6:]))


# Plain-integer oracle ------------------------------------------------------

@pytest.mark.parametrize("pf", PRIMES, ids=repr)
@given(f=st.lists(raw, max_size=6), g=st.lists(raw, max_size=4), x=raw,
       ys=st.lists(raw, min_size=1, max_size=6))
def test_unipoly_kernels_agree_with_plain_integers(pf, f, g, x, ys):
    p = pf.p
    g = g + [1]
    fp, gp = [pf.coerce(v) for v in f], [pf.coerce(v) for v in g]
    fx, gx = _plain(f, x), _plain(g, x)
    assert _plain(up.add(pf, fp, gp), x) % p == (fx + gx) % p
    assert _plain(up.sub(pf, fp, gp), x) % p == (fx - gx) % p
    assert _plain(up.mul(pf, fp, gp), x) % p == fx * gx % p
    assert up.evaluate(pf, fp, x) == fx % p
    dfx = sum(i * c * x ** (i - 1) for i, c in enumerate(f) if i)
    assert _plain(up.derivative(pf, fp), x) % p == dfx % p
    q, r = up.divmod_poly(pf, fp, gp)
    assert (_plain(q, x) * gx + _plain(r, x) - fx) % p == 0
    assert up.degree(r) < up.degree(gp)
    m, n = len(f), len(g) - 1
    sylvester = up.sylvester_matrix(pf, fp, gp, m, n).det() if m and n else None
    if sylvester is not None:
        assert up.resultant_fixed(pf, fp, gp, m, n) == sylvester
        assert up.resultant_prs(pf, up.normalize(pf, fp), gp) in (sylvester, -sylvester % p)
    poly = up.interpolate(pf, [pf.coerce(v) for v in ys])
    assert [_plain(poly, u) % p for u in range(len(ys))] == [v % p for v in ys]


def _plain_det(rows) -> int:
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


@pytest.mark.parametrize("pf", PRIMES, ids=repr)
@given(b1=raws(4), b2=raws(3), t1=raws(6), t2=raws(10), u1=raws(10), u2=raws(10),
       xs=raws(4), pts=raws(9))
def test_form_kernels_agree_with_plain_integers(pf, b1, b2, t1, t2, u1, u2, xs, pts):
    p = pf.p
    s, t, z, a = xs

    def bval(cs, d):
        return sum(c * s ** (d - i) * t ** i for i, c in enumerate(cs))

    def tval(cs, d, var=None):
        # value at (s, t, z), or of the partial in var when one is named
        total = 0
        for e, c in zip(monomials(d), cs):
            if var is None:
                total += c * s ** e[0] * t ** e[1] * z ** e[2]
            elif e[var]:
                low = list(e)
                low[var] -= 1
                total += e[var] * c * s ** low[0] * t ** low[1] * z ** low[2]
        return total

    fb1 = BinaryForm(pf, 3, [pf.coerce(v) for v in b1])
    fb2 = BinaryForm(pf, 2, [pf.coerce(v) for v in b2])
    assert fb1.evaluate(s, t) == bval(b1, 3) % p
    assert fb1.mul(fb2).evaluate(s, t) == bval(b1, 3) * bval(b2, 2) % p
    assert (BinaryForm.combination([fb1, fb1], [1, -a]).evaluate(s, t)
            == (1 - a) * bval(b1, 3) % p)
    ft1 = TernaryForm(pf, 2, [pf.coerce(v) for v in t1])
    ft2 = TernaryForm(pf, 3, [pf.coerce(v) for v in t2])
    assert ft2.evaluate(s, t, z) == tval(t2, 3) % p
    assert ft1.mul(ft2).evaluate(s, t, z) == tval(t1, 2) * tval(t2, 3) % p
    assert (TernaryForm.combination([ft1, ft1], [1, a]).evaluate(s, t, z)
            == (1 + a) * tval(t1, 2) % p)
    for var in range(3):
        assert ft2.partial(var).evaluate(s, t, z) == tval(t2, 3, var) % p
    assert _plain(ft2.coeffs_in(1, s, z), t) % p == tval(t2, 3) % p
    quadrics = [SymQuadric.from_upper_coeffs(pf, 4, u) for u in (u1, u2)]
    for q, u in zip(quadrics, (u1, u2)):
        assert q.evaluate(xs) == sum(c * xs[i] * xs[j]
                                     for (i, j), c in zip(upper_pairs(4), u)) % p
        assert q.upper_coeffs() == [v % p for v in u]
    combo = [[s * x + t * y for x, y in zip(r1, r2)]
             for r1, r2 in zip(quadrics[0].entries, quadrics[1].entries)]
    assert form_matrix_det(BinaryForm, quadrics).evaluate(s, t) == _plain_det(combo) % p
    rows = [pts[:3], pts[3:6], pts[6:]]
    assert _det3(pf, *rows) == _plain_det(rows) % p
    if any(v % p for v in pts[:3]):
        point = _normalize_point(pf, pts[:3])
        last = max(i for i in range(3) if pts[i] % p)
        assert point[last] == 1
        assert all((point[i] * pts[last] - pts[i]) % p == 0 for i in range(3))

