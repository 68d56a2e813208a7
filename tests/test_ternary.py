import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmod import unipoly
from qmod.errors import ConfigurationError, DomainError
from qmod.fields import DEFAULT_PRIME, QQ, PrimeField
from qmod.ternary import (TernaryForm, _powers, eliminate, monomial_count,
                          monomial_index, monomials, no_common_zero)

FP = PrimeField(DEFAULT_PRIME)
FIELDS = [QQ, PrimeField(7), PrimeField(65537), PrimeField((1 << 61) - 1)]


def _monomial_sum(f, x0, y0, z0):
    """f(x0, y0, z0) as the sum over monomials of c * x0^i * y0^j * z0^k,
    one power list per variable: the oracle for ``evaluate``."""
    F = f.field
    px, py, pz = (_powers(F, F.coerce(v), f.degree) for v in (x0, y0, z0))
    return F.coerce(sum(c * px[i] * py[j] * pz[k]
                        for (i, j, k), c in zip(monomials(f.degree), f.coeffs)))


def _random_ternary(rng, degree):
    return TernaryForm(FP, degree,
                       [FP.random_element(rng) for _ in range(monomial_count(degree))])


def test_monomial_enumeration():
    assert monomial_count(4) == 15
    assert len(monomials(4)) == 15
    assert monomials(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    idx = monomial_index(2)
    for pos, expo in enumerate(monomials(2)):
        assert idx[expo] == pos


def test_monomials_are_graded_lex():
    for degree in range(1, 5):
        expos = monomials(degree)
        assert all(sum(e) == degree for e in expos)
        assert list(expos) == sorted(expos, reverse=True)


def test_euler_identity():
    rng = random.Random(12)
    for _ in range(10):
        degree = rng.randrange(1, 5)
        f = _random_ternary(rng, degree)
        x0, y0, z0 = (FP.random_element(rng) for _ in range(3))
        total = sum(coord * f.partial(var).evaluate(x0, y0, z0)
                    for var, coord in zip(range(3), (x0, y0, z0)))
        assert FP.coerce(total) == FP.coerce(degree * f.evaluate(x0, y0, z0))


def test_partial_of_constant_is_rejected():
    c = TernaryForm(FP, 0, [5])
    with pytest.raises(DomainError):
        c.partial(0)


def test_single_variable_specializations():
    rng = random.Random(14)
    for _ in range(10):
        f = _random_ternary(rng, 4)
        x0, y0, z0 = (FP.random_element(rng) for _ in range(3))
        want = _monomial_sum(f, x0, y0, z0)
        in_y = f.coeffs_in(1, x0, z0)
        got = sum(c * pow(y0, i, FP.p) for i, c in enumerate(in_y))
        assert FP.coerce(got) == want
        in_x = f.coeffs_in(0, y0, z0)
        got = sum(c * pow(x0, i, FP.p) for i, c in enumerate(in_x))
        assert FP.coerce(got) == want


small_or_huge = st.one_of(st.just(0), st.integers(-9, 9),
                          st.integers(-(1 << 64), 1 << 64))


@given(data=st.data())
def test_evaluate_matches_the_monomial_sum(data):
    field = data.draw(st.sampled_from(FIELDS), label="field")
    degree = data.draw(st.integers(0, 5), label="degree")
    scalar = small_or_huge
    if field is QQ:
        scalar = st.one_of(small_or_huge, st.fractions(max_denominator=9))
    cs = data.draw(st.lists(scalar, min_size=monomial_count(degree),
                            max_size=monomial_count(degree)), label="coeffs")
    f = TernaryForm(field, degree, [field.coerce(c) for c in cs])
    x0, y0 = data.draw(scalar, label="x0"), data.draw(scalar, label="y0")
    z0 = data.draw(st.one_of(st.just(0), scalar), label="z0")
    assert f.evaluate(x0, y0, z0) == _monomial_sum(f, x0, y0, z0)


def test_restriction_to_z_zero():
    rng = random.Random(16)
    f = _random_ternary(rng, 3)
    b = f.restrict_to_line((1, 0, 0), (0, 1, 0))
    # The line z = 0: coefficient j of s^(3-j) t^j is that of x^(3-j) y^j.
    idx = monomial_index(3)
    assert b.coeffs == [f.coeffs[idx[(3 - j, j, 0)]] for j in range(4)]
    for _ in range(10):
        s, t = FP.random_element(rng), FP.random_element(rng)
        assert b.evaluate(s, t) == f.evaluate(s, t, 0)


def test_restriction_to_line():
    rng = random.Random(18)
    f = _random_ternary(rng, 3)
    p0 = [FP.random_element(rng) for _ in range(3)]
    p1 = [FP.random_element(rng) for _ in range(3)]
    b = f.restrict_to_line(p0, p1)
    assert b.degree == 3
    for _ in range(10):
        s, t = FP.random_element(rng), FP.random_element(rng)
        pt = [FP.coerce(s * a + t * c) for a, c in zip(p0, p1)]
        assert b.evaluate(s, t) == f.evaluate(*pt)


def test_linear_coefficient_order():
    f = TernaryForm(FP, 1, [2, 3, 5])  # 2x + 3y + 5z
    assert f.evaluate(1, 0, 0) == 2
    assert f.evaluate(0, 1, 0) == 3
    assert f.evaluate(0, 0, 1) == 5


def test_product_degree_and_values():
    rng = random.Random(20)
    f = _random_ternary(rng, 2)
    g = _random_ternary(rng, 3)
    fg = f.mul(g)
    assert fg.degree == 5
    for _ in range(5):
        pt = [FP.random_element(rng) for _ in range(3)]
        assert fg.evaluate(*pt) == FP.coerce(f.evaluate(*pt) * g.evaluate(*pt))


@st.composite
def _elimination_case(draw):
    field = draw(st.sampled_from([QQ, PrimeField(101), FP]))
    coeff = (st.integers(-9, 9).map(Fraction) if field is QQ
             else st.integers(0, field.p - 1))
    forms = []
    for _ in range(2):
        degree = draw(st.integers(min_value=1, max_value=4))
        cs = draw(st.lists(coeff, min_size=monomial_count(degree),
                           max_size=monomial_count(degree)))
        forms.append(TernaryForm(field, degree, cs))
    return field, forms


@given(_elimination_case(), st.sampled_from([0, 1]),
       st.lists(st.integers(min_value=17, max_value=100), min_size=3, max_size=3))
def test_elimination_matches_declared_degree_sylvester(case, var, points):
    # The interpolation nodes are 0..deg f * deg g <= 16; the points checked
    # lie above them, so a node count below the Bezout bound is caught.
    field, (f, g) = case
    res = eliminate(f, g, var)
    for a in points:
        a = field.coerce(a)
        u = unipoly.normalize(field, f.coeffs_in(var, a, field.one))
        v = unipoly.normalize(field, g.coeffs_in(var, a, field.one))
        want = unipoly.sylvester_matrix(field, u, v, f.degree, g.degree).det()
        assert unipoly.evaluate(field, res, a) == want


def test_elimination_needs_more_elements_than_its_node_bound():
    f = TernaryForm(PrimeField(13), 4, [1] * monomial_count(4))
    with pytest.raises(ConfigurationError):
        eliminate(f, f, 0)
    g = TernaryForm(PrimeField(17), 4, [1] * monomial_count(4))
    assert eliminate(g, g, 1) == []


# Graded-lex coefficients: degree 1 is (x, y, z); degree 2 is
# (x^2, xy, xz, y^2, yz, z^2).  The first form carries y^d, so the
# eliminations in y keep their declared degrees.
@pytest.mark.parametrize("forms, want", [
    ([(0, 1, 0), (1, 0, 0), (0, 0, 1)], (True, True)),
    # y, x, x + y meet at (0:0:1), in the chart z = 1.
    ([(0, 1, 0), (1, 0, 0), (1, 1, 0)], (False, True)),
    # x - y, z, x - y + z meet at (1:1:0) only, on the line z = 0.
    ([(1, -1, 0), (0, 0, 1), (1, -1, 1)], (True, False)),
    # yz, xz, z^2 all restrict to 0 on z = 0: the line step fails.
    ([(0, 0, 0, 0, 1, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1)], (False, False)),
    # y^2, x^2, xy + z^2 have no common zero.
    ([(0, 0, 0, 1, 0, 0), (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 1)], (True, True)),
])
def test_no_common_zero_by_hand(forms, want):
    forms = [TernaryForm(FP, 1 if len(cs) == 3 else 2, [FP.coerce(c) for c in cs])
             for cs in forms]
    assert no_common_zero(forms) == want
