import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmod.binforms import BinaryForm, binary_gcd
from qmod.errors import DomainError, FieldMismatchError
from qmod.fields import DEFAULT_PRIME, QQ, PrimeField

FP = PrimeField(DEFAULT_PRIME)


def _random_form(rng, degree):
    return BinaryForm(FP, degree, [FP.random_element(rng) for _ in range(degree + 1)])


def test_declared_degree_keeps_zero_leaders():
    f = BinaryForm(FP, 3, [1, 2, 0, 0])
    assert f.degree == 3
    assert len(f.coeffs) == 4


def test_coefficient_count_must_match_degree():
    with pytest.raises(DomainError):
        BinaryForm(FP, 2, [1, 2])


def test_evaluation_is_multiplicative():
    rng = random.Random(2)
    for _ in range(20):
        f = _random_form(rng, rng.randrange(0, 5))
        g = _random_form(rng, rng.randrange(0, 5))
        s, t = FP.random_element(rng), FP.random_element(rng)
        lhs = f.mul(g).evaluate(s, t)
        rhs = FP.coerce(f.evaluate(s, t) * g.evaluate(s, t))
        assert lhs == rhs


def test_mul_degree_adds():
    f = BinaryForm(FP, 2, [1, 0, 0])
    g = BinaryForm(FP, 3, [0, 1, 0, 0])
    assert f.mul(g).degree == 5


def test_from_unipoly_round_trip():
    cs = [3, 1, 4]
    f = BinaryForm.from_unipoly(FP, cs, 5)
    assert f.degree == 5
    assert f.dehomogenize() == cs
    assert f.infinity_multiplicity() == 5 - 2


def test_infinity_multiplicity_counts_degree_drop():
    rng = random.Random(4)
    for _ in range(20):
        actual = rng.randrange(0, 4)
        declared = actual + rng.randrange(0, 4)
        cs = [FP.random_element(rng) for _ in range(actual)] + [rng.randrange(1, FP.p)]
        f = BinaryForm.from_unipoly(FP, cs, declared)
        assert f.infinity_multiplicity() == declared - actual


def test_monomial_basis():
    m = BinaryForm.monomial(FP, 3, 2)
    assert m.evaluate(1, 2) == 4  # s t^2 at (1, 2)


def test_squarefree_detects_repeated_factors():
    rng = random.Random(6)
    f = _random_form(rng, 2)
    assert not f.mul(f).squarefree()
    # s t (s + t): three distinct projective roots.
    tri = BinaryForm(FP, 3, [0, 1, 1, 0])
    assert tri.squarefree()


def test_squarefree_sees_double_root_at_infinity():
    f = BinaryForm.from_unipoly(FP, [1, 1], 3)  # two extra infinity roots
    assert not f.squarefree()
    g = BinaryForm.from_unipoly(FP, [1, 1], 2)  # just one
    assert g.squarefree()


def test_gcd_degree_of_cofactor_products():
    rng = random.Random(8)
    for _ in range(10):
        f = _random_form(rng, 3)
        g = _random_form(rng, 4)
        if binary_gcd(f, g).degree != 0:
            continue
        h = _random_form(rng, 2)
        d = binary_gcd(f.mul(h), g.mul(h))
        assert d.degree == h.degree


def test_gcd_tracks_shared_infinity_roots():
    # Homogenizing with slack adds roots at infinity; the gcd keeps the
    # smaller slack.
    f = BinaryForm.from_unipoly(FP, [1, 3], 4)   # slack 3
    g = BinaryForm.from_unipoly(FP, [2, 7], 2)   # slack 1
    assert binary_gcd(f, g).degree == 1


def test_coprime_forms():
    f = BinaryForm(FP, 1, [1, 0])  # s
    g = BinaryForm(FP, 1, [0, 1])  # t
    assert binary_gcd(f, g).degree == 0


def test_zero_form_and_scaling():
    z = BinaryForm.zero(FP, 3)
    f = BinaryForm(FP, 3, [1, 2, 3, 4])
    assert BinaryForm.combination([f, z], [1, 1]) == f
    assert BinaryForm.combination([f], [0]) == z
    assert BinaryForm.combination([f, f], [1, -1]) == z


@st.composite
def _form_pair(draw):
    # Small coefficients make zero entries common; the leading ones are
    # zeroed on purpose so that the forms carry roots at infinity.
    degree = draw(st.integers(min_value=0, max_value=4))
    forms = []
    for _ in range(2):
        cs = draw(st.lists(st.integers(min_value=-2, max_value=2).map(FP.coerce),
                           min_size=degree + 1, max_size=degree + 1))
        zero_leaders = draw(st.integers(min_value=0, max_value=degree + 1))
        cs[degree + 1 - zero_leaders:] = [0] * zero_leaders
        forms.append(BinaryForm(FP, degree, cs))
    return forms


@given(_form_pair(), _form_pair(), st.integers(-3, 3), st.integers(-3, 3))
def test_arithmetic_agrees_with_pointwise_evaluation(pair, other, s, t):
    f, g = pair
    h = other[0]
    s, t = FP.coerce(s), FP.coerce(t)
    fv, gv, hv = f.evaluate(s, t), g.evaluate(s, t), h.evaluate(s, t)
    total, diff = (BinaryForm.combination([f, g], [1, c]) for c in (1, -1))
    prod = f.mul(h)
    assert total.degree == diff.degree == f.degree
    assert prod.degree == f.degree + h.degree
    assert total.evaluate(s, t) == FP.coerce(fv + gv)
    assert diff.evaluate(s, t) == FP.coerce(fv - gv)
    assert prod.evaluate(s, t) == FP.coerce(fv * hv)


@pytest.mark.parametrize("field, coeffs", [
    (PrimeField(7), [7, 1]),               # unreduced
    (PrimeField(7), [-1, 1]),              # unreduced
    (PrimeField(7), [10, 1]),              # an F_65537 scalar, not an F_7 one
    (PrimeField(7), [Fraction(1, 2), 1]),  # a QQ scalar
    (PrimeField(7), [True, 1]),
    (QQ, ["1/2", 1]),
])
def test_public_constructors_reject_foreign_or_unreduced_scalars(field, coeffs):
    # Only sums, differences, products and gcds, whose lists unipoly has
    # just normalized, take the unchecked path.
    with pytest.raises(FieldMismatchError):
        BinaryForm(field, 1, coeffs)
    with pytest.raises(FieldMismatchError):
        BinaryForm.from_unipoly(field, coeffs, 1)
