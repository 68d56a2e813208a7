import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmod import unipoly as up
from qmod.errors import ConfigurationError, DomainError, GenericityError, ZeroPolynomialError
from qmod.fields import QQ, DEFAULT_PRIME, PrimeField

import kernel_oracles as oracle
from test_scalar_idiom import PRIMES

FP = PrimeField(DEFAULT_PRIME)

poly = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=6)


def _q(cs):
    return up.normalize(QQ, [Fraction(c) for c in cs])


@given(poly, poly)
def test_divmod_round_trip(f, g):
    f, g = _q(f), _q(g)
    if up.is_zero(g):
        return
    q, r = up.divmod_poly(QQ, f, g)
    recombined = up.add(QQ, up.mul(QQ, q, g), r)
    assert recombined == f
    assert up.degree(r) < up.degree(g) or up.is_zero(r)


@given(poly, poly)
def test_gcd_divides_both(f, g):
    f, g = _q(f), _q(g)
    d = up.gcd(QQ, f, g)
    if up.is_zero(d):
        assert up.is_zero(f) and up.is_zero(g)
        return
    assert up.is_zero(up.rem(QQ, f, d))
    assert up.is_zero(up.rem(QQ, g, d))


def test_interpolation_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        deg = rng.randrange(0, 6)
        for field in (FP, QQ):
            cs = up.normalize(field, [field.coerce(rng.randrange(-50, 50))
                                      for _ in range(deg + 1)])
            ys = [up.evaluate(field, cs, field.coerce(a)) for a in range(deg + 1)]
            assert up.interpolate(field, ys) == cs
    assert up.interpolate(FP, []) == []


def test_interpolation_inverts_once_per_order():
    # Consecutive nodes: the divided differences of order j all divide by j.
    rng = random.Random(5)
    ys = [FP.random_element(rng) for _ in range(17)]
    with mock.patch.object(FP, "inv", wraps=FP.inv) as inv:
        poly = up.interpolate(FP, ys)
    assert inv.call_count == 16
    assert [up.evaluate(FP, poly, a) for a in range(17)] == ys


def test_interpolation_refuses_more_values_than_the_field_has():
    f13 = PrimeField(13)
    with pytest.raises(ConfigurationError):
        up.interpolate(f13, [1] * 14)
    ys = list(range(13))[::-1]
    poly = up.interpolate(f13, ys)
    assert [up.evaluate(f13, poly, a) for a in range(13)] == ys


def test_evaluation_reduces_once():
    # Horner runs on the exact sums; the one stored value is reduced once.
    rng = random.Random(4)
    cs = [FP.random_element(rng) for _ in range(9)]
    x = FP.random_element(rng)
    with mock.patch.object(FP, "coerce", wraps=FP.coerce) as coerce:
        value = up.evaluate(FP, cs, x)
    assert coerce.call_count == 1
    assert value == sum(c * pow(x, i, FP.p) for i, c in enumerate(cs)) % FP.p


def test_resultant_of_known_pair():
    # res(x^2 - 1, x - 2) = value of x^2 - 1 at 2, for monic linear g.
    f = _q([-1, 0, 1])
    g = _q([-2, 1])
    assert up.resultant(QQ, f, g) == 3
    assert up.resultant_prs(QQ, f, g) == 3


small = st.lists(st.integers(min_value=-2, max_value=2), min_size=0, max_size=5)


@settings(max_examples=300)
@given(st.sampled_from([QQ, PrimeField(7), FP]), small, small,
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_resultant_routes_agree(field, f, g, pad_m, pad_n):
    # Raw lists keep their trailing zeros and may be empty, and the
    # declared degrees sit up to three above the list lengths, so padded,
    # zero and deficient-degree inputs all reach resultant_fixed.
    f = [field.coerce(c) for c in f]
    g = [field.coerce(c) for c in g]
    m = max(len(f) - 1, 0) + pad_m
    n = max(len(g) - 1, 0) + pad_n
    want = up.sylvester_matrix(field, f, g, m, n).det()
    assert up.resultant_fixed(field, f, g, m, n) == want
    f, g = up.normalize(field, f), up.normalize(field, g)
    if f and g:
        assert up.resultant(field, f, g) == up.resultant_prs(field, f, g)


def test_discriminant_detects_repeated_roots():
    rng = random.Random(17)
    for _ in range(100):
        # Random monic cubic; square-freeness must match res(f, f') != 0.
        f = [FP.random_element(rng) for _ in range(3)] + [1]
        disc = up.resultant(FP, f, up.derivative(FP, f))
        assert up.squarefree_test(FP, f) == (disc != 0)


def test_resultant_fixed_degenerate_degrees():
    # Declared degrees keep the specialized resultant honest when the
    # leading coefficient vanishes.
    f = _q([1, 1])       # actual degree 1
    g = _q([2])          # actual degree 0
    assert up.resultant_fixed(QQ, f, g, 2, 1) == 0  # degree-2 slot, leader 0
    assert up.resultant_fixed(QQ, f, g, 1, 1) == 2
    assert up.resultant_fixed(QQ, [], [], 0, 0) == 1
    with pytest.raises(DomainError):
        up.resultant_fixed(QQ, f, g, 0, 0)
    # With n = 0 the Sylvester matrix is m rows of the constant g, so the
    # resultant is g_0^m whether f is written as [] or as [0].
    assert up.sylvester_matrix(QQ, [], [2], 2, 0).det() == 4
    assert up.resultant_fixed(QQ, [], [2], 2, 0) == 4
    assert up.resultant_fixed(QQ, [0], [2], 2, 0) == 4
    assert up.resultant_fixed(QQ, [3], [], 0, 2) == 9
    assert up.resultant_fixed(QQ, [], [0, 1], 0, 1) == 0


def test_sylvester_shape():
    f = _q([1, 2, 3])
    g = _q([4, 5])
    m = up.sylvester_matrix(QQ, f, g)
    assert (m.rows, m.cols) == (3, 3)
    m = up.sylvester_matrix(QQ, f, g, 4, 2)
    assert (m.rows, m.cols) == (6, 6)


def test_squarefree_guards():
    with pytest.raises(ZeroPolynomialError):
        up.squarefree_test(QQ, [])
    small = PrimeField(5)
    with pytest.raises(ConfigurationError):
        up.squarefree_test(small, [1, 0, 0, 0, 0, 1])
    assert up.squarefree_test(QQ, _q([1, 0, 1]))
    square = up.mul(QQ, _q([-1, 1]), _q([-1, 1]))
    assert not up.squarefree_test(QQ, square)


def test_root_multiplicity():
    # (x-2)^3 (x-5)
    f = _q([1])
    for _ in range(3):
        f = up.mul(QQ, f, _q([-2, 1]))
    f = up.mul(QQ, f, _q([-5, 1]))
    assert up.root_multiplicity(QQ, f, Fraction(2)) == 3
    assert up.root_multiplicity(QQ, f, Fraction(5)) == 1
    assert up.root_multiplicity(QQ, f, Fraction(7)) == 0


def test_rational_roots_against_full_scan():
    pf = PrimeField(101)
    rng = random.Random(23)
    for _ in range(10):
        f = up.normalize(pf, [pf.random_element(rng) for _ in range(6)])
        if up.is_zero(f):
            continue
        brute = [a for a in range(101) if up.evaluate(pf, f, a) == 0]
        assert up.rational_roots(pf, f) == brute


def test_rational_roots_known_factorization():
    pf = PrimeField(101)
    f = [1]
    for r in (3, 7, 90):
        f = up.mul(pf, f, [(-r) % 101, 1])
    f = up.mul(pf, f, [1, 1, 1])  # x^2 + x + 1 stays rootless mod 101
    assert up.rational_roots(pf, f) == [3, 7, 90]


def test_split_linear_reports_a_shift_sequence_that_never_splits():
    # With pow_mod stuck at 1 no shift can split (x - 3)(x - 7); the bounded
    # loop has to report that instead of spinning.
    pf = PrimeField(101)
    calls = []

    def stuck(field, base, e, m):
        calls.append(1)
        if len(calls) > 1000:
            raise AssertionError("shift loop is unbounded")
        return [field.one]

    with mock.patch.object(up, "pow_mod", stuck):
        with pytest.raises(GenericityError) as err:
            up._split_linear(pf, up.mul(pf, [98, 1], [94, 1]), [])
    assert err.value.data == {"degree": 2, "shifts": up._MAX_SHIFTS}
    assert len(calls) == up._MAX_SHIFTS


def test_pow_mod_matches_repeated_multiplication():
    pf = PrimeField(101)
    m = [3, 1, 0, 1]  # cubic modulus
    base = [2, 5]
    direct = [1]
    for _ in range(12):
        direct = oracle.mul_mod(pf, direct, base, m)
    assert up.pow_mod(pf, base, 12, m) == direct


POW_PRIMES = [PrimeField(3), PrimeField(101)] + PRIMES


@st.composite
def pow_mod_case(draw, pf):
    # A modulus of degree 1 or up to 16 with any nonzero leader, a base of
    # degree up to 2 deg m + 1, and the exponents the root finder uses
    # ((p - 1)/2 and p) next to the small ones.
    p = pf.p
    n = draw(st.one_of(st.just(1), st.integers(1, 16)))
    m = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    m.append(draw(st.integers(1, p - 1)))
    base = up.normalize(pf, draw(st.lists(st.integers(0, p - 1), max_size=2 * n + 2)))
    e = draw(st.sampled_from([0, 1, 2, (p - 1) // 2, p]))
    return base, e, m


@pytest.mark.parametrize("pf", POW_PRIMES, ids=repr)
@settings(max_examples=60)
@given(data=st.data())
def test_pow_mod_matches_the_list_oracle(pf, data):
    base, e, m = data.draw(pow_mod_case(pf))
    assert up.pow_mod(pf, base, e, m) == oracle.pow_mod(pf, base, e, m)
    if e <= 101:  # small enough to multiply out step by step
        direct = [pf.one]
        for _ in range(e):
            direct = oracle.mul_mod(pf, direct, base, m)
        assert up.pow_mod(pf, base, e, m) == direct


def test_pow_mod_packs_only_prime_field_residues():
    with pytest.raises(DomainError, match="prime field"):
        up.pow_mod(QQ, [Fraction(1), Fraction(1)], 3, [Fraction(1), Fraction(0), Fraction(1)])
    with pytest.raises(DomainError, match="positive degree"):
        up.pow_mod(FP, [0, 1], 3, [5])
