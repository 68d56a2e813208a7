import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmod.errors import ConfigurationError, FieldMismatchError
from qmod.fields import (
    DEFAULT_PRIME,
    MIN_SAMPLING_PRIME,
    QQ,
    PrimeField,
    checked,
    derived_rng,
    is_prime,
    require_sampling_prime,
)

from kernel_oracles import PACKED_PRIMES


def test_is_prime_known_values():
    assert is_prime(2)
    assert is_prime(3)
    assert is_prime(65537)
    assert is_prime(DEFAULT_PRIME)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(2 ** 61 + 1)


@pytest.mark.parametrize("n", [41041, 825265, 321197185])
def test_is_prime_rejects_carmichael_numbers(n):
    assert not is_prime(n)


def test_is_prime_rejects_psi_12():
    # 399165290221 * 798330580441: a strong pseudoprime to every base up
    # to 37, so only the base 41 exposes it.
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    assert not is_prime(psi_12)
    with pytest.raises(ConfigurationError):
        PrimeField(psi_12)


def test_is_prime_refuses_moduli_it_cannot_prove():
    # psi_13 passes every base up to 41; from there on no answer is proven.
    psi_13 = 3317044064679887385961981
    assert psi_13 == 1287836182261 * 2575672364521
    assert not is_prime(psi_13 - 2)
    for n in (psi_13, psi_13 + 2, 2 ** 89 - 1):
        with pytest.raises(ConfigurationError):
            is_prime(n)
    with pytest.raises(ConfigurationError):
        PrimeField(psi_13)


def test_a_modulus_is_proven_once_per_process():
    # The second field over the same modulus is a cache hit; a refusal
    # raises every time, so it is never cached.
    is_prime.cache_clear()
    assert PrimeField(1000003) == PrimeField(1000003)
    info = is_prime.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            PrimeField(2 ** 89 - 1)
    assert is_prime.cache_info().currsize == 1


def test_default_prime_is_mersenne():
    assert DEFAULT_PRIME == 2 ** 61 - 1


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(ConfigurationError):
        PrimeField(91)
    with pytest.raises(ConfigurationError):
        PrimeField(2)


def test_prime_field_coercion(fp):
    assert fp.coerce(-1) == fp.p - 1
    assert fp.coerce(fp.p + 12) == 12
    for bad in (True, False, Fraction(1, 2), Fraction(4), "12", 12.0):
        with pytest.raises(FieldMismatchError):
            fp.coerce(bad)


def test_prime_field_coerces_int_subclasses_like_ints(fp):
    class Residue(int):
        pass

    for x in (-1, 0, fp.p + 12, 3 * fp.p):
        got = fp.coerce(Residue(x))
        assert type(got) is int and got == fp.coerce(x) == x % fp.p


def test_prime_field_explicit_rational_reduction(fp):
    half = fp.from_rational(Fraction(1, 2))
    assert half * 2 % fp.p == 1


@given(st.integers(min_value=1, max_value=10 ** 9))
def test_prime_field_inverse(a):
    fp = PrimeField(DEFAULT_PRIME)
    assert fp.coerce(a * fp.inv(a)) == 1


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_prime_field_inverse_is_the_fermat_inverse(p):
    # Random, negative and unreduced inputs alike: the extended-Euclid
    # inverse is the Fermat one, pow(a, p - 2, p), for a proven prime.
    fp = PrimeField(p)
    rng = random.Random(p)
    samples = [rng.randrange(1, p) for _ in range(20)]
    samples += [-a for a in samples[:5]] + [a + k * p for k, a in zip((1, 3, -4), samples)]
    samples += [1, p - 1, -1, p + 1, 2 * p - 1]
    for a in samples:
        assert fp.inv(a) == pow(a, p - 2, p)
    for zero in (0, p, -p):
        with pytest.raises(ZeroDivisionError):
            fp.inv(zero)


def test_inverse_of_zero_raises(fp):
    with pytest.raises(ZeroDivisionError):
        fp.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_qq_arithmetic_is_exact():
    third = QQ.coerce(Fraction(1, 3))
    assert third + third == Fraction(2, 3)
    assert QQ.coerce(third * 3) == 1
    assert type(QQ.coerce(3)) is Fraction
    assert QQ.format(Fraction(3)) == "3/1"


def test_qq_coercion_takes_only_rational_scalars():
    for bad in (True, False, "1/3", 0.5):
        with pytest.raises(FieldMismatchError):
            QQ.coerce(bad)


def test_checked_returns_canonical_scalars_or_refuses(fp):
    assert checked(QQ, [1, Fraction(1, 2)]) == [Fraction(1), Fraction(1, 2)]
    assert all(type(x) is Fraction for x in checked(QQ, [1, 2]))
    assert checked(fp, [0, fp.p - 1]) == [0, fp.p - 1]
    for field, bad in ((QQ, True), (QQ, "1"), (fp, fp.p), (fp, -1), (fp, False),
                       (fp, Fraction(1, 2))):
        with pytest.raises(FieldMismatchError):
            checked(field, [field.zero, bad])


def test_derived_rng_is_deterministic():
    a = derived_rng(7, "curve", 3).random()
    b = derived_rng(7, "curve", 3).random()
    assert a == b


def test_derived_rng_separates_labels():
    streams = {
        derived_rng(0, "curve", 3).randrange(2 ** 61),
        derived_rng(0, "curve", 4).randrange(2 ** 61),
        derived_rng(0, "chord", 3).randrange(2 ** 61),
        derived_rng(1, "curve", 3).randrange(2 ** 61),
    }
    assert len(streams) == 4


def test_sampling_prime_gate():
    require_sampling_prime(PrimeField(DEFAULT_PRIME))
    with pytest.raises(ConfigurationError):
        require_sampling_prime(PrimeField(101))
    with pytest.raises(ConfigurationError):
        require_sampling_prime(QQ)
    assert MIN_SAMPLING_PRIME == 2 ** 16
