"""Exact coefficient fields: arbitrary-precision rationals and big prime fields.

Scalars are plain Python values, ``fractions.Fraction`` for the rationals
and ``int`` residues in ``[0, p)`` for a prime field.  Nothing here ever
touches floating point.

The contract every container and kernel keeps:

* Containers (polynomial lists, forms, quadrics, matrices) hold canonical
  scalars only, the values ``coerce`` returns.  A container's checked
  input goes through ``checked``, which refuses anything that is not
  already an element of the field.
* Kernels compute with the scalars' own ``+ - *``, which is exact for
  both kinds, and reduce a value once, with ``coerce``, when they store
  it.  A field offers only ``coerce``, ``inv`` (which accepts any exact
  value of the field's kind), ``is_element``, ``zero``, ``one``,
  ``random_element`` and ``format``.  A truth test such as ``if c:`` is
  made only on a value that is already reduced.
* ``combine`` is the one linear-combination kernel: forms, quadrics and
  plane systems take every weighted sum through it, exactly, with one
  ``coerce`` per entry.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from operator import mul

from .errors import ConfigurationError, DomainError, FieldMismatchError

# Default modulus: the Mersenne prime 2^61 - 1.  Far above every degree and
# minor bound that appears in this package, so genericity arguments that
# need "p large" hold with room to spare.
DEFAULT_PRIME = (1 << 61) - 1

# Sampling-based checks (random matrices, random points) refuse to run below
# this, keeping per-draw failure probabilities under ~2^-14.
MIN_SAMPLING_PRIME = 1 << 16

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_13 = 1287836182261 * 2575672364521, the least strong pseudoprime to
# every base up to 41 (Sorenson & Webster, Math. Comp. 86, 2017).
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the prime bases 2..41.

    That base set proves every answer for n below ``_PSI_13``
    (psi_13, about 3.3e24).  Larger n raise ``ConfigurationError``: the
    test could only guess there, and a composite modulus is no field:
    ``pow(x, -1, p)`` fails on every x that shares a factor with it.
    """
    if n >= _PSI_13:
        raise ConfigurationError(
            f"cannot prove {n} prime: deterministic Miller-Rabin covers n < {_PSI_13}")
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def derived_rng(seed: int, *labels) -> random.Random:
    """Deterministic RNG stream for (seed, labels).

    Distinct labels give independent streams, so adding a new draw site
    never perturbs existing ones.
    """
    tag = "|".join(str(x) for x in labels) + "|" + str(seed)
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class RationalField:
    """The field of exact rationals.  Elements are Fraction values.

    Fraction keeps lowest terms and a positive denominator on its own,
    so every element has one canonical representation.
    """

    char = 0

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        raise FieldMismatchError(f"cannot coerce {x!r} into QQ")

    def is_element(self, x) -> bool:
        return isinstance(x, (Fraction, int)) and not isinstance(x, bool)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in QQ")
        return 1 / Fraction(a)

    def format(self, x) -> str:
        x = Fraction(x)
        return f"{x.numerator}/{x.denominator}"

    def random_element(self, rng: random.Random):
        # Small-height rationals; plenty for property tests.
        return Fraction(rng.randrange(-20, 21), rng.randrange(1, 11))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


class PrimeField:
    """F_p for an odd prime p.  Elements are ints in [0, p).

    The modulus is primality-checked on construction; a composite modulus
    is a configuration error, not a silent wrong answer.
    """

    def __init__(self, p: int = DEFAULT_PRIME):
        if not isinstance(p, int) or p < 3:
            raise ConfigurationError(f"prime field modulus must be an odd prime, got {p!r}")
        if not is_prime(p):
            raise ConfigurationError(f"{p} is not prime")
        self.p = p
        self.char = p

    def coerce(self, x) -> int:
        if isinstance(x, int) and not isinstance(x, bool):
            return x % self.p
        # A Fraction is refused too: it reduces only through the explicit
        # ``from_rational``, so no rational leaks into F_p by accident.
        raise FieldMismatchError(f"cannot coerce {x!r} into F_{self.p}")

    def from_rational(self, x: Fraction) -> int:
        """Explicit reduction of a rational with p-unit denominator."""
        x = Fraction(x)
        if x.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def is_element(self, x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, -1, self.p)

    def format(self, x) -> str:
        return str(x % self.p)

    def random_element(self, rng: random.Random):
        return rng.randrange(self.p)

    def __repr__(self):
        return f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


def checked(field, values) -> list:
    """The canonical list of ``values``, each already an element of ``field``.

    The one input check of every container: a value of another kind, an
    unreduced residue or a bool raises ``FieldMismatchError``.
    """
    out = []
    for x in values:
        if not field.is_element(x):
            raise FieldMismatchError(f"{x!r} is not a {field!r} scalar")
        out.append(field.coerce(x))
    return out


def combine(field, vectors, weights) -> list:
    """The canonical list sum_k weights[k] * vectors[k], entry by entry.

    Each entry's weighted sum is formed exactly and reduced once.  The
    vectors hold canonical scalars and share one length; a weight is any
    exact value of the field's kind (an ``int`` serves every field) and
    is not coerced here, so callers taking weights from outside coerce
    them first.
    """
    vectors = list(vectors)
    weights = list(weights)
    if len(vectors) != len(weights):
        raise DomainError("one weight per vector required")
    if any(len(v) != len(vectors[0]) for v in vectors):
        raise DomainError("combined vectors must share one length")
    return [field.coerce(sum(map(mul, weights, column))) for column in zip(*vectors)]


def require_sampling_prime(field) -> None:
    """Guard for sampling checks: they run over F_p, with p reasonably large."""
    if not isinstance(field, PrimeField):
        raise ConfigurationError(f"sampling-based checks need a prime field, got {field!r}")
    if field.p < MIN_SAMPLING_PRIME:
        raise ConfigurationError(
            f"prime {field.p} too small for sampling-based checks (need >= {MIN_SAMPLING_PRIME})"
        )
