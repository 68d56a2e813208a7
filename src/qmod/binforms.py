"""Homogeneous binary forms with a declared degree.

Coefficient i multiplies s^(d-i) t^i.  The declared degree is part of the
value and is kept even when leading coefficients vanish: a form of declared
degree d with c[d] = 0 has a root at the point at infinity [0:1], and the
squarefree test accounts for its multiplicity d - deg(f(1,t)).

The coefficient list of a form is the univariate polynomial f(1, t) padded
with zeros to the declared degree, so products run through ``unipoly`` and
are padded back with ``BinaryForm.from_unipoly``; those lists are already
canonical, so they skip the constructor's check.

``Form`` is the container both form classes share (this one and
``ternary.TernaryForm``): the checked constructor, equality, sums, scaling
and ``combination``, the one linear combination of forms.
"""

from __future__ import annotations

from .errors import DomainError, FieldMismatchError, ZeroPolynomialError
from .fields import checked, combine
from . import unipoly


class Form:
    """A form of a declared degree: a field and the canonical coefficient
    list whose length ``width(degree)`` fixes.

    Each subclass supplies the static method ``width`` and its own
    algebra.  Linear combinations go through ``fields.combine``.
    """

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field, degree: int, coeffs, *, _skip_check=False):
        if degree < 0:
            raise DomainError("form degree must be nonnegative")
        coeffs = list(coeffs)
        width = self.width(degree)
        if len(coeffs) != width:
            raise DomainError(
                f"degree-{degree} form needs {width} coefficients, got {len(coeffs)}")
        if not _skip_check:
            coeffs = checked(field, coeffs)
        self.field = field
        self.degree = degree
        self.coeffs = coeffs

    @classmethod
    def zero(cls, field, degree: int):
        return cls(field, degree, [field.zero] * cls.width(degree), _skip_check=True)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.field == self.field
            and other.degree == self.degree
            and other.coeffs == self.coeffs
        )

    def __repr__(self):
        return f"{type(self).__name__}(deg={self.degree}, {self.coeffs})"

    def _require_same_shape(self, other) -> None:
        if self.field != other.field:
            raise FieldMismatchError("forms over different fields")
        if self.degree != other.degree:
            raise DomainError("forms of different declared degrees")

    def add(self, other):
        return self.combination([self, other], [1, 1])

    def scale(self, a):
        return self.combination([self], [self.field.coerce(a)])

    @classmethod
    def combination(cls, forms, weights):
        """sum_k weights[k] * forms[k]; weights as ``fields.combine`` takes them."""
        forms = list(forms)
        if not forms:
            raise DomainError("empty combination has no declared degree")
        first = forms[0]
        for f in forms:
            first._require_same_shape(f)
        F = first.field
        return cls(F, first.degree, combine(F, [f.coeffs for f in forms], weights),
                   _skip_check=True)


class BinaryForm(Form):
    """Degree-declared homogeneous form in two variables s, t."""

    __slots__ = ()

    @staticmethod
    def width(degree: int) -> int:
        return degree + 1

    @classmethod
    def monomial(cls, field, degree: int, i: int) -> "BinaryForm":
        """s^(degree-i) t^i."""
        if not 0 <= i <= degree:
            raise DomainError("monomial index out of range")
        coeffs = [field.zero] * (degree + 1)
        coeffs[i] = field.one
        return cls(field, degree, coeffs)

    @classmethod
    def from_unipoly(cls, field, cs, degree: int, *, _skip_check=False) -> "BinaryForm":
        """Homogenize a univariate polynomial in t to declared degree."""
        if unipoly.degree(cs) > degree:
            raise DomainError("declared degree below actual degree")
        coeffs = list(cs) + [field.zero] * (degree + 1 - len(cs))
        return cls(field, degree, coeffs, _skip_check=_skip_check)

    def mul(self, other: "BinaryForm") -> "BinaryForm":
        if self.field != other.field:
            raise FieldMismatchError("binary forms over different fields")
        F = self.field
        return BinaryForm.from_unipoly(
            F, unipoly.mul(F, self.coeffs, other.coeffs), self.degree + other.degree,
            _skip_check=True)

    def evaluate(self, s0, t0):
        F = self.field
        s0, t0 = F.coerce(s0), F.coerce(t0)
        d = self.degree
        return F.coerce(sum(c * s0 ** (d - i) * t0 ** i for i, c in enumerate(self.coeffs)))

    def dehomogenize(self) -> list:
        """f(1, t) as a univariate polynomial in t."""
        return unipoly.normalize(self.field, self.coeffs)

    def infinity_multiplicity(self) -> int:
        """Multiplicity of the root [0:1]; equals the drop from the declared degree."""
        if self.is_zero():
            raise ZeroPolynomialError("infinity multiplicity of the zero form")
        return self.degree - unipoly.degree(self.dehomogenize())

    def squarefree(self) -> bool:
        """Squarefree as a projective binary form, infinity included."""
        if self.is_zero():
            raise ZeroPolynomialError("squarefree test on the zero form")
        if self.infinity_multiplicity() > 1:
            return False
        affine = self.dehomogenize()
        if unipoly.degree(affine) == 0:
            return True
        return unipoly.squarefree_test(self.field, affine)


def binary_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Gcd as projective forms: affine gcd plus the shared infinity factor."""
    if f.field != g.field:
        raise FieldMismatchError("binary forms over different fields")
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("gcd with an identically-zero form")
    F = f.field
    affine = unipoly.gcd(F, f.dehomogenize(), g.dehomogenize())
    k = min(f.infinity_multiplicity(), g.infinity_multiplicity())
    return BinaryForm.from_unipoly(F, affine, unipoly.degree(affine) + k, _skip_check=True)
