"""The one weighted sum of forms, ``Form.combination``.

It sums exactly and reduces each coefficient once.  The oracle here is the
step-by-step route it replaced, written out on coefficient lists: scale
one term and add it, reducing at every step.  Weights range over small
values and over values far outside [0, p) on both sides, so every prime
below sees negative weights and weights >= p.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmod.binforms import BinaryForm, Form
from qmod.errors import DomainError, FieldMismatchError
from qmod.fields import QQ, PrimeField
from qmod.ternary import TernaryForm

FIELDS = [QQ, PrimeField(7), PrimeField(65537), PrimeField((1 << 61) - 1)]

raw = st.one_of(st.integers(-9, 9), st.integers(-(1 << 64), 1 << 64))


def _fold(forms, weights):
    """The per-step oracle, written out on coefficient lists: each term is
    scaled and added to the running sum with a reduction at every step."""
    field, first = forms[0].field, forms[0]
    acc = [field.zero] * len(first.coeffs)
    for f, w in zip(forms, weights):
        w = field.coerce(w)
        scaled = [field.coerce(w * c) for c in f.coeffs]
        acc = [field.coerce(a + b) for a, b in zip(acc, scaled)]
    return type(first)(field, first.degree, acc)


@st.composite
def _forms(draw, cls):
    field = draw(st.sampled_from(FIELDS))
    degree = draw(st.integers(0, 4))
    count = draw(st.integers(1, 4))
    width = cls.width(degree)
    forms = [cls(field, degree, [field.coerce(v) for v in
                                 draw(st.lists(raw, min_size=width, max_size=width))])
             for _ in range(count)]
    weights = draw(st.lists(raw, min_size=count, max_size=count))
    return forms, weights


@pytest.mark.parametrize("cls", [BinaryForm, TernaryForm], ids=lambda c: c.__name__)
@given(data=st.data())
def test_form_combination_matches_the_step_by_step_fold(cls, data):
    forms, weights = data.draw(_forms(cls))
    want = _fold(forms, weights)
    got = cls.combination(forms, weights)
    assert type(got) is cls
    assert got == want
    assert all(got.field.is_element(c) for c in got.coeffs)
    # A sum of two one-term combinations is the two-term combination.
    ends = [cls.combination([f], [w]) for f, w in ((forms[0], weights[0]),
                                                    (forms[-1], weights[-1]))]
    assert cls.combination(ends, [1, 1]) \
        == _fold([forms[0], forms[-1]], [weights[0], weights[-1]])


def test_form_container_methods_are_defined_once():
    for name in ("__init__", "zero", "is_zero", "__eq__", "combination"):
        assert name in vars(Form), name
        for cls in (BinaryForm, TernaryForm):
            assert name not in vars(cls), f"{cls.__name__}.{name}"
    assert not hasattr(BinaryForm, "sub")
    assert not hasattr(TernaryForm, "sub")


def test_combination_refuses_mismatched_or_empty_input():
    fp, fq = PrimeField(7), PrimeField(11)
    with pytest.raises(DomainError):
        BinaryForm.combination([], [])
    with pytest.raises(DomainError):
        BinaryForm.combination([BinaryForm.zero(fp, 2), BinaryForm.zero(fp, 3)], [1, 1])
    with pytest.raises(FieldMismatchError):
        TernaryForm.combination([TernaryForm.zero(fp, 2), TernaryForm.zero(fq, 2)], [1, 1])
    with pytest.raises(DomainError):
        TernaryForm.combination([TernaryForm.zero(fp, 1), TernaryForm.zero(fp, 2)], [1, 1])
    # One weight per form: zip must not silently drop a weight or a form.
    with pytest.raises(DomainError):
        BinaryForm.combination([BinaryForm.zero(fp, 2)], [1, 1])
    with pytest.raises(DomainError):
        BinaryForm.combination([BinaryForm.zero(fp, 2)] * 2, [1])
