"""The one linear-combination kernel, ``fields.combine``, and its callers.

``Form.combination`` and the test helper
``kernel_oracles.linear_combination`` sum exactly and reduce each entry
once.  The oracles here are the step-by-step routes they replaced, written
out on coefficient lists: scale one term and add it, reducing at every
step, for forms; one reduced sum per matrix entry for quadrics.  Weights
range over small values and over values far outside [0, p) on both sides,
so every prime below sees negative weights and weights >= p.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmod.binforms import BinaryForm, Form
from qmod.errors import DomainError, FieldMismatchError
from qmod.fields import QQ, PrimeField, combine
from qmod.quadlab import SymQuadric
from qmod.ternary import TernaryForm

from kernel_oracles import linear_combination

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
    # add and scale are combinations too.
    assert forms[0].scale(weights[0]).add(forms[-1].scale(weights[-1])) \
        == _fold([forms[0], forms[-1]], [weights[0], weights[-1]])


@given(field=st.sampled_from(FIELDS), size=st.integers(1, 4), count=st.integers(1, 3),
       data=st.data())
def test_linear_combination_matches_entrywise_oracle(field, size, count, data):
    quadrics = []
    for _ in range(count):
        upper = data.draw(st.lists(raw, min_size=size * (size + 1) // 2,
                                   max_size=size * (size + 1) // 2))
        quadrics.append(SymQuadric.from_upper_coeffs(field, size, upper))
    weights = data.draw(st.lists(raw, min_size=count, max_size=count))
    got = linear_combination(field, quadrics, weights)
    want = [[field.coerce(sum(field.coerce(w) * q.entries[i][j]
                              for q, w in zip(quadrics, weights)))
             for j in range(size)] for i in range(size)]
    assert got.entries == want
    assert got == SymQuadric(field, want)


def test_form_container_methods_are_defined_once():
    for name in ("__init__", "zero", "is_zero", "__eq__", "add", "scale", "combination"):
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
        combine(fp, [[1, 2], [3]], [1, 1])
    with pytest.raises(DomainError):
        combine(fp, [[1, 2]], [1, 1])
