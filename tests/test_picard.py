from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qmod.errors import DomainError, InternalCheckError
from qmod.invariants import binom, enumerate_quad_cases, harris_tu_degree
from qmod.picard import (
    AT_LEAST,
    EXACT,
    ZERO,
    ChernPair,
    Coefficient,
    DivisorClass,
    _chern_combination,
    bn_class_15,
    boundary_indices,
    canonical_class,
    canonical_pair,
    chern_pair,
    fr_dp_class,
    fr_sigma_class,
    general_type_certificate,
    quad_class,
    quad_class_unscaled,
    solve_certificate_multipliers,
    symmetrized_pullback_sum,
    tilde_b,
    z_class_15_9,
)

from kernel_oracles import (
    chern_combination_by_walks,
    fr_dp_class_by_walks,
    fr_sigma_class_by_walks,
    quad_class_by_slots,
    quad_class_unscaled_by_slots,
)


def test_coefficient_kind_mixing():
    e = Coefficient.exact(3)
    lo = Coefficient.at_least(2)
    assert e.add(e).kind == EXACT
    assert e.add(lo).kind == AT_LEAST
    assert e.add(lo).value == 5
    assert lo.scale(0) == Coefficient.exact(0)
    assert e.scale(-2) == Coefficient.exact(-6)
    with pytest.raises(InternalCheckError):
        lo.scale(-1)
    with pytest.raises(InternalCheckError):
        Coefficient.at_least(0).scale(-1)
    assert e.as_bound().kind == AT_LEAST
    assert ZERO.add(lo) == lo.add(ZERO) == lo
    assert ZERO.add(e).kind == EXACT


def test_boundary_indices_respect_symmetry():
    idx = boundary_indices(15, 9)
    assert len(idx) == 8 + 7 * 10
    assert (0, 2) in idx and (0, 1) not in idx and (0, 0) not in idx
    for i, s in idx:
        assert 2 * i <= 15


def test_boundary_indices_are_strictly_increasing():
    # to_json_dict and the table write slots in stored order, which is this one.
    for g in range(2, 41):
        for n in range(13):
            idx = boundary_indices(g, n)
            assert all(a < b for a, b in zip(idx, idx[1:])), (g, n)


def test_every_class_keeps_its_slots_in_canonical_order():
    given = {key: 1 for key in reversed(boundary_indices(9, 4)[::3])}
    d = DivisorClass(9, 4, lam=1, b=given)
    cp = chern_pair(15, 8)
    classes = [
        d, d.add(d), d.scale(3), d.scale(0), d.boundary_as_bounds(),
        cp.c1_e, cp.c1_f, fr_sigma_class(chern_pair(11, 4), 4), fr_dp_class(cp),
        quad_class_unscaled(11, 4, 4), quad_class(40, 27, 6),
        symmetrized_pullback_sum(d), z_class_15_9(), canonical_class(7, 3), bn_class_15(),
    ]
    for c in classes:
        assert list(c.b) == boundary_indices(c.g, c.n), c


def test_divisor_class_build_and_algebra():
    d = DivisorClass(15, 2, lam=1, psi=2, b_irr=3, b={(0, 2): 4})
    assert d.psi == Coefficient.exact(2)
    assert d.b[(0, 2)] == Coefficient.exact(4)
    assert d.b[(1, 0)] == Coefficient.exact(0)
    doubled = d.scale(2)
    assert doubled.lam.value == 2
    total = d.add(doubled)
    assert total.b[(0, 2)].value == 12


def test_divisor_class_rejects_bad_slots():
    refusal = r"^coefficients at non-boundary slots: \[\(0, 1\), \(8, 0\)\]$"
    with pytest.raises(DomainError, match=refusal):
        DivisorClass(15, 2, lam=0, psi=0, b_irr=0, b={(8, 0): 1, (0, 2): 1, (0, 1): 1})
    with pytest.raises(DomainError):
        DivisorClass(15, 2, lam=0, psi=[1, 2, 3], b_irr=0, b={})


def test_divisor_class_keeps_one_psi():
    # With no markings there is no psi: any given value is dropped.
    assert DivisorClass(7, 0, psi=5) == DivisorClass(7, 0, psi=0)
    assert DivisorClass(7, 0, psi=5).psi is ZERO
    with pytest.raises(DomainError):
        DivisorClass(7, 2, psi=[1, 2])
    with pytest.raises(DomainError):
        DivisorClass(7, 2, psi=Coefficient.at_least(1))


def test_chern_pair_shapes():
    cp = chern_pair(15, 8)
    assert (cp.e, cp.f) == (7, 26)
    assert cp.c1_e.lam == Coefficient.exact(1)
    assert cp.c1_e.psi == Coefficient.exact(-1)
    assert cp.c1_f.lam == Coefficient.exact(13)
    assert cp.c1_f.b_irr == Coefficient.exact(1)
    with pytest.raises(DomainError):
        chern_pair(8, 8)


def test_quad_class_scaling_example():
    alpha = harris_tu_degree(7, 4)
    assert alpha == 294
    cls = quad_class(11, 4, 4)
    uns = quad_class_unscaled(11, 4, 4)
    assert uns.lam.value == Fraction(47, 7)
    assert cls.lam.value == alpha * Fraction(47, 7)
    assert cls.b_irr == Coefficient.exact(alpha)
    # psi coefficient follows (g+n-6)/(g-n) scaled by alpha.
    assert uns.psi.value == Fraction(11 + 4 - 6, 7)


def test_quad_class_slot_kinds():
    cls = quad_class(11, 4, 4)
    for (i, s), c in cls.b.items():
        if i == 0 and s >= 2:
            assert c.kind == EXACT
        elif i < s:
            assert c.kind == AT_LEAST
        else:
            assert c.kind == AT_LEAST
            assert c.value == cls.b_irr.value * 1


@pytest.mark.parametrize("g, n, k", enumerate_quad_cases(40))
def test_quad_class_matches_the_slot_by_slot_route(g, n, k):
    # Coefficient equality compares the kind as well as the value.
    assert quad_class(g, n, k) == quad_class_by_slots(g, n, k)
    assert quad_class_unscaled(g, n, k) == quad_class_unscaled_by_slots(g, n, k)


def test_class_scale_keeps_shared_slots_shared():
    shared = Coefficient.at_least(Fraction(3, 2))
    c = DivisorClass(9, 3, lam=1, psi=2, b=dict.fromkeys(boundary_indices(9, 3), shared))
    scaled = c.scale(Fraction(2, 7))
    assert len({id(v) for v in scaled.b.values()}) == 1
    assert scaled.psi == Coefficient.exact(Fraction(4, 7))
    assert scaled.b[(1, 0)] == Coefficient.at_least(Fraction(3, 7))


def test_negative_scale_refuses_a_shared_lower_bound():
    shared = Coefficient.at_least(1)
    c = DivisorClass(9, 3, lam=1, b=dict.fromkeys(boundary_indices(9, 3), shared))
    with pytest.raises(InternalCheckError):
        c.scale(-1)
    assert c.scale(2).b[(1, 0)] == Coefficient.at_least(2)


def test_quad_class_requires_family_membership():
    with pytest.raises(DomainError):
        quad_class(12, 4, 4)
    with pytest.raises(DomainError):
        quad_class(11, 4, 5)


def test_tilde_b_zero_section_closed_form():
    for g, n in ((11, 4), (15, 6), (16, 9)):
        for s in range(0, 8):
            want = Fraction(s * ((g - 3) * s + n - 3), g - n)
            assert tilde_b(g, n, 0, s) == want


def _dp_tilde_b(i, s):
    # Oracle: the (g, n) = (15, 8) specialization of tilde_b, written out
    # and scaled by the bundle rank g - n = 7.
    return -2 * i * i + i * (9 - 10 * s) + s * (12 * s + 5)


def test_dp_tilde_b_values():
    assert _dp_tilde_b(0, 1) == 17
    for i in range(20):
        for s in range(20):
            assert 7 * tilde_b(15, 8, i, s) == _dp_tilde_b(i, s)
    for s in range(1, 9):
        for i in range(0, s):
            assert tilde_b(15, 8, i, s) >= 1


def test_dp_class_is_the_advertised_combination():
    cls = fr_dp_class(chern_pair(15, 8))
    # 6 * (39 lambda + 17 sum psi - 7 delta) on all boundary parts.
    want = DivisorClass(
        15, 8, lam=6 * 39, psi=6 * 17, b_irr=6 * 7,
        b={key: 6 * 7 for key in boundary_indices(15, 8)})
    assert cls == want
    assert all(c.kind == EXACT for c in cls.b.values())


def test_dp_class_needs_the_right_slice():
    with pytest.raises(DomainError):
        fr_dp_class(chern_pair(15, 6))


def test_sigma_class_calibration():
    cp = chern_pair(15, 6)
    cls = fr_sigma_class(cp, 4)
    alpha = Fraction(harris_tu_degree(9, 4))
    assert cls.lam.value == alpha * Fraction(7 * 15 - 9 * 6 + 6, 9)
    assert cls.psi.value == alpha * Fraction(15 + 6 - 6, 9)
    with pytest.raises(DomainError):
        fr_sigma_class(cp, 5)


def _same_layout(c, d) -> bool:
    """Equal values and kinds in every slot, and the same slot order."""
    return c == d and list(c.b) == list(d.b)


@pytest.mark.parametrize("g, n, k", enumerate_quad_cases(40))
def test_sigma_class_matches_the_three_walk_route(g, n, k):
    cp = chern_pair(g, n)
    cls = fr_sigma_class(cp, k)
    assert _same_layout(cls, fr_sigma_class_by_walks(cp, k))
    # At alpha = 1 it is the same class at unit scale.
    unit = fr_sigma_class(cp, k, 1)
    assert _same_layout(unit.scale(harris_tu_degree(g - n, k)), cls)


@given(st.sampled_from(enumerate_quad_cases(80)))
def test_sigma_class_matches_the_three_walk_route_on_random_cases(case):
    g, n, k = case
    cp = chern_pair(g, n)
    assert _same_layout(fr_sigma_class(cp, k), fr_sigma_class_by_walks(cp, k))


@given(st.integers(5, 14))
@example(7)  # (15, 8), the slice z_class_15_9 pulls back
def test_dp_class_matches_the_three_walk_route(e):
    # The pencil calibration f = binom(e+1, 2) - 2 fixes n = binom(e+1, 2) - 3e + 1.
    n = binom(e + 1, 2) - 3 * e + 1
    cp = chern_pair(e + n, n)
    assert _same_layout(fr_dp_class(cp), fr_dp_class_by_walks(cp))


def test_z_class_values():
    z = z_class_15_9()
    assert z.lam == Coefficient.exact(351)
    assert z.psi == Coefficient.exact(136)
    assert z.b_irr == Coefficient.exact(63)
    assert z.b[(0, 2)] == Coefficient.at_least(83)
    assert z.b[(0, 3)] == Coefficient.at_least(63)
    assert z.b[(3, 5)] == Coefficient.at_least(63)


def test_canonical_class_values():
    k = canonical_class(15, 9)
    assert k.lam == Coefficient.exact(13)
    assert k.psi == Coefficient.exact(1)
    assert k.b_irr == Coefficient.exact(2)
    assert k.b[(0, 2)] == Coefficient.exact(2)
    assert k.b[(1, 4)] == Coefficient.exact(3)
    assert k.b[(2, 4)] == Coefficient.exact(2)


def test_bn_class_values():
    bn = bn_class_15()
    assert bn.lam == Coefficient.exact(54)
    assert bn.b_irr == Coefficient.exact(8)
    assert all(c == Coefficient.at_least(0) for c in bn.b.values())


small_class = st.builds(
    lambda lam, psi, b_irr, b02: DivisorClass(
        7, 2, lam=lam, psi=psi, b_irr=b_irr, b={(0, 2): b02}),
    st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))


@given(small_class, small_class)
def test_pullback_is_additive(a, b):
    assert (symmetrized_pullback_sum(a.add(b))
            == symmetrized_pullback_sum(a).add(symmetrized_pullback_sum(b)))


@given(small_class, st.integers(-5, 5))
def test_pullback_commutes_with_scaling(a, c):
    assert symmetrized_pullback_sum(a).scale(c) == symmetrized_pullback_sum(a.scale(c))


def _canon(g, pts, i, S):
    """Representative (i, S) of delta_{i:S} on the marked points pts."""
    C = pts - S
    if 2 * i > g or (2 * i == g and (len(C), sorted(C)) < (len(S), sorted(S))):
        return g - i, C
    return i, S


def _divisors(g, pts):
    """Every boundary divisor delta_{i:S} on pts, once, as canonical keys."""
    n = len(pts)
    return {_canon(g, pts, i, frozenset(S))
            for i in range(g + 1) for s in range(n + 1)
            for S in combinations(sorted(pts), s)
            if not (i == 0 and s < 2) and not (i == g and n - s < 2)}


def brute_pullback_sum(c):
    """Per-subset reference for symmetrized_pullback_sum: pull back along
    each forgetful map pi_j subset by subset, then read off (i, s) slots."""
    g, n = c.g, c.n
    pts = frozenset(range(1, n + 2))
    b = {key: ZERO for key in _divisors(g, pts)}
    psi = {k: ZERO for k in pts}
    for j in pts:
        base = pts - {j}
        for i, S in _divisors(g, base):
            coeff = c.b[canonical_pair(g, n, i, len(S))]
            # S and S+j name one divisor only for n = 0, 2i = g: count it once
            for key in {_canon(g, pts, i, S), _canon(g, pts, i, S | {j})}:
                b[key] = b[key].add(coeff)
        for k in base:
            psi[k] = psi[k].add(c.psi)
            key = _canon(g, pts, 0, frozenset({k, j}))
            b[key] = b[key].add(c.psi)
    slots = {}
    for (i, S), coeff in b.items():
        slots.setdefault(canonical_pair(g, n + 1, i, len(S)), set()).add(coeff)
    assert all(len(v) == 1 for v in slots.values()), "orbit not constant"
    assert len(set(psi.values())) == 1, "markings differ in psi"
    return DivisorClass(g, n + 1, lam=c.lam.scale(n + 1), psi=psi[1],
                        b_irr=c.b_irr.scale(n + 1), b={k: v.pop() for k, v in slots.items()})


slot_coeff = st.one_of(
    st.just(ZERO),
    st.integers(-9, 9).map(Coefficient.exact),
    st.integers(-9, 9).map(Coefficient.at_least))


@st.composite
def symmetric_class(draw, g=None, n=None):
    g = draw(st.integers(2, 8)) if g is None else g
    n = draw(st.integers(1, 5)) if n is None else n
    b = {key: draw(slot_coeff) for key in boundary_indices(g, n)}
    return DivisorClass(g, n, lam=draw(st.integers(-9, 9)),
                        psi=draw(st.integers(-9, 9)),
                        b_irr=draw(slot_coeff), b=b)


@given(symmetric_class())
def test_pullback_sum_matches_per_subset_oracle(c):
    assert symmetrized_pullback_sum(c) == brute_pullback_sum(c)


scalar = st.one_of(st.just(Fraction(0)), st.integers(-5, 5).map(Fraction),
                   st.fractions(min_value=-5, max_value=5, max_denominator=12))


def _slotwise(op, *cs):
    """Reference for class arithmetic: op applied coefficient by coefficient."""
    c0 = cs[0]
    return DivisorClass(c0.g, c0.n, lam=op(*(c.lam for c in cs)),
                        psi=op(*(c.psi for c in cs)),
                        b_irr=op(*(c.b_irr for c in cs)),
                        b={k: op(*(c.b[k] for c in cs)) for k in c0.b})


def _outcome(thunk):
    """thunk's result, or the message of the InternalCheckError it raised."""
    try:
        return thunk()
    except InternalCheckError as exc:
        return ("InternalCheckError", str(exc))


@given(st.data(), scalar, scalar)
def test_chern_combination_matches_scale_then_add(data, a, b):
    # Bound kinds in every boundary slot of both classes, and weights of
    # either sign: the one walk keeps every rule of scale-then-add.
    f_cls = data.draw(symmetric_class())
    e_cls = data.draw(symmetric_class(f_cls.g, f_cls.n))
    cp = ChernPair(f_cls.g, f_cls.n, e_cls, f_cls, 0, 0)
    got = _outcome(lambda: _chern_combination(cp, a, b))
    want = _outcome(lambda: chern_combination_by_walks(cp, a, b))
    if isinstance(want, DivisorClass):
        assert _same_layout(got, want)
    else:
        assert got == want


wide = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6)


@given(st.one_of(st.just(Fraction(0)), wide), wide, st.sampled_from([EXACT, AT_LEAST]))
def test_coefficient_scale_is_the_fraction_product(a, v, kind):
    c = Coefficient(kind, v)
    if a < 0 and kind == AT_LEAST:
        with pytest.raises(InternalCheckError, match="loses the bound"):
            c.scale(a)
    else:
        out = c.scale(a)
        assert out.value == a * v and type(out.value) is Fraction
        assert out.kind == (kind if a else EXACT)


@given(symmetric_class(), st.one_of(st.just(Fraction(0)), wide))
def test_class_scale_is_the_fraction_product(c, a):
    if a < 0 and any(v.kind == AT_LEAST for v in (c.b_irr, *c.b.values())):
        with pytest.raises(InternalCheckError, match="loses the bound"):
            c.scale(a)
        return
    out = c.scale(a)
    want = _slotwise(lambda v: Coefficient(v.kind, a * v.value) if a else ZERO, c)
    assert _same_layout(out, want)


@given(symmetric_class(), scalar)
def test_class_scale_matches_slotwise_scale(c, a):
    assert _outcome(lambda: c.scale(a)) == _outcome(lambda: _slotwise(lambda v: v.scale(a), c))


@given(st.data())
def test_class_add_matches_slotwise_add(data):
    c = data.draw(symmetric_class())
    d = data.draw(symmetric_class(c.g, c.n))
    assert c.add(d) == _slotwise(Coefficient.add, c, d)


def test_coefficient_equality_and_hash_agree():
    # Equal and hashed by (kind, value), whatever spelling built the value.
    a, b = Coefficient.exact(Fraction(4, 2)), Coefficient(EXACT, 2)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    bound = Coefficient.at_least(2)
    assert bound != a and len({a, bound, Coefficient.exact(3)}) == 3
    assert a != (EXACT, Fraction(2))


def test_unknown_coefficient_kind_is_refused():
    with pytest.raises(DomainError, match="^unknown coefficient kind 'upper'$"):
        Coefficient("upper", 1)


def test_negative_scale_refuses_a_zero_lower_bound():
    c = DivisorClass(4, 1, lam=1, b={(1, 0): Coefficient.at_least(0)})
    with pytest.raises(InternalCheckError):
        c.scale(Fraction(-1, 2))
    assert c.scale(3).b[(1, 0)] == Coefficient.at_least(0)
    assert c.scale(0) == DivisorClass(4, 1)


@pytest.mark.parametrize("make", [
    lambda: Coefficient.exact(0.1),
    lambda: Coefficient.at_least(True),
    lambda: Coefficient(EXACT, 0.5),
    lambda: Coefficient.exact(1).scale(0.5),
    lambda: DivisorClass(3, 1, lam=1).scale(0.1),
    lambda: DivisorClass(3, 1, lam=1).scale(True),
    lambda: general_type_certificate(25 / 297, Fraction(2, 297), Fraction(13, 66)),
    lambda: solve_certificate_multipliers(13 / 66),
], ids=["exact", "at_least", "constructor", "coeff-scale", "class-scale",
        "class-scale-bool", "certificate", "solve"])
def test_floats_and_bools_are_refused(make):
    with pytest.raises(DomainError):
        make()


@pytest.mark.parametrize("g, n", [(4, 1), (4, 2), (6, 3), (2, 1)])
def test_pullback_sum_even_genus(g, n):
    b = {key: Coefficient.at_least(k + 1) if k % 2 else k + 2
         for k, key in enumerate(boundary_indices(g, n))}
    c = DivisorClass(g, n, lam=1, psi=3, b_irr=2, b=b)
    assert symmetrized_pullback_sum(c) == brute_pullback_sum(c)


@pytest.mark.parametrize("g", [2, 4, 6])
def test_pullback_sum_counts_the_middle_divisor_once(g):
    # On (g, 1) delta_{g/2:{}} and delta_{g/2:{1}} are one divisor.
    c = DivisorClass(g, 0, b={(g // 2, 0): Coefficient.at_least(5)})
    out = symmetrized_pullback_sum(c)
    assert out.b[(g // 2, 0)] == Coefficient.at_least(5)
    assert out == brute_pullback_sum(c)


def test_pullback_sum_even_genus_values():
    b = {(0, 2): 2, (1, 0): 3, (1, 1): 5, (1, 2): 7, (2, 0): 11, (2, 1): 13}
    out = symmetrized_pullback_sum(DivisorClass(4, 2, lam=1, psi=1, b_irr=1, b=b))
    want = {(0, 2): 4, (0, 3): 6, (1, 0): 9, (1, 1): 13, (1, 2): 17, (1, 3): 21,
            (2, 0): 33, (2, 1): 37}
    assert out == DivisorClass(4, 3, lam=3, psi=2, b_irr=3, b=want)


def test_symmetrized_pullback_sum_stays_symmetric():
    d = DivisorClass(7, 2, lam=3, psi=1, b_irr=2, b={(0, 2): 5, (1, 1): 4})
    out = symmetrized_pullback_sum(d)
    assert out.g == 7 and out.n == 3
    assert out.psi == Coefficient.exact(2)


def test_certificate_holds_at_default_multipliers():
    rep = general_type_certificate(
        Fraction(25, 297), Fraction(2, 297), Fraction(13, 66))
    assert rep.passed
    assert rep.lambda_residual == 0
    assert rep.psi_residual == 0
    assert rep.e_irr == 0
    required = {str(s.required_bound) for s in rep.boundary
                if s.required_bound is not None}
    assert required == {"297", "891/2"}


def test_certificate_solver_recovers_multipliers():
    x, y = solve_certificate_multipliers(Fraction(13, 66))
    assert (x, y) == (Fraction(25, 297), Fraction(2, 297))


def test_certificate_fails_off_the_solution_line():
    rep = general_type_certificate(
        Fraction(25, 297), Fraction(2, 297), Fraction(1, 5))
    assert not rep.passed


def test_certificate_rejects_nonpositive_multipliers():
    with pytest.raises(DomainError):
        general_type_certificate(Fraction(-1), Fraction(2, 297), Fraction(13, 66))
