import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmod.binforms import BinaryForm
from qmod.cli import main
from qmod.errors import ConfigurationError, DomainError, FieldMismatchError
from qmod.fields import QQ, DEFAULT_PRIME, PrimeField, derived_rng
from qmod.invariants import expected_dim_q
from qmod.linalg import Matrix
from qmod import linalg, quadlab
from qmod.quadlab import (
    ParamCurve,
    PencilDecomposition,
    QuadricSystem,
    SymQuadric,
    _PRODUCTS,
    _jacobian_rows,
    _product,
    bounded_rank_quadric,
    expected_family_dim,
    family_dimension,
    form_matrix_det,
    genus4_check,
    genus5_net_check,
    i2_basis,
    net_discriminant,
    random_decomposition,
    rank3_strata,
    rank4_strata,
    rnc_i2_dim,
    secant_condition,
    upper_pairs,
)
from qmod.surface import pencil_discriminant
from qmod.ternary import TernaryForm

from kernel_oracles import combo_row, linear_combination

FP = PrimeField(DEFAULT_PRIME)


def test_upper_pairs_order():
    assert upper_pairs(3) == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def test_sym_quadric_round_trip():
    rng = random.Random(1)
    for size in (2, 4, 6):
        coeffs = [FP.random_element(rng) for _ in range(size * (size + 1) // 2)]
        q = SymQuadric.from_upper_coeffs(FP, size, coeffs)
        assert q.upper_coeffs() == coeffs


def test_sym_quadric_evaluation_matches_matrix_product():
    rng = random.Random(3)
    coeffs = [FP.random_element(rng) for _ in range(10)]
    q = SymQuadric.from_upper_coeffs(FP, 4, coeffs)
    x = [FP.random_element(rng) for _ in range(4)]
    direct = sum(q.entries[i][j] * x[i] * x[j] for i in range(4) for j in range(4))
    assert q.evaluate(x) == direct % FP.p


def test_sym_quadric_requires_symmetry():
    with pytest.raises(DomainError):
        SymQuadric(FP, [[0, 1], [2, 0]])


def test_sym_quadric_over_qq_stores_fractions():
    q = SymQuadric(QQ, [[1, 0], [0, Fraction(1, 2)]])
    assert all(type(x) is Fraction for row in q.entries for x in row)


@pytest.mark.parametrize("field, entries", [
    (PrimeField(7), [[9, -1], [-1, 1]]),  # unreduced residues
    (QQ, [[True, 0], [0, 1]]),
    (FP, [[True, 0], [0, 1]]),
    (QQ, [["1/2", 0], [0, 1]]),
])
def test_checked_containers_refuse_non_elements(field, entries):
    flat = [x for row in entries for x in row]
    with pytest.raises(FieldMismatchError):
        SymQuadric(field, entries)
    with pytest.raises(FieldMismatchError):
        Matrix.from_rows(field, entries)
    with pytest.raises(FieldMismatchError):
        BinaryForm(field, 3, flat)
    with pytest.raises(FieldMismatchError):
        TernaryForm(field, 1, flat[:3])


def test_rank_of_diagonal():
    q = SymQuadric(QQ, [[Fraction(2), Fraction(0), Fraction(0)],
                        [Fraction(0), Fraction(0), Fraction(0)],
                        [Fraction(0), Fraction(0), Fraction(5)]])
    assert q.rank() == 2


def test_rational_normal_curve_is_monomial():
    c = ParamCurve.rational_normal(FP, 5)
    assert c.is_monomial_basis()
    t = FP.coerce(7)
    assert c.evaluate(t) == [pow(7, i, FP.p) for i in range(6)]


@pytest.mark.parametrize("field", [FP, QQ])
def test_monomial_basis_rejects_scaled_or_swapped_components(field):
    r = 4
    comps = ParamCurve.rational_normal(field, r).components
    scaled = comps[:2] + [comps[2].scale(field.coerce(3))] + comps[3:]
    swapped = [comps[1], comps[0]] + comps[2:]
    assert ParamCurve(field, r, comps).is_monomial_basis()
    assert not ParamCurve(field, r, scaled).is_monomial_basis()
    assert not ParamCurve(field, r, swapped).is_monomial_basis()


def test_curve_rejects_shared_component_root():
    t = BinaryForm(FP, 1, [0, 1])
    comps = [t.mul(BinaryForm(FP, 1, [i + 1, 1])) for i in range(4)]
    with pytest.raises(DomainError):
        ParamCurve(FP, 3, comps)


def test_curve_over_small_field_with_constant_gcd_is_accepted():
    # Over F_3 random combinations of these components often share a root
    # although the components do not; only their gcd decides.
    f3 = PrimeField(3)
    comps = [BinaryForm(f3, 2, c) for c in ([0, 1, 1], [0, 0, 2], [2, 2, 1], [1, 2, 2])]
    ParamCurve(f3, 3, comps)


@pytest.mark.parametrize("field", [PrimeField(3), FP, QQ])
def test_curve_rejects_zero_or_lone_components(field):
    zero = BinaryForm(field, 2, [0, 0, 0])
    lone = BinaryForm(field, 2, [1, 0, 1])
    for comps in ([zero] * 4, [zero, lone, zero, zero]):
        with pytest.raises(DomainError):
            ParamCurve(field, 3, comps)


@given(st.sampled_from([3, 5, 7]), st.integers(1, 2),
       st.lists(st.integers(0, 6), min_size=12, max_size=12))
def test_curve_rejects_every_common_factor(p, k, coeffs):
    # Components sharing a nonconstant factor are rejected over any field,
    # however few elements it has to draw from.
    field = PrimeField(p)
    shared = BinaryForm(field, k, [1] + [field.coerce(c) for c in coeffs[:k]])
    comps = [shared.mul(BinaryForm(field, 2, [field.coerce(c) for c in coeffs[3 * i:3 * i + 3]]))
             for i in range(4)]
    with pytest.raises(DomainError):
        ParamCurve(field, 3, comps)


def _plain_kernel_dim(rows):
    work = [[Fraction(x) for x in row] for row in rows]
    cols = len(work[0])
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [inv * v for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                c = work[i][col]
                work[i] = [a - c * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return cols - rank


def test_twisted_cubic_quadrics_against_plain_elimination():
    # Rebuild the 7 x 10 evaluation matrix from scratch over the
    # rationals and reduce it with the local textbook routine.
    pairs = upper_pairs(4)
    rows = []
    for t in range(7):
        point = [t ** i for i in range(4)]
        row = []
        for i, j in pairs:
            v = point[i] * point[j]
            row.append(v if i == j else 2 * v)
        rows.append(row)
    oracle = _plain_kernel_dim(rows)
    assert oracle == 3
    assert i2_basis(ParamCurve.rational_normal(QQ, 3)).dim == oracle


def test_quadric_system_dimensions():
    for r in (3, 4, 6):
        assert i2_basis(ParamCurve.rational_normal(FP, r)).dim == rnc_i2_dim(r)
    assert rnc_i2_dim(6) == 15


def test_i2_needs_no_evaluation_nodes(capsys):
    # The kernel is taken on product coefficients, so a prime below the
    # 2d + 1 parameter values an evaluation route would need is no obstacle.
    assert i2_basis(ParamCurve.rational_normal(PrimeField(5), 3)).dim == 3
    assert i2_basis(ParamCurve.rational_normal(PrimeField(3), 4)).dim == 6
    assert main(["rnc-i2", "--r", "3", "--prime", "5"]) == 0
    assert capsys.readouterr().out == "dim I2 = 3 (expected 3)\n"


def _i2_by_evaluation(c):
    # Test oracle: the evaluation route.  A quadric restricted to the curve
    # is a binary form of degree 2d, so vanishing at the parameter values
    # t = 0 .. 2d (distinct once p > 2d) forces it to vanish.  The matrices
    # are assembled here with the halving written out, independently of
    # SymQuadric.from_upper_coeffs.
    field = c.field
    pairs = upper_pairs(c.r + 1)
    rows = []
    for t in range(2 * c.degree + 1):
        pt = c.evaluate(t)
        rows.append([field.coerce(pt[i] * pt[j]) for (i, j) in pairs])
    half = field.inv(field.coerce(2))
    out = []
    for v in Matrix(field, len(rows), len(pairs), rows).kernel_basis():
        m = [[field.zero] * (c.r + 1) for _ in range(c.r + 1)]
        for (i, j), x in zip(pairs, v):
            m[i][j] = m[j][i] = field.coerce(x) if i == j else field.coerce(half * x)
        out.append(m)
    return out


@st.composite
def _param_curves(draw):
    field = draw(st.sampled_from([QQ, PrimeField(101), FP]))
    r = draw(st.integers(min_value=3, max_value=6))
    d = draw(st.integers(min_value=r, max_value=r + 2))
    coeffs = st.lists(st.integers(min_value=-1000, max_value=1000),
                      min_size=d + 1, max_size=d + 1)
    comps = [BinaryForm(field, d, [field.coerce(x) for x in draw(coeffs)])
             for _ in range(r + 1)]
    try:
        c = ParamCurve(field, r, comps)
    except DomainError:  # the components share a root
        assume(False)
    assume(not c.is_monomial_basis())
    return c


@given(_param_curves())
def test_i2_basis_matches_evaluation_oracle(c):
    assert [q.entries for q in i2_basis(c).basis] == _i2_by_evaluation(c)


def test_i2_needs_honest_ambient_dimension():
    with pytest.raises(DomainError):
        i2_basis(ParamCurve.rational_normal(FP, 1))


def test_independence_is_read_off_the_entries(monkeypatch):
    # QuadricSystem tests the members' matrix entries, not their doubled
    # form coefficients.
    calls = []
    original = SymQuadric.upper_coeffs

    def spy(q):
        calls.append(q)
        return original(q)

    monkeypatch.setattr(SymQuadric, "upper_coeffs", spy)
    for r in (3, 4, 6):
        for field in (FP, QQ):
            assert i2_basis(ParamCurve.rational_normal(field, r)).dim == rnc_i2_dim(r)
    assert calls == []


def test_quadric_system_rejects_dependent_basis():
    rng = random.Random(7)
    q = SymQuadric.from_upper_coeffs(
        FP, 4, [FP.random_element(rng) for _ in range(10)])
    with pytest.raises(DomainError):
        QuadricSystem(FP, 3, [q, linear_combination(FP, [q], [2])])


@st.composite
def _bases(draw):
    # Zero-heavy entries give members with and without witness columns;
    # an appended combination of earlier members makes the basis dependent.
    field = draw(st.sampled_from([PrimeField(7), PrimeField(65537), FP, QQ]))
    n = len(upper_pairs(4))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                      st.integers(-10**20, 10**20))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=1, max_size=5))
    rows = [[field.coerce(x) for x in row] for row in rows]
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                                max_size=len(rows)))
        rows.append([field.coerce(sum(w * x for w, x in zip(weights, col)))
                     for col in zip(*rows)])
    return field, rows


@settings(max_examples=150)
@given(_bases())
def test_quadric_system_accepts_exactly_the_independent_bases(fb):
    field, rows = fb
    basis = [SymQuadric.from_upper_coeffs(field, 4, row) for row in rows]
    independent = Matrix(field, len(rows), len(rows[0]), rows).rank() == len(rows)
    try:
        QuadricSystem(field, 3, basis)
    except DomainError as exc:
        assert "linearly dependent" in str(exc)
        assert not independent
    else:
        assert independent


def test_i2_basis_runs_one_elimination(monkeypatch):
    # The kernel's own rref; its free columns prove the basis independent.
    calls = []
    rref = Matrix.rref

    def counted(self):
        calls.append((self.rows, self.cols))
        return rref(self)

    monkeypatch.setattr(Matrix, "rref", counted)
    for field in (QQ, FP):
        calls.clear()
        assert i2_basis(ParamCurve.rational_normal(field, 6)).dim == 15
        assert calls == [(13, 28)]


def test_quadric_system_accepts_independent_basis_without_witnesses():
    rng = random.Random(11)
    q1, q2 = (SymQuadric.from_upper_coeffs(
        FP, 4, [FP.random_element(rng) for _ in range(10)]) for _ in range(2))
    basis = [q1, linear_combination(FP, [q1, q2], [1, 1])]
    # Every column is nonzero in both members, so only the rank decides.
    assert all(all(col) for col in zip(*(q.upper_coeffs() for q in basis)))
    assert QuadricSystem(FP, 3, basis).dim == 2


def _coordinates(system, q):
    # Coefficients expressing q over the system's basis, None outside it.
    cols = [b.upper_coeffs() for b in system.basis]
    m = Matrix(system.field, len(cols[0]), len(cols), [list(row) for row in zip(*cols)])
    return m.solve(q.upper_coeffs())


def test_quadric_system_membership():
    system = i2_basis(ParamCurve.rational_normal(FP, 4))
    coeffs = [1, 2, 3, 4, 5, 6][: system.dim]
    member = linear_combination(FP, system.basis, coeffs)
    assert _coordinates(system, member) == coeffs
    outsider = SymQuadric.from_upper_coeffs(FP, 5, [1] + [0] * 14)
    assert _coordinates(system, outsider) is None


def test_rank3_construction_on_split_pencil():
    # f = s, g = t, h = s t on the rational normal quartic.
    c = ParamCurve.rational_normal(FP, 4)
    pd = PencilDecomposition(
        BinaryForm(FP, 1, [1, 0]), BinaryForm(FP, 1, [0, 1]), None, None,
        BinaryForm(FP, 2, [0, 1, 0]))
    q = bounded_rank_quadric(pd, c)
    assert q.rank() <= 3
    for t in range(9):
        assert q.evaluate(c.evaluate(t)) == 0


def test_rank3_degenerate_pencil_collapses():
    c = ParamCurve.rational_normal(FP, 4)
    f = BinaryForm(FP, 1, [2, 3])
    pd = PencilDecomposition(f, f, None, None, BinaryForm(FP, 2, [1, 1, 1]))
    assert bounded_rank_quadric(pd, c).rank() <= 1


def test_rank3_generic_rank_is_three():
    c = ParamCurve.rational_normal(FP, 6)
    rng = derived_rng(0, "unit-rank3")
    hits = 0
    for _ in range(20):
        pd = random_decomposition(FP, 6, 3, 0, rng)
        if bounded_rank_quadric(pd, c).rank() == 3:
            hits += 1
    assert hits == 20


def test_rank4_equal_second_pencil_gives_zero():
    c = ParamCurve.rational_normal(FP, 6)
    rng = derived_rng(0, "unit-rank4-zero")
    f = BinaryForm(FP, 2, [FP.random_element(rng) for _ in range(3)])
    g = BinaryForm(FP, 2, [FP.random_element(rng) for _ in range(3)])
    u = BinaryForm(FP, 2, [FP.random_element(rng) for _ in range(3)])
    h = BinaryForm(FP, 2, [FP.random_element(rng) for _ in range(3)])
    pd = PencilDecomposition(f, g, u, u, h)
    assert not any(map(any, bounded_rank_quadric(pd, c).entries))


def test_rank4_with_matching_pencils_reduces_to_rank3():
    c = ParamCurve.rational_normal(FP, 6)
    rng = derived_rng(0, "unit-rank4-match")
    f = BinaryForm(FP, 2, [FP.random_element(rng) for _ in range(3)])
    g = BinaryForm(FP, 2, [FP.random_element(rng) for _ in range(3)])
    h = BinaryForm(FP, 2, [FP.random_element(rng) for _ in range(3)])
    four = bounded_rank_quadric(PencilDecomposition(f, g, f, g, h), c)
    three = bounded_rank_quadric(PencilDecomposition(f, g, None, None, h), c)
    assert four == three


def test_rank4_generic_rank_is_four():
    c = ParamCurve.rational_normal(FP, 6)
    rng = derived_rng(0, "unit-rank4")
    for stratum in ((2, 2, 2), (1, 2, 3), (3, 3, 0)):
        for _ in range(5):
            pd = random_decomposition(FP, 6, 4, stratum, rng)
            q = bounded_rank_quadric(pd, c)
            assert q.rank() == 4
            for t in range(13):
                assert q.evaluate(c.evaluate(t)) == 0


# Coefficients of f, g, u, v, h drawn from derived_rng(0, "unit-frozen-draw", k)
# for the strata x = 2 (rank 3) and (2, 2, 2) (rank 4) in P^6.  Every seeded
# family dimension and quadric-lab instance depends on this draw order.
FROZEN_DRAWS = {
    (3, 2): [
        [1874563505606189166, 7489059237785175, 1920967470838730226],
        [848110224505624683, 1637612053527793472, 1148600688395426078],
        None,
        None,
        [849327605708842115, 2300354783945275660, 2258064815276775487],
    ],
    (4, (2, 2, 2)): [
        [1839930521663148105, 11013443093126565, 267980861952752017],
        [1076126641960373894, 1737591242697891383, 952678054278394589],
        [1010627701501582533, 84773018262287355, 196750959031570158],
        [937874147782713733, 1265252937745604525, 2007436635957478321],
        [1326343283398009240, 1930716327438369099, 1104168681766510177],
    ],
}


@pytest.mark.parametrize("k, stratum", list(FROZEN_DRAWS))
def test_random_decomposition_keeps_the_draw_order(k, stratum):
    pd = random_decomposition(FP, 6, k, stratum, derived_rng(0, "unit-frozen-draw", k))
    got = [None if form is None else list(form.coeffs)
           for form in (pd.f, pd.g, pd.u, pd.v, pd.h)]
    assert got == FROZEN_DRAWS[k, stratum]


def test_bounded_rank_quadric_refusals():
    # One degree condition for both ranks, deg f + deg u + deg h = deg c,
    # with u read as f when there is no second pencil.
    c = ParamCurve.rational_normal(FP, 6)
    lin, quad = BinaryForm(FP, 1, [1, 2]), BinaryForm(FP, 2, [1, 0, 3])
    with pytest.raises(DomainError, match="deg f \\+ deg u \\+ deg h"):
        bounded_rank_quadric(PencilDecomposition(lin, lin, None, None, quad), c)
    with pytest.raises(DomainError, match="deg f \\+ deg u \\+ deg h"):
        bounded_rank_quadric(PencilDecomposition(lin, lin, quad, quad, lin), c)
    assert bounded_rank_quadric(PencilDecomposition(quad, quad, None, None, quad),
                                c).rank() <= 1
    quintic = BinaryForm(FP, 5, [0, 1, 0, 0, 0, 0])
    with pytest.raises(DomainError, match="at least 1"):
        bounded_rank_quadric(PencilDecomposition(
            BinaryForm(FP, 0, [1]), BinaryForm(FP, 0, [2]), lin, lin, quintic), c)
    twisted = ParamCurve(FP, 6, [BinaryForm.monomial(FP, 6, 6 - i) for i in range(7)])
    with pytest.raises(DomainError, match="monomial curve"):
        bounded_rank_quadric(PencilDecomposition(quad, quad, None, None, quad), twisted)


def _perturbation_jacobian_rows(field, r, pd):
    # Row for coefficient j of member P: the t-linear part of the
    # coefficients of Q(P + t e_j), with members in the order f, g, u, v, h.
    # A member occurs at most twice in A B and at most twice in C D, so Q
    # has degree at most 2 in t and its t-linear part is the central
    # difference (Q(1) - Q(-1)) / 2.
    curve = ParamCurve.rational_normal(field, r)
    half = field.inv(2)
    rows = []
    for name in ("f", "g", "u", "v", "h"):
        form = getattr(pd, name)
        if form is None:
            continue
        for j in range(form.degree + 1):
            step = BinaryForm.monomial(field, form.degree, j)
            plus, minus = (bounded_rank_quadric(replace(pd, **{name: form.add(step.scale(t))}),
                                                curve).upper_coeffs() for t in (1, -1))
            rows.append([field.coerce((x - y) * half) for x, y in zip(plus, minus)])
    return rows


@pytest.mark.parametrize("k", [3, 4])
def test_jacobian_rows_match_perturbation_oracle(k):
    rng = derived_rng(0, "unit-jacobian-oracle", k)
    for r in range(2, 10):
        strata = rank3_strata(r) if k == 3 else rank4_strata(r)
        for pd in (random_decomposition(FP, r, k, s, rng) for s in strata):
            # The rows are exact sums, reduced only by their consumer.
            reduced = [[FP.coerce(x) for x in row] for row in _jacobian_rows(r, pd)]
            assert reduced == _perturbation_jacobian_rows(FP, r, pd)


@pytest.mark.parametrize("field", [FP, PrimeField(101), QQ], ids=repr)
@pytest.mark.parametrize("k", [3, 4])
def test_bounded_rank_quadric_matches_combo_row_oracle(field, k):
    # The quadric's coefficients against the per-entry sum of
    # l(A) l(B) - l(C) l(D), on random decompositions of every stratum.
    rng = derived_rng(0, "unit-combo-oracle", k)
    for r in range(3, 10):
        curve = ParamCurve.rational_normal(field, r)
        for s in rank3_strata(r) if k == 3 else rank4_strata(r):
            pd = random_decomposition(field, r, k, s, rng)
            a, b, c, d = (_product(pd, w).coeffs for w in _PRODUCTS[k])
            expected = combo_row(field, upper_pairs(r + 1), [(1, a, b), (-1, c, d)])
            assert bounded_rank_quadric(pd, curve).upper_coeffs() == expected


def test_strata_enumeration():
    assert rank3_strata(5) == [3, 1]
    assert rank3_strata(8) == [6, 4, 2, 0]
    assert (1, 1, 2) not in rank4_strata(4)
    assert rank4_strata(4) == [(1, 2, 1), (1, 3, 0), (2, 1, 1), (2, 2, 0), (3, 1, 0)]
    for m, mp, x in rank4_strata(7):
        assert m + mp + x == 7 and m + mp >= 3


def _accepted_rank4_shapes(r):
    for stratum in itertools.product(range(r + 1), repeat=3):
        try:
            quadlab._shape(r, 4, stratum)
        except DomainError:
            continue
        yield stratum


@pytest.mark.parametrize("r", range(3, 10))
def test_rank4_strata_lists_every_accepted_shape(r):
    # (r - 1, 1, 0) is a legal shape too: rank4-family --r 6 --m1 5 --m2 1
    # --x 0 certifies dimension 8 = 8.
    assert sorted(rank4_strata(r)) == sorted(_accepted_rank4_shapes(r))
    assert len(set(rank4_strata(r))) == len(rank4_strata(r))


def test_empty_strata_raise():
    with pytest.raises(DomainError):
        family_dimension(5, 3, 2)  # parity violation: 2m + 2 = 5 impossible
    with pytest.raises(DomainError):
        family_dimension(6, 4, (1, 1, 4))
    with pytest.raises(DomainError):
        expected_family_dim(6, 5, 0)


@pytest.mark.parametrize("call", [
    lambda: expected_family_dim(5, 3, 1.9),
    lambda: expected_family_dim(5.0, 3, 1),
    lambda: quadlab._shape(5, 3, "1"),
    lambda: family_dimension(5, 3, True, field=FP),
    lambda: expected_family_dim(6, 4, (2, 2, 2.0)),
    lambda: expected_family_dim(6, 4, ("2", 2, 2)),
], ids=["float-x", "float-r", "str-x", "bool-x", "float-in-triple", "str-in-triple"])
def test_non_integer_strata_are_refused_not_truncated(call):
    with pytest.raises(DomainError, match="must be integers"):
        call()


def test_family_dimension_rank3():
    for x in (1, 3):
        assert family_dimension(5, 3, x, field=FP, seed=0) == 3
    assert family_dimension(8, 3, 0, field=FP, seed=0) == 6
    assert expected_family_dim(5, 3, 1) == 3


def test_family_dimension_rank4_best_stratum():
    # The deepest stratum has no residual factor; the sampled dimension
    # must match the independently computed expected dimension.
    best = max(rank4_strata(6), key=lambda s: expected_family_dim(6, 4, s))
    assert expected_family_dim(6, 4, best) == expected_dim_q(0, 6, 6, 4)
    assert family_dimension(6, 4, best, field=FP, seed=0) == expected_dim_q(0, 6, 6, 4)


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("r", [6, 8, 9])
def test_family_dimension_matches_generic_pivot_count(r, seed):
    # The strata the curves benchmark measures: the forward packed rank of
    # the unreduced Jacobian against the generic Gauss-Jordan pivot count
    # of the reduced one, over the same three draws.
    ncols = len(upper_pairs(r + 1))
    strata = [(3, x, (3, r, x)) for x in rank3_strata(r)]
    strata += [(4, s, (4, r) + s) for s in rank4_strata(r)]
    for k, stratum, labels in strata:
        best = 0
        for attempt in range(3):
            rng = derived_rng(seed, "family-dim", *labels, attempt)
            pd = random_decomposition(FP, r, k, stratum, rng)
            rows = [[FP.coerce(x) for x in row] for row in _jacobian_rows(r, pd)]
            best = max(best, len(linalg._rref_generic(FP, rows, ncols)[1]) - 1)
        assert family_dimension(r, k, stratum, field=FP, seed=seed) == best, stratum


def test_family_dimension_ranks_by_the_forward_sweep(monkeypatch):
    # Over F_p the Jacobian goes straight to _rank_packed; neither the
    # Gauss-Jordan path nor a Matrix of unreduced entries is built.
    seen = []

    def spy(field, rows, cols):
        seen.append(any(not 0 <= x < field.p for row in rows for x in row))
        return linalg._rank_packed(field, rows, cols)

    def forbidden(*args, **kwargs):
        raise AssertionError("family_dimension left the forward rank path")

    monkeypatch.setattr(quadlab, "_rank_packed", spy)
    monkeypatch.setattr(linalg, "_rref_packed", forbidden)
    monkeypatch.setattr(quadlab, "Matrix", forbidden)
    assert family_dimension(6, 4, (2, 2, 2), field=FP, seed=0) == 6
    assert len(seen) == 1 and seen[0]


def test_family_dimension_refuses_the_rationals():
    # Sampling runs over F_p only: small-height QQ draws leave the generic
    # locus on about 1 % of strata.
    with pytest.raises(ConfigurationError):
        family_dimension(6, 4, (2, 2, 2), field=QQ)


def test_family_dimension_never_exceeds_expected():
    for r in (4, 5, 6):
        for stratum in rank4_strata(r):
            got = family_dimension(r, 4, stratum, field=FP, seed=0)
            assert got <= expected_dim_q(0, r, r, 4)
            assert got == expected_family_dim(r, 4, stratum)


def test_secant_conditions_on_twisted_cubic():
    c = ParamCurve.rational_normal(FP, 3)
    system = i2_basis(c)
    assert system.dim == 3
    assert secant_condition(c, 2, 9, system=system) == 1
    with pytest.raises(DomainError):
        secant_condition(c, 4, 4, system=system)


def test_secant_condition_via_supplied_system():
    c = ParamCurve.rational_normal(FP, 6)
    system = i2_basis(c)
    rng = derived_rng(0, "unit-secant")
    for _ in range(5):
        t1 = FP.random_element(rng)
        t2 = FP.random_element(rng)
        if t1 == t2:
            continue
        assert secant_condition(c, t1, t2, system=system) == 1


def test_genus4_rank_and_guards():
    for seed in range(1, 6):
        assert genus4_check(seed, field=FP) == 4
    with pytest.raises(ConfigurationError):
        genus4_check(1, field=PrimeField(101))


def test_forced_low_rank_matrix():
    q = SymQuadric(FP, [[1, 0, 0, 0], [0, 1, 0, 0],
                        [0, 0, 1, 0], [0, 0, 0, 0]])
    assert q.rank() == 3


@pytest.mark.parametrize("size", range(2, 8))
def test_form_determinant_matches_scalar_determinant(size):
    # Sizes 2, 3, 6 and 7 are those where a permutation sign taken from the
    # wrong side of the chosen column flips the whole determinant.
    rng = derived_rng(size, "unit-form-det")
    qs = [SymQuadric.from_upper_coeffs(
        FP, size, [FP.random_element(rng) for _ in upper_pairs(size)]) for _ in range(3)]
    disc = net_discriminant(*qs)
    assert disc.degree == size
    for _ in range(5):
        lams = [FP.random_element(rng) for _ in range(3)]
        combo = linear_combination(FP, qs, lams)
        assert disc.evaluate(*lams) == combo.matrix().det()


def test_family_discriminants_reject_mismatched_members():
    def zero(field, size):
        return SymQuadric(field, [[0] * size for _ in range(size)])

    q3, q4, other = zero(FP, 3), zero(FP, 4), zero(PrimeField(101), 3)
    for bad in ((q3, q4), (q3, other)):
        with pytest.raises(DomainError):
            pencil_discriminant(*bad)
        with pytest.raises(DomainError):
            net_discriminant(q3, *bad)


def test_form_determinant_empty_matrix():
    one = TernaryForm(FP, 0, [1])
    assert form_matrix_det([], one) == one


def test_genus5_report_shape():
    rep = genus5_net_check(1, field=FP)
    assert rep.passed
    assert rep.discriminant_nonzero and rep.chart_coprime and rep.line_coprime
    payload = rep.to_json_dict()
    assert set(payload) == {"seed", "prime", "discriminant_nonzero", "chart_coprime",
                            "line_coprime", "passed"}
    assert payload["seed"] == 1
    assert payload["prime"] == DEFAULT_PRIME
    again = genus5_net_check(1, field=FP)
    assert again.to_json_dict() == payload


def _quadric(terms) -> SymQuadric:
    """The symmetric matrix of sum w l_u l_v over the (w, u, v) terms, where
    l_u is the linear form with coefficient vector u."""
    half = FP.inv(2)
    return SymQuadric(FP, [[FP.coerce(half * sum(w * (u[i] * v[j] + v[i] * u[j])
                                                 for w, u, v in terms))
                            for j in range(5)] for i in range(5)])


def _vectors(label, count):
    rng = derived_rng(0, label)
    return [[FP.random_element(rng) for _ in range(5)] for _ in range(count)]


def _rank3(label) -> SymQuadric:
    return _quadric([(1, v, v) for v in _vectors(label, 3)])


def _random_quadric(label) -> SymQuadric:
    return quadlab._random_sym_quadric(FP, 5, derived_rng(0, label))


def _certify(monkeypatch, qs):
    # The seed's net is the one given: the check draws its three members
    # in order, and nothing else from the stream.
    members = iter(qs)
    monkeypatch.setattr(quadlab, "_random_sym_quadric", lambda field, size, rng: next(members))
    rep = genus5_net_check(1, field=FP)
    assert rep.discriminant_nonzero
    return rep


def test_genus5_fails_on_a_rank3_member_over_the_quadratic_extension(monkeypatch):
    # p = 2^61 - 1 is 3 mod 4, so w^2 = -1 has no root in F_p.  With
    # L_i = U_i + w V_i, A + w B = L_1^2 + L_2^2 + L_3^2 for
    # A = sum U_i^2 - V_i^2 and B = sum 2 U_i V_i, both over F_p: the member
    # (1 : w : 0) of <A, B, C> has rank 3 and no F_p-rational point of the
    # net sees it.
    assert pow(FP.p - 1, (FP.p - 1) // 2, FP.p) == FP.p - 1
    us, vs = _vectors("unit-conj-u", 3), _vectors("unit-conj-v", 3)
    a = _quadric([(1, u, u) for u in us] + [(-1, v, v) for v in vs])
    b = _quadric([(2, u, v) for u, v in zip(us, vs)])
    assert a.rank() == b.rank() == 5
    rep = _certify(monkeypatch, [a, b, _random_quadric("unit-conj-c")])
    assert not rep.line_coprime and not rep.passed


def test_genus5_fails_on_a_rational_rank3_member(monkeypatch):
    # The member (0 : 0 : 1) has rank 3; its point lies in the chart z = 1.
    rep = _certify(monkeypatch, [_random_quadric("unit-rat-a"), _random_quadric("unit-rat-b"),
                                 _rank3("unit-rat-c")])
    assert not rep.chart_coprime and not rep.passed


def test_genus5_fails_on_a_singular_base_point(monkeypatch):
    # Every member vanishes at e_0 = (1:0:0:0:0), and the first column of
    # Q3 is Q1 e_0 + 2 Q2 e_0, so the member (-1 : -2 : 1), of rank 4, is
    # singular at a point of the base curve: no rank-3 member is needed.
    m1, m2, m3 = ([row[:] for row in _random_quadric(f"unit-base-{i}").entries]
                  for i in range(3))
    m1[0][0] = m2[0][0] = 0
    for i in range(5):
        m3[0][i] = m3[i][0] = FP.coerce(m1[i][0] + 2 * m2[i][0])
    q1, q2, q3 = (SymQuadric(FP, m) for m in (m1, m2, m3))
    assert linear_combination(FP, [q1, q2, q3], [-1, -2, 1]).rank() == 4
    rep = _certify(monkeypatch, [q1, q2, q3])
    assert not rep.chart_coprime and not rep.passed


def test_genus5_fails_on_a_rank3_member_on_the_line_z0(monkeypatch):
    # Q1 + Q2 has rank 3, at (1 : 1 : 0): the chart z = 1 does not see
    # it, and only the restriction to z = 0 can.
    q1 = _random_quadric("unit-line-a")
    r3 = _rank3("unit-line-r")
    q2 = SymQuadric(FP, [[FP.coerce(x - y) for x, y in zip(rr, r1)]
                         for rr, r1 in zip(r3.entries, q1.entries)])
    rep = _certify(monkeypatch, [q1, q2, _random_quadric("unit-line-c")])
    assert (rep.chart_coprime, rep.line_coprime, rep.passed) == (True, False, False)


@pytest.mark.parametrize("name, degenerate", [
    ("no_common_zero", lambda forms: (False, True)),
    ("no_common_zero", lambda forms: (True, False)),
    ("net_discriminant", lambda *qs: TernaryForm(FP, 5, [0] * 21)),
], ids=["chart", "line", "discriminant"])
def test_genus5_fails_on_a_degenerate_draw(monkeypatch, name, degenerate):
    # Seed 1 passes on its own draw; forced degenerate at one step of the
    # certificate, it fails on that same draw, and no other stream is read.
    streams = []

    def spy(seed, *labels):
        streams.append((seed,) + labels)
        return derived_rng(seed, *labels)

    monkeypatch.setattr(quadlab, "derived_rng", spy)
    monkeypatch.setattr(quadlab, name, degenerate)
    rep = genus5_net_check(1, field=FP)
    assert not rep.passed and rep.attempts == 1
    assert rep.to_json_dict()["passed"] is False
    assert streams == [(1, "genus5-net", 0)]


def test_genus5_requires_prime_field():
    with pytest.raises(ConfigurationError):
        genus5_net_check(1, field=QQ)


def test_bounded_rank_quadric_rank_is_computed_once(monkeypatch):
    # The construction checks the rank bound and a caller that asks for
    # the rank again, as the quadric-lab check does, gets the same value.
    c = ParamCurve.rational_normal(FP, 6)
    pd = random_decomposition(FP, 6, 4, (2, 2, 2), derived_rng(0, "unit-rank-once"))
    calls = []
    rank = Matrix.rank

    def counted(self):
        calls.append(self.rows)
        return rank(self)

    monkeypatch.setattr(Matrix, "rank", counted)
    q = bounded_rank_quadric(pd, c)
    assert q.rank() == 4
    assert q.rank() == 4
    assert calls == [7]
