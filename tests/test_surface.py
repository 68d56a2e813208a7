import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kernel_oracles import linear_combination
from multiplicity_oracle import partials_accept, taylor_accept
from qmod import surface
from qmod.cli import main
from qmod.errors import (ConfigurationError, DomainError, FieldMismatchError,
                         GenericityError, InternalCheckError)
from qmod.fields import DEFAULT_PRIME, QQ, PrimeField, derived_rng
from qmod.quadlab import i2_basis, ParamCurve
from qmod.surface import (
    NSClass,
    PlaneSystem,
    PointConfig,
    blowup_report,
    curve_class,
    expected_system_dim,
    hyperplane_class,
    interpolation_basis,
    lattice_checks,
    ns_canonical,
    ns_genus,
    ns_intersect,
    pencil_discriminant,
    pencil_nondegeneracy,
    residual_class,
)
from qmod.surface import _interpolation_kernel
from qmod.quadlab import SymQuadric
from qmod.ternary import TernaryForm

FP = PrimeField(DEFAULT_PRIME)


def test_ns_class_algebra():
    a = NSClass(3, (1, 1, 0))
    b = NSClass(1, (0, 1, 1))
    assert a.add(b) == NSClass(4, (1, 2, 1))
    assert a.sub(b) == NSClass(2, (1, 0, -1))
    assert a.scale(2) == NSClass(6, (2, 2, 0))
    with pytest.raises(DomainError):
        NSClass(True, (0,))
    with pytest.raises(DomainError):
        a.add(NSClass(1, (0, 0)))


def test_intersection_pairing():
    a = NSClass(3, (1, 1, 0))
    b = NSClass(1, (0, 1, 1))
    assert ns_intersect(a, b) == 3 - 1
    assert ns_intersect(a, a) == 9 - 2
    assert ns_intersect(a, ns_canonical(3)) == -9 + 2


def test_genus_formula():
    line = NSClass(1, (0,) * 15)
    conic = NSClass(2, (0,) * 15)
    cubic = NSClass(3, (0,) * 15)
    assert ns_genus(line) == 0
    assert ns_genus(conic) == 0
    assert ns_genus(cubic) == 1


def test_embedding_lattice_numbers():
    h = hyperplane_class()
    c = curve_class()
    assert ns_intersect(h, h) == 13
    assert ns_intersect(c, h) == 20
    assert ns_genus(c) == 15
    assert residual_class() == h.scale(2).sub(c)
    checks = lattice_checks()
    assert checks == {"c_dot_h": 20, "h_self": 13, "genus_c": 15,
                      "genus_line": 0, "genus_conic": 0}


def test_expected_system_dims():
    assert expected_system_dim(hyperplane_class()) == 7
    assert expected_system_dim(curve_class()) == 12
    assert expected_system_dim(residual_class()) == 0


def test_point_config_sampling_is_deterministic():
    a = PointConfig.sample(FP, 15, 3)
    b = PointConfig.sample(FP, 15, 3)
    assert a.points == b.points
    assert a.n == 15


class _RepeatingRng:
    """A draw stream that returns one value forever."""

    def randrange(self, *args):
        return 7


@pytest.fixture
def degenerate_first_draw(monkeypatch):
    # The seed's one point stream repeats the point (7, 7, 1); every other
    # stream, the labels a redraw would use included, stays as it is.
    real = surface.derived_rng

    def fake(seed, *labels):
        if labels == ("plane-points", 0):
            return _RepeatingRng()
        return real(seed, *labels)

    monkeypatch.setattr(surface, "derived_rng", fake)


def test_degenerate_draw_is_reported_for_its_seed(degenerate_first_draw):
    with pytest.raises(GenericityError) as info:
        PointConfig.sample(FP, 15, 4)
    assert info.value.seeds_tried == [4]


def test_blowup_verify_reports_a_degenerate_draw(degenerate_first_draw, capsys):
    rc = main(["blowup-verify", "--seed", "0", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert (payload["stage"], payload["seed"]) == ("points", 0)
    assert payload["passed"] is False


def test_pencil_disc_stops_at_a_degenerate_draw(degenerate_first_draw, capsys):
    rc = main(["pencil-disc", "--seed", "0"])
    assert rc == 1
    assert capsys.readouterr().out == "construction stopped at stage points\n"


def test_point_config_rejects_degenerate_sets():
    with pytest.raises(DomainError):
        PointConfig(FP, [(0, 0, 1), (1, 1, 1), (0, 0, 1)], seed=None)
    with pytest.raises(DomainError):
        PointConfig(FP, [(0, 0, 1), (1, 1, 1), (2, 2, 1)], seed=None)


def test_point_config_needs_sampling_prime():
    with pytest.raises(ConfigurationError):
        PointConfig.sample(PrimeField(101), 15, 0)


def test_interpolation_dimensions_on_sampled_points():
    cfg = PointConfig.sample(FP, 15, 3)
    hs = interpolation_basis(cfg, hyperplane_class())
    assert hs.dim == 7
    cs = interpolation_basis(cfg, curve_class())
    assert cs.dim == 12
    rs = interpolation_basis(cfg, residual_class())
    assert rs.dim == 0


def test_interpolation_kernel_at_a_prime_below_the_degree():
    # Hasse-derivative rows hold at p = 3 < 5.  Ordinary third derivatives
    # carry al (al - 1) (al - 2), which 3 divides, so they would drop the
    # third-order conditions of the quadruple point.
    f3 = PrimeField(3)
    cfg = PointConfig(f3, [(1, 1, 1), (1, 2, 1), (2, 0, 1), (2, 1, 1)])
    cls = NSClass(5, (4, 1, 1, 1))
    system = _interpolation_kernel(cfg, cls)
    assert system.dim == expected_system_dim(cls) == 8
    assert taylor_accept(f3, cls, [f.coeffs for f in system.forms], cfg)


def test_members_vanish_to_order():
    cfg = PointConfig.sample(FP, 15, 3)
    hs = interpolation_basis(cfg, hyperplane_class())
    rng = derived_rng(7, "unit-member")
    weights = [FP.random_element(rng) for _ in range(hs.dim)]
    form = TernaryForm.combination(hs.forms, weights)
    assert not form.is_zero()
    for pt, mult in zip(cfg.points, hyperplane_class().mults):
        assert form.evaluate(*pt) == 0
        if mult >= 2:
            for var in range(3):
                assert form.partial(var).evaluate(*pt) == 0


def test_plane_system_refuses_a_perturbed_basis():
    # The constructor re-derives every assigned multiplicity by a Taylor
    # shift; one basis coefficient moved by 1 must fail that check.
    cfg = PointConfig.sample(FP, 15, 3)
    hs = interpolation_basis(cfg, hyperplane_class())
    basis = [f.coeffs[:] for f in hs.forms]
    assert PlaneSystem(FP, hs.cls, basis, cfg).forms == hs.forms
    basis[2][4] = FP.coerce(basis[2][4] + 1)
    with pytest.raises(InternalCheckError):
        PlaneSystem(FP, hs.cls, basis, cfg)


def test_plane_system_refuses_an_unreduced_coefficient():
    # Members go through the checked constructor: a residue outside [0, p)
    # is refused even though it names the same element of F_p.
    cfg = PointConfig.sample(FP, 15, 3)
    hs = interpolation_basis(cfg, hyperplane_class())
    basis = [f.coeffs[:] for f in hs.forms]
    basis[1][0] += FP.p
    with pytest.raises(FieldMismatchError):
        PlaneSystem(FP, hs.cls, basis, cfg)


def test_plane_system_refuses_a_short_configuration():
    # Multiplicities pair with points one to one: a 15-point class over the
    # first 7 points would be checked on those 7 alone, and here the
    # 15-dimensional system of 7 double points would pass as |H|.
    cfg = PointConfig.sample(FP, 15, 3)
    first7 = PointConfig(FP, cfg.points[:7])
    doubles = interpolation_basis(first7, NSClass(7, (2,) * 7))
    assert doubles.dim == 15
    basis = [f.coeffs for f in doubles.forms]
    with pytest.raises(DomainError):
        PlaneSystem(FP, hyperplane_class(), basis, first7)


def test_plane_system_refuses_a_configuration_over_another_field():
    # The same points over another prime field would be reduced silently.
    cfg = PointConfig.sample(FP, 15, 3)
    hs = interpolation_basis(cfg, hyperplane_class())
    other = PointConfig(PrimeField(2305843009213693967), cfg.points)
    with pytest.raises(FieldMismatchError):
        PlaneSystem(FP, hs.cls, [f.coeffs for f in hs.forms], other)


def _systems_built_by(seed, monkeypatch):
    # Every PlaneSystem that blowup_report builds, in order, as it checks it.
    built = []
    check = PlaneSystem._verify_multiplicities

    def record(system):
        check(system)
        built.append(system)

    with monkeypatch.context() as m:
        m.setattr(PlaneSystem, "_verify_multiplicities", record)
        blowup_report(seed, field=FP)
    return built


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_taylor_check_agrees_with_partials_oracle_on_report_systems(seed, monkeypatch):
    systems = _systems_built_by(seed, monkeypatch)
    assert [s.cls for s in systems] == [hyperplane_class(), curve_class(),
                                        residual_class()]
    rng = derived_rng(seed, "unit-taylor-mutation")
    for s in systems:
        assert partials_accept(s.cls, s.forms, s.config.points)
        for _ in range(4 if s.dim else 0):
            basis = [f.coeffs[:] for f in s.forms]
            i, j = rng.randrange(len(basis)), rng.randrange(len(basis[0]))
            basis[i][j] = FP.coerce(basis[i][j] + 1 + rng.randrange(FP.p - 1))
            moved = [TernaryForm(FP, s.cls.a, v) for v in basis]
            assert not partials_accept(s.cls, moved, s.config.points)
            assert not taylor_accept(FP, s.cls, basis, s.config)


def test_taylor_check_agrees_with_partials_oracle_over_qq():
    cfg = PointConfig(QQ, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (2, 3, 1), (-1, 5, 2)])
    cls = NSClass(4, (2, 2, 1, 1, 1))
    system = interpolation_basis(cfg, cls)
    assert system.dim == expected_system_dim(cls) == 6
    assert partials_accept(cls, system.forms, cfg.points)
    basis = [f.coeffs[:] for f in system.forms]
    basis[0][3] += 1
    assert not taylor_accept(QQ, cls, basis, cfg)
    assert not partials_accept(cls, [TernaryForm(QQ, 4, v) for v in basis], cfg.points)


def _line_through(field, p, q):
    # The line through the points p and q: their cross product.
    return TernaryForm(field, 1, [field.coerce(p[1] * q[2] - p[2] * q[1]),
                                  field.coerce(p[2] * q[0] - p[0] * q[2]),
                                  field.coerce(p[0] * q[1] - p[1] * q[0])])


_PROPERTY_FIELDS = [PrimeField(11), PrimeField(10007), FP, QQ]


@given(st.data())
def test_forced_multiplicity_is_seen_by_both_routes(data):
    # f = L_1 ... L_m G with every L_i through the point has multiplicity
    # at least m there, whatever the chart of the point.
    field = data.draw(st.sampled_from(_PROPERTY_FIELDS))
    coord = st.integers(-4, 4) if field is QQ else st.integers(0, field.p - 1)
    vector = st.tuples(coord, coord, st.one_of(st.just(0), coord))
    raw = data.draw(vector.filter(any))
    cfg = PointConfig(field, [tuple(field.coerce(c) for c in raw)])
    pt = cfg.points[0]
    m, g = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 3))
    f = TernaryForm(field, g, [field.coerce(c) for c in data.draw(
        st.lists(coord, min_size=(g + 1) * (g + 2) // 2, max_size=(g + 1) * (g + 2) // 2))])
    for _ in range(m):
        other = tuple(field.coerce(c) for c in data.draw(vector))
        f = f.mul(_line_through(field, pt, other))
    at_m = NSClass(f.degree, (m,))
    assert partials_accept(at_m, [f], cfg.points)
    assert taylor_accept(field, at_m, [f.coeffs], cfg)
    above = NSClass(f.degree, (m + 1,))
    assert taylor_accept(field, above, [f.coeffs], cfg) == partials_accept(
        above, [f], cfg.points)


@pytest.mark.parametrize("raw", [(3, 5, 0), (1, 0, 0)])
def test_taylor_check_works_in_the_chart_of_a_point_at_infinity(raw):
    cfg = PointConfig(FP, [raw])
    pt = cfg.points[0]
    cubic = (_line_through(FP, pt, (1, 2, 3)).mul(_line_through(FP, pt, (2, 7, 1)))
             .mul(TernaryForm(FP, 1, [4, 5, 6])))
    line_at_infinity = [0, 0, 1]
    for basis, cls, holds in [([cubic.coeffs], NSClass(3, (2,)), True),
                              ([cubic.coeffs], NSClass(3, (3,)), False),
                              ([line_at_infinity], NSClass(1, (1,)), True),
                              ([line_at_infinity], NSClass(1, (2,)), False)]:
        forms = [TernaryForm(FP, cls.a, v) for v in basis]
        assert taylor_accept(FP, cls, basis, cfg) is holds
        assert partials_accept(cls, forms, cfg.points) is holds


def test_multiplicity_above_degree_plus_one_admits_only_zero():
    # A nonzero form of degree d has multiplicity at most d anywhere.
    cfg = PointConfig(FP, [(2, 9, 1)])
    pt = cfg.points[0]
    square = _line_through(FP, pt, (1, 1, 0)).mul(_line_through(FP, pt, (0, 1, 1)))
    cls = NSClass(2, (5,))
    assert not taylor_accept(FP, cls, [square.coeffs], cfg)
    assert not partials_accept(cls, [square], cfg.points)
    assert taylor_accept(FP, cls, [[0] * 6], cfg)
    assert partials_accept(cls, [TernaryForm.zero(FP, 2)], cfg.points)


def test_plane_system_refuses_a_kernel_with_missing_derivative_rows():
    # The interpolation matrix of |H| with the two order-1 rows of the first
    # point dropped is the matrix of the class with a simple point there.
    # Its larger kernel holds members without the double point, and the
    # constructor's own check must see that.
    cfg = PointConfig.sample(FP, 15, 3)
    h = hyperplane_class()
    loose = _interpolation_kernel(cfg, NSClass(h.a, (1,) + h.mults[1:]))
    assert loose.dim == expected_system_dim(h) + 2
    assert not partials_accept(h, loose.forms, cfg.points)
    with pytest.raises(InternalCheckError):
        PlaneSystem(FP, h, [f.coeffs for f in loose.forms], cfg)


def test_surface_quadric_pair():
    rep = blowup_report(3, field=FP)
    qs = rep.quadrics
    assert qs.dim == 2
    forms = rep.hyperplane.forms
    rng = derived_rng(11, "unit-i2-points")
    for _ in range(50):
        x0, y0 = FP.random_element(rng), FP.random_element(rng)
        image = [f.evaluate(x0, y0, 1) for f in forms]
        for q in qs.basis:
            assert q.evaluate(image) == 0


def test_pencil_discriminant_of_proportional_pair_degenerates():
    rng = derived_rng(0, "unit-pencil")
    q = SymQuadric.from_upper_coeffs(
        FP, 3, [FP.random_element(rng) for _ in range(6)])
    # det(s Q + 5 t Q) = (s + 5t)^3 det(Q): a triple root.
    disc = pencil_discriminant(q, linear_combination(FP, [q], [5]))
    assert disc.degree == 3
    assert not disc.squarefree()
    singular = SymQuadric(FP, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    flat = pencil_discriminant(singular, linear_combination(FP, [singular], [2]))
    assert all(c == 0 for c in flat.coeffs)


def test_pencil_discriminant_sees_forced_double_root():
    q1 = SymQuadric(FP, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    q2 = SymQuadric(FP, [[3, 0, 0], [0, 3, 0], [0, 0, 5]])
    disc = pencil_discriminant(q1, q2)
    # (s + 3t)^2 (2s + 5t): nonzero but with a repeated root.
    assert not all(c == 0 for c in disc.coeffs)
    assert not disc.squarefree()


@pytest.mark.parametrize("size", range(2, 8))
def test_pencil_discriminant_matches_pointwise_determinant(size):
    rng = derived_rng(size, "unit-pencil-det")
    q1, q2 = (SymQuadric.from_upper_coeffs(
        FP, size, [FP.random_element(rng) for _ in range(size * (size + 1) // 2)])
        for _ in range(2))
    disc = pencil_discriminant(q1, q2)
    assert disc.degree == size
    for _ in range(5):
        s, t = FP.random_element(rng), FP.random_element(rng)
        combo = linear_combination(FP, [q1, q2], [s, t])
        assert disc.evaluate(s, t) == combo.matrix().det()


def test_pencil_nondegeneracy_takes_only_pencils():
    system = i2_basis(ParamCurve.rational_normal(FP, 3))
    with pytest.raises(DomainError):
        pencil_nondegeneracy(system)


def test_blowup_report_is_complete_on_good_seed():
    rep = blowup_report(3, field=FP)
    assert rep.stage == "complete"
    assert rep.passed
    assert (rep.h_dim, rep.curve_dim, rep.residual_dim, rep.i2_dim) == (7, 12, 0, 2)
    assert rep.pencil is not None and rep.pencil.degree == 7
    payload = rep.to_json_dict()
    assert payload["lattice"]["c_dot_h"] == 20


def test_blowup_verify_deterministic():
    a = blowup_report(3, field=FP)
    b = blowup_report(3, field=FP)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.passed
