"""Plane interpolation models of a blown-up surface.

The running example is the plane blown up at 15 general points, with a
degree-13 class embedding it into projective 6-space and a pencil of
quadrics through the image.  Linear systems with assigned base
multiplicities are exact kernels of derivative-evaluation matrices;
everything downstream (quadrics through the image, the discriminant of
their pencil) is exact linear algebra over the same field, F_p: the lab
takes no other.  Genericity of sampled data is the only probabilistic
ingredient: each seed makes one draw, and a degenerate draw is reported
for that seed, never redrawn.  Configurations, systems, classes and
reports are ``__slots__`` classes, immutable by convention.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import mul

from .binforms import BinaryForm
from .errors import ConfigurationError, DomainError, GenericityError, InternalCheckError
from .fields import PrimeField, derived_rng, require_sampling_prime
from .linalg import _pack, _unpack, rows_kernel, slot_width
from .quadlab import QuadricSystem, _quadrics_through, form_matrix_det
from .ternary import TernaryForm, _powers, monomials


def _normalize_point(field, p):
    p = [field.coerce(x) for x in p]
    if len(p) != 3:
        raise DomainError("plane points have three coordinates")
    last = None
    for idx in range(2, -1, -1):
        if p[idx]:
            last = idx
            break
    if last is None:
        raise DomainError("the zero vector is not a projective point")
    inv = field.inv(p[last])
    return tuple(field.coerce(inv * x) for x in p)


class PointConfig:
    """General points of the plane over F_p, as normalized representatives.

    The genericity the interpolation matrices rely on is checked at
    construction time: pairwise distinct, no three collinear.  The
    collinearity check runs over all triples, a stronger condition than
    the multiple-point subsets strictly need.
    """

    __slots__ = ("field", "points", "seed")

    def __init__(self, field, points, *, seed=None):
        if not isinstance(field, PrimeField):
            raise ConfigurationError(f"the blow-up lab runs over F_p, got {field!r}")
        pts = [_normalize_point(field, p) for p in points]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pts[i] == pts[j]:
                    raise DomainError(f"points {i} and {j} coincide")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                for k in range(j + 1, len(pts)):
                    if not _det3(field, pts[i], pts[j], pts[k]):
                        raise DomainError(f"points {i}, {j}, {k} are collinear")
        self.field = field
        self.points = pts
        self.seed = seed

    @property
    def n(self) -> int:
        return len(self.points)

    @classmethod
    def sample(cls, field, n: int, seed: int) -> "PointConfig":
        """Draw n random affine points from the seed's one stream.

        A degenerate draw raises GenericityError for this seed; no other
        stream is tried, so the seed names the configuration it reports on.
        """
        require_sampling_prime(field)
        rng = derived_rng(seed, "plane-points", 0)
        pts = [(field.random_element(rng), field.random_element(rng), field.one)
               for _ in range(n)]
        try:
            return cls(field, pts, seed=seed)
        except DomainError as exc:
            raise GenericityError(f"degenerate point configuration: {exc}",
                                  seeds_tried=[seed]) from None

    def to_json_dict(self) -> dict:
        fmt = self.field.format
        return {"n": self.n,
                "points": [[fmt(x) for x in p] for p in self.points]}


def _det3(field, p, q, r):
    return field.coerce(p[0] * (q[1] * r[2] - q[2] * r[1])
                        - p[1] * (q[0] * r[2] - q[2] * r[0])
                        + p[2] * (q[0] * r[1] - q[1] * r[0]))


class NSClass:
    """Divisor class on the blown-up plane: a plane degree and assigned
    multiplicities at the blown-up points."""

    __slots__ = ("a", "mults")

    def __init__(self, a: int, mults):
        mults = tuple(mults)
        for v in (a, *mults):
            if not isinstance(v, int) or isinstance(v, bool):
                raise DomainError("lattice coordinates are integers")
        self.a = a
        self.mults = mults

    def add(self, other: "NSClass") -> "NSClass":
        self._require_same_rank(other)
        return NSClass(self.a + other.a,
                       tuple(x + y for x, y in zip(self.mults, other.mults)))

    def sub(self, other: "NSClass") -> "NSClass":
        self._require_same_rank(other)
        return NSClass(self.a - other.a,
                       tuple(x - y for x, y in zip(self.mults, other.mults)))

    def scale(self, c: int) -> "NSClass":
        if not isinstance(c, int) or isinstance(c, bool):
            raise DomainError("lattice scaling is by integers")
        return NSClass(c * self.a, tuple(c * m for m in self.mults))

    def _require_same_rank(self, other: "NSClass"):
        if len(self.mults) != len(other.mults):
            raise DomainError("classes live on different blow-ups")

    def __eq__(self, other):
        if not isinstance(other, NSClass):
            return NotImplemented
        return self.a == other.a and self.mults == other.mults

    def __repr__(self):
        return f"NSClass({self.a}; {list(self.mults)})"

    def to_json_dict(self) -> dict:
        return {"a": self.a, "mults": list(self.mults)}


def ns_intersect(d1: NSClass, d2: NSClass) -> int:
    """Intersection number a1 a2 - sum(m_i m'_i)."""
    d1._require_same_rank(d2)
    return d1.a * d2.a - sum(x * y for x, y in zip(d1.mults, d2.mults))


def ns_canonical(n: int) -> NSClass:
    return NSClass(-3, (-1,) * n)


def ns_genus(d: NSClass) -> int:
    """Arithmetic genus by adjunction: (d.d + d.K)/2 + 1."""
    total = ns_intersect(d, d) + ns_intersect(d, ns_canonical(len(d.mults)))
    if total % 2 != 0:
        raise InternalCheckError("adjunction total came out odd")
    return total // 2 + 1


def hyperplane_class() -> NSClass:
    """The degree-13 class embedding the 15-point blow-up in P^6."""
    return NSClass(7, (2,) * 7 + (1,) * 8)


def curve_class() -> NSClass:
    """The genus-15 curve class on the same surface."""
    return NSClass(10, (3, 3, 3) + (2,) * 12)


def residual_class() -> NSClass:
    """Twice the hyperplane class minus the curve class; expected empty."""
    return hyperplane_class().scale(2).sub(curve_class())


def expected_system_dim(cls: NSClass) -> int:
    """Parameter count minus conditions, clamped at zero; the dimension
    general points are expected to realize."""
    raw = comb(cls.a + 2, 2) - sum(comb(m + 1, 2) for m in cls.mults)
    return max(0, raw)


class PlaneSystem:
    """Basis of plane forms with assigned point multiplicities.

    The members are stored as ``TernaryForm`` instances in ``forms``, each
    built once through the checked constructor; construction re-verifies
    every multiplicity condition by a Taylor shift, a deliberately separate
    code path from the interpolation matrix that produced the kernel: in
    the chart of each point, f(x0 + u, y0 + v) has no term u^a v^b with
    a + b < m.  Those coefficients are the Hasse derivatives of f at the
    point, so the check holds in every characteristic, with no p > a bound.
    The shift runs in two stages on Pascal's-rule weights, not on the
    binomial tables whose outer products are the kernel's rows, so the two
    paths share no table; the members ride packed in one int per monomial
    (``_multiplicity_miss``).
    """

    __slots__ = ("field", "cls", "forms", "config")

    def __init__(self, cls: NSClass, basis, config: PointConfig):
        if len(cls.mults) != config.n:
            raise DomainError("one multiplicity per configured point required")
        self.field = field = config.field
        self.cls = cls
        self.forms = [TernaryForm(field, cls.a, v) for v in basis]
        self.config = config
        self._verify_multiplicities()

    @property
    def dim(self) -> int:
        return len(self.forms)

    def _verify_multiplicities(self):
        miss = _multiplicity_miss(self.field, self.cls, self.config.points, self.forms)
        if miss:
            point, member, a, b = miss
            raise InternalCheckError(
                f"system member {member} misses multiplicity {self.cls.mults[point]} "
                f"at point {point}: its u^{a} v^{b} Taylor coefficient is nonzero")

    def to_json_dict(self) -> dict:
        fmt = self.field.format
        return {"class": self.cls.to_json_dict(), "dim": self.dim,
                "basis": [[fmt(c) for c in f.coeffs] for f in self.forms]}


def _shift_weights(field, x0, d: int, top: int) -> list:
    """xs[a][i] = [u^a](x0 + u)^i for a < top and i <= d, by Pascal's rule
    (zero for i < a), each entry reduced once."""
    rows, prev = [], [field.zero] * (d + 1)
    for a in range(top):
        row = [field.zero] * (d + 1)
        row[a] = field.one
        for i in range(a + 1, d + 1):
            row[i] = field.coerce(prev[i - 1] + x0 * row[i - 1])
        rows.append(row)
        prev = row
    return rows


def _shifted_terms(cols, xs, ys) -> list:
    """(a, b, t), a + b < len(xs), t the exact coefficient of u^a v^b in
    sum c_ij (x0 + u)^i (y0 + v)^j, cols[j][i] = c_ij: stage 1 sums
    s1[a][j] = sum_i xs[a][i] c_ij, stage 2 t = sum_j ys[b][j] s1[a][j]."""
    s1 = [[sum(map(mul, xa, col)) for col in cols] for xa in xs]
    return [(a, b, sum(map(mul, ys[b], s1[a])))
            for a in range(len(xs)) for b in range(len(xs) - a)]


def _multiplicity_miss(field, cls, points, forms):
    """(point, member, a, b) of the first nonzero coefficient of u^a v^b,
    a + b < min(m, d + 1), in the chart of each point's last nonzero
    coordinate, or None.  Member k rides in slot k of one int per
    monomial, so each stage step serves the whole system.  The columns are
    triangular (c_ij = 0 for i + j > d): with reduced coefficients and
    weights, s1[a][j] sums d + 1 - j products of at most (p-1)^2, and t
    sums those times a weight, so top is (d + 1)(d + 2)/2 (p-1)^3."""
    if not forms:
        return None
    d = cls.a
    w = slot_width((d + 1) * (d + 2) // 2 * (field.p - 1) ** 3)
    packed = [_pack(c, w) for c in zip(*(f.coeffs for f in forms))]
    columns = {}
    for n, (pt, m) in enumerate(zip(points, cls.mults)):
        top = min(m, d + 1)
        if top <= 0:
            continue
        chart = max(i for i in range(3) if pt[i])
        u, v = (i for i in range(3) if i != chart)
        if chart not in columns:
            cols = columns[chart] = [[0] * (d + 1 - j) for j in range(d + 1)]
            for e, c in zip(monomials(d), packed):
                cols[e[v]][e[u]] = c
        xs, ys = _shift_weights(field, pt[u], d, top), _shift_weights(field, pt[v], d, top)
        for a, b, t in _shifted_terms(columns[chart], xs, ys):
            for k, x in enumerate(_unpack(t, len(forms), w, (1 << w) - 1)):
                if field.coerce(x):
                    return n, k, a, b
    return None


def _hasse_table(field, x0, a: int, top: int) -> list:
    """X[dx][al] = C(al, dx) x0^(al - dx), dx < top, al <= a, reduced once."""
    xp = _powers(field, x0, a)
    return [[field.coerce(comb(al, dx) * xp[al - dx]) if al >= dx else field.zero
             for al in range(a + 1)] for dx in range(top)]


def _hasse_rows(field, points, cls: NSClass, w: int) -> list:
    """Hasse-derivative rows at affine points, packed at width w.  Row
    (dx, dy) is the outer product X[dx][al] Y[dy][be] of ``_hasse_table``s;
    in ``monomials(a)`` order the block of x-exponent al is contiguous,
    y-exponents descending, so a row is one multiply-add per x-exponent,
    each slot <= (p-1)^2."""
    a, rows = cls.a, []
    for pt, m in zip(points, cls.mults):
        if m and pt[2] != field.one:
            raise DomainError("interpolation works in the affine chart z = 1")
        xs, ys = (_hasse_table(field, c, a, m) for c in pt[:2])
        # Block k is x-exponent a - k: X[dx][a - k] times Y[dy][k], ..., Y[dy][0].
        blocks = [[b << k * (k + 1) // 2 * w
                   for k, b in enumerate(accumulate(y, lambda b, c: c + (b << w)))]
                  for y in ys]
        for dx in range(m):
            xr = xs[dx][::-1]
            rows += [sum(map(mul, xr, b)) for b in blocks[:m - dx]]
    return rows


def _interpolation_kernel(cfg: PointConfig, cls: NSClass) -> PlaneSystem:
    """Kernel of the Hasse-derivative rows: at (x0, y0, 1) of multiplicity m,
    row (dx, dy), dx + dy < m, is the coefficient of u^dx v^dy in
    f(x0 + u, y0 + v), binomial and exact in every characteristic, built
    by ``_hasse_rows`` apart from the re-check's Pascal's-rule weights.
    ``linalg.rows_kernel`` eliminates them packed; each slot holds one
    product of at most (p-1)^2, so the rows are handed over at load 1."""
    field = cfg.field
    if cls.a < 0:
        raise DomainError("negative degree carries no forms")
    if len(cls.mults) != cfg.n:
        raise DomainError("one multiplicity per configured point required")
    if any(m < 0 for m in cls.mults):
        raise DomainError("assigned multiplicities must be nonnegative")
    kern = rows_kernel(field, lambda w: _hasse_rows(field, cfg.points, cls, w),
                       sum(comb(m + 1, 2) for m in cls.mults), len(monomials(cls.a)), 1)
    return PlaneSystem(cls, kern, cfg)


def interpolation_basis(cfg: PointConfig, cls: NSClass) -> PlaneSystem:
    """Forms of degree a with the assigned point multiplicities.

    The kernel dimension must match the general-points expectation;
    anything else means the configuration is insufficiently general, a
    genericity failure of its seed rather than a silent acceptance.
    """
    sys_ = _interpolation_kernel(cfg, cls)
    exp = expected_system_dim(cls)
    if sys_.dim != exp:
        raise GenericityError(
            f"system dimension {sys_.dim}, expected {exp}",
            seeds_tried=None if cfg.seed is None else [cfg.seed],
            data={"class": cls.to_json_dict()})
    return sys_


class PencilReport:
    """Discriminant data for a pencil of quadrics.  Immutable by convention;
    equal by all four fields."""

    __slots__ = ("degree", "nonzero", "squarefree", "coeffs")

    def __init__(self, degree: int, nonzero: bool, squarefree: bool, coeffs: tuple):
        self.degree, self.nonzero = degree, nonzero
        self.squarefree, self.coeffs = squarefree, coeffs

    def _key(self):
        return self.degree, self.nonzero, self.squarefree, self.coeffs

    def __eq__(self, other):
        if not isinstance(other, PencilReport):
            return NotImplemented
        return self._key() == other._key()

    @property
    def nondegenerate(self) -> bool:
        return self.nonzero and self.squarefree

    def to_json_dict(self) -> dict:
        return {"degree": self.degree, "nonzero": self.nonzero,
                "squarefree": self.squarefree,
                "nondegenerate": self.nondegenerate,
                "coeffs": list(self.coeffs)}


def pencil_nondegeneracy(sys: QuadricSystem) -> PencilReport:
    """Discriminant of a two-member system: degree, vanishing flag, and
    squarefreeness; nondegenerate means nonzero and squarefree.

    Squarefreeness is projective, so a vanishing leading coefficient
    (a degenerate member of the pencil at infinity) is still seen.
    """
    if sys.dim != 2:
        raise DomainError("pencil needs exactly two independent quadrics")
    disc = form_matrix_det(BinaryForm, sys.basis)
    nonzero = not disc.is_zero()
    sf = disc.squarefree() if nonzero else False
    fmt = sys.field.format
    return PencilReport(degree=disc.degree, nonzero=nonzero, squarefree=sf,
                        coeffs=tuple(fmt(c) for c in disc.coeffs))


class SurfaceReport:
    """Outcome of the full blow-up verification chain for one seed.

    Immutable by convention.  The sampled points, the hyperplane system and
    the quadric system the report judged ride along for dumping; they take
    no part in equality or the JSON payload.
    """

    __slots__ = ("seed", "prime", "stage", "h_dim", "curve_dim", "residual_dim", "i2_dim",
                 "pencil", "config", "hyperplane", "quadrics")

    def __init__(self, seed: int, prime: int, stage: str, h_dim: int | None,
                 curve_dim: int | None, residual_dim: int | None, i2_dim: int | None,
                 pencil: PencilReport | None, config: PointConfig | None = None,
                 hyperplane: PlaneSystem | None = None, quadrics: QuadricSystem | None = None):
        self.seed, self.prime, self.stage = seed, prime, stage
        self.h_dim, self.curve_dim, self.residual_dim = h_dim, curve_dim, residual_dim
        self.i2_dim, self.pencil = i2_dim, pencil
        self.config, self.hyperplane, self.quadrics = config, hyperplane, quadrics

    def _key(self):
        return (self.seed, self.prime, self.stage, self.h_dim, self.curve_dim,
                self.residual_dim, self.i2_dim, self.pencil)

    def __eq__(self, other):
        if not isinstance(other, SurfaceReport):
            return NotImplemented
        return self._key() == other._key()

    @property
    def passed(self) -> bool:
        # Only a complete chain carries a pencil.
        return (self.pencil is not None and self.pencil.nondegenerate and self.pencil.degree == 7
                and (self.h_dim, self.curve_dim, self.residual_dim) == (7, 12, 0))

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "prime": self.prime,
            "stage": self.stage,
            "h_dim": self.h_dim,
            "curve_dim": self.curve_dim,
            "residual_dim": self.residual_dim,
            "i2_dim": self.i2_dim,
            "pencil": None if self.pencil is None else self.pencil.to_json_dict(),
            "lattice": lattice_checks(),
            "passed": self.passed,
        }


def lattice_checks() -> dict:
    """Seed-independent intersection numbers of the example classes."""
    h = hyperplane_class()
    c = curve_class()
    return {"c_dot_h": ns_intersect(c, h), "h_self": ns_intersect(h, h),
            "genus_c": ns_genus(c), "genus_line": ns_genus(NSClass(1, (0,) * 15)),
            "genus_conic": ns_genus(NSClass(2, (0,) * 15))}


def blowup_report(seed: int, field) -> SurfaceReport:
    """One full pass of the construction for one point configuration.

    No internal reseeding: the seed decides the configuration and the
    report tells the truth about it, so failure rates across seeds stay
    measurable.  Stages fail in order; a report carries the dimensions
    reached before the failing stage.
    """
    require_sampling_prime(field)
    h_dim = curve_dim = residual_dim = None
    try:
        cfg = PointConfig.sample(field, 15, seed)
    except GenericityError:
        return SurfaceReport(seed, field.p, "points", None, None, None, None, None)
    try:
        hs = interpolation_basis(cfg, hyperplane_class())
        h_dim = hs.dim
        curve_dim = interpolation_basis(cfg, curve_class()).dim
        residual_dim = interpolation_basis(cfg, residual_class()).dim
    except GenericityError:
        return SurfaceReport(seed, field.p, "linear-systems", h_dim, curve_dim,
                             residual_dim, None, None, cfg)
    qs = _quadrics_through(hs.forms)
    pencil = pencil_nondegeneracy(qs) if qs.dim == 2 else None
    return SurfaceReport(seed, field.p, "quadrics" if pencil is None else "complete",
                         h_dim, curve_dim, residual_dim, qs.dim, pencil, cfg, hs, qs)

