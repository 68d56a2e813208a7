"""Plane interpolation models of a blown-up surface.

The running example is the plane blown up at 15 general points, with a
degree-13 class embedding it into projective 6-space and a pencil of
quadrics through the image.  Linear systems with assigned base
multiplicities are exact kernels of derivative-evaluation matrices;
everything downstream (quadrics through the image, the discriminant of
their pencil) is exact linear algebra over the same field.  Genericity of
sampled data is the only probabilistic ingredient: each seed makes one
draw, and a degenerate draw is reported for that seed, never redrawn.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import comb

from .binforms import BinaryForm
from .errors import DomainError, FieldMismatchError, GenericityError, InternalCheckError
from .fields import DEFAULT_PRIME, PrimeField, derived_rng, require_sampling_prime
from .linalg import Matrix
from .quadlab import QuadricSystem, SymQuadric, _linear_family_det, _quadrics_through
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
    """General points of the plane, held as normalized representatives.

    The genericity the interpolation matrices rely on is checked at
    construction time: pairwise distinct, no three collinear.  The
    collinearity check runs over all triples, a stronger condition than
    the multiple-point subsets strictly need.
    """

    __slots__ = ("field", "points", "seed")

    def __init__(self, field, points, *, seed=None):
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


def _taylor(coeffs, x0, n: int) -> list:
    """The first n coefficients of p(x0 + u), p given highest power first:
    repeated synthetic division by x - x0 with unreduced scalars."""
    out = []
    for _ in range(n):
        acc, quot = 0, []
        for c in coeffs:
            acc = acc * x0 + c
            quot.append(acc)
        out.append(quot.pop() if quot else 0)
        coeffs = quot
    return out


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
    """

    __slots__ = ("field", "cls", "forms", "config")

    def __init__(self, field, cls: NSClass, basis, config: PointConfig):
        if config.field != field:
            raise FieldMismatchError("configuration points live over another field")
        if len(cls.mults) != config.n:
            raise DomainError("one multiplicity per configured point required")
        self.field = field
        self.cls = cls
        self.forms = [TernaryForm(field, cls.a, v) for v in basis]
        self.config = config
        self._verify_multiplicities()

    @property
    def dim(self) -> int:
        return len(self.forms)

    def _verify_multiplicities(self):
        F, d = self.field, self.cls.a
        for f in self.forms:
            # Per chart (the last nonzero coordinate, which PointConfig
            # scales to 1), cols[d - j] holds the coefficient of v^j: a
            # polynomial in u, highest power first.
            columns = {}
            for pt, m in zip(self.config.points, self.cls.mults):
                chart = max(i for i in range(3) if pt[i])
                x0, y0 = (pt[i] for i in range(3) if i != chart)
                if chart not in columns:
                    cols = columns[chart] = [[0] * (k + 1) for k in range(d + 1)]
                    for e, c in zip(monomials(d), f.coeffs):
                        cols[d - e[1 if chart == 2 else 2]][e[chart]] = c
                top = min(m, d + 1)
                shifted = [_taylor(col, x0, top) for col in columns[chart]]
                for a in range(top):
                    for c in _taylor([s[a] for s in shifted], y0, top - a):
                        if F.coerce(c):
                            raise InternalCheckError(
                                "system member misses an assigned multiplicity")

    def to_json_dict(self) -> dict:
        fmt = self.field.format
        return {"class": self.cls.to_json_dict(), "dim": self.dim,
                "basis": [[fmt(c) for c in f.coeffs] for f in self.forms]}


def _interpolation_kernel(cfg: PointConfig, cls: NSClass) -> PlaneSystem:
    """Kernel of the Hasse-derivative rows: at (x0, y0, 1) of multiplicity m,
    row (dx, dy), dx + dy < m, is the coefficient of u^dx v^dy in
    f(x0 + u, y0 + v), binomial and exact in every characteristic."""
    field = cfg.field
    a = cls.a
    if a < 0:
        raise DomainError("negative degree carries no forms")
    if len(cls.mults) != cfg.n:
        raise DomainError("one multiplicity per configured point required")
    if any(m < 0 for m in cls.mults):
        raise DomainError("assigned multiplicities must be nonnegative")
    mons = monomials(a)
    zero = field.zero
    rows = []
    for pt, m in zip(cfg.points, cls.mults):
        if m == 0:
            continue
        if pt[2] != field.one:
            raise DomainError("interpolation works in the affine chart z = 1")
        xp = _powers(field, pt[0], a)
        yp = _powers(field, pt[1], a)
        for dx in range(m):
            for dy in range(m - dx):
                row = []
                for (al, be, _) in mons:
                    if al < dx or be < dy:
                        row.append(zero)
                        continue
                    row.append(field.coerce(
                        comb(al, dx) * comb(be, dy) * xp[al - dx] * yp[be - dy]))
                rows.append(row)
    kern = Matrix(field, len(rows), len(mons), rows, _skip_check=True).kernel_basis()
    return PlaneSystem(field, cls, kern, cfg)


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


def pencil_discriminant(q1: SymQuadric, q2: SymQuadric) -> BinaryForm:
    """det(s Q1 + t Q2) as a binary form of degree = matrix size."""
    return _linear_family_det(BinaryForm, (q1, q2))


@dataclass(frozen=True)
class PencilReport:
    """Discriminant data for a pencil of quadrics."""

    degree: int
    nonzero: bool
    squarefree: bool
    nondegenerate: bool
    coeffs: tuple

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
    disc = pencil_discriminant(sys.basis[0], sys.basis[1])
    nonzero = not disc.is_zero()
    sf = disc.squarefree() if nonzero else False
    fmt = sys.field.format
    return PencilReport(degree=disc.degree, nonzero=nonzero, squarefree=sf,
                        nondegenerate=nonzero and sf,
                        coeffs=tuple(fmt(c) for c in disc.coeffs))


def _carried():
    # A built object a report keeps for dumping, outside equality and repr.
    return dataclasses.field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SurfaceReport:
    """Outcome of the full blow-up verification chain for one seed.

    The sampled points, the hyperplane system and the quadric system the
    report judged ride along for dumping; they take no part in equality,
    repr or the JSON payload.
    """

    seed: int
    prime: int
    stage: str
    h_dim: int | None
    curve_dim: int | None
    residual_dim: int | None
    i2_dim: int | None
    pencil: PencilReport | None
    passed: bool
    config: PointConfig | None = _carried()
    hyperplane: PlaneSystem | None = _carried()
    quadrics: QuadricSystem | None = _carried()

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


def blowup_report(seed: int, field=None) -> SurfaceReport:
    """One full pass of the construction for one point configuration.

    No internal reseeding: the seed decides the configuration and the
    report tells the truth about it, so failure rates across seeds stay
    measurable.  Stages fail in order; a report carries the dimensions
    reached before the failing stage.
    """
    if field is None:
        field = PrimeField(DEFAULT_PRIME)
    require_sampling_prime(field)
    prime = field.p
    h_dim = curve_dim = residual_dim = None
    try:
        cfg = PointConfig.sample(field, 15, seed)
    except GenericityError:
        return SurfaceReport(seed, prime, "points", None, None, None, None, None, False)
    try:
        hs = interpolation_basis(cfg, hyperplane_class())
        h_dim = hs.dim
        curve_dim = interpolation_basis(cfg, curve_class()).dim
        residual_dim = interpolation_basis(cfg, residual_class()).dim
    except GenericityError:
        return SurfaceReport(seed, prime, "linear-systems", h_dim, curve_dim,
                             residual_dim, None, None, False, cfg)
    qs = _quadrics_through(field, hs.dim - 1, hs.forms)
    if qs.dim != 2:
        return SurfaceReport(seed, prime, "quadrics", h_dim, curve_dim,
                             residual_dim, qs.dim, None, False, cfg, hs, qs)
    pencil = pencil_nondegeneracy(qs)
    passed = (h_dim == 7 and curve_dim == 12 and residual_dim == 0
              and pencil.nondegenerate and pencil.degree == 7)
    return SurfaceReport(seed, prime, "complete", h_dim, curve_dim,
                         residual_dim, qs.dim, pencil, passed, cfg, hs, qs)

