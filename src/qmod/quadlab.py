"""Quadrics through parametrized rational curves.

Curves live in projective r-space as tuples of binary forms, quadrics as
symmetric matrices.  The ideal-of-quadrics computation is exact linear
algebra on coefficients: a quadric sum c_ij x_i x_j contains the image of
forms f_0 .. f_r exactly when sum c_ij f_i f_j is the zero form, so the
quadrics are the kernel of the matrix whose columns are the products
f_i f_j.  No evaluation nodes, hence no bound on the characteristic, and
no Groebner machinery.  Over F_p that matrix is built packed, as
``linalg`` packs rows: pair (i, j) rides in slot j - i of form i's
ints, one per monomial, so one pass per form over the product table
gives all its pairs; a slot sums at most width(d) products below p^2,
so 2 bitlen(p) + bitlen(width(d)) + 1 bits hold it with no carry.
Randomness enters only where genericity is itself the question, as one
draw per seed from a derived stream; a degenerate draw is reported,
never redrawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add

from . import unipoly
from .binforms import BinaryForm, binary_gcd
from .errors import DomainError, InternalCheckError
from .fields import (DEFAULT_PRIME, PrimeField, checked, derived_rng,
                     require_sampling_prime)
from .invariants import _require_ints
from .linalg import Matrix, _rank_packed, _unpack
from .ternary import TernaryForm, monomial_index, monomials, no_common_zero


@lru_cache(maxsize=None)
def upper_pairs(size: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (i, j) with i <= j in row-major order.

    This is the flattening order shared by quadratic-form coefficient
    vectors and symmetric-matrix upper triangles everywhere below.
    """
    return tuple((i, j) for i in range(size) for j in range(i, size))


class SymQuadric:
    """Symmetric matrix representing a quadric hypersurface.

    Immutable by convention, so its rank is computed once and kept.
    """

    __slots__ = ("field", "size", "entries", "_rank")

    def __init__(self, field, entries, *, _skip_check=False):
        rows = [list(r) for r in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DomainError("quadric matrix must be square")
        if not _skip_check:
            rows = [checked(field, r) for r in rows]
            for i in range(n):
                for j in range(i + 1, n):
                    if rows[i][j] != rows[j][i]:
                        raise DomainError("quadric matrix must be symmetric")
        self.field = field
        self.size = n
        self.entries = rows
        self._rank = None

    @classmethod
    def from_upper_coeffs(cls, field, size: int, coeffs) -> "SymQuadric":
        """Build from quadratic-form coefficients in upper_pairs order.

        Off-diagonal form coefficients split in half between the two
        matrix slots, so the field characteristic must not be 2; the
        field layer already refuses p = 2.
        """
        coeffs = list(coeffs)
        pairs = upper_pairs(size)
        if len(coeffs) != len(pairs):
            raise DomainError(
                f"expected {len(pairs)} coefficients for size {size}, got {len(coeffs)}"
            )
        half = field.inv(field.coerce(2))
        z = field.zero
        m = [[z] * size for _ in range(size)]
        for (i, j), c in zip(pairs, coeffs):
            c = field.coerce(c)
            if i == j:
                m[i][i] = c
            else:
                m[i][j] = m[j][i] = field.coerce(half * c)
        return cls(field, m, _skip_check=True)

    def upper_coeffs(self) -> list:
        """Quadratic-form coefficients, inverse of from_upper_coeffs."""
        out = []
        for i, j in upper_pairs(self.size):
            if i == j:
                out.append(self.entries[i][i])
            else:
                out.append(self.field.coerce(2 * self.entries[i][j]))
        return out

    def evaluate(self, point):
        """Value of the quadratic form x^T M x at an affine representative."""
        point = [self.field.coerce(x) for x in point]
        if len(point) != self.size:
            raise DomainError("point length must match the matrix size")
        return self.field.coerce(sum(x * sum(a * y for a, y in zip(row, point))
                                     for x, row in zip(point, self.entries)))

    def matrix(self) -> Matrix:
        return Matrix(self.field, self.size, self.size,
                      [row[:] for row in self.entries], _skip_check=True)

    def rank(self) -> int:
        if self._rank is None:
            self._rank = self.matrix().rank()
        return self._rank

    def __eq__(self, other):
        if not isinstance(other, SymQuadric):
            return NotImplemented
        return (self.field == other.field and self.size == other.size
                and self.entries == other.entries)

    def __repr__(self):
        return f"SymQuadric(size={self.size})"

    def to_json_dict(self) -> dict:
        fmt = self.field.format
        return {"size": self.size,
                "entries": [[fmt(x) for x in row] for row in self.entries]}


def _unit_witnessed(rows) -> bool:
    """Each row alone is nonzero in some column, which forces its weight
    to 0 in any vanishing combination: the rows are independent."""
    witnessed = set()
    for col in zip(*rows):
        nonzero = [i for i, x in enumerate(col) if x]
        if len(nonzero) == 1:
            witnessed.add(nonzero[0])
    return len(witnessed) == len(rows)


class QuadricSystem:
    """A linearly independent family of quadrics in one ambient space, proven
    so by a witness column per member (a column where it alone is nonzero, as
    kernel bases have), else by the rank of the coefficient matrix.  Rows are
    upper-triangle entries: half the form coefficients off the diagonal, with
    the same zero pattern and rank, as no field here has characteristic 2."""

    __slots__ = ("field", "r", "basis")

    def __init__(self, field, r: int, basis):
        basis = list(basis)
        for q in basis:
            if q.field != field:
                raise DomainError("system members must share the field")
            if q.size != r + 1:
                raise DomainError("system members must share the ambient space")
        if basis:
            pairs = upper_pairs(r + 1)
            rows = [[q.entries[i][j] for i, j in pairs] for q in basis]
            if not _unit_witnessed(rows) and Matrix(
                    field, len(rows), len(pairs), rows, _skip_check=True).rank() != len(basis):
                raise DomainError("system basis is linearly dependent")
        self.field = field
        self.r = r
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_json_dict(self) -> dict:
        return {"r": self.r, "dim": self.dim,
                "basis": [q.to_json_dict() for q in self.basis]}


class ParamCurve:
    """A rational curve in projective r-space: r + 1 binary forms of one
    common degree whose gcd is constant, so no common projective root."""

    __slots__ = ("field", "r", "degree", "components")

    def __init__(self, field, r: int, components, *, _trusted=False):
        components = list(components)
        if r < 1:
            raise DomainError("ambient projective space needs r >= 1")
        if len(components) != r + 1:
            raise DomainError(f"expected {r + 1} components, got {len(components)}")
        d = components[0].degree
        for comp in components:
            if comp.field != field:
                raise DomainError("curve components must share the field")
            if comp.degree != d:
                raise DomainError("curve components must share one degree")
        if d < 1:
            raise DomainError("curve degree must be positive")
        self.field = field
        self.r = r
        self.degree = d
        self.components = components
        if not _trusted:
            self._check_no_common_root()

    def _check_no_common_root(self):
        nonzero = [comp for comp in self.components if not comp.is_zero()]
        if not nonzero or reduce(binary_gcd, nonzero).degree > 0:
            raise DomainError("curve components share a projective root")

    @classmethod
    def rational_normal(cls, field, r: int) -> "ParamCurve":
        """The degree-r monomial curve; s^r and t^r rule out common roots."""
        comps = [BinaryForm.monomial(field, r, i) for i in range(r + 1)]
        return cls(field, r, comps, _trusted=True)

    def is_monomial_basis(self) -> bool:
        if self.degree != self.r:
            return False
        # Component i must be s^(r-i) t^i: its coefficients the i-th unit vector.
        return all(c == int(i == j) for i, comp in enumerate(self.components)
                   for j, c in enumerate(comp.coeffs))

    def evaluate(self, t) -> list:
        """Affine-chart point c(1, t) as a coordinate list."""
        F = self.field
        t = F.coerce(t)
        return [unipoly.evaluate(F, comp.coeffs, t) for comp in self.components]


def _pair_width(p: int, form, degree: int) -> int:
    """Bits per pair slot: a slot sums at most width(degree) products below p^2."""
    return 2 * p.bit_length() + form.width(degree).bit_length() + 1


def _packed_pair_rows(forms, w: int) -> list[int]:
    """Per product monomial, one int whose slot k holds the exact
    coefficient of the k-th upper pair's product."""
    form, d, n = type(forms[0]), forms[0].degree, len(forms)
    table = form.product_table(d, d)
    rows = [0] * form.width(2 * d)
    packed = [0] * form.width(d)
    for i in range(n - 1, -1, -1):
        a = forms[i].coeffs
        packed = [x + (y << w) for x, y in zip(a, packed)]
        acc = [0] * len(rows)
        for n1, n2, no in table:
            acc[no] += a[n1] * packed[n2]
        shift = (i * n - i * (i - 1) // 2) * w
        rows = [x + (y << shift) for x, y in zip(rows, acc)]
    return rows


def _pair_product_rows(field, forms) -> list[list]:
    """The matrix whose column k holds the coefficients of the k-th upper
    pair's product: over F_p ``_packed_pair_rows``, each slot unpacked and
    reduced once, over QQ one ``Form.mul`` per pair."""
    pairs = upper_pairs(len(forms))
    if not isinstance(field, PrimeField):
        return [list(row) for row in zip(*(forms[i].mul(forms[j]).coeffs
                                           for i, j in pairs))]
    p = field.p
    w = _pair_width(p, type(forms[0]), forms[0].degree)
    mask = (1 << w) - 1
    return [[x % p for x in _unpack(v, len(pairs), w, mask)]
            for v in _packed_pair_rows(forms, w)]


def _quadrics_through(field, r: int, forms) -> QuadricSystem:
    """Quadrics in P^r containing the image of the r + 1 forms.

    The products forms[i] * forms[j], in upper_pairs order, are the
    columns and their coefficients the rows (``_pair_product_rows``); a
    kernel vector is the upper-pair coefficient list of a quadric that
    pulls back to zero.  Over F_p form i packs forms i.. into one int per
    monomial, pair (i, j) in slot j - i, so one pass over the product
    table, acc[no] += f_i[n1] * P[n2], forms every pair (i, j >= i); acc,
    shifted to the slot of pair (i, i), is added into the rows.  A slot
    sums at most width(d) products below p^2, so slots of
    w = 2 bitlen(p) + bitlen(width(d)) + 1 bits never carry.
    """
    pairs = upper_pairs(r + 1)
    rows = _pair_product_rows(field, forms)
    kern = Matrix(field, len(rows), len(pairs), rows, _skip_check=True).kernel_basis()
    return QuadricSystem(field, r, [SymQuadric.from_upper_coeffs(field, r + 1, v)
                                    for v in kern])


def i2_basis(c: ParamCurve) -> QuadricSystem:
    """Quadrics vanishing on the curve, computed exactly from coefficients.

    A quadric restricted to the curve is the binary form sum c_ij f_i f_j
    of degree 2d, so vanishing on the curve is the vanishing of its 2d + 1
    coefficients: exact over any field, whatever its size.
    """
    if c.r < 3:
        raise DomainError("quadric systems need ambient dimension r >= 3")
    return _quadrics_through(c.field, c.r, c.components)


def rnc_i2_dim(r: int) -> int:
    """Expected quadric count for the degree-r monomial curve."""
    if r < 3:
        raise DomainError("quadric systems need ambient dimension r >= 3")
    return r * (r - 1) // 2


@dataclass(frozen=True)
class PencilDecomposition:
    """Input data for the bounded-rank quadric construction.

    One pencil (f, g) is always present; the second pencil (u, v) appears
    only in the rank-4 shape; h is the residual common factor.
    """

    f: BinaryForm
    g: BinaryForm
    u: BinaryForm | None
    v: BinaryForm | None
    h: BinaryForm

    def __post_init__(self):
        if self.f.degree != self.g.degree:
            raise DomainError("pencil members f and g must share a degree")
        if (self.u is None) != (self.v is None):
            raise DomainError("second pencil needs both u and v or neither")
        if self.u is not None and self.u.degree != self.v.degree:
            raise DomainError("pencil members u and v must share a degree")
        fields = {self.f.field, self.g.field, self.h.field}
        if self.u is not None:
            fields |= {self.u.field, self.v.field}
        if len(fields) != 1:
            raise DomainError("decomposition members must share the field")

    @property
    def kind(self) -> int:
        return 3 if self.u is None else 4


# Both bounded-rank shapes are Q = l(A) l(B) - l(C) l(D), each product
# spelled by the decomposition members it multiplies.  Rank 3 is the rank-4
# word list with (u, v) = (f, g).
_PRODUCTS = {3: ("ffh", "ggh", "fgh", "fgh"), 4: ("fuh", "gvh", "fvh", "guh")}


def _product(pd: PencilDecomposition, word: str) -> BinaryForm:
    acc = getattr(pd, word[0])
    for name in word[1:]:
        acc = acc.mul(getattr(pd, name))
    return acc


def _products(pd: PencilDecomposition):
    """``_product`` on pd, multiplying each distinct word once per call: a
    rank-3 word list repeats "fgh", and a rest word such as "uh" serves
    several Jacobian members."""
    return lru_cache(maxsize=None)(lambda word: _product(pd, word))


def bounded_rank_quadric(pd: PencilDecomposition, c: ParamCurve) -> SymQuadric:
    """The quadric l(A) l(B) - l(C) l(D) on the monomial curve, with the
    products spelled by ``_PRODUCTS[pd.kind]``.

    Rank is at most 4, and at most 3 without a second pencil, which is the
    (u, v) = (f, g) case; it degenerates to zero when f = g or u = v.
    """
    if not c.is_monomial_basis():
        raise DomainError("construction is written against the monomial curve")
    u = pd.f if pd.u is None else pd.u
    if pd.f.degree + u.degree + pd.h.degree != c.degree:
        raise DomainError(
            "component degrees must satisfy deg f + deg u + deg h = curve degree")
    if pd.f.degree < 1 or u.degree < 1:
        raise DomainError("pencil degrees must be at least 1")
    # It vanishes on the curve because AB = CD as binary forms, the same
    # multiplicative identity the pulled-back linear forms satisfy, and its
    # matrix has rank at most 4 (3 when C = D) by construction.
    k = pd.kind
    a, b, cc, d = map(_products(pd), _PRODUCTS[k])
    if a.mul(b) != cc.mul(d):
        raise InternalCheckError(f"rank-{k} product identity failed")
    n = len(a.coeffs)
    q = SymQuadric.from_upper_coeffs(c.field, n, _shifted_rows(
        n, [(1, a.coeffs, b.coeffs), (-1, cc.coeffs, d.coeffs)], [0])[0])
    if q.rank() > k:
        raise InternalCheckError(f"rank-{k} construction exceeded rank {k}")
    return q


def _shape(r: int, k: int, stratum) -> tuple[int, int, int]:
    """(deg f, deg u, deg h) of the rank-<=k stratum in P^r.

    A rank-3 stratum is its residual degree x and reads u as f, so its
    shape is (m, m, x); a rank-4 stratum is the triple itself.
    """
    if k == 3:
        _require_ints("r, k and the stratum degrees", r, k, stratum)
        x = stratum
        if x < 0 or (r - x) % 2 != 0 or r - x < 2:
            raise DomainError(f"empty stratum: no rank-3 shape with r={r}, x={x}")
        m = (r - x) // 2
        return m, m, x
    if k != 4:
        raise DomainError("rank bound must be 3 or 4")
    try:
        m, mp, x = stratum
    except (TypeError, ValueError):
        raise DomainError("rank-4 stratum is a triple (deg f, deg u, deg h)") from None
    _require_ints("r, k and the stratum degrees", r, k, m, mp, x)
    if m < 1 or mp < 1 or x < 0 or m + mp + x != r:
        raise DomainError(f"empty stratum: no rank-4 shape with r={r}, stratum={stratum}")
    if m + mp < 3:
        # With both pencils linear the four cross products live in the
        # 3-dimensional space of quadratics, so the quadric never
        # reaches rank 4; the shape is a disguised rank-3 one.
        raise DomainError(f"empty stratum: pencil degrees {m}+{mp} give rank <= 3")
    return m, mp, x


def rank3_strata(r: int) -> list[int]:
    """Legal residual degrees x for the rank-3 shape in P^r."""
    return [x for x in range(r - 2, -1, -2)]


def rank4_strata(r: int) -> list[tuple[int, int, int]]:
    """Legal (deg f, deg u, deg h) triples for the rank-4 shape in P^r."""
    out = []
    for m in range(1, r):
        for mp in range(max(1, 3 - m), r - m + 1):
            x = r - m - mp
            if x >= 0:
                out.append((m, mp, x))
    return out


def _random_form(field, degree: int, rng) -> BinaryForm:
    return BinaryForm(field, degree, [field.random_element(rng)
                                      for _ in range(degree + 1)])


def random_decomposition(field, r: int, k: int, stratum, rng) -> PencilDecomposition:
    """A random point of the rank-<=k stratum, drawn in the order f, g,
    then u, v for k = 4 only, then h."""
    m, mp, x = _shape(r, k, stratum)
    f, g = _random_form(field, m, rng), _random_form(field, m, rng)
    u = v = None
    if k == 4:
        u, v = _random_form(field, mp, rng), _random_form(field, mp, rng)
    return PencilDecomposition(f, g, u, v, _random_form(field, x, rng))


def _shifted_rows(n: int, terms, shifts) -> list[list]:
    """Rows, in upper_pairs(n) order, of sum w l(e_j a) l(b) over the
    (w, a, b) terms, one per shift j, where e_j is the monomial of index j.

    e_j moves the coefficients of a up j slots, so row j is the exact outer
    product U = sum w a b^T moved down j rows, V, read as V[i][k] + V[k][i]
    off the diagonal and V[i][i] on it.  Entries are the exact sums, not
    reduced: each consumer reduces them once, ``from_upper_coeffs`` by
    ``coerce`` and ``family_dimension`` while packing for its rank.
    """
    outer = [[0] * n for _ in terms[0][1]]
    for w, a, b in terms:
        for s, x in enumerate(a):
            outer[s] = [u + w * x * y for u, y in zip(outer[s], b)]
    rows = []
    for j in shifts:
        v = [[0] * n] * j + outer + [[0] * n] * (n - j - len(outer))
        row = []
        for i, (vi, ti) in enumerate(zip(v, zip(*v))):
            row.append(vi[i])
            row.extend(map(add, vi[i + 1:], ti[i + 1:]))
        rows.append(row)
    return rows


def _jacobian_rows(r: int, pd: PencilDecomposition) -> list[list]:
    """Jacobian of the coefficients of Q = l(A) l(B) - l(C) l(D) with
    respect to every coefficient of f, g, u, v, h, in that order.

    By the product rule each occurrence of a member in a product gives one
    term (its monomial times the rest of the product, against the partner
    product); equal terms merge into one weight, so a rank-3 member keeps
    two or three terms.  A monomial only shifts the rest up, so the rows of
    one member are shifts of one outer product (``_shifted_rows``), and
    the entries are exact sums, reduced by whoever consumes them.
    """
    words = _PRODUCTS[pd.kind]
    partner = (1, 0, 3, 2)
    product = _products(pd)
    rows = []
    for name in "fguvh":
        form = getattr(pd, name)
        if form is None:
            continue
        weights: dict = {}
        for pos, word in enumerate(words):
            sign = 1 if pos < 2 else -1
            for i, letter in enumerate(word):
                if letter == name:
                    key = (word[:i] + word[i + 1:], words[partner[pos]])
                    weights[key] = weights.get(key, 0) + sign
        terms = [(w, product(rest).coeffs, product(other).coeffs)
                 for (rest, other), w in weights.items()]
        rows.extend(_shifted_rows(r + 1, terms, range(form.degree + 1)))
    return rows


def expected_family_dim(r: int, k: int, stratum) -> int:
    """Projective dimension each stratum should reach, by parameter count
    minus the generic stabilizer of the construction.

    Rank 3: r + 3 parameters, a 4-dimensional stabilizer (pencil changes
    of basis and the residual scale acting with cancelling determinant
    twists), so r - 2 projectively.  Rank 4: 2r - x + 5 parameters and an
    8-dimensional stabilizer, so 2r - x - 4.
    """
    x = _shape(r, k, stratum)[2]
    return r - 2 if k == 3 else 2 * r - x - 4


def family_dimension(r: int, k: int, stratum, *, field=None, seed: int = 0) -> int:
    """Projective dimension of a bounded-rank stratum: the Jacobian rank of
    its parametrization at one seeded parameter point, minus 1.

    A special point can only drop the rank, and the drop shows as a
    failure, never redrawn.  The exact Jacobian rows go straight to
    ``linalg._rank_packed``, which reduces each entry once while packing.
    """
    if field is None:
        field = PrimeField(DEFAULT_PRIME)
    require_sampling_prime(field)
    m, mp, x = _shape(r, k, stratum)
    labels = (3, r, x) if k == 3 else (4, r, m, mp, x)
    ncols = len(upper_pairs(r + 1))
    rng = derived_rng(seed, "family-dim", *labels, 0)
    rows = _jacobian_rows(r, random_decomposition(field, r, k, stratum, rng))
    return _rank_packed(field, rows, ncols) - 1


def random_chord(field, rng) -> tuple:
    """Two distinct random parameter values, the second redrawn on a tie."""
    t1 = field.random_element(rng)
    t2 = field.random_element(rng)
    while t2 == t1:
        t2 = field.random_element(rng)
    return t1, t2


def secant_condition(c: ParamCurve, t1, t2, *, system: QuadricSystem) -> int:
    """Codimension cut in ``system``, the I2 of c that ``i2_basis(c)``
    returns, by vanishing on the chord through c(t1), c(t2).

    A quadric in the system already vanishes at the two chord points, so
    vanishing at the third point p1 + p2 is vanishing on the whole line.
    The answer is 0 or 1; 1 is the generic value.
    """
    field = c.field
    t1 = field.coerce(t1)
    t2 = field.coerce(t2)
    if t1 == t2:
        raise DomainError("secant needs two distinct parameter values")
    p1 = c.evaluate(t1)
    p2 = c.evaluate(t2)
    if Matrix.from_rows(field, [p1, p2]).rank() < 2:
        raise DomainError("parameter values give proportional points")
    p3 = [field.coerce(a + b) for a, b in zip(p1, p2)]
    return 1 if any(q.evaluate(p3) for q in system.basis) else 0


def _random_sym_quadric(field, size: int, rng) -> SymQuadric:
    z = field.zero
    rows = [[z] * size for _ in range(size)]
    for i, j in upper_pairs(size):
        a = field.random_element(rng)
        rows[i][j] = a
        rows[j][i] = a
    return SymQuadric(field, rows, _skip_check=True)


def genus4_check(seed: int, field=None) -> int:
    """Rank of one seeded random symmetric 4 by 4 matrix; no curve is
    built, and the expected rank is 4."""
    if field is None:
        field = PrimeField(DEFAULT_PRIME)
    require_sampling_prime(field)
    rng = derived_rng(seed, "genus4")
    return _random_sym_quadric(field, 4, rng).rank()


def form_matrix_det(entries, unit):
    """Determinant of a square matrix of linear forms, DP over column subsets.

    The entries are degree-1 ``Form`` instances of one class (binary or
    ternary); unit is the degree-0 form 1 of that class.  Column-subset
    minors are built one row at a time as coefficient lists, so the work
    is n 2^(n-1) products by a linear entry instead of n! expansion terms.
    Such a product adds a times the minor into shifted positions, one
    variable at a time (``_variable_shifts``), and each stored minor
    coefficient is reduced once per row.
    """
    n = len(entries)
    if any(len(r) != n for r in entries):
        raise DomainError("determinant of a non-square matrix")
    form, F = type(unit), unit.field
    if unit.degree != 0 or any(type(e) is not form or e.degree != 1 or e.field != F
                               for r in entries for e in r):
        raise DomainError("form determinant needs a degree-0 unit and linear entries like it")
    states = {0: unit.coeffs}
    for row in range(n):
        shifts, width = _variable_shifts(form, row), form.width(row + 1)
        nxt: dict = {}
        for mask, minor in states.items():
            below = 0
            for j in range(n):
                if mask >> j & 1:
                    below += 1
                    continue
                acc = nxt.setdefault(mask | (1 << j), [0] * width)
                sign = -1 if (row - below) % 2 else 1
                for a, shift in zip(entries[row][j].coeffs, shifts):
                    if a:
                        a *= sign
                        for k, c in zip(shift, minor):
                            acc[k] += a * c
        states = {key: [F.coerce(c) for c in acc] for key, acc in nxt.items()}
    return form(F, n, states[(1 << n) - 1], _skip_check=True)


@lru_cache(maxsize=None)
def _variable_shifts(form, degree: int) -> tuple:
    """Per variable k of ``form``, the index in degree + 1 of each
    degree-``degree`` monomial times that variable."""
    if form is BinaryForm:
        return tuple(range(degree + 1)), tuple(range(1, degree + 2))
    idx = monomial_index(degree + 1)
    return tuple(tuple(idx[tuple(x + (t == k) for t, x in enumerate(e))]
                       for e in monomials(degree)) for k in range(3))


def _linear_family_det(form, quadrics):
    """det(sum_k l_k Q_k) as a form of class ``form`` in the l_k, of
    degree = matrix size; ``form`` is BinaryForm for a pencil and
    TernaryForm for a net."""
    field = quadrics[0].field
    n = quadrics[0].size
    if any(q.size != n for q in quadrics):
        raise DomainError("family members must share the ambient space")
    if any(q.field != field for q in quadrics):
        raise DomainError("family members must share the field")
    lin = [[form(field, 1, [q.entries[i][j] for q in quadrics]) for j in range(n)]
           for i in range(n)]
    return form_matrix_det(lin, form(field, 0, [field.one]))


def net_discriminant(q1: SymQuadric, q2: SymQuadric, q3: SymQuadric) -> TernaryForm:
    """det(x Q1 + y Q2 + z Q3) as a ternary form of degree = matrix size."""
    return _linear_family_det(TernaryForm, (q1, q2, q3))


@dataclass(frozen=True)
class Genus5Report:
    """Outcome of the smoothness certificate on one seed's net of quadrics."""

    seed: int
    prime: int
    discriminant_nonzero: bool
    chart_coprime: bool
    line_coprime: bool

    # One draw per seed; the benchmark's span tag reads this.
    attempts = 1

    @property
    def passed(self) -> bool:
        return self.discriminant_nonzero and self.chart_coprime and self.line_coprime

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "prime": self.prime,
            "discriminant_nonzero": self.discriminant_nonzero,
            "chart_coprime": self.chart_coprime,
            "line_coprime": self.line_coprime,
            "passed": self.passed,
        }


def genus5_net_check(seed: int, field=None) -> Genus5Report:
    """Smoothness certificate for the seed's random net of quadrics in P^4.

    Passes when the discriminant quintic D = det(x Q1 + y Q2 + z Q3) is
    nonzero and its three partials have no common zero over the algebraic
    closure (``ternary.no_common_zero``), so D is smooth (Euler's formula,
    p > 5).  A member of rank <= 3 has zero adjugate, and the partials of
    D at its point are traces against the adjugate, so it would be a
    singular point of D: a pass proves that no member has rank <= 3, and
    that the base locus is a smooth canonical curve of genus 5.  One net
    per seed: a degenerate draw fails.
    """
    if field is None:
        field = PrimeField(DEFAULT_PRIME)
    require_sampling_prime(field)
    rng = derived_rng(seed, "genus5-net", 0)
    qs = [_random_sym_quadric(field, 5, rng) for _ in range(3)]
    disc = net_discriminant(*qs)
    chart, line = no_common_zero([disc.partial(v) for v in range(3)])
    return Genus5Report(seed, field.p, not disc.is_zero(), chart, line)
