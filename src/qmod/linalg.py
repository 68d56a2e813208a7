"""Dense exact linear algebra over a coefficient field.

Plain Gaussian elimination with the first-nonzero pivot rule: with exact
scalars there is nothing to gain from magnitude pivoting, and a fixed rule
keeps every reduced form (and therefore every serialized kernel)
reproducible bit for bit.

Over a prime field ``Matrix.rref`` (and through it ``kernel_basis`` and
``solve``) packs each row into one Python int, after
the delayed-reduction idea of Dumas, Giorgi and Pernet (FFLAS-FFPACK, ACM
TOMS 2008).  Entry j sits in bits [j*w, (j+1)*w) with

    w = 2*bitlen(p) + bitlen(min(rows, cols)) + 1.

Entries are reduced mod p when packed and when their row becomes a pivot;
in between, each of at most min(rows, cols) eliminations adds at most
(p-1)^2 to a slot, so a slot stays under p + min(rows, cols)*(p-1)^2 < 2^w
and no carry crosses into the next slot.  A row update is then one big-int
multiply-add instead of one field call per entry.  While column c is
eliminated each row is kept as its tail, column c on, with column c in
slot 0, so an update multiplies only the pivot's tail.  After the column
every tail drops slot 0, which is 0 mod p on each row not yet a pivot
(pivot rows record it first).  The slots left hold the same entries and
take the same updates, so the bound, and w, are unchanged.  Pivots, and
so every reduced form, are those of the generic loop.  ``_pack`` and
``_unpack`` also serve ``unipoly.pow_mod``, which packs polynomial
residues the same way under its own width bound.

``Matrix.rank`` over F_p needs only the pivot count, so ``_rank_packed``
runs the forward sweep alone (rank-profile elimination: Jeannerod, Pernet
and Storjohann, J. Symbolic Comput. 56, 2013).  Its rows may hold any
ints; each entry is reduced mod p once, while packing.  A pivot's tail is
reduced when chosen and cancels its column from the rows not yet pivots
with a coefficient p - c*inv % p in [1, p - 1], so each update still adds
at most (p-1)^2 to a slot and w holds.

Over QQ there is no fixed width to pack into, so rationals keep the
generic loop, which is also the reference the packed path is tested
against.  ``det`` is the test oracle of the resultants.  Both use the
one idiom of ``fields``: the scalars' own ``+ - *``, ``F.inv``, one
``F.coerce`` per stored value, and truth tests only on reduced values.
"""

from __future__ import annotations

from .errors import DomainError
from .fields import PrimeField, checked


class Matrix:
    """Immutable-by-convention dense matrix over a field.

    Rows and columns may be zero; a 0 x n matrix has full kernel and an
    n x 0 matrix has an empty one, which the labs rely on for degenerate
    systems.
    """

    def __init__(self, field, rows: int, cols: int, entries, *, _skip_check=False):
        if rows < 0 or cols < 0:
            raise DomainError("matrix dimensions must be nonnegative")
        data = [list(r) for r in entries]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DomainError(f"entry grid does not match shape {rows}x{cols}")
        if not _skip_check:
            data = [checked(field, r) for r in data]
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, field, rows_list):
        rows_list = [list(r) for r in rows_list]
        cols = len(rows_list[0]) if rows_list else 0
        return cls(field, len(rows_list), cols, rows_list)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and (other.rows, other.cols) == (self.rows, self.cols)
            and other.data == self.data
        )

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column tuple."""
        if isinstance(self.field, PrimeField):
            m, pivots = _rref_packed(self.field, self.data, self.cols)
        else:
            m, pivots = _rref_generic(self.field, self.data, self.cols)
        return Matrix(self.field, self.rows, self.cols, m, _skip_check=True), tuple(pivots)

    def rank(self) -> int:
        if isinstance(self.field, PrimeField):
            return _rank_packed(self.field, self.data, self.cols)
        return len(self.rref()[1])

    def kernel_basis(self) -> list[list]:
        """Echelonized right-kernel basis, one vector per free column.

        Vector for free column f has a 1 in slot f and zeros in every other
        free slot; the pivot slots are filled by back substitution.  Sorted
        by free column, so the basis is canonical for a given matrix.
        """
        F = self.field
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for f in free:
            v = [F.zero] * self.cols
            v[f] = F.one
            for k, pc in enumerate(pivots):
                v[pc] = F.coerce(-red.data[k][f])
            basis.append(v)
        return basis

    def det(self):
        if self.rows != self.cols:
            raise DomainError("determinant of a non-square matrix")
        F = self.field
        n = self.rows
        m = [list(r) for r in self.data]
        result = F.one
        for col in range(n):
            sel = None
            for i in range(col, n):
                if m[i][col]:
                    sel = i
                    break
            if sel is None:
                return F.zero
            if sel != col:
                m[col], m[sel] = m[sel], m[col]
                result = F.coerce(-result)
            result = F.coerce(result * m[col][col])
            inv = F.inv(m[col][col])
            for i in range(col + 1, n):
                if m[i][col]:
                    c = F.coerce(inv * m[i][col])
                    m[i] = [F.coerce(x - c * y) for x, y in zip(m[i], m[col])]
        return result

    def solve(self, rhs: list) -> list | None:
        """One exact solution of A x = rhs, or None when inconsistent.

        Free variables are set to zero, so the returned solution is
        canonical.
        """
        if len(rhs) != self.rows:
            raise DomainError("right-hand side length does not match row count")
        F = self.field
        aug = Matrix(
            F, self.rows, self.cols + 1,
            [r + [b] for r, b in zip(self.data, rhs)],
            _skip_check=True,
        )
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [F.zero] * self.cols
        for k, pc in enumerate(pivots):
            x[pc] = red.data[k][self.cols]
        return x


def _rref_generic(F, data, cols: int):
    """Gauss-Jordan with the scalars' own operators: the QQ path, and the
    reference the packed prime-field path is tested against."""
    m = [list(r) for r in data]
    rows = len(m)
    pivots = []
    prow = 0
    for col in range(cols):
        if prow >= rows:
            break
        sel = None
        for i in range(prow, rows):
            if m[i][col]:
                sel = i
                break
        if sel is None:
            continue
        m[prow], m[sel] = m[sel], m[prow]
        inv = F.inv(m[prow][col])
        m[prow] = [F.coerce(inv * x) for x in m[prow]]
        for i in range(rows):
            c = m[i][col]
            if i != prow and c:
                m[i] = [F.coerce(x - c * y) for x, y in zip(m[i], m[prow])]
        pivots.append(col)
        prow += 1
    return m, pivots


def _rref_packed(F, data, cols: int):
    """Gauss-Jordan over F_p on rows packed as tails (module docstring).

    Eliminating the column from a row is one big-int multiply-add,
    t += (p - c) * pivot, with slots left unreduced until the row becomes
    a pivot (and once more at the end).  ``out`` starts as zeros; before
    the tails drop slot 0, a free column's pivot-row entries, or the new
    pivot's 1, are written into it.
    """
    p = F.p
    rows = len(data)
    w = 2 * p.bit_length() + min(rows, cols).bit_length() + 1
    mask = (1 << w) - 1
    tails = [_pack([x % p for x in r], w) for r in data]
    out = [[0] * cols for _ in range(rows)]
    pivots = []
    prow = 0
    col = 0
    while col < cols and prow < rows:
        sel = None
        for i in range(prow, rows):
            if (tails[i] & mask) % p:
                sel = i
                break
        if sel is None:
            for k in range(prow):
                out[k][col] = (tails[k] & mask) % p
        else:
            # Rows at or below prow have written nothing into out (their
            # dropped slots were 0 mod p), so swapping tails swaps rows.
            tails[prow], tails[sel] = tails[sel], tails[prow]
            tail = _unpack(tails[prow], cols - col, w, mask)
            inv = F.inv(tail[0] % p)
            pivot = _pack([inv * x % p for x in tail], w)
            tails[prow] = pivot
            for i in range(rows):
                if i != prow:
                    c = (tails[i] & mask) % p
                    if c:
                        tails[i] += (p - c) * pivot
            out[prow][col] = 1
            pivots.append(col)
            prow += 1
        tails = [t >> w for t in tails]
        col += 1
    # Once every row is a pivot, the columns left are free: unpack them once.
    for k in range(prow):
        out[k][col:] = [x % p for x in _unpack(tails[k], cols - col, w, mask)]
    return out, pivots


def _rank_packed(F, rows, cols: int) -> int:
    """Rank over F_p by the forward sweep alone (module docstring).

    The pivot of each column, once its tail is reduced, cancels the column
    from every row not yet a pivot, t += (p - c*inv % p) * pivot, and is
    dropped, so the rows left are exactly those not yet pivots.
    """
    p = F.p
    w = 2 * p.bit_length() + min(len(rows), cols).bit_length() + 1
    mask = (1 << w) - 1
    tails = [_pack([x % p for x in r], w) for r in rows]
    rank = 0
    for col in range(cols):
        if not tails:
            break
        sel = next((i for i, t in enumerate(tails) if (t & mask) % p), None)
        if sel is not None:
            pivot = _pack([x % p for x in _unpack(tails.pop(sel), cols - col, w, mask)], w)
            inv = F.inv(pivot & mask)
            for i, t in enumerate(tails):
                c = (t & mask) % p
                if c:
                    tails[i] = t + (p - c * inv % p) * pivot
            rank += 1
        tails = [t >> w for t in tails]
    return rank


def _pack(entries, w: int) -> int:
    v = 0
    for x in reversed(entries):
        v = v << w | x
    return v


def _unpack(v: int, n: int, w: int, mask: int) -> list:
    out = []
    for _ in range(n):
        out.append(v & mask)
        v >>= w
    return out
