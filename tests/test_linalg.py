import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmod import linalg
from qmod.errors import DomainError
from qmod.fields import QQ, DEFAULT_PRIME, PrimeField
from qmod.linalg import Matrix

from kernel_oracles import PACKED_PRIMES


def _plain_rank(rows):
    """Textbook fraction elimination, kept independent of Matrix."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [inv * x for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                c = work[i][col]
                work[i] = [a - c * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


small_matrix = st.lists(
    st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=5),
    min_size=1, max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(small_matrix)
def test_rank_matches_plain_elimination(rows):
    m = Matrix.from_rows(QQ, rows)
    assert m.rank() == _plain_rank(rows)


@given(small_matrix)
def test_rank_plus_nullity(rows):
    m = Matrix.from_rows(QQ, rows)
    assert m.rank() + len(m.kernel_basis()) == m.cols


@given(small_matrix)
def test_kernel_vectors_annihilate_rows(rows):
    m = Matrix.from_rows(QQ, rows)
    for vec in m.kernel_basis():
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0


@given(small_matrix)
def test_rank_agrees_between_fields(rows):
    # Entries are tiny, so reduction mod 2^61-1 cannot change the rank.
    fp = PrimeField(DEFAULT_PRIME)
    over_q = Matrix.from_rows(QQ, rows).rank()
    reduced = [[fp.coerce(x) for x in row] for row in rows]
    over_p = Matrix.from_rows(fp, reduced).rank()
    assert over_q == over_p


def test_solve_round_trip():
    rng = random.Random(11)
    fp = PrimeField(DEFAULT_PRIME)
    for _ in range(20):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[fp.random_element(rng) for _ in range(ncols)] for _ in range(nrows)]
        x0 = [fp.random_element(rng) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x0)) % fp.p for row in rows]
        m = Matrix.from_rows(fp, rows)
        x = m.solve(rhs)
        assert x is not None
        for row, want in zip(rows, rhs):
            assert sum(a * b for a, b in zip(row, x)) % fp.p == want


def test_solve_reports_inconsistency():
    m = Matrix.from_rows(QQ, [[1, 1], [2, 2]])
    assert m.solve([1, 3]) is None
    assert m.solve([1, 2]) is not None


def test_det_of_triangular_matrix():
    m = Matrix.from_rows(QQ, [[2, 5, 1], [0, 3, 8], [0, 0, 7]])
    assert m.det() == 42


def test_det_vanishes_iff_rank_drops():
    rng = random.Random(5)
    fp = PrimeField(DEFAULT_PRIME)
    for _ in range(10):
        rows = [[fp.random_element(rng) for _ in range(4)] for _ in range(4)]
        m = Matrix.from_rows(fp, rows)
        assert (m.det() == 0) == (m.rank() < 4)
    singular = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    assert singular.det() == 0


def test_empty_matrix_is_legal():
    m = Matrix(QQ, 0, 4, [])
    assert m.rank() == 0
    assert len(m.kernel_basis()) == 4
    # Empty matrices of different shapes hold the same (empty) rows.
    assert Matrix(QQ, 0, 3, []) != Matrix(QQ, 0, 5, [])
    assert Matrix(QQ, 0, 3, []) == Matrix(QQ, 0, 3, [])


def test_ragged_rows_rejected():
    with pytest.raises(DomainError):
        Matrix.from_rows(QQ, [[1, 2], [3]])


def test_kernel_basis_is_echelonized():
    # x0 = -x1 - x2; kernel is 2-dimensional with free columns 1, 2.
    m = Matrix.from_rows(QQ, [[1, 1, 1]])
    kern = m.kernel_basis()
    assert len(kern) == 2
    free_cols = []
    for vec in kern:
        ones = [i for i, v in enumerate(vec) if v == 1]
        assert ones, "each kernel vector is normalized at its free column"
        free_cols.append(ones[-1])
    assert free_cols == sorted(free_cols)


# Packed prime-field elimination against the generic one.


def _packed_rref(F, data, cols: int):
    """Gauss-Jordan of entry lists by the packed loop: each entry reduced
    mod p and packed at load 1, by ``rows_kernel``'s width rule."""
    w = linalg.slot_width((1 + min(len(data), cols)) * (F.p - 1) ** 2)
    return linalg._gauss_jordan_packed(
        F, [linalg._pack([x % F.p for x in r], w) for r in data], cols, w)


def _packed(m, rhs):
    """rref, rank, kernel_basis and solve of ``m`` with ``Matrix.rref``
    running the packed loop; the rank is that loop's pivot count."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_rref_generic", _packed_rref)
        red = m.rref()
        return red, len(red[1]), m.kernel_basis(), m.solve(rhs)


@st.composite
def fp_systems(draw):
    """A matrix over F_p with duplicate rows and zero columns mixed in, and
    a right-hand side that is consistent about half the time."""
    p = draw(st.sampled_from(PACKED_PRIMES))
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(nrows):
        if i and draw(st.booleans()):
            src = rows[draw(st.integers(0, i - 1))]
            scale = draw(st.integers(0, p - 1))
            rows[i] = [scale * x % p for x in src]
    for j in draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols)):
        for row in rows:
            row[j] = 0
    if draw(st.booleans()):
        x = [draw(st.integers(0, p - 1)) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) % p for row in rows]
    else:
        rhs = [draw(st.integers(0, p - 1)) for _ in range(nrows)]
    return Matrix(PrimeField(p), nrows, ncols, rows), rhs


@given(fp_systems())
def test_packed_elimination_matches_generic(system):
    m, rhs = system
    generic = (m.rref(), m.rank(), m.kernel_basis(), m.solve(rhs))
    assert _packed(m, rhs) == generic


@given(st.sampled_from(PACKED_PRIMES), st.data())
def test_packed_elimination_reduces_unreduced_entries(p, data):
    # Entries outside [0, p): packing reduces them; a negative slot would
    # otherwise borrow from its neighbour.
    fp = PrimeField(p)
    nrows, ncols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    lift = st.sampled_from([-2, -1, 1, 2])
    rows = [[x + data.draw(lift) * p if x else 0
             for x in data.draw(st.lists(st.integers(0, p - 1),
                                         min_size=ncols, max_size=ncols))]
            for _ in range(nrows)]
    reduced = [[x % p for x in r] for r in rows]
    assert _packed_rref(fp, rows, ncols) == linalg._rref_generic(fp, reduced, ncols)


def test_packed_elimination_of_negative_and_oversized_entries():
    fp = PrimeField(DEFAULT_PRIME)
    p = fp.p
    rows = [[-1, p + 3, 0, 5], [p + 3, -1, 2, -1], [2 * p + 2, 2, 2, p + 4]]
    reduced = [[x % p for x in r] for r in rows]
    assert _packed_rref(fp, rows, 4) == linalg._rref_generic(fp, reduced, 4)
    # A row of multiples of p is a zero row, returned as canonical zeros.
    assert _packed_rref(fp, [[p, -p], [-1, 1]], 2)[0] == [[1, p - 1], [0, 0]]


def _dense(p, rows, cols, seed):
    """A dense matrix over F_p, half its entries p - 1 and the rest nonzero,
    with every fifth column (p - 1) times its left neighbour, so that free
    columns sit between pivot columns."""
    rng = random.Random(seed)
    m = [[p - 1 if rng.random() < 0.5 else rng.randrange(1, p) for _ in range(cols)]
         for _ in range(rows)]
    for row in m:
        for j in range(4, cols, 5):
            row[j] = (p - 1) * row[j - 1] % p
    return m


@pytest.mark.parametrize("p", [3, 7, 65537, DEFAULT_PRIME])
@pytest.mark.parametrize("rows, cols", [(12, 12), (40, 40), (120, 28), (54, 66)])
def test_packed_slots_hold_every_update(p, rows, cols):
    # Large dense entries and up to min(rows, cols) pivots: a slot takes
    # that many updates of up to (p - 1)^2 before its row is reduced.
    m = _dense(p, rows, cols, seed=rows * cols + p)
    fp = PrimeField(p)
    assert _packed_rref(fp, m, cols) == linalg._rref_generic(fp, m, cols)


@pytest.mark.parametrize("p", [3, 7, 65537, DEFAULT_PRIME])
@pytest.mark.parametrize("rows, cols", [(12, 12), (40, 40), (120, 28), (54, 66)])
def test_forward_rank_slots_hold_every_update(p, rows, cols):
    m = _dense(p, rows, cols, seed=rows * cols + p)
    fp = PrimeField(p)
    assert linalg._rank_packed(fp, m, cols) == len(linalg._rref_generic(fp, m, cols)[1])


@given(st.sampled_from(PACKED_PRIMES), st.data())
def test_forward_rank_matches_generic_pivots(p, data):
    # Rows of any ints, as quadlab's Jacobian hands over: residues lifted
    # by multiples of p (negative, or several p^2 in size), with rows that
    # are combinations of earlier ones and zero columns mixed in.
    fp = PrimeField(p)
    nrows, ncols = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    residue = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    rows = [[data.draw(residue) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(1, nrows):
        if data.draw(st.booleans()):
            a, b = (rows[data.draw(st.integers(0, i - 1))] for _ in range(2))
            s, t = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
            rows[i] = [(s * x + t * y) % p for x, y in zip(a, b)]
    for j in data.draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols)):
        for row in rows:
            row[j] = 0
    lift = st.one_of(st.integers(-3, 3), st.integers(-3 * p, 3 * p))
    unreduced = [[x + data.draw(lift) * p for x in row] for row in rows]
    assert (linalg._rank_packed(fp, unreduced, ncols)
            == len(linalg._rref_generic(fp, rows, ncols)[1]))


def test_prime_field_rank_takes_the_forward_sweep(monkeypatch):
    def forbidden(*args):
        raise AssertionError("Matrix.rank ran Gauss-Jordan")

    monkeypatch.setattr(linalg, "_rref_generic", forbidden)
    monkeypatch.setattr(linalg, "_gauss_jordan_packed", forbidden)
    fp = PrimeField(7)
    assert Matrix.from_rows(fp, [[1, 2, 3], [2, 4, 6], [0, 0, 1]]).rank() == 2


def test_prime_field_matrix_runs_one_loop_per_job(monkeypatch):
    # Over F_p rref, kernel_basis and solve run the generic Gauss-Jordan
    # loop alone, and rank the forward sweep alone.
    calls = []

    def spy(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("_rref_generic", "_gauss_jordan_packed", "_rank_packed"):
        monkeypatch.setattr(linalg, name, spy(name, getattr(linalg, name)))
    m = Matrix.from_rows(PrimeField(7), [[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    for run in (m.rref, m.kernel_basis, lambda: m.solve([1, 2, 0])):
        calls.clear()
        run()
        assert calls == ["_rref_generic"]
    calls.clear()
    assert m.rank() == 2
    assert calls == ["_rank_packed"]


@pytest.mark.parametrize("p", [3, DEFAULT_PRIME])
@pytest.mark.parametrize("rows, cols", [(0, 4), (3, 0), (0, 0)])
def test_empty_prime_field_matrix(p, rows, cols):
    fp = PrimeField(p)
    m = Matrix(fp, rows, cols, [[] for _ in range(rows)])
    assert m.rank() == linalg._rank_packed(fp, m.data, cols) == 0
    assert m.rref() == (m, ())
    assert len(m.kernel_basis()) == cols


@pytest.mark.parametrize("p", [3, 7, 65537, DEFAULT_PRIME])
def test_packed_elimination_when_every_row_is_a_pivot_early(p):
    # A unit lower triangle up front, dense below its diagonal, makes all
    # 20 rows pivots by column 19; the 30 free columns after it come from
    # the rows' tails.
    rows, cols = 20, 50
    dense = _dense(p, rows, cols, seed=p)
    m = [[dense[i][j] if j < i else int(i == j) for j in range(rows)] + dense[i][rows:]
         for i in range(rows)]
    fp = PrimeField(p)
    red, pivots = _packed_rref(fp, m, cols)
    assert pivots == list(range(rows))
    assert (red, pivots) == linalg._rref_generic(fp, m, cols)


def _kernel_and_width(fp, rows, cols: int, load: int):
    """``rows_kernel`` of integer rows packed at the width it asks for at
    ``load``, and that width."""
    widths = []

    def build(w):
        widths.append(w)
        return [linalg._pack(r, w) for r in rows]

    return linalg.rows_kernel(fp, build, len(rows), cols, load), widths[0]


def _filling_rows(p, rows: int, cols: int, load: int):
    """Rows of integers whose slots take the most updates, and k: the
    first k = min(rows, cols) - 1 rows are e_i with p - 1 on every column
    from k on; each row after them is 1 mod p on every column before k, so
    it takes k updates of exactly (p - 1)^2 on every later slot.  Entries
    start at the largest value of their residue up to load (p - 1)^2."""
    k, top = min(rows, cols) - 1, load * (p - 1) ** 2
    unit = [[int(i == j) for j in range(k)] + [p - 1] * (cols - k) for i in range(k)]
    rest = [[1] * k + row for row in _dense(p, rows - k, cols - k, seed=rows + cols + p)]
    return unit + [[x + (top - x) // p * p for x in row] for row in rest], k


@pytest.mark.parametrize("p", PACKED_PRIMES)
@pytest.mark.parametrize("rows, cols, load", [(120, 28, 36), (120, 6, 36), (54, 66, 1),
                                              (29, 36, 1), (15, 15, 1)])
def test_packed_kernel_holds_the_worst_case_load(p, rows, cols, load):
    # The shapes of the blow-up chain: its I2 matrix, whose slots a producer
    # hands over at most width(7) (p - 1)^2 = 36 (p - 1)^2, the same for
    # three degree-7 plane forms (load > min(rows, cols)), and its three
    # interpolation matrices, one product of at most (p - 1)^2 per slot.
    # Every slot starts at the largest value of its residue up to
    # load (p - 1)^2, then takes up to min(rows, cols) updates of up to
    # (p - 1)^2 at the width rows_kernel takes for that load.
    fp = PrimeField(p)
    top = load * (p - 1) ** 2
    m = _dense(p, rows, cols, seed=rows * cols + p)
    lifted = [[x + (top - x) // p * p for x in row] for row in m]
    assert all(top - p < x <= top for row in lifted for x in row)
    red, pivots = linalg._rref_generic(fp, m, cols)
    kernel, w = _kernel_and_width(fp, lifted, cols, load)
    assert kernel == linalg._kernel_from_rref(fp, red, pivots, cols)
    packed = [linalg._pack(row, w) for row in lifted]
    assert linalg._gauss_jordan_packed(fp, packed, cols, w) == (red, pivots)
    # Most columns are pivots, so most slots take many updates.
    assert len(pivots) > min(rows, cols) // 2


@pytest.mark.parametrize("p", PACKED_PRIMES)
@pytest.mark.parametrize("rows, cols, load", [(120, 6, 36), (45, 3, 9), (54, 66, 1)])
def test_packed_kernel_slots_fill_the_width(p, rows, cols, load):
    # A row after the unit rows reaches (load + m - 1) (p - 1)^2 at column
    # k, m = min(rows, cols), which needs every bit of the width rows_kernel
    # takes for top = (load + m) (p - 1)^2 at these shapes: a width one bit
    # short, or one without the load term, carries into the next slot.
    fp = PrimeField(p)
    m, k = _filling_rows(p, rows, cols, load)
    kernel, w = _kernel_and_width(fp, m, cols, load)
    assert (max(row[k] for row in m[k:]) + k * (p - 1) ** 2).bit_length() == w
    assert kernel == Matrix(fp, rows, cols, [[x % p for x in row] for row in m]).kernel_basis()


@pytest.mark.parametrize("p", PACKED_PRIMES)
@pytest.mark.parametrize("rows, cols", [(40, 10), (10, 10), (40, 12)])
def test_forward_rank_slots_fill_the_width(p, rows, cols, monkeypatch):
    # Reduced while packing, a row after the unit rows starts at most p - 1
    # and reaches (p - 1) + (m - 1) (p - 1)^2 at column k, which needs every
    # bit of the width _rank_packed takes for top = (p - 1) + m (p - 1)^2.
    fp = PrimeField(p)
    m, k = _filling_rows(p, rows, cols, 1)
    widths, pack = set(), linalg._pack
    monkeypatch.setattr(linalg, "_pack", lambda entries, w: widths.add(w) or pack(entries, w))
    rank = linalg._rank_packed(fp, m, cols)
    monkeypatch.undo()
    assert [(max(row[k] % p for row in m[k:]) + k * (p - 1) ** 2).bit_length()] == list(widths)
    assert rank == len(linalg._rref_generic(fp, [[x % p for x in row] for row in m], cols)[1])
