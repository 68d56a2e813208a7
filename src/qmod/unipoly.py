"""Dense univariate polynomials over an exact field.

A polynomial is a plain list of scalars, constant term first, with no
trailing zeros; the empty list is the zero polynomial.  Everything is
field-parametrized so the same code serves QQ and F_p.

Coefficient loops compute with the scalars' own ``+ - *`` and reduce each
stored coefficient once with ``field.coerce`` (``normalize`` does it for
whole lists), as the ``fields`` module docstring sets out; no per-step
field call, and one path for both kinds of field.  The one exception is
``pow_mod``, the kernel behind root finding: it runs over F_p only and
multiplies residues packed into one int each with the ``linalg`` packing.

Scope note: gcd, squarefree testing, resultants, interpolation at the
nodes 0 .. n-1 that ``ternary.eliminate`` evaluates at, and prime-field
root extraction.  Full factorization is deliberately out of scope; the root
finder below only ever splits products of linear factors, which is a
gcd-powered computation.  Root finding (``rational_roots`` and its
``pow_mod``) has no production caller: it stays only as a span target of
the benchmark's layer map, which names it, until that map changes.
"""

from __future__ import annotations

from itertools import zip_longest

from .errors import ConfigurationError, DomainError, GenericityError, ZeroPolynomialError
from .fields import PrimeField
from .linalg import Matrix, _pack, _unpack


def normalize(field, cs) -> list:
    cs = [field.coerce(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def degree(cs) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(cs) - 1


def is_zero(cs) -> bool:
    return not cs


def add(field, f, g) -> list:
    return normalize(field, [a + b for a, b in zip_longest(f, g, fillvalue=0)])


def sub(field, f, g) -> list:
    return normalize(field, [a - b for a, b in zip_longest(f, g, fillvalue=0)])


def mul(field, f, g) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return normalize(field, out)


def divmod_poly(field, f, g) -> tuple[list, list]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    dg = degree(g)
    lead_inv = field.inv(g[-1])
    q = [field.zero] * max(len(f) - dg, 0)
    # Entries of f are updated exactly and reduced when they lead.
    for shift in range(len(f) - 1 - dg, -1, -1):
        c = q[shift] = field.coerce(f[shift + dg] * lead_inv)
        if c:
            for i in range(dg):
                f[shift + i] -= c * g[i]
    return normalize(field, q), normalize(field, f[:dg])


def rem(field, f, g) -> list:
    return divmod_poly(field, f, g)[1]


def monic(field, f) -> list:
    if not f:
        return []
    inv = field.inv(f[-1])
    return [field.coerce(inv * c) for c in f]


def gcd(field, f, g) -> list:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    f, g = list(f), list(g)
    while g:
        f, g = g, rem(field, f, g)
    return monic(field, f)


def derivative(field, f) -> list:
    return normalize(field, [i * f[i] for i in range(1, len(f))])


def evaluate(field, f, x):
    """f(x) by Horner on the exact sums, reduced once."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return field.coerce(acc)


def interpolate(field, ys) -> list:
    """The polynomial of degree < n taking the value ys[a] at a = 0 .. n-1.

    Newton form on consecutive nodes: a divided difference of order j
    divides by the node gap j, so each order takes one ``field.inv(j)``.
    The Newton form is expanded by Horner on exact sums,
    poly <- x * poly - i * poly + c_i, and reduced once.  Over F_p the
    nodes are distinct only when p >= n; a smaller prime is refused.
    """
    n = len(ys)
    if 0 < field.char < n:
        raise ConfigurationError(
            f"interpolation at {n} nodes needs p >= {n}, prime {field.char} is too small")
    coeffs = [field.coerce(y) for y in ys]
    for j in range(1, n):
        inv = field.inv(j)
        coeffs[j:] = [field.coerce((b - a) * inv) for a, b in zip(coeffs[j - 1:], coeffs[j:])]
    poly = []
    for i in range(n - 1, -1, -1):
        poly = [a - i * b for a, b in zip_longest([coeffs[i]] + poly, poly, fillvalue=0)]
    return normalize(field, poly)


def squarefree_test(field, f) -> bool:
    """True iff f has no repeated root in the algebraic closure.

    Test: gcd(f, f') is constant.  Over F_p this characterization needs
    p > deg f, which the run configuration guarantees; it is re-checked
    here because a silent wrong answer would poison every caller.
    """
    f = normalize(field, f)
    if not f:
        raise ZeroPolynomialError("squarefree test on the zero polynomial")
    if isinstance(field, PrimeField) and field.p <= degree(f):
        raise ConfigurationError(
            f"squarefree test needs p > deg f, got p={field.p}, deg={degree(f)}"
        )
    if degree(f) == 0:
        return True
    return degree(gcd(field, f, derivative(field, f))) == 0


def sylvester_matrix(field, f, g, m: int | None = None, n: int | None = None) -> Matrix:
    """Sylvester matrix of f and g with declared degrees m and n.

    Declared degrees default to the actual ones; passing larger values
    builds the structure of a specialization whose leading coefficients
    vanished.  Reference only: its determinant is the oracle the tests
    hold ``resultant_prs`` and ``resultant_fixed`` against.
    """
    if m is None:
        m = degree(f)
    if n is None:
        n = degree(g)
    if m < 0 or n < 0:
        raise DomainError("Sylvester matrix needs nonzero polynomials")
    if degree(f) > m or degree(g) > n:
        raise DomainError("declared degree below actual degree")
    fc = list(f) + [field.zero] * (m + 1 - len(f))
    gc = list(g) + [field.zero] * (n + 1 - len(g))
    size = m + n
    rows = []
    for i in range(n):
        row = [field.zero] * size
        for j in range(m + 1):
            row[i + j] = fc[m - j]
        rows.append(row)
    for i in range(m):
        row = [field.zero] * size
        for j in range(n + 1):
            row[i + j] = gc[n - j]
        rows.append(row)
    return Matrix(field, size, size, rows, _skip_check=True)


def resultant(field, f, g):
    """Resultant as the Sylvester-matrix determinant (reference route).

    Zero iff f and g share a root in the algebraic closure (for nonzero
    inputs).  Degree-zero edge cases follow the usual conventions:
    res(c, d) = 1 for constants, res(c, g) = c^deg(g).  Production code
    calls ``resultant_prs`` or ``resultant_fixed``; this one stays as the
    test oracle.
    """
    f = normalize(field, f)
    g = normalize(field, g)
    if not f or not g:
        return field.zero
    m, n = degree(f), degree(g)
    if m == 0 and n == 0:
        return field.one
    if m == 0:
        return field.coerce(f[0] ** n)
    if n == 0:
        return field.coerce(g[0] ** m)
    return sylvester_matrix(field, f, g).det()


def resultant_fixed(field, f, g, m: int, n: int):
    """Determinant of the declared-degree-(m, n) Sylvester matrix.

    Computed as ``resultant_prs`` at the actual degrees times the factor
    of the padded leaders.  Expanding the determinant along its first
    column gives res_{m,n} = (-1)^n g_n res_{m-1,n} when f_m = 0 and
    res_{m,n} = f_m res_{m,n-1} when g_n = 0; it is zero when both
    leaders vanish.  A declared degree 0 leaves m rows of g (or n rows of
    f), so res_{m,0} = g_0^m and res_{0,n} = f_0^n, zero polynomial or not.
    """
    f = normalize(field, f)
    g = normalize(field, g)
    df, dg = degree(f), degree(g)
    if df > m or dg > n:
        raise DomainError("declared degree below the actual degree")
    if m == 0:
        return field.coerce((f[0] if f else field.zero) ** n)
    if n == 0:
        return field.coerce((g[0] if g else field.zero) ** m)
    if df < m and dg < n:
        return field.zero
    res = resultant_prs(field, f, g)
    if df < m:
        return field.coerce((-1) ** (n * (m - df)) * res * g[-1] ** (m - df))
    if dg < n:
        return field.coerce(res * f[-1] ** (n - dg))
    return res


def resultant_prs(field, f, g):
    """Resultant via the Euclidean remainder sequence (fast path).

    Agrees with the Sylvester determinant; the unit tests hold the two
    routes against each other on random inputs.
    """
    f = normalize(field, f)
    g = normalize(field, g)
    if not f or not g:
        return field.zero
    res = field.one
    sign = 1
    while degree(g) > 0:
        r = rem(field, f, g)
        if not r:
            return field.zero
        if degree(f) * degree(g) % 2 == 1:
            sign = -sign
        res = field.coerce(res * g[-1] ** (degree(f) - degree(r)))
        f, g = g, r
    return field.coerce(sign * res * g[0] ** degree(f))


def pow_mod(pf: PrimeField, base, e: int, m) -> list:
    """base^e mod m over F_p, by binary exponentiation on packed residues.

    Kronecker substitution (Kronecker 1882; Harvey, J. Symbolic Comput. 44,
    2009) on the ``linalg`` packing: coefficient i of a residue sits in bits
    [i*w, (i+1)*w), so a product is one big-int multiply.  Its slots k = n
    .. 2n-2, n = deg m, are reduced mod p and folded back onto the packed
    x^k mod m, so a slot sums at most 2n - 1 terms below p^2.  That stays
    under 2^w for w = 2*bitlen(p) + bitlen(n) + 1: no carry crosses slots.
    """
    if not isinstance(pf, PrimeField):
        raise DomainError("pow_mod runs over a prime field")
    n = degree(m)
    if n < 1:
        raise DomainError("modulus must have positive degree")
    p, w = pf.p, 2 * pf.p.bit_length() + n.bit_length() + 1
    mask, low_mask, inv = (1 << w) - 1, (1 << n * w) - 1, pf.inv(m[-1])
    # x^n mod m, then x^(k+1) = x * x^k with its top slot folded onto x^n.
    x_k = x_n = [-inv * c % p for c in m[:-1]]
    table = []
    for _ in range(n - 1):
        table.append(_pack(x_k, w))
        x_k = [(a + x_k[-1] * b) % p for a, b in zip([0] + x_k, x_n)]

    def mul_mod(a: int, b: int) -> int:
        v = a * b
        low = v & low_mask
        for c, t in zip(_unpack(v >> n * w, n - 1, w, mask), table):
            low += c % p * t
        return _pack([x % p for x in _unpack(low, n, w, mask)], w)

    result, sq = 1, _pack(rem(pf, base, m), w)
    while e > 0:
        if e & 1:
            result = mul_mod(result, sq)
        sq = mul_mod(sq, sq)
        e >>= 1
    return normalize(pf, _unpack(result, n, w, mask))


def root_multiplicity(field, f, r) -> int:
    """Multiplicity of r as a root of f (0 when not a root)."""
    if not f:
        raise ZeroPolynomialError("root multiplicity in the zero polynomial")
    count = 0
    lin = [field.coerce(-field.coerce(r)), field.one]
    while True:
        q, rest = divmod_poly(field, f, lin)
        if rest:
            return count
        count += 1
        f = q
        if not f:
            return count


def rational_roots(pf: PrimeField, f) -> list[int]:
    """All roots of f in F_p, sorted, each listed once.

    The F_p-rational part is gcd(f, x^p - x), computed with modular
    exponentiation; it is a product of distinct linear factors and gets
    split by quadratic-residue gcds with a fixed shift sequence, so the
    result is deterministic.
    """
    if not isinstance(pf, PrimeField):
        raise DomainError("rational_roots runs over a prime field")
    f = normalize(pf, f)
    if not f:
        raise ZeroPolynomialError("root extraction from the zero polynomial")
    if degree(f) == 0:
        return []
    xp = pow_mod(pf, [0, 1], pf.p, f)
    linear_part = gcd(pf, f, sub(pf, xp, [0, 1]))
    roots: list[int] = []
    _split_linear(pf, linear_part, roots)
    return sorted(roots)


# A shift leaves a product of d >= 2 distinct linear factors unsplit with
# probability about 2^(1-d), and over F_p with p <= 64 the shifts run
# through every residue; so exhausting them means a wrong input or kernel.
_MAX_SHIFTS = 64


def _split_linear(pf: PrimeField, g, out: list[int], shift: int = 0) -> None:
    g = monic(pf, g)
    d = degree(g)
    if d <= 0:
        return
    if d == 1:
        out.append(pf.coerce(-g[0]))
        return
    e = (pf.p - 1) // 2
    for a in range(shift, shift + _MAX_SHIFTS):
        h = pow_mod(pf, [pf.coerce(a), 1], e, g)
        h = sub(pf, h, [pf.one])
        part = gcd(pf, g, h)
        if 0 < degree(part) < d:
            _split_linear(pf, part, out, a + 1)
            _split_linear(pf, divmod_poly(pf, g, part)[0], out, a + 1)
            return
    raise GenericityError(f"no shift split a degree-{d} product of linear factors",
                          data={"degree": d, "shifts": _MAX_SHIFTS})
