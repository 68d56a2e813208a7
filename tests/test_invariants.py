import pytest

from qmod.cli import main
from qmod.errors import DomainError, InternalCheckError
from qmod.invariants import (
    RamificationSequence,
    adjusted_rho,
    binom,
    brill_noether_rho,
    enumerate_quad_cases,
    expected_dim_q,
    fiber_dim_identity,
    harris_tu_degree,
)


def test_binom_is_zero_outside_triangle():
    assert binom(5, 2) == 10
    assert binom(3, 5) == 0
    assert binom(-1, 0) == 0
    assert binom(4, -2) == 0


def test_expected_dim_canonical_rank3_line():
    for g in range(4, 41):
        assert expected_dim_q(g, g - 1, 2 * g - 2, 3) == -1


def test_expected_dim_rational_curve_rank3():
    for r in range(3, 13):
        assert expected_dim_q(0, r, r, 3) == r - 2


def test_expected_dim_canonical_rank4_line():
    for g in range(4, 41):
        assert expected_dim_q(g, g - 1, 2 * g - 2, 4) == g - 4


def test_expected_dim_guards():
    with pytest.raises(DomainError):
        expected_dim_q(5, 3, 6, 5)  # k > r+1
    with pytest.raises(DomainError):
        expected_dim_q(-1, 3, 6, 2)


def test_rho_values():
    assert brill_noether_rho(15, 6, 20) == 8
    for r in range(1, 10):
        assert brill_noether_rho(0, r, r) == 0


def test_rho_of_canonical_series_is_zero():
    # The canonical series is rigid: g - (r+1)(g-d+r) with r = g-1,
    # d = 2g-2 collapses to g - g.
    for g in range(2, 20):
        assert brill_noether_rho(g, g - 1, 2 * g - 2) == 0


def test_adjusted_rho_reduces_to_rho():
    assert adjusted_rho(7, 2, 8, [0, 0, 0]) == brill_noether_rho(7, 2, 8)


def test_adjusted_rho_on_tail_ramification():
    # Two top indices forced to a-n-2 pin the adjusted count at -1.
    for n in range(1, 13):
        g = 2 * n + 3
        for a in range(n + 3, 2 * n + 3):
            r = g - a
            alpha = [0] * (r - 1) + [a - n - 2, a - n - 2]
            assert adjusted_rho(g, r, 2 * g - 2 - a, alpha) == -1


def test_ramification_sequence_must_be_monotone():
    with pytest.raises(DomainError):
        RamificationSequence([1, 0])
    with pytest.raises(DomainError):
        adjusted_rho(5, 1, 6, [1, 0])
    with pytest.raises(DomainError):
        adjusted_rho(5, 2, 6, [0, 1])  # needs r+1 = 3 entries


def test_rank_locus_degree_endpoints():
    for e in range(3, 13):
        assert harris_tu_degree(e, e) == 1
    for e in range(4, 13):
        assert harris_tu_degree(e, e - 1) == e
    for e in range(5, 13):
        assert harris_tu_degree(e, e - 2) == e * (e * e - 1) // 6
        assert harris_tu_degree(e, e - 2) == binom(e + 1, 3)


def test_rank_locus_degree_guards():
    with pytest.raises(DomainError):
        harris_tu_degree(3, 2)
    with pytest.raises(DomainError):
        harris_tu_degree(4, 5)


def test_enumerate_cases_against_direct_scan():
    got = enumerate_quad_cases(25)
    want = []
    for g in range(1, 26):
        for n in range(1, g):
            for k in range(4, g - n + 1):
                if expected_dim_q(g, g - n - 1, 2 * g - 2 - n, k) == -1:
                    want.append((g, n, k))
    assert got == sorted(want)


def test_enumerate_cases_structure():
    cases = enumerate_quad_cases(40)
    assert (11, 4, 4) in cases
    for g, n, k in cases:
        assert 4 <= k <= g - n
        if k == 4:
            assert g == 2 * n + 3


@pytest.mark.parametrize("k", [0, -1])
def test_rank_bound_below_one_is_refused(k, capsys):
    with pytest.raises(DomainError):
        expected_dim_q(4, 3, 6, k)
    with pytest.raises(DomainError):
        fiber_dim_identity(4, k)
    assert main(["expected-dim", "--g", "4", "--r", "3", "--d", "6", "--k", str(k)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1


def test_fiber_dimension_identity():
    assert fiber_dim_identity(10, 5)
    assert fiber_dim_identity(4, 3)
    for g in range(1, 30):
        for k in range(1, g + 2):
            assert fiber_dim_identity(g, k)
    with pytest.raises(DomainError):
        fiber_dim_identity(5, 7)


@pytest.mark.parametrize("call", [
    lambda: expected_dim_q(True, 3, 3, 3),
    lambda: expected_dim_q(15, 6, 20.0, 4),
    lambda: brill_noether_rho(15.5, 1, 8),
    lambda: brill_noether_rho(15, 1, False),
    lambda: RamificationSequence([0.5, 1.9]),
    lambda: RamificationSequence(["0", "1"]),
    lambda: adjusted_rho(7, 2, 8, [0, 0, 0.0]),
    lambda: adjusted_rho(7, 2.0, 8, [0, 0, 0]),
    lambda: harris_tu_degree(5.0, 3),
    lambda: harris_tu_degree(5, True),
    lambda: enumerate_quad_cases(25.0),
    lambda: fiber_dim_identity(5, 3.0),
], ids=["expected-dim-bool", "expected-dim-float", "rho-float", "rho-bool",
        "ramification-float", "ramification-str", "adjusted-rho-alpha",
        "adjusted-rho-r", "harris-tu-float", "harris-tu-bool",
        "enumerate-float", "fiber-float"])
def test_non_integers_are_refused_not_rounded(call):
    with pytest.raises(DomainError, match="must be integers"):
        call()
