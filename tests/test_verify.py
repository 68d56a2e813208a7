import json

import pytest

from qmod import verify
from qmod.errors import DomainError
from qmod.fields import DEFAULT_PRIME, PrimeField
from qmod.quadlab import SymQuadric
from qmod.verify import check_names, run_check


def test_check_names_are_sorted_and_stable():
    names = check_names()
    assert names == sorted(names)
    assert names[0] == "01-identities"
    assert len(names) == 9


def test_unknown_check_is_rejected():
    with pytest.raises(DomainError):
        run_check("99-nonsense")


def test_result_serialization_shape():
    result = run_check("02-harris-tu", seed=7)
    d = result.to_json_dict()
    assert d["check"] == "02-harris-tu"
    assert d["seed"] == 7
    assert d["prime"] == DEFAULT_PRIME
    assert d["pass"] is True
    json.dumps(d, sort_keys=True)


def test_small_prime_failure_is_captured_not_raised():
    # Sampling below the size gate must surface as a failed result.
    for name in ("07-secant", "08-canonical-curves"):
        result = run_check(name, field=PrimeField(101))
        assert not result.passed
        assert "error" in result.data


def test_repeat_run_is_identical():
    first = run_check("05-certificate", seed=3)
    second = run_check("05-certificate", seed=3)
    assert first.to_json_dict() == second.to_json_dict()


def test_quadric_lab_fails_on_a_quadric_off_the_curve(monkeypatch):
    # Moving the symmetric pair Q[0][1] = Q[1][0] moves the t^1 coefficient
    # of the pullback by 2, so every one of the 500 quadrics must fail.
    real = verify.bounded_rank_quadric

    def perturbed(pd, curve):
        q = real(pd, curve)
        rows = [row[:] for row in q.entries]
        rows[0][1] = rows[1][0] = q.field.coerce(rows[0][1] + 1)
        return SymQuadric(q.field, rows)

    monkeypatch.setattr(verify, "bounded_rank_quadric", perturbed)
    result = run_check("06-quadric-lab", seed=0)
    assert not result.passed
    membership = [f for f in result.data["failures"] if f.startswith("membership-")]
    assert len(membership) == result.data["instances"] == 500
