import json

import pytest

from qmod import verify
from qmod.errors import ConfigurationError, DomainError
from qmod.fields import DEFAULT_PRIME, PrimeField
from qmod.quadlab import SymQuadric
from qmod.verify import check_names, run_check

FP = PrimeField(DEFAULT_PRIME)


def test_check_names_are_sorted_and_stable():
    names = check_names()
    assert names == sorted(names)
    assert names[0] == "01-identities"
    assert len(names) == 9


def test_unknown_check_is_rejected():
    with pytest.raises(DomainError):
        run_check("99-nonsense", field=FP)


def test_result_serialization_shape():
    result = run_check("02-harris-tu", seed=7, field=FP)
    d = result.to_json_dict()
    assert d["check"] == "02-harris-tu"
    assert d["seed"] == 7
    assert d["prime"] == DEFAULT_PRIME
    assert d["pass"] is True
    json.dumps(d, sort_keys=True)


def test_small_prime_sampling_is_raised_not_reported_as_a_failure():
    # Sampling below the size gate is bad usage, not a failed theorem; a
    # check that samples nothing still runs at that prime.
    for name in ("07-secant", "08-canonical-curves"):
        with pytest.raises(ConfigurationError, match="too small"):
            run_check(name, field=PrimeField(101))
    assert run_check("01-identities", field=PrimeField(3)).passed


def test_check_result_is_built_by_keyword():
    result = verify.CheckResult(check="01-identities", seed=2, prime=7, passed=False,
                                data={"failures": 1})
    assert result.to_json_dict() == {"check": "01-identities", "seed": 2, "prime": 7,
                                     "pass": False, "data": {"failures": 1}}


def test_repeat_run_is_identical():
    first = run_check("05-certificate", seed=3, field=FP)
    second = run_check("05-certificate", seed=3, field=FP)
    assert first.to_json_dict() == second.to_json_dict()


def test_quadric_lab_fails_on_a_quadric_off_the_curve(monkeypatch):
    # Moving the symmetric pair Q[0][1] = Q[1][0] moves the t^1 coefficient
    # of the pullback by 2, so every one of the 500 quadrics must fail.
    real = verify.bounded_rank_quadric

    def perturbed(pd):
        q = real(pd)
        rows = [row[:] for row in q.entries]
        rows[0][1] = rows[1][0] = q.field.coerce(rows[0][1] + 1)
        return SymQuadric(q.field, rows)

    monkeypatch.setattr(verify, "bounded_rank_quadric", perturbed)
    result = run_check("06-quadric-lab", seed=0, field=FP)
    assert not result.passed
    membership = [f for f in result.data["failures"] if f.startswith("membership-")]
    assert len(membership) == result.data["instances"] == 500
