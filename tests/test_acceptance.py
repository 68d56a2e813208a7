"""Acceptance gate: one test per acceptance criterion.

Each test prints a single [PASS]/[FAIL] line so the gate can be read off
the pytest -v output directly.  Budgets are wall-clock seconds.
"""

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from qmod.fields import DEFAULT_PRIME, PrimeField
from qmod.invariants import harris_tu_degree
from qmod.picard import DivisorClass, boundary_indices, chern_pair, fr_dp_class, z_class_15_9
from qmod.verify import run_check

FP = PrimeField(DEFAULT_PRIME)


def _timed(name):
    start = time.perf_counter()
    result = run_check(name, seed=0, field=FP)
    return result, time.perf_counter() - start


def _report(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {description}")
    assert ok


def test_criterion_01_dimension_identities():
    result, elapsed = _timed("01-identities")
    ok = result.passed and elapsed < 1.0
    _report(1, "dimension formulas and fiber identity across the grid", ok)


def test_criterion_02_determinantal_degrees():
    result, elapsed = _timed("02-harris-tu")
    ok = result.passed and elapsed < 1.0
    ok = ok and all(harris_tu_degree(e, e - 1) == e for e in range(4, 15))
    _report(2, "determinantal degree integrality and endpoints", ok)


def test_criterion_03_closed_form_coefficients():
    result, elapsed = _timed("03-closed-forms")
    ok = result.passed and elapsed < 5.0
    _report(3, "closed-form divisor coefficients and boundary bounds", ok)


def test_criterion_04_dp_and_pushforward_classes():
    result, elapsed = _timed("04-dp-class")
    slots = {key: 42 for key in boundary_indices(15, 8)}
    expected = DivisorClass(15, 8, lam=6 * 39, psi=6 * 17, b_irr=6 * 7, b=slots)
    zc = z_class_15_9()
    ok = (result.passed and elapsed < 1.0
          and fr_dp_class(chern_pair(15, 8)) == expected
          and zc.lam.value == 351
          and zc.b_irr.value == 63
          and zc.psi.value == 136)
    _report(4, "du Val rank-locus class and pushforward values", ok)


def test_criterion_05_general_type_certificate():
    result, elapsed = _timed("05-certificate")
    ok = result.passed and elapsed < 1.0
    _report(5, "certificate residuals vanish and bounds are reported", ok)


def test_criterion_06_quadric_laboratory():
    result, elapsed = _timed("06-quadric-lab")
    ok = result.passed and elapsed < 30.0
    _report(6, "quadric system dimensions and family counts", ok)


def test_criterion_07_secant_codimension():
    result, elapsed = _timed("07-secant")
    ok = result.passed and elapsed < 10.0
    _report(7, "chord codimension on rational normal curves", ok)


def test_criterion_08_canonical_curves():
    result, elapsed = _timed("08-canonical-curves")
    ok = result.passed and elapsed < 30.0
    _report(8, "canonical curve quadric ranks in genus four and five", ok)


def test_criterion_09_surface_construction():
    result, elapsed = _timed("09-surface")
    ok = result.passed and elapsed < 60.0
    _report(9, "fifteen-point blow-up surface construction", ok)


def test_criterion_10_deterministic_output(qmod_env):
    cmd = [sys.executable, "-m", "qmod", "verify", "all",
           "--seed", "5", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, env=qmod_env)
    second = subprocess.run(cmd, capture_output=True, env=qmod_env)
    pinned = (Path(__file__).parent / "data" / "verify_all_seed5.json").read_bytes()
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout == pinned)
    _report(10, "byte-identical repeated verification runs, equal to the pinned output", ok)
