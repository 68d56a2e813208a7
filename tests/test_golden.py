"""Byte-for-byte pins of the JSON output of the divisor-class commands, of
one seeded ``genus5-net`` run that passes its smoothness certificate, of
one seeded ``blowup-verify --dump`` run, which holds every kernel basis
the surface construction computes over F_p, of the quadric pencil that
``pencil-disc --dump`` reports, and of the quadrics through the rational
normal quintic over F_p and over the rationals (``rnc-i2 --dump``), and
of the table output of the divisor-class commands, the certificate, the
seeded F_p checks and a ``verify`` subset.  Every class of
``enumerate_quad_cases(40)`` is pinned by the sha256 of its ``quad-class``
JSON and table output in quad_class_cases_g40.json.

The files under tests/data were written by the command named in GOLDEN
or TABLES; any change to a coefficient, a slot kind or the serialization
shows here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qmod.cli import main
from qmod.invariants import enumerate_quad_cases

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "z_class.json": ["z-class"],
    "dp_class.json": ["dp-class"],
    "certificate.json": ["certificate"],
    "certificate_solve.json": ["certificate", "--solve", "--z", "13/66"],
    "genus5_net_seed1.json": ["genus5-net", "--seed", "1"],
    "blowup_verify_seed0.json": ["blowup-verify", "--seed", "0", "--dump"],
    "pencil_disc_seed0.json": ["pencil-disc", "--seed", "0", "--dump"],
    "rnc_i2_r5.json": ["rnc-i2", "--r", "5", "--dump"],
    "rnc_i2_r5_rational.json": ["rnc-i2", "--r", "5", "--rational", "--dump"],
    "quad_class_g11_n4_k4.json": ["quad-class", "--g", "11", "--n", "4", "--k", "4"],
    "quad_class_g40_n27_k6.json": ["quad-class", "--g", "40", "--n", "27", "--k", "6"],
    "canonical_class_g4_n0.json": ["canonical-class", "--g", "4", "--n", "0"],
    "canonical_class_g4_n1.json": ["canonical-class", "--g", "4", "--n", "1"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_json_output_matches_golden_file(capsys, name):
    rc = main(GOLDEN[name] + ["--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.encode() == (DATA / name).read_bytes()


TABLES = {
    "quad_class_g11_n4_k4.txt": ["quad-class", "--g", "11", "--n", "4", "--k", "4"],
    "z_class.txt": ["z-class"],
    "dp_class.txt": ["dp-class"],
    "canonical_class_g15_n9.txt": ["canonical-class", "--g", "15", "--n", "9"],
    "canonical_class_g4_n0.txt": ["canonical-class", "--g", "4", "--n", "0"],
    "canonical_class_g4_n1.txt": ["canonical-class", "--g", "4", "--n", "1"],
    "certificate.txt": ["certificate"],
    "certificate_solve.txt": ["certificate", "--solve", "--z", "13/66"],
    "genus5_net_seed1.txt": ["genus5-net", "--seed", "1"],
    "blowup_verify_seed0.txt": ["blowup-verify", "--seed", "0"],
    "pencil_disc_seed0.txt": ["pencil-disc", "--seed", "0"],
    "secant_r4_t1_2_t2_9.txt": ["secant", "--r", "4", "--t1", "2", "--t2", "9"],
    "rnc_i2_r5.txt": ["rnc-i2", "--r", "5"],
    "verify_dp_class_certificate.txt": ["verify", "04-dp-class", "05-certificate"],
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_output_matches_golden_file(capsys, name):
    rc = main(TABLES[name])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.encode() == (DATA / name).read_bytes()


def test_every_calibrated_class_matches_its_digests(capsys):
    digests = json.loads((DATA / "quad_class_cases_g40.json").read_text())
    cases = enumerate_quad_cases(40)
    assert sorted(digests) == sorted(f"g{g}_n{n}_k{k}" for g, n, k in cases)
    for g, n, k in cases:
        argv = ["quad-class", "--g", str(g), "--n", str(n), "--k", str(k)]
        got = {}
        for form, extra in (("json", ["--format", "json"]), ("table", [])):
            assert main(argv + extra) == 0
            got[form] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == digests[f"g{g}_n{n}_k{k}"], (g, n, k)
