import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmod import cli
from qmod.cli import main


def _run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _run_json(capsys, *argv):
    rc, out, err = _run(capsys, *argv, "--format", "json")
    return rc, json.loads(out), err


def _subparser(command) -> argparse.ArgumentParser:
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _usage_error(command, message) -> str:
    """The stderr of a usage error: the subcommand's usage, one error line."""
    usage = _subparser(command).format_usage()
    assert usage.startswith(f"usage: qmod {command} ")
    return f"{usage}qmod {command}: error: {message}\n"


def test_no_arguments_is_a_usage_error(capsys):
    rc, _, _ = _run(capsys)
    assert rc == 2


def test_expected_dim_json_payload(capsys):
    rc, payload, _ = _run_json(
        capsys, "expected-dim", "--g", "15", "--r", "6", "--d", "22", "--k", "4")
    assert rc == 0
    assert payload == {"g": 15, "r": 6, "d": 22, "k": 4, "q": -9}


def test_harris_tu_table_output(capsys):
    rc, out, _ = _run(capsys, "harris-tu", "--e", "6", "--k", "4")
    assert rc == 0
    assert out.strip() == "35"


def test_quad_class_json_payload(capsys):
    rc, payload, _ = _run_json(
        capsys, "quad-class", "--g", "11", "--n", "4", "--k", "4")
    assert rc == 0
    assert payload["alpha"] == "294"
    assert payload["unscaled"]["lambda"] == "47/7"
    assert payload["class"]["g"] == 11


def test_quad_class_builds_the_class_once(capsys, monkeypatch):
    from qmod import picard

    calls = []
    build = picard.quad_class_unscaled

    def counted(*args):
        calls.append(args)
        return build(*args)

    # Both names: the CLI's own import and the one quad_class reads.
    monkeypatch.setattr(cli, "quad_class_unscaled", counted)
    monkeypatch.setattr(picard, "quad_class_unscaled", counted)
    for fmt in ("table", "json"):
        calls.clear()
        rc, _, _ = _run(capsys, "quad-class", "--g", "11", "--n", "4", "--k", "4",
                        "--format", fmt)
        assert rc == 0
        assert calls == [(11, 4, 4)]


def test_table_mode_builds_no_json_payload(capsys, monkeypatch):
    from qmod.picard import CertificateReport, DivisorClass

    def refuse(self):
        raise AssertionError("table mode built a JSON payload")

    monkeypatch.setattr(DivisorClass, "to_json_dict", refuse)
    monkeypatch.setattr(CertificateReport, "to_json_dict", refuse)
    for argv in (["quad-class", "--g", "11", "--n", "4", "--k", "4"], ["dp-class"],
                 ["z-class"], ["canonical-class", "--g", "4", "--n", "1"],
                 ["certificate"]):
        rc, out, err = _run(capsys, *argv)
        assert (rc, err) == (0, ""), argv
        assert out.endswith("\n") and out.count("\n") > 3, argv


def test_certificate_default_multipliers_pass(capsys):
    rc, payload, _ = _run_json(capsys, "certificate")
    assert rc == 0
    assert payload["passed"] is True
    assert payload["lambda_residual"] == "0"


def test_certificate_off_line_multiplier_fails(capsys):
    rc, payload, _ = _run_json(capsys, "certificate", "--z", "1/5")
    assert rc == 1
    assert payload["passed"] is False


def test_adjusted_rho_reads_the_ramification_list(capsys):
    rc, payload, _ = _run_json(capsys, "adjusted-rho", "--g", "5", "--r", "1",
                               "--d", "4", "--alpha", "0,1")
    assert rc == 0
    assert payload["alpha"] == [0, 1]


@pytest.mark.parametrize("argv", [
    ("adjusted-rho", "--g", "5", "--r", "1", "--d", "4", "--alpha", "a,b"),
    ("adjusted-rho", "--g", "5", "--r", "1", "--d", "4", "--alpha", "0,"),
    ("certificate", "--z", "1/0"),
    ("certificate", "--z", "1/0", "--solve"),
    ("certificate", "--x", "1/0"),
    ("certificate", "--y", "1/0", "--solve"),
    ("certificate", "--x", "one"),
])
def test_malformed_numbers_are_usage_errors(capsys, argv):
    rc, out, err = _run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("certificate", "--z", "-1/3"),
    ("certificate", "--z", "-1/3", "--solve"),
    ("certificate", "--x", "-1/2"),
    ("certificate", "--y", "-1/2"),
    ("certificate", "--z", "-1e-3"),
])
def test_negative_multiplier_reaches_the_certificate_refusal(capsys, argv):
    # A negative fraction in its own token is a value, not an unknown option.
    rc, out, err = _run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == "error: certificate multipliers must be nonnegative\n"


@pytest.mark.parametrize("z, solved", [("1", "y=-41/351"), ("1/100", "x=-33589/8775")])
def test_solve_names_the_negative_solved_multiplier(capsys, z, solved):
    # x and y solve to >= 0 only for 1417/7344 <= z <= 13/54.
    rc, out, err = _run(capsys, "certificate", "--solve", "--z", z)
    assert rc == 2
    assert out == ""
    assert err == (f"error: --solve at z={z} gives {solved}, "
                   "but certificate multipliers must be nonnegative\n")


@pytest.mark.parametrize("z", ["13/54", "1417/7344"])
def test_solve_accepts_the_ends_of_the_nonnegative_range(capsys, z):
    rc, payload, _ = _run_json(capsys, "certificate", "--solve", "--z", z)
    assert rc in (0, 1)
    assert min(Fraction(payload["multipliers"][v]) for v in "xy") == 0


def test_negative_multiplier_reads_alike_in_both_option_forms(capsys):
    # --solve derives x and y from z, so a given y is refused in either form.
    spaced = _run(capsys, "certificate", "--y", "-1/2", "--solve")
    assert spaced == _run(capsys, "certificate", "--y=-1/2", "--solve")
    assert spaced[0] == 2


@pytest.mark.parametrize("argv", [
    ("certificate", "--y", "-1/2", "--solve"),
    ("certificate", "--x", "1/2", "--solve"),
    ("certificate", "--solve", "--x=25/297", "--y=2/297"),
    ("certificate", "--y", "2/297", "--solve", "--z", "13/66"),
])
def test_given_multipliers_conflict_with_solve(capsys, argv):
    # --solve derives x and y from z; a given one would be dropped unseen.
    rc, out, err = _run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == _usage_error("certificate", "--x and --y conflict with --solve")


def test_given_multipliers_without_solve_replace_the_defaults(capsys):
    rc, payload, _ = _run_json(capsys, "certificate", "--x", "1/2")
    assert rc == 1
    assert payload["multipliers"] == {"x": "1/2", "y": "2/297", "z": "13/66"}


def test_certificate_solve_recovers_defaults(capsys):
    rc, payload, _ = _run_json(capsys, "certificate", "--solve")
    assert rc == 0
    assert payload["multipliers"]["x"] == "25/297"
    assert payload["multipliers"]["y"] == "2/297"


def test_composite_prime_is_rejected(capsys):
    rc, _, err = _run(capsys, "genus4", "--prime", "16")
    assert rc == 2
    assert err == "error: 16 is not prime\n"


@pytest.mark.parametrize("prime", ["318665857834031151167461", "3317044064679887385961981"])
def test_unproven_prime_is_a_configuration_error(capsys, prime):
    # A strong pseudoprime below the proven bound, and the bound itself.
    rc, out, err = _run(capsys, "verify", "07-secant", "--prime", prime)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_prime_environment_is_not_read(capsys, monkeypatch):
    # --prime is the only source of the working prime; QMOD_PRIME overrides nothing.
    monkeypatch.setenv("QMOD_PRIME", "2147483647")
    rc, payload, _ = _run_json(capsys, "verify", "05-certificate")
    assert (rc, payload["prime"]) == (0, (1 << 61) - 1)


def test_garbage_prime_environment_is_ignored(capsys, monkeypatch):
    monkeypatch.delenv("QMOD_PRIME", raising=False)
    default = _run(capsys, "genus4", "--prime", str((1 << 61) - 1), "--format", "json")
    monkeypatch.setenv("QMOD_PRIME", "twelve")
    assert _run(capsys, "genus4", "--format", "json") == default
    assert default[0] == 0


def test_explicit_prime_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("QMOD_PRIME", "twelve")
    rc, _, _ = _run(capsys, "genus4", "--prime", "65537")
    assert rc == 0
    monkeypatch.setenv("QMOD_PRIME", "2147483647")
    rc, payload, _ = _run_json(capsys, "verify", "05-certificate", "--prime", "65537")
    assert (rc, payload["prime"]) == (0, 65537)


def test_exact_commands_ignore_the_prime_environment(capsys, monkeypatch):
    # rho computes over the integers, so no prime is resolved at all.
    monkeypatch.setenv("QMOD_PRIME", "twelve")
    rc, out, err = _run(capsys, "rho", "--g", "15", "--r", "6", "--d", "20")
    assert (rc, out, err) == (0, "8\n", "")


def test_zero_repeat_is_rejected(capsys):
    rc, _, err = _run(capsys, "genus4", "--repeat", "0")
    assert rc == 2
    assert "repeat" in err


def _options(command) -> set:
    """The option strings that the command's subparser declares, less --help."""
    return {opt for action in _subparser(command)._actions
            for opt in action.option_strings} - {"-h", "--help"}


# Each subcommand's options past the --seed and --format that all take.
_OWN_OPTIONS = {
    "expected-dim": {"--g", "--r", "--d", "--k"},
    "rho": {"--g", "--r", "--d"},
    "adjusted-rho": {"--g", "--r", "--d", "--alpha"},
    "harris-tu": {"--e", "--k"},
    "enumerate-cases": {"--g-max"},
    "quad-class": {"--g", "--n", "--k"},
    "dp-class": {"--g", "--n"},
    "z-class": set(),
    "canonical-class": {"--g", "--n"},
    "certificate": {"--x", "--y", "--z", "--solve"},
    "rnc-i2": {"--prime", "--r", "--rational", "--dump"},
    "rank3-family": {"--prime", "--r", "--x"},
    "rank4-family": {"--prime", "--r", "--m1", "--m2", "--x"},
    "secant": {"--prime", "--repeat", "--r", "--t1", "--t2"},
    "genus4": {"--prime", "--repeat"},
    "genus5-net": {"--prime"},
    "blowup-verify": {"--prime", "--dump"},
    "pencil-disc": {"--prime", "--dump"},
    "verify": {"--prime"},
}

# An argument list that each command in _UNREAD runs with, short of the
# shared options.
_VALID_ARGV = {
    "expected-dim": ["--g", "15", "--r", "6", "--d", "22", "--k", "4"],
    "rho": ["--g", "15", "--r", "6", "--d", "20"],
    "adjusted-rho": ["--g", "5", "--r", "1", "--d", "4", "--alpha", "0,1"],
    "harris-tu": ["--e", "6", "--k", "4"],
    "enumerate-cases": [],
    "quad-class": ["--g", "11", "--n", "4", "--k", "4"],
    "dp-class": [],
    "z-class": [],
    "canonical-class": ["--g", "15", "--n", "9"],
    "certificate": [],
    "rnc-i2": ["--r", "4"],
    "rank3-family": ["--r", "5", "--x", "1"],
    "rank4-family": ["--r", "6", "--m1", "5", "--m2", "1", "--x", "0"],
    "genus5-net": [],
    "blowup-verify": [],
    "pencil-disc": [],
    "verify": ["01-identities"],
}

# The (command, option) pairs that a shared parent parser once accepted
# and the command never read.
_UNREAD = [(command, option) for command in _OWN_OPTIONS
           for option in ("--prime", "--repeat")
           if option not in _OWN_OPTIONS[command]]


def test_each_subcommand_declares_only_the_options_it_reads():
    assert set(_OWN_OPTIONS) == set(cli.HANDLERS)
    for command, own in _OWN_OPTIONS.items():
        assert _options(command) == own | {"--seed", "--format"}, command
    shared = ("--prime", "--seed", "--format", "--repeat")
    assert sum(len(_options(c) & set(shared)) for c in cli.HANDLERS) == 49
    assert len(_UNREAD) == 27


@pytest.mark.parametrize("command, option", _UNREAD)
def test_an_unread_option_is_a_usage_error(capsys, command, option):
    value = {"--prime": "65537", "--repeat": "2"}[option]
    rc, out, err = _run(capsys, command, *_VALID_ARGV[command], option, value)
    assert (rc, out) == (2, "")
    assert err == _usage_error(command, f"unrecognized arguments: {option} {value}")


def test_undeclared_option_prints_the_subcommand_usage(capsys, monkeypatch):
    # Usage wraps at the terminal width; pin it.
    monkeypatch.setenv("COLUMNS", "80")
    rc, out, err = _run(capsys, "genus5-net", "--repeat", "5")
    assert (rc, out) == (2, "")
    assert err == ("usage: qmod genus5-net [-h] [--seed SEED] [--format {table,json}]\n"
                   "                       [--prime PRIME]\n"
                   "qmod genus5-net: error: unrecognized arguments: --repeat 5\n")


def test_verify_unknown_check_is_a_usage_error(capsys):
    # Every name is checked before "all" expands, so a bad one next to it
    # is refused too.
    known = ", ".join(cli.check_names())
    for argv in (("verify", "frobnicate"), ("verify", "all", "frobnicate")):
        rc, out, err = _run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == _usage_error(
            "verify", f"argument checks: unknown check 'frobnicate'; known: {known} or all")


def test_verify_subset_passes(capsys):
    rc, payload, _ = _run_json(capsys, "verify", "02-harris-tu", "05-certificate")
    assert rc == 0
    names = [r["check"] for r in payload["results"]]
    assert names == ["02-harris-tu", "05-certificate"]
    assert all(r["pass"] for r in payload["results"])


@pytest.mark.parametrize("checks, names", [
    (["01-identities", "01-identities"], ["01-identities"]),
    (["05-certificate", "02-harris-tu", "05-certificate"],
     ["05-certificate", "02-harris-tu"]),
])
def test_verify_runs_each_name_once_in_first_seen_order(capsys, checks, names):
    rc, payload, _ = _run_json(capsys, "verify", *checks)
    assert rc == 0
    assert [r["check"] for r in payload["results"]] == names


def test_secant_requires_both_parameters(capsys):
    rc, out, err = _run(capsys, "secant", "--r", "4", "--t1", "2")
    assert (rc, out) == (2, "")
    assert err == _usage_error("secant", "--t1 and --t2 must be given together")


def test_secant_explicit_chord(capsys):
    rc, payload, _ = _run_json(capsys, "secant", "--r", "4", "--t1", "2",
                               "--t2", "9")
    assert rc == 0
    assert payload["codims"] == [1]


def test_secant_repeat_conflicts_with_explicit_chord(capsys):
    # A given chord is evaluated once; --repeat would be dropped unseen.
    rc, out, err = _run(capsys, "secant", "--r", "4", "--t1", "2", "--t2", "5",
                        "--repeat", "7")
    assert (rc, out) == (2, "")
    assert err == _usage_error("secant", "--repeat conflicts with --t1/--t2")
    rc, payload, _ = _run_json(capsys, "secant", "--r", "4", "--repeat", "7")
    assert rc == 0 and payload["chords"] == 7


def test_small_prime_sampling_is_a_configuration_error(capsys):
    rc, _, err = _run(capsys, "genus5-net", "--prime", "101")
    assert rc == 2
    assert "error" in err


def test_json_output_is_deterministic(capsys):
    first = _run_json(capsys, "quad-class", "--g", "11", "--n", "4", "--k", "4")
    second = _run_json(capsys, "quad-class", "--g", "11", "--n", "4", "--k", "4")
    assert first == second


def test_rnc_i2_matches_expected_dimension(capsys):
    rc, payload, _ = _run_json(capsys, "rnc-i2", "--r", "5")
    assert rc == 0
    assert payload["dim"] == payload["expected"] == 10


def test_explicit_prime_conflicts_with_rational(capsys):
    # --rational works over QQ; a given --prime would be dropped unseen,
    # even one equal to the default.
    for prime in ("3", str((1 << 61) - 1)):
        rc, out, err = _run(capsys, "rnc-i2", "--r", "4", "--rational", "--prime", prime)
        assert (rc, out) == (2, "")
        assert err == _usage_error(
            "rnc-i2", "argument --prime: not allowed with argument --rational")
    rc, payload, _ = _run_json(capsys, "rnc-i2", "--r", "4", "--rational")
    assert rc == 0 and payload["rational"] is True


@pytest.mark.parametrize("env", ["twelve", "9"])
def test_rational_rnc_i2_ignores_the_prime_environment(capsys, monkeypatch, env):
    # The working prime is resolved on the F_p path only.
    monkeypatch.setenv("QMOD_PRIME", env)
    rc, payload, err = _run_json(capsys, "rnc-i2", "--r", "4", "--rational")
    assert (rc, err) == (0, "")
    assert payload["rational"] is True


def test_rank3_family_dimension(capsys):
    rc, payload, _ = _run_json(capsys, "rank3-family", "--r", "5", "--x", "1")
    assert rc == 0
    assert payload["dim"] == payload["expected"] == 3


def test_blowup_verify_seed_one_passes(capsys):
    rc, payload, _ = _run_json(capsys, "blowup-verify", "--seed", "1")
    assert rc == 0
    assert payload["passed"] is True


def test_enumerate_cases_count(capsys):
    rc, payload, _ = _run_json(capsys, "enumerate-cases", "--g-max", "16")
    assert rc == 0
    assert payload["count"] == 11
    assert [11, 4, 4] in payload["cases"]


def test_working_prime_is_proven_once(capsys, monkeypatch):
    from qmod import fields

    calls = []
    is_prime = fields.is_prime

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(fields, "is_prime", counted)
    rc, _, _ = _run(capsys, "verify", "07-secant", "--prime", "65537")
    assert rc == 0
    assert calls == [65537]


@pytest.mark.parametrize("argv", [
    ["certificate"],
    ["z-class"],
    ["expected-dim", "--g", "5", "--r", "4", "--d", "8", "--k", "3"],
    ["verify", "01-identities"],
])
def test_closed_stdout_pipe_exits_one_without_traceback(qmod_env, argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qmod", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=qmod_env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr


# Edge values for the robustness sweep: ambient dimensions below and above
# the legal range, the unit, composite and too-small moduli next to the two
# working primes, a zero repeat count and chords with equal parameters.  The
# divisor commands take genus, marked points and rank far past the calibrated
# slices; the certificate takes zero, negative, off-line, huge and malformed
# multipliers; the sampling commands run at primes below and at the sampling
# bound.
_SWEEP_PRIMES = [1, 3, 4, 65537, (1 << 61) - 1]
_SAMPLING_PRIMES = [3, 5, 7, 65537]
_small = st.integers(-2, 9).map(str)
_wide = st.integers(-1, 200).map(str)
_multiplier = st.one_of(
    st.sampled_from(["0", "-1", "13/66", "-13/66", "1/5", "10**9", "1000000000/7"]),
    st.fractions(max_denominator=1000).map(str))


@st.composite
def _cheap_argv(draw):
    command = draw(st.sampled_from([
        "rnc-i2", "rank3-family", "rank4-family", "secant", "genus4", "expected-dim",
        "rho", "harris-tu", "quad-class", "dp-class", "canonical-class",
        "enumerate-cases", "z-class", "certificate", "genus5-net", "blowup-verify",
        "pencil-disc"]))
    sampling = command in ("genus5-net", "blowup-verify", "pencil-disc")
    argv = [command, "--seed", str(draw(st.integers(0, 3)))]
    # Each command gets only the options its parser declares.
    if "--prime" in _options(command):
        primes = _SAMPLING_PRIMES if sampling else _SWEEP_PRIMES
        argv += ["--prime", str(draw(st.sampled_from(primes)))]
    if "--repeat" in _options(command):
        argv += ["--repeat", str(draw(st.integers(0, 2)))]
    if command == "harris-tu":
        return argv + ["--e", draw(_small), "--k", draw(_small)]
    if command in ("genus4", "z-class") or sampling:
        return argv
    if command in ("quad-class", "dp-class", "canonical-class"):
        argv += ["--g", draw(_wide), "--n", draw(_wide)]
        return argv + ["--k", draw(_wide)] if command == "quad-class" else argv
    if command == "enumerate-cases":
        return argv + ["--g-max", draw(_wide)]
    if command == "certificate":
        z = draw(_multiplier)
        argv += draw(st.sampled_from([["--z=" + z], ["--z", z]]))
        return argv + ["--solve"] if draw(st.booleans()) else argv
    argv += ["--r", draw(_small)]
    if command == "rnc-i2" and draw(st.booleans()):
        argv.append("--rational")
    elif command == "rank3-family":
        argv += ["--x", draw(_small)]
    elif command == "rank4-family":
        argv += ["--m1", draw(_small), "--m2", draw(_small), "--x", draw(_small)]
    elif command == "secant" and draw(st.booleans()):
        t1 = draw(_small)
        argv += ["--t1", t1, "--t2", draw(st.one_of(st.just(t1), _small))]
    elif command in ("expected-dim", "rho"):
        argv += ["--g", draw(_small), "--d", draw(_small)]
        if command == "expected-dim":
            argv += ["--k", draw(_small)]
    return argv


@settings(max_examples=400)
@given(argv=_cheap_argv())
def test_cheap_commands_exit_cleanly_on_edge_input(argv):
    # Every outcome is an exit code: 0 success, 1 failed check, 2 bad usage
    # or configuration, reported on one error line with nothing on stdout.
    # No exception escapes main.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), (argv, rc)
    assert "unrecognized arguments" not in err.getvalue(), argv
    if rc == 2:
        assert out.getvalue() == "", argv
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, argv


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


# A usage error, help, a failing certificate, a handler's own usage check
# and a JSON payload: every exit path of main through the one parser.
_SHARED_PARSER_ROUND = [
    ["rank3-family", "--r", "x"],
    ["--help"],
    ["certificate", "--z", "-1/3"],
    ["secant", "--r", "3", "--t1", "1"],
    ["rnc-i2", "--r", "4", "--format", "json"],
]


def test_shared_parser_answers_like_a_fresh_process(qmod_env, monkeypatch):
    # Help text wraps at the terminal width; pin it on both sides.
    monkeypatch.setenv("COLUMNS", "80")
    cli.build_parser()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    rounds = []
    for _ in range(2):
        answers = []
        for argv in _SHARED_PARSER_ROUND:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            answers.append((rc, out.getvalue(), err.getvalue()))
        rounds.append(answers)
    assert built == []
    assert rounds[0] == rounds[1]
    env = dict(qmod_env, COLUMNS="80")
    for argv, answer in zip(_SHARED_PARSER_ROUND, rounds[0]):
        proc = subprocess.run([sys.executable, "-m", "qmod", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == answer
