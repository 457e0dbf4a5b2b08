"""Tests for the lambert-w command-line utility."""

import math
import os
import subprocess
import sys

import pytest

import lambertw
from lambertw import cli, reference_w
from lambertw.cli import run_cli


def run(argv, capsys):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# bare positional contract


def test_single_argument_is_principal_branch(capsys):
    code, out, err = run(["1"], capsys)
    assert code == 0
    assert err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    value = float(out)
    assert abs(value - reference_w(0, 1.0)) <= 1e-14


def test_two_arguments_are_branch_then_x(capsys):
    code, out, err = run(["-1", "-0.1"], capsys)
    assert code == 0
    assert abs(float(out) - reference_w(-1, -0.1)) <= 1e-14


def test_lone_negative_argument_is_x_not_a_flag(capsys):
    code, out, err = run(["-0.2"], capsys)
    assert code == 0
    assert abs(float(out) - reference_w(0, -0.2)) <= 1e-14


def test_zero_evaluates_to_zero(capsys):
    code, out, err = run(["0", "0"], capsys)
    assert code == 0
    assert float(out) == 0.0


def test_output_is_seventeen_significant_digits(capsys):
    code, out, err = run(["1"], capsys)
    # One token, round-trippable to the exact double that was printed.
    token = out.strip()
    assert " " not in token
    value = float(token)
    assert f"{value:.17g}" == token


def test_result_satisfies_defining_identity(capsys):
    for argv, x in ([["2.5"], 2.5], [["-1", "-0.05"], -0.05]):
        code, out, err = run(argv, capsys)
        assert code == 0
        w = float(out)
        assert abs(w * math.exp(w) - x) <= 1e-14 * max(abs(x), 1.0)


# ----------------------------------------------------------------------
# exit codes


def test_out_of_domain_exits_one_with_bound_message(capsys):
    code, out, err = run(["0", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert "-1/e" in err or "-0.3678794" in err


def test_lower_branch_positive_x_exits_one(capsys):
    code, out, err = run(["-1", "0.5"], capsys)
    assert code == 1
    assert "x < 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["abc"],
        ["1", "2", "3"],
        ["2", "0.5"],   # branch must be 0 or -1
        ["0.5", "1"],
        ["sweep", "--stage", "converged"],  # not one of STAGES
        ["sweep", "--count", "1"],  # the default panel needs 2 points
        ["sweep", "--bogus", "1"],
        ["sweep", "--coun", "3"],  # options are not abbreviated
        ["sweep", "--count"],
        ["sweep", "--branch", "1"],
        ["moyal-inverse", "--side", "left", "0.2"],
        ["moyal-inverse", "0.2", "0.3"],
        ["gh-inverse", "0.5"],
        ["gh-inverse", "a", "2"],
    ],
)
def test_malformed_arguments_exit_two_with_usage(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("lambert-w: error: ")
    assert "usage" in err.lower()


def test_help_exits_zero(capsys):
    code, out, err = run(["--help"], capsys)
    assert code == 0
    assert "usage" in out.lower()


@pytest.mark.parametrize("head", ["eval", "approx", "sweep", "moyal-inverse", "gh-inverse"])
def test_h_after_each_subcommand_prints_the_usage(head, capsys):
    assert run([head, "-h"], capsys) == (0, cli._USAGE, "")


# ----------------------------------------------------------------------
# subcommands


def test_eval_subcommand_matches_bare_form(capsys):
    code_bare, out_bare, _ = run(["-1", "-0.2"], capsys)
    code_sub, out_sub, _ = run(["eval", "-1", "-0.2"], capsys)
    assert code_bare == code_sub == 0
    assert out_bare == out_sub


def test_approx_subcommand_prints_unrefined_value(capsys):
    code, out, err = run(["approx", "1"], capsys)
    assert code == 0
    approx = float(out)
    ref = reference_w(0, 1.0)
    assert approx != ref
    assert abs(approx - ref) <= 1e-5


def test_sweep_writes_records_to_stdout(capsys):
    code, out, err = run(
        ["sweep", "--branch", "-1", "--stage", "one-fritsch",
         "--grid", "linear", "--start", "-0.3", "--stop", "-0.1", "--count", "4"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# branch=-1 stage=one-fritsch")
    assert len(lines) == 5
    x, delta, region = lines[1].split(" ")
    assert float(x) == -0.3
    assert float(delta) >= 13.0
    assert "min_delta" in err  # summary goes to stderr, not stdout


def test_sweep_takes_negative_bounds_in_exponent_notation(capsys):
    code, out, err = run(
        ["sweep", "--branch", "-1", "--stage", "one-fritsch",
         "--grid", "log", "--start", "-1e-6", "--stop", "-1e-12", "--count", "3"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# branch=-1 stage=one-fritsch")
    xs = [float(line.split(" ")[0]) for line in lines[1:]]
    assert len(xs) == 3 and xs[0] == -1e-6 and xs[-1] == -1e-12


def test_options_take_name_equals_value_negative_numbers_included(capsys):
    joined = run(["sweep", "--branch=-1", "--grid=log", "--start=-1e-6", "--stop=-1e-12",
                  "--count=3", "--stage=one-fritsch"], capsys)
    spaced = run(["sweep", "--branch", "-1", "--grid", "log", "--start", "-1e-6",
                  "--stop", "-1e-12", "--count", "3", "--stage", "one-fritsch"], capsys)
    assert joined == spaced and joined[0] == 0
    assert joined[1].startswith("# branch=-1 stage=one-fritsch grid=log")
    assert run(["moyal-inverse", "--side=minus", "0.2"], capsys) == \
        run(["moyal-inverse", "--side", "minus", "0.2"], capsys)


def test_sweep_defaults_to_canonical_panel(capsys):
    code, out, err = run(["sweep", "--count", "50"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 51


def test_sweep_writes_to_file(tmp_path, capsys):
    target = tmp_path / "records.dat"
    code, out, err = run(
        ["sweep", "--grid", "log", "--start", "0.3", "--stop", "100", "--count", "10",
         "--output", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("# branch=0")


def test_sweep_to_an_unwritable_path_exits_two_without_traceback(tmp_path, capsys):
    target = tmp_path / "missing" / "records.dat"
    code, out, err = run(["sweep", "--count", "5", "--output", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("lambert-w: error: ")
    assert str(target) in err


def test_sweep_checks_the_output_path_before_sweeping(tmp_path, capsys, monkeypatch):
    def sweep_not_expected(*args):
        pytest.fail("the sweep ran before --output was opened")

    monkeypatch.setattr(cli, "accuracy_sweep", sweep_not_expected)
    target = tmp_path / "missing" / "records.dat"
    code, out, err = run(["sweep", "--count", "20000", "--output", str(target)], capsys)
    assert code == 2
    assert err.startswith("lambert-w: error: ")


def _cli_process(argv, stdout):
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(lambertw.__file__)))
    return subprocess.Popen([sys.executable, "-m", "lambertw", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": package_root})


def test_a_reader_that_closes_stdout_early_gets_exit_141_and_no_stderr():
    """``lambert-w sweep | head -1``: the report is far larger than a pipe
    buffer, so the write after the reader closes raises BrokenPipeError,
    which is neither a bad --output path nor worth a message."""
    proc = _cli_process(["sweep", "--count", "20000"], subprocess.PIPE)
    assert proc.stdout.readline().startswith("# branch=0")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["1"], ["sweep", "--count", "20000"]])
def test_a_failed_write_to_stdout_exits_two_with_one_message(argv):
    """A full device is an error, unlike a closed pipe: one line names
    it, without a traceback or the usage text."""
    with open("/dev/full", "w") as full:
        proc = _cli_process(argv, full)
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2
    assert err == "lambert-w: error: [Errno 28] No space left on device\n"


def test_moyal_inverse_subcommand(capsys):
    code, out, err = run(["moyal-inverse", "0.2"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(3.17717, abs=1e-4)
    code, out, err = run(["moyal-inverse", "--side", "minus", "0.2"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(-1.56532, abs=1e-4)


def test_moyal_inverse_domain_error_exits_one(capsys):
    code, out, err = run(["moyal-inverse", "0.7"], capsys)
    assert code == 1
    assert "e^-1/2" in err or "0.60653" in err


def test_gh_inverse_subcommand(capsys):
    code, out, err = run(["gh-inverse", "0.5", "2"], capsys)
    assert code == 0
    left, right = map(float, out.split())
    assert left == pytest.approx(0.7615, abs=1e-3)
    assert right == pytest.approx(4.1564, abs=1e-3)


def test_gh_inverse_domain_error(capsys):
    code, out, err = run(["gh-inverse", "1.5", "2"], capsys)
    assert code == 1
    assert "(0, 1]" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["moyal-inverse", "-1e-5"], "y=-1e-05"),
        (["moyal-inverse", "--side", "minus", "-1e-5"], "y=-1e-05"),
        (["gh-inverse", "0.5", "-1e-5"], "got -1e-05"),
        (["gh-inverse", "-1e-5", "2"], "got y=-1e-05"),
    ],
)
def test_negative_positionals_in_exponent_notation_reach_the_domain_check(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("lambert-w: domain error: ") and message in err
