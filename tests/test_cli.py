"""Tests for the lambert-w command-line utility."""

import math

import pytest

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
    ],
)
def test_malformed_arguments_exit_two_with_usage(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "usage" in err.lower()


def test_help_exits_zero(capsys):
    code, out, err = run(["--help"], capsys)
    assert code == 0
    assert "usage" in out.lower()


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
