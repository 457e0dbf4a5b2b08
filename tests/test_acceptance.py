"""Acceptance suite: one test per shipping criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Each test prints its measured figure of merit, visible with
``-s`` or in failure output.

Grid conventions used throughout:

* "Full branch 0" means a linear panel over [-1/e, 0.3] joined to a log
  panel over [0.3, large]; "full branch -1" means a linear panel over
  [-1/e, -1e-6] joined to a log panel over [-1e-6, -1e-12].
* Single-step floors (criteria 3 and 4) start their linear panels at
  -1/e + 1e-5 instead of -1/e + 1e-9.  x itself is an exact double, but
  the branch-point series forms c = 1 + e*x in rounded arithmetic: the
  sum carries an absolute error near machine epsilon, a relative error
  of ~eps/c, and W moves like sqrt(2c), so the series value (and the
  reference solver's shifted form, which rounds c the same way) reads
  delta ~ 12 at 1e-9 from the branch point.  At 1e-5 that loss is small
  enough to resolve a 13-decimal floor.
* The Halley-deficiency containment check (criterion 3) uses a 14.5
  threshold rather than the nominal 16: converged values that are 1-2
  ulp from the oracle read as delta 15.3-16 anywhere on the axis, so a
  literal 16 cutoff cannot separate the deficiency window from ordinary
  rounding noise.  Measured distributions are cleanly bimodal: inside
  (6.5, 190) the one-Halley sweep dips to delta ~ 10.5, while outside
  it never falls below 14.6.
"""

import math
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import lambertw
from lambertw import (
    GridSpec,
    MINUS_INV_E,
    MOYAL_PEAK,
    accuracy_sweep,
    fritsch_step,
    gaisser_hillas,
    gh_inverse,
    halley_step,
    lambert_w,
    moyal,
    moyal_inverse,
    reference_w,
    steps_to_converge,
)
from test_branch_coefficients import derive_branch_coefficients

ONE_STEP_OFFSET = 1e-5   # linear-panel start offset for single-step floors
HALLEY_WINDOW = (6.5, 190.0)
CONTAINMENT_DELTA = 14.5  # quantization-adjusted deficiency threshold


def sweep_samples(branch, stage, grids):
    samples = []
    for grid in grids:
        samples.extend(accuracy_sweep(branch, stage, grid).samples)
    return samples


def one_step_grids(branch):
    if branch == 0:
        return (GridSpec("linear", MINUS_INV_E + ONE_STEP_OFFSET, 0.3, 1000),
                GridSpec("log", 0.3, 1e5, 1000))
    return (GridSpec("linear", MINUS_INV_E + ONE_STEP_OFFSET, -1e-6, 1000),
            GridSpec("log", -1e-6, -1e-12, 1000))


# ----------------------------------------------------------------------


def test_criterion_1_defining_identity_residuals():
    """|W e^W - x| <= 1e-14 * max(|x|, 1) over 1e4 samples/branch, < 5 s."""
    grids = {
        0: np.concatenate([np.linspace(MINUS_INV_E, 0.3, 5000),
                           np.geomspace(0.3, 1e8, 5000)]),
        -1: np.concatenate([np.linspace(MINUS_INV_E, -1e-6, 5000),
                            -np.geomspace(1e-6, 1e-12, 5000)]),
    }
    start = time.perf_counter()
    worst = 0.0
    for branch, xs in grids.items():
        for x in xs:
            x = float(x)
            result = lambert_w(branch, x)
            worst = max(worst, abs(result.residual) / max(abs(x), 1.0))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst scaled residual {worst:.3e} "
          f"(tol 1e-14), {elapsed:.2f} s for 20000 evaluations")
    assert worst <= 1e-14
    assert elapsed < 5.0


def test_criterion_2_approximation_floors():
    """Unrefined dispatch: delta >= 5 on [-1/e, 7] and >= 3 on [7, 1e5]
    for branch 0; delta >= 5 across branch -1.  1000-point grids."""
    cases = [
        (0, GridSpec("linear", MINUS_INV_E, 7.0, 1000), 5.0),
        (0, GridSpec("log", 7.0, 1e5, 1000), 3.0),
        (-1, GridSpec("linear", MINUS_INV_E, -1e-6, 1000), 5.0),
        (-1, GridSpec("log", -1e-6, -1e-12, 1000), 5.0),
    ]
    for branch, grid, floor in cases:
        report = accuracy_sweep(branch, "approximation", grid)
        print(f"criterion 2: branch {branch:+d} {grid.describe()} "
              f"min delta {report.min_delta:.3f} (floor {floor})")
        assert report.min_delta >= floor


def test_criterion_3_one_fritsch_floor_and_halley_deficiency_window():
    """One Fritsch step reaches delta >= 13 on both branches, while the
    one-Halley sweep on branch 0 dips below 16 only inside (6.5, 190)."""
    for branch in (0, -1):
        samples = sweep_samples(branch, "one-fritsch", one_step_grids(branch))
        worst = min(delta for _, delta, _ in samples)
        print(f"criterion 3: branch {branch:+d} one-fritsch "
              f"min delta {worst:.3f} (floor 13)")
        assert worst >= 13.0

    halley = sweep_samples(0, "one-halley", one_step_grids(0))
    lo, hi = HALLEY_WINDOW
    inside = [(x, d) for x, d, _ in halley if lo < x < hi]
    outside = [(x, d) for x, d, _ in halley if not lo < x < hi]
    deficient_inside = [d for _, d in inside if d < 16.0]
    escaped = [(x, d) for x, d in outside if d < CONTAINMENT_DELTA]
    fritsch = sweep_samples(0, "one-fritsch", one_step_grids(0))
    fritsch_deficient = [(x, d) for x, d, _ in fritsch if d < CONTAINMENT_DELTA]
    print(f"criterion 3: one-halley points with delta<16 inside window: "
          f"{len(deficient_inside)} (min {min(d for _, d in inside):.3f}); "
          f"outside-window points below {CONTAINMENT_DELTA}: {len(escaped)}; "
          f"one-fritsch points below {CONTAINMENT_DELTA}: {len(fritsch_deficient)}")
    assert deficient_inside, "expected a Halley deficiency inside (6.5, 190)"
    assert not escaped, f"deficiency leaked outside window: {escaped[:3]}"
    assert not fritsch_deficient, f"Fritsch dipped too: {fritsch_deficient[:3]}"


def test_criterion_4_one_halley_floor_lower_branch():
    """One Halley step reaches delta >= 13 across branch -1."""
    samples = sweep_samples(-1, "one-halley", one_step_grids(-1))
    worst = min(delta for _, delta, _ in samples)
    print(f"criterion 4: branch -1 one-halley min delta {worst:.3f} (floor 13)")
    assert worst >= 13.0


def test_criterion_5_branch_point_coefficients_exact():
    """Series reversion reproduces the exact rational b_0..b_7 table."""
    expected = [
        Fraction(-1), Fraction(1), Fraction(-1, 3), Fraction(11, 72),
        Fraction(-43, 540), Fraction(769, 17280), Fraction(-221, 8505),
        Fraction(680863, 43545600),
    ]
    derived = derive_branch_coefficients(7)
    print(f"criterion 5: derive_branch_coefficients(7) -> {derived}")
    assert derived == expected
    assert all(isinstance(b, Fraction) for b in derived)


def test_criterion_6_empirical_convergence_orders():
    """Error ratios under 10x seed-error reduction match order 3 (Halley)
    and order 4 (Fritsch) within a factor of 10 at six reference points."""
    points = [(-1, -0.3), (-1, -0.1), (0, 0.5), (0, 1.0), (0, 10.0), (0, 1000.0)]
    schemes = {"halley": (halley_step, 1e2, 1e4),
               "fritsch": (fritsch_step, 1e3, 1e5)}
    for name, (step, low, high) in schemes.items():
        for branch, x in points:
            w = reference_w(branch, x)
            errors = []
            for delta in (1e-2, 1e-3):
                seeded = step(x, w * (1.0 + delta))
                errors.append(abs(seeded - w))
            ratio = errors[0] / errors[1]
            print(f"criterion 6: {name} at ({branch:+d}, {x}) "
                  f"ratio {ratio:.3g} (expect within [{low:g}, {high:g}])")
            assert low <= ratio <= high


def test_criterion_7_physics_round_trips():
    """moyal/gaisser_hillas inverses round-trip within 1e-12; the peak
    inverts to the exact maximum location within 2 ulp."""
    worst = 0.0
    for side in ("plus", "minus"):
        for y in np.geomspace(1e-6, MOYAL_PEAK, 120):
            y = float(y)
            worst = max(worst, abs(moyal(moyal_inverse(y, side)) - y))
    print(f"criterion 7: worst moyal round-trip error {worst:.3e} (tol 1e-12)")
    assert worst <= 1e-12

    worst = 0.0
    for x_max in (1.0, 2.0, 5.0, 10.0):
        left, right = gh_inverse(1.0, x_max)
        assert abs(left - x_max) <= 2 * math.ulp(x_max)
        assert abs(right - x_max) <= 2 * math.ulp(x_max)
        for y in np.geomspace(1e-6, 1.0, 50):
            y = float(y)
            roots = gh_inverse(y, x_max)
            for root in roots:
                worst = max(worst, abs(gaisser_hillas(root, x_max) - y))
    print(f"criterion 7: worst gaisser-hillas round-trip error {worst:.3e} "
          f"(tol 1e-12)")
    assert worst <= 1e-12


def _cli_env():
    """Child environment that imports the same ``lambertw`` as this test,
    whatever the working directory or any other installed copy."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(lambertw.__file__)))
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def _check_cli_contract(launcher):
    """Golden values, domain-error and usage-error exit codes of the
    ``lambert-w`` utility started by the ``launcher`` argv prefix."""
    env = _cli_env()

    def run(argv):
        return subprocess.run([*launcher, *argv], capture_output=True,
                              text=True, env=env)

    golden = [(["1"], reference_w(0, 1.0)),
              (["-1", "-0.1"], reference_w(-1, -0.1)),
              (["0", "0"], 0.0)]
    for argv, expected in golden:
        proc = run(argv)
        value = float(proc.stdout)
        print(f"criterion 8: {' '.join([*launcher, *argv])} -> "
              f"{proc.stdout.strip()} (oracle {expected!r})")
        assert proc.returncode == 0
        assert abs(value - expected) <= 1e-14

    proc = run(["0", "-1"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "-1/e" in proc.stderr

    proc = run(["abc"])
    assert proc.returncode == 2


def test_criterion_8_cli_golden_values_and_exit_codes():
    """``python -m lambertw`` prints values that parse back to the oracle
    within 1e-14; domain errors exit 1 naming the violated bound;
    malformed input exits 2.  Needs no install; the installed
    ``lambert-w`` console script is checked by the test below."""
    _check_cli_contract([sys.executable, "-m", "lambertw"])


@pytest.mark.skipif(shutil.which("lambert-w") is None,
                    reason="lambert-w console script is not on PATH (package not installed)")
def test_criterion_8_console_script_golden_values_and_exit_codes():
    """The installed ``lambert-w`` console script meets the same contract
    as ``python -m lambertw``."""
    _check_cli_contract([shutil.which("lambert-w")])


# The full branch-0 axis for the step counts of criterion 9 and the step table.
STEP_GRIDS = (GridSpec("linear", MINUS_INV_E + 1e-9, 0.3, 500),
              GridSpec("log", 0.3, 1e8, 500))


def test_criterion_9_fritsch_single_step_and_checksum_invariance():
    """Fritsch refines in exactly one step across the full branch-0 grid
    while Halley needs a second step inside (6.5, 190).

    Checksum invariance is the benchmark's to show: ``perfbench`` reports
    a result only when its traced and untraced passes give bit-identical
    checksums and the same failures, on every workload."""
    xs = [x for grid in STEP_GRIDS for x in grid.points()]
    fritsch_steps = [steps_to_converge(0, x, "fritsch") for x in xs]
    halley_extra = [x for x in xs
                    if HALLEY_WINDOW[0] < x < HALLEY_WINDOW[1]
                    and steps_to_converge(0, x, "halley") >= 2]
    print(f"criterion 9: fritsch steps histogram "
          f"{{1: {fritsch_steps.count(1)}}} of {len(xs)}; "
          f"halley needs >=2 steps at {len(halley_extra)} window points")
    assert all(steps == 1 for steps in fritsch_steps)
    assert halley_extra, "expected Halley to need a second step in the window"


def test_criterion_9_step_table():
    """The paper's step table over the criterion-9 grids: Fritsch takes
    1000 steps, one per point; Halley takes 1071, two at 71 points."""
    xs = [x for grid in STEP_GRIDS for x in grid.points()]
    table = {scheme: Counter(steps_to_converge(0, x, scheme) for x in xs)
             for scheme in ("fritsch", "halley")}
    print(f"criterion 9: step table {table}")
    assert table == {"fritsch": {1: 1000}, "halley": {1: 929, 2: 71}}
