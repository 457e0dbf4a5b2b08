"""Tests for the delta metric, grid specs, sweeps, and data-file output."""

import io
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import lambertw
from lambertw import (
    DELTA_CAP,
    AccuracyReport,
    GridSpec,
    MINUS_INV_E,
    accuracy_sweep,
    default_panels,
    delta_accuracy,
    write_report,
)
from lambertw.iteration import SINGULARITY_GUARD
from support import CONTAINMENT_DELTA


# ----------------------------------------------------------------------
# metric


def test_cap_when_identical():
    assert delta_accuracy(0.5, 0.5) == DELTA_CAP == 17.0


def test_hand_arithmetic_two_decimals():
    # log10(1) - log10(0.01) = 2.
    assert delta_accuracy(-0.99, -1.0) == pytest.approx(2.0, abs=1e-12)


def test_undefined_at_exact_zero():
    with pytest.raises(ValueError):
        delta_accuracy(0.1, 0.0)


def test_dispatch_approximation_at_one_is_five_decimals():
    from lambertw import lambert_w_approximation, reference_w

    delta = delta_accuracy(lambert_w_approximation(0, 1.0), reference_w(0, 1.0))
    assert delta >= 5.0


# ----------------------------------------------------------------------
# grids


def test_linear_grid_points():
    grid = GridSpec("linear", 0.0, 1.0, 5)
    assert np.allclose(grid.points(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_log_grid_supports_negative_ranges():
    grid = GridSpec("log", -1e-2, -1e-6, 5)
    points = grid.points()
    assert points[0] == pytest.approx(-1e-2)
    assert points[-1] == pytest.approx(-1e-6)
    assert all(p < 0 for p in points)


def test_log_grid_accepts_tiny_endpoints():
    # start * stop underflows to 0 here; the signs still agree.
    grid = GridSpec("log", 1e-200, 1e-150, 5)
    points = grid.points()
    assert points[0] == 1e-200 and points[-1] == 1e-150
    assert abs(points[2] - 1e-175) <= math.ulp(1e-175)
    assert points == sorted(points)
    assert accuracy_sweep(0, "one-fritsch", grid).min_delta >= 13.0


# The four default panels and the criterion-9 step-count grids.
_NUMPY_CHECKED_GRIDS = [
    *default_panels(0),
    *default_panels(-1),
    GridSpec("linear", MINUS_INV_E + 1e-9, 0.3, 500),
    GridSpec("log", 0.3, 1e8, 500),
]


@pytest.mark.parametrize("grid", _NUMPY_CHECKED_GRIDS)
def test_grid_points_match_numpy(grid):
    points = grid.points()
    assert all(type(p) is float for p in points)
    if grid.kind == "linear":
        assert points == np.linspace(grid.start, grid.stop, grid.count).tolist()
        return
    reference = np.geomspace(grid.start, grid.stop, grid.count).tolist()
    assert len(points) == len(reference)
    assert points[0] == grid.start and points[-1] == grid.stop
    assert all(abs(p - r) <= math.ulp(r) for p, r in zip(points, reference))


def _log_formula(grid):
    """The log grid of ``GridSpec.points``' docstring, point by point."""
    a = math.log10(abs(grid.start))
    step = (math.log10(abs(grid.stop)) - a) / (grid.count - 1)
    inner = [math.copysign(10.0 ** (a + i * step), grid.start) for i in range(1, grid.count - 1)]
    return [grid.start, *inner, grid.stop]


def _sweep_sub_grids(points=4):
    """Consecutive ``points``-point sub-grids tiling every default panel,
    as the sweep-panels benchmark workload cuts them."""
    grids = []
    for panel in (*default_panels(0), *default_panels(-1)):
        xs = panel.points()
        grids += [GridSpec(panel.kind, xs[j], xs[j + points - 1], points)
                  for j in range(0, len(xs) - points + 1, points)]
    return grids


def test_log_grid_points_are_the_documented_formula_bit_for_bit():
    grids = [g for g in _NUMPY_CHECKED_GRIDS + _sweep_sub_grids() if g.kind == "log"]
    assert len(grids) == 3 + 2 * 250
    for grid in grids:
        assert grid.points() == _log_formula(grid), grid


@pytest.mark.parametrize(
    "kind, start, stop, count",
    [
        ("cubic", 0.0, 1.0, 10),
        ("linear", 0.0, 1.0, 1),
        ("log", -1.0, 1.0, 10),
        ("log", 0.0, 1.0, 10),
        ("log", math.nan, 1.0, 5),
        ("log", -1e-200, 1e-150, 5),
        ("linear", 0.1, 0.2, 4.0),
        ("linear", 0.1, 0.2, 2.5),
    ],
)
def test_grid_validation(kind, start, stop, count):
    with pytest.raises(ValueError):
        GridSpec(kind, start, stop, count)


def test_grid_count_takes_any_integer_type():
    grid = GridSpec("linear", 0.1, 0.2, np.int64(4))
    assert type(grid.count) is int
    assert grid.points() == GridSpec("linear", 0.1, 0.2, 4).points()


def test_default_panels_cover_figures():
    w0_panels = default_panels(0)
    assert w0_panels[0].kind == "linear" and w0_panels[0].stop == 0.3
    assert w0_panels[1].kind == "log" and w0_panels[1].stop == 1e5
    wm1_panels = default_panels(-1)
    assert all(p.stop < 0 for p in wm1_panels)
    for panel in w0_panels + wm1_panels:
        assert panel.count == 1000
        assert panel.start >= MINUS_INV_E + 1e-10


# ----------------------------------------------------------------------
# sweeps


def test_sweep_report_invariants():
    grid = GridSpec("linear", MINUS_INV_E + 1e-9, 0.29, 200)
    report = accuracy_sweep(0, "approximation", grid)
    assert isinstance(report, AccuracyReport)
    assert len(report.samples) == 200
    assert report.min_delta == min(d for _, d, _ in report.samples)
    assert report.min_delta >= 5.0
    regions = {region for _, _, region in report.samples}
    assert regions == {"branch-point-series", "rational-fit-1", "rational-fit-2"}


def test_one_fritsch_log_panel_reaches_thirteen():
    report = accuracy_sweep(0, "one-fritsch", GridSpec("log", 0.3, 1e5, 300))
    assert report.min_delta >= 13.0


def test_one_halley_lower_branch_reaches_thirteen():
    grid = GridSpec("linear", MINUS_INV_E + 1e-5, -1e-6, 300)
    report = accuracy_sweep(-1, "one-halley", grid)
    assert report.min_delta >= 13.0


def test_one_halley_lower_branch_at_subnormal_x():
    # exp(w) is subnormal or 0 here; the step divides it out.
    grid = GridSpec("log", -1e-300, -5e-324, 200)
    assert accuracy_sweep(-1, "one-halley", grid).min_delta >= 15.0


def test_one_fritsch_stage_is_machine_accurate_on_log_panel():
    # Machine accuracy: every point within the rounding of a converged value.
    report = accuracy_sweep(0, "one-fritsch", GridSpec("log", 0.3, 1e5, 200))
    assert report.min_delta >= CONTAINMENT_DELTA


# Grids from the branch point itself, where the seed -1 is exact, across
# every region of their branch.
_FROM_BRANCH_POINT = {
    0: GridSpec("linear", MINUS_INV_E, 20.0, 400),
    -1: GridSpec("linear", MINUS_INV_E, -1e-3, 400),
}


@pytest.mark.parametrize("stage", lambertw.STAGES)
@pytest.mark.parametrize("branch", [0, -1])
def test_sweep_matches_the_seed_and_one_step_bit_for_bit(branch, stage):
    """Every delta is that of the seed, stepped by the public step unless
    it lies within ``SINGULARITY_GUARD`` of -1 or is 0, against
    ``reference_w``.  The sweep's own test is equality with -1 or 0, so
    this pins the equality to the guard's tolerance."""
    grid = _FROM_BRANCH_POINT[branch]
    report = accuracy_sweep(branch, stage, grid)
    regions = lambertw.W0_REGIONS if branch == 0 else lambertw.WM1_REGIONS
    assert {region for _, _, region in report.samples} == {r.kind for r in regions}
    assert report.samples[0][:2] == (MINUS_INV_E, DELTA_CAP)
    step = lambertw.halley_step if stage == "one-halley" else lambertw.fritsch_step
    for x, delta, _ in report.samples:
        value = lambertw.lambert_w_approximation(branch, x)
        if stage != "approximation" and not (
                value == 0.0 or abs(1.0 + value) <= SINGULARITY_GUARD):
            value = step(x, value)
        assert delta == delta_accuracy(value, lambertw.reference_w(branch, x)), x


@pytest.mark.parametrize("stage", lambertw.STAGES)
def test_sweep_leaves_inf_unstepped(stage):
    """lambert_w returns the seed +inf unstepped; so does every stage.
    A step from +inf gives NaN, whose delta min_delta would hide."""
    report = accuracy_sweep(0, stage, GridSpec("log", 1.0, math.inf, 3))
    assert [x for x, _, _ in report.samples] == [1.0, math.inf, math.inf]
    assert [delta for x, delta, _ in report.samples if x == math.inf] == [DELTA_CAP] * 2


def test_stage_validation():
    grid = GridSpec("linear", 0.1, 0.2, 10)
    with pytest.raises(ValueError):
        accuracy_sweep(0, "two-newton", grid)


def test_converged_stage_is_gone_and_the_error_names_the_stages():
    assert lambertw.STAGES == ("approximation", "one-halley", "one-fritsch")
    grid = GridSpec("linear", 0.1, 0.2, 10)
    with pytest.raises(ValueError, match=re.escape(str(lambertw.STAGES))):
        accuracy_sweep(0, "converged", grid)


def test_sweep_rejects_grid_containing_zero():
    grid = GridSpec("linear", -0.1, 0.1, 3)  # middle point is 0.0
    with pytest.raises(ValueError):
        accuracy_sweep(0, "approximation", grid)


def test_sweep_rejects_an_exact_zero_as_delta_accuracy_does(monkeypatch):
    monkeypatch.setattr(lambertw.accuracy, "reference_w", lambda branch, x: 0.0)
    with pytest.raises(ValueError, match="at x=0.1: delta accuracy is undefined"):
        accuracy_sweep(0, "one-fritsch", GridSpec("linear", 0.1, 0.2, 2))


def test_sweep_attaches_offending_x_to_errors():
    grid = GridSpec("linear", -0.5, -0.4, 3)  # outside the domain
    with pytest.raises(ValueError, match="at x=-0.5"):
        accuracy_sweep(0, "approximation", grid)


# ----------------------------------------------------------------------
# data files


def test_report_file_format_round_trips():
    grid = GridSpec("log", -1e-6, -1e-10, 25)
    buffer = io.StringIO()
    report = accuracy_sweep(-1, "one-fritsch", grid)
    write_report(report, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0].startswith("#")
    assert "branch=-1" in lines[0] and "stage=one-fritsch" in lines[0]
    assert len(lines) == 1 + len(report.samples)
    for line, (x, delta, region) in zip(lines[1:], report.samples):
        x_text, delta_text, region_text = line.split(" ")
        assert float(x_text) == x
        assert float(delta_text) == delta
        assert region_text == region


# ----------------------------------------------------------------------
# dependencies


def test_import_leaves_numpy_unloaded():
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(lambertw.__file__)))
    code = "import sys, lambertw, lambertw.cli; print(lambertw.__file__); print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=package_root, env={**os.environ, "PYTHONPATH": package_root},
                          check=True)
    assert proc.stdout.splitlines() == [lambertw.__file__, "False"]
