"""Tests for the Halley-vs-Fritsch benchmark harness."""

import math
import re

import numpy as np
import pytest

from lambertw import (
    GridSpec,
    MINUS_INV_E,
    SCHEMES,
    checksum_pass,
    dispatch_region,
    lambert_w,
    run_benchmark,
    steps_to_converge,
)
from lambertw.bench import _refined

# One small but region-diverse benchmark shared by most tests: one
# rational-fit point plus three asymptotic points, the latter inside the
# window where Halley is known to need a second step.
GRID = GridSpec("linear", -0.3, 50.0, 4)


@pytest.fixture(scope="module")
def report():
    return run_benchmark(0, GRID, calls_per_point=10_000, repetitions=2)


# ----------------------------------------------------------------------
# step counts


@pytest.mark.parametrize("x", [-0.3, -0.1, 0.5, 1.0, 5.0, 50.0, 1e4])
def test_fritsch_converges_in_one_step(x):
    assert steps_to_converge(0, x, "fritsch") == 1


@pytest.mark.parametrize("x", [-0.35, -0.2, -0.05, -1e-8])
def test_fritsch_single_step_on_lower_branch(x):
    assert steps_to_converge(-1, x, "fritsch") == 1


def test_halley_needs_a_second_step_mid_range():
    assert steps_to_converge(0, 50.0, "halley") == 2
    assert steps_to_converge(0, 1.0, "halley") == 1


def test_no_steps_at_exactly_representable_roots():
    assert steps_to_converge(0, 0.0, "fritsch") == 0
    assert steps_to_converge(0, MINUS_INV_E, "halley") == 0
    assert steps_to_converge(-1, MINUS_INV_E, "fritsch") == 0


def test_benchmark_stops_on_the_rule_of_lambert_w():
    """Step counts and values are those of lambert_w, step cap included.

    Past x ~ 5e29 the residual tolerance can sit below the rounding
    floor of the residual itself, so some points here run to the cap.
    """
    for x in np.geomspace(1e20, 1e300, 400):
        x = float(x)
        result = lambert_w(0, x)
        assert steps_to_converge(0, x, "fritsch") == result.refinement_steps
        assert _refined(0, x, "fritsch") == result.value


def test_steps_to_converge_rejects_unknown_scheme():
    with pytest.raises(ValueError, match=re.escape(str(SCHEMES))):
        steps_to_converge(0, 1.0, "newton")


def test_total_steps_favor_fritsch(report):
    assert report.total_steps("fritsch") <= report.total_steps("halley")
    assert report.total_steps("fritsch") == GRID.count  # one step everywhere
    assert report.total_steps("halley") > GRID.count    # extra steps in window


# ----------------------------------------------------------------------
# instrumentation honesty


def test_checksum_matches_untimed_pass(report):
    # The timed loops must compute exactly what an untimed pass computes:
    # bit-for-bit, not approximately.
    for scheme in SCHEMES:
        expected = checksum_pass(0, GRID, scheme, report.calls_per_point)
        assert report.checksums[scheme] == expected


def test_checksums_are_deterministic_across_runs():
    grid = GridSpec("log", 1.0, 10.0, 2)
    first = run_benchmark(0, grid, calls_per_point=10_000, repetitions=1)
    second = run_benchmark(0, grid, calls_per_point=10_000, repetitions=1)
    assert first.checksums == second.checksums
    assert all(math.isfinite(v) for v in first.checksums.values())


def test_overhead_is_subtracted_and_net_stays_positive(report):
    assert report.overhead_ns_per_call > 0.0
    for record in report.records:
        assert record.net_ns >= 0.0
        assert record.spread_ns >= 0.0
        # Refinement costs far more than an identity call, so net time
        # should survive the subtraction with room to spare.
        assert record.net_ns > report.overhead_ns_per_call


def test_records_cover_grid_times_schemes(report):
    assert len(report.records) == GRID.count * len(SCHEMES)
    xs = {record.x for record in report.records}
    assert xs == {float(x) for x in GRID.points()}
    for record in report.records:
        assert record.scheme in SCHEMES
        assert record.region == dispatch_region(0, record.x).kind


# ----------------------------------------------------------------------
# validation


def test_rejects_too_few_calls():
    with pytest.raises(ValueError, match="calls_per_point"):
        run_benchmark(0, GRID, calls_per_point=100)


def test_rejects_zero_repetitions():
    with pytest.raises(ValueError, match="repetitions"):
        run_benchmark(0, GRID, repetitions=0)


def test_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="scheme"):
        run_benchmark(0, GRID, schemes=("newton",))


def test_single_scheme_subset():
    grid = GridSpec("linear", 1.0, 2.0, 2)
    report = run_benchmark(0, grid, schemes=("halley",),
                           calls_per_point=10_000, repetitions=1)
    assert set(report.checksums) == {"halley"}
    assert all(record.scheme == "halley" for record in report.records)
