"""Tests for the Halley and Fritsch refinement steps."""

import math

import mpmath
import numpy as np
import pytest

from lambertw import (
    DomainError,
    MINUS_INV_E,
    SingularityError,
    fritsch_step,
    halley_step,
    lambert_w_approximation,
    reference_w,
    steps_to_converge,
)

# x values (with their branch) used for the empirical order-of-convergence
# checks: two lower-branch points and four principal-branch points spread
# over the dispatch regions.
ORDER_POINTS = [(-1, -0.3), (-1, -0.1), (0, 0.5), (0, 1.0), (0, 10.0), (0, 1000.0)]


# ----------------------------------------------------------------------
# single steps


def test_halley_exact_root_is_fixed():
    assert halley_step(math.e, 1.0) == 1.0


def test_halley_hand_value_from_zero_seed():
    # t = -1, s = 1, u = 1: update = 0 + (-1)/(-1 - 1) = 0.5.
    assert halley_step(1.0, 0.0) == 0.5


def test_halley_one_step_from_coarse_seed():
    assert halley_step(1.0, 0.5) == pytest.approx(0.5671433, abs=1e-3)


def test_halley_where_e_to_the_w_underflows():
    """Branch -1 below |x| ~ 1e-305, where exp(w) is subnormal or 0: one
    step from the seed keeps 15 digits.  Before t and u were divided by
    e^w the step gave -746.0618 at x = -1e-322 (W = -748.0618) and
    raised ZeroDivisionError at x = -5e-324."""
    with mpmath.workdps(40):
        for x in np.geomspace(-1e-300, -5e-324, 2000):
            x = float(x)
            value = halley_step(x, lambert_w_approximation(-1, x))
            exact = float(mpmath.lambertw(x, -1).real)
            assert abs(value - exact) <= 1e-15 * abs(exact), (x, value, exact)


def test_halley_converges_in_one_step_at_the_smallest_subnormal():
    assert steps_to_converge(-1, -5e-324, "halley") == 1


def test_fritsch_exact_root_is_fixed():
    assert fritsch_step(math.e, 1.0) == 1.0


def test_fritsch_hand_value():
    # z = ln(1/0.5) - 0.5, q = 2*1.5*(1.5 + (2/3)z); one step from the
    # half-accurate seed already lands within ~2e-6 of W0(1).
    value = fritsch_step(1.0, 0.5)
    assert value == pytest.approx(0.5671455, abs=1e-6)
    z = math.log(2.0) - 0.5
    q = 2.0 * 1.5 * (1.5 + 2.0 * z / 3.0)
    assert z == pytest.approx(0.1931472, abs=1e-7)
    assert q == pytest.approx(4.8862944, abs=1e-7)
    expected = 0.5 * (1.0 + (z / 1.5) * (q - z) / (q - 2.0 * z))
    assert value == expected


def test_fritsch_lower_branch_step():
    assert fritsch_step(-0.1, -3.5) == pytest.approx(-3.5771521, abs=1e-6)


@pytest.mark.parametrize("branch, x", ORDER_POINTS)
def test_fixed_point_stays_put(branch, x):
    """The exact root is a fixed point up to the step's own rounding.

    Both schemes divide by 1 + w, which amplifies the rounding noise of
    the residual terms by 1/|1+w|; the drift allowance grows by that
    factor (a flat 2 ulp is only achievable when |1+w| >= 1).
    """
    w = reference_w(branch, x)
    allowance = (2.0 + 1.0 / abs(1.0 + w)) * math.ulp(abs(w))
    for step in (halley_step, fritsch_step):
        assert abs(step(x, w) - w) <= allowance


@pytest.mark.parametrize(
    "step, low, high",
    [
        (halley_step, 1e2, 1e4),     # third order: ratio ~ 10^3
        (fritsch_step, 1e3, 1e5),    # fourth order: ratio ~ 10^4
    ],
)
def test_empirical_convergence_order(step, low, high):
    """Error ratios for delta = 1e-2 vs 1e-3 seeds match the scheme order.

    A step of order p maps a relative seed error delta to ~C*delta^p, so
    the two errors should differ by ~10^p, within a factor of 10.
    """
    for branch, x in ORDER_POINTS:
        w = reference_w(branch, x)
        errors = [abs(step(x, w * (1 + d)) - w) for d in (1e-2, 1e-3)]
        ratio = errors[0] / errors[1]
        assert low <= ratio <= high, f"x={x}: ratio {ratio:.1f} outside [{low}, {high}]"


def test_singularity_guards():
    with pytest.raises(SingularityError):
        halley_step(MINUS_INV_E, -1.0)
    with pytest.raises(SingularityError):
        fritsch_step(MINUS_INV_E, -1.0 + 1e-13)
    with pytest.raises(DomainError):
        fritsch_step(1.0, -0.5)  # x/w < 0
    with pytest.raises(DomainError):
        fritsch_step(1.0, 0.0)
    # Both sides of the 1e-12 guard around w = -1, for both steps.
    for step in (fritsch_step, halley_step):
        for w in (-1.0 - 1e-13, -1.0 + 1e-13):
            with pytest.raises(SingularityError):
                step(MINUS_INV_E, w)
        for w in (-1.0 - 2e-12, -1.0 + 2e-12):
            assert math.isfinite(step(MINUS_INV_E, w)), (step, w)
    # A NaN estimate passes the guard: fritsch_step rejects it for x > 0
    # by the sign test and returns NaN for x < 0, as halley_step does.
    with pytest.raises(DomainError):
        fritsch_step(1.0, math.nan)
    assert math.isnan(fritsch_step(-0.2, math.nan))
    assert math.isnan(halley_step(1.0, math.nan))
    assert math.isnan(halley_step(-0.2, math.nan))

