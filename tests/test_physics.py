"""Tests for the Moyal and Gaisser-Hillas profile inverses."""

import math

import numpy as np
import pytest

from lambertw import (
    DomainError,
    GaisserHillasParams,
    MOYAL_PEAK,
    gaisser_hillas,
    gh_inverse,
    gh_profile,
    gh_profile_inverse,
    gh_rescale,
    moyal,
    moyal_inverse,
    reference_w,
)


# ----------------------------------------------------------------------
# Moyal function


def test_moyal_maximum_at_zero():
    assert moyal(0.0) == MOYAL_PEAK
    assert MOYAL_PEAK == pytest.approx(0.6065307, abs=1e-7)


def test_moyal_forward_check_of_inverse_example():
    assert moyal(3.17715) == pytest.approx(0.2, abs=1e-5)


def test_moyal_tails_vanish():
    assert moyal(1e4) == 0.0
    assert moyal(-800.0) == 0.0
    # The right tail decays like e^(-x/2); the left tail dies doubly
    # exponentially and underflows already near x = -7.3.
    assert moyal(40.0) > 0.0
    assert moyal(-7.0) > 0.0
    assert moyal(-8.0) == 0.0


def test_moyal_inverse_examples():
    plus = moyal_inverse(0.2, "plus")
    minus = moyal_inverse(0.2, "minus")
    assert plus == pytest.approx(3.17715, abs=1e-4)
    assert minus == pytest.approx(-1.565, abs=1e-3)
    # Side selection via the two W branches.
    expected_plus = reference_w(0, -0.04) - 2.0 * math.log(0.2)
    expected_minus = reference_w(-1, -0.04) - 2.0 * math.log(0.2)
    assert plus == pytest.approx(expected_plus, abs=1e-13)
    assert minus == pytest.approx(expected_minus, abs=1e-13)


@pytest.mark.parametrize(
    "y, expected",
    # mpmath at 40 digits: lambertw(-y*y, -1) - 2*log(y).  Here -y*y is
    # subnormal or underflows to -0.0 in double precision.
    [(1e-160, -6.6112860668855555), (1e-200, -6.832888323280379), (5e-324, -7.310677704910514)],
)
def test_moyal_inverse_minus_below_sqrt_of_smallest_normal(y, expected):
    assert abs(moyal_inverse(y, "minus") - expected) <= 4 * math.ulp(expected)


@pytest.mark.parametrize(
    "y, expected",
    # mpmath at 40 digits.  Forming w - 2 ln y cancels two nearly equal
    # terms for small y; the result is exactly -ln(-w).
    [
        (1.4916681462400417e-154, -6.572238705702365),
        (1e-100, -6.145606566537769),
        (1e-20, -4.571352313918209),
        (0.1, -1.8676049384059132),
    ],
)
def test_moyal_inverse_minus_golden_values(y, expected):
    assert abs(moyal_inverse(y, "minus") - expected) <= 2 * math.ulp(expected)


def test_moyal_inverse_at_peak_is_zero_on_both_sides():
    assert moyal_inverse(MOYAL_PEAK, "plus") == 0.0
    assert moyal_inverse(MOYAL_PEAK, "minus") == 0.0


def test_moyal_inverse_round_trip():
    for y in np.geomspace(1e-6, MOYAL_PEAK, 120):
        y = float(y)
        for side in ("plus", "minus"):
            assert moyal(moyal_inverse(y, side)) == pytest.approx(y, abs=1e-12)


def test_moyal_inverse_side_ordering():
    for y in (1e-4, 0.1, 0.3, 0.55):
        assert moyal_inverse(y, "minus") < 0.0 < moyal_inverse(y, "plus")


def test_moyal_inverse_domain_errors():
    for bad in (0.0, -0.2, MOYAL_PEAK * 1.001, 1.0):
        with pytest.raises(DomainError):
            moyal_inverse(bad, "plus")
    with pytest.raises(ValueError):
        moyal_inverse(0.2, "both")


# ----------------------------------------------------------------------
# Gaisser-Hillas profile


def test_gh_maximum_is_one():
    for x_max in (1.0, 2.0, 5.0, 10.0):
        assert gaisser_hillas(x_max, x_max) == 1.0


def test_gh_zero_at_origin():
    assert gaisser_hillas(0.0, 3.0) == 0.0


def test_gh_hand_value():
    assert gaisser_hillas(2.0, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)


def test_gh_domain_errors():
    with pytest.raises(DomainError):
        gaisser_hillas(-0.5, 2.0)
    with pytest.raises(DomainError):
        gaisser_hillas(1.0, 0.0)


def test_gh_rescale():
    params = GaisserHillasParams(X0=0.0, Xmax=700.0, lam=70.0)
    assert gh_rescale(350.0, params) == (5.0, 10.0)
    assert gh_rescale(0.0, params)[0] == 0.0
    assert gh_rescale(700.0, params) == (10.0, 10.0)


def test_gh_params_validation():
    with pytest.raises(DomainError):
        GaisserHillasParams(X0=0.0, Xmax=700.0, lam=0.0)
    with pytest.raises(DomainError):
        GaisserHillasParams(X0=10.0, Xmax=5.0, lam=70.0)


def test_gh_inverse_example():
    roots = gh_inverse(0.5, 2.0)
    assert roots.left == pytest.approx(0.7615, abs=1e-3)
    assert roots.right == pytest.approx(4.1564, abs=1e-3)
    assert gaisser_hillas(roots.left, 2.0) == pytest.approx(0.5, abs=1e-13)
    assert gaisser_hillas(roots.right, 2.0) == pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize("x_max", [1.0, 2.0, 5.0, 10.0])
def test_gh_inverse_peak_value_collapses_to_maximum(x_max):
    roots = gh_inverse(1.0, x_max)
    assert abs(roots.left - x_max) <= 2 * math.ulp(x_max)
    assert abs(roots.right - x_max) <= 2 * math.ulp(x_max)


def test_gh_inverse_round_trip_and_ordering():
    for y in (1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0):
        for x_max in (1.0, 2.0, 5.0, 10.0):
            roots = gh_inverse(y, x_max)
            assert roots.left <= x_max <= roots.right
            if y < 1.0:
                assert roots.left < x_max < roots.right
            assert gaisser_hillas(roots.left, x_max) == pytest.approx(y, abs=1e-12 * max(1.0, y))
            assert gaisser_hillas(roots.right, x_max) == pytest.approx(y, abs=1e-12 * max(1.0, y))


def test_gh_inverse_limits_toward_zero():
    roots = gh_inverse(1e-300, 1.0)
    assert roots.left == pytest.approx(0.0, abs=1e-297)
    assert roots.right > 690.0  # ~ -ln(y) for x_max = 1


@pytest.mark.parametrize(
    "y, x_max, expected_right",
    # mpmath at 40 digits: -x_max * lambertw(-y**(1/x_max)/e, -1).  Here
    # the W argument underflows to -0.0 (first two) or is subnormal.
    [
        (5e-324, 1.0, 752.0628918746461),
        (1e-200, 0.5, 464.43400192110306),
        (1e-160, 0.5, 372.21993091518414),
        (1e-320, 1.0, 744.4398729782224),
    ],
)
def test_gh_inverse_where_the_w_argument_is_not_normal(y, x_max, expected_right):
    roots = gh_inverse(y, x_max)
    assert abs(roots.right - expected_right) <= 2 * math.ulp(expected_right)
    assert 0.0 <= roots.left < x_max


def test_gh_inverse_domain_errors():
    for bad in (0.0, -0.5, 1.0 + 1e-9):
        with pytest.raises(DomainError):
            gh_inverse(bad, 2.0)
    with pytest.raises(DomainError):
        gh_inverse(0.5, -1.0)


# ----------------------------------------------------------------------
# three-parameter composition


def test_three_parameter_profile_round_trip():
    params = GaisserHillasParams(X0=-100.0, Xmax=750.0, lam=70.0)
    assert gh_profile(params.Xmax, params) == 1.0
    roots = gh_profile_inverse(0.5, params)
    assert roots.left < params.Xmax < roots.right
    assert gh_profile(roots.left, params) == pytest.approx(0.5, abs=1e-12)
    assert gh_profile(roots.right, params) == pytest.approx(0.5, abs=1e-12)


def test_three_parameter_profile_rejects_depth_before_start():
    params = GaisserHillasParams(X0=0.0, Xmax=700.0, lam=70.0)
    with pytest.raises(DomainError):
        gh_profile(-1.0, params)
