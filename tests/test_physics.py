"""Tests for the Moyal and Gaisser-Hillas profile inverses."""

import math
import pickle
import sys

import mpmath
import numpy as np
import pytest

from lambertw import (
    DomainError,
    GhRoots,
    MINUS_INV_E,
    MOYAL_PEAK,
    gaisser_hillas,
    gh_inverse,
    lambert_w,
    moyal,
    moyal_inverse,
    reference_w,
)
from lambertw.api import _WM1_LOG_END as WM1_LOG_END
from support import ARGUMENTS, REJECTED, typed_bits, ulps_around


def _profile_values(top: float, near_top: list[float], n: int = 400) -> list[float]:
    """Values in (0, top]: a set at and around the peak value, n uniform
    cell midpoints and n log-spaced values down to the smallest double."""
    uniform = [(i + 0.5) * top / n for i in range(n)]
    tail = [float(v) for v in np.geomspace(5e-324, top, n)]
    return near_top + uniform + tail


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


def test_moyal_inverse_is_the_w_formula_bit_for_bit():
    # The inverses take W from their own kernels; this pins them to the
    # public float path wherever _w0 and _wm1 serve: every plus root, and
    # the minus roots whose W argument -y^2 lies below -0.015 (nearer 0,
    # _wm1_log takes the root from 2 ln y).  Up to 4 ulp above the peak
    # is accepted and clamped; beyond, y is outside the domain.
    for y in _profile_values(MOYAL_PEAK, ulps_around(MOYAL_PEAK, 8)):
        if y > MOYAL_PEAK + 4.0 * math.ulp(MOYAL_PEAK):
            for side in ("plus", "minus"):
                with pytest.raises(DomainError):
                    moyal_inverse(y, side)
            continue
        clamped = min(y, MOYAL_PEAK)
        plus = lambert_w(0, -clamped * clamped).value - 2.0 * math.log(clamped)
        assert moyal_inverse(y, "plus") == plus, y
        if clamped * clamped > WM1_LOG_END:
            minus = -math.log(-lambert_w(-1, -clamped * clamped).value)
            assert moyal_inverse(y, "minus") == minus, y


def test_moyal_inverse_domain_errors():
    for bad in (0.0, -0.2, MOYAL_PEAK * 1.001, 1.0):
        with pytest.raises(DomainError):
            moyal_inverse(bad, "plus")
    with pytest.raises(ValueError):
        moyal_inverse(0.2, "both")
    with pytest.raises(DomainError, match="NaN"):
        moyal(math.nan)


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
        gaisser_hillas(math.nan, 2.0)
    with pytest.raises(DomainError):
        gaisser_hillas(1.0, 0.0)


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


@pytest.mark.parametrize("y, x_max", [(0.5, 2.0), (1.0, 3.0), (1e-200, 0.5)])
def test_gh_inverse_returns_a_full_named_tuple(y, x_max):
    """gh_inverse builds its GhRoots with tuple.__new__, on the Lambert W
    path, at the peak and where the W argument underflows."""
    roots = gh_inverse(y, x_max)
    assert type(roots) is GhRoots
    assert GhRoots._fields == roots._fields == ("left", "right")
    assert roots == GhRoots(*roots) == (roots.left, roots.right)
    assert roots._asdict() == {"left": roots.left, "right": roots.right}
    replaced = roots._replace(right=-1.0)
    assert type(replaced) is GhRoots and replaced == (roots.left, -1.0)
    assert repr(roots) == f"GhRoots(left={roots.left!r}, right={roots.right!r})"
    again = pickle.loads(pickle.dumps(roots))
    assert type(again) is GhRoots and again == roots


def test_gh_inverse_domain_errors():
    for bad in (0.0, -0.5, 1.0 + 1e-9):
        with pytest.raises(DomainError):
            gh_inverse(bad, 2.0)
    with pytest.raises(DomainError):
        gh_inverse(0.5, -1.0)


def test_gh_inverse_is_the_w_formula_bit_for_bit():
    for x_max in (1.0, 1.7, 4.2, 23.0, 100.0):
        for y in _profile_values(1.0, ulps_around(1.0, 8)):
            if y > 1.0:
                with pytest.raises(DomainError):
                    gh_inverse(y, x_max)
                continue
            arg = -(y ** (1.0 / x_max)) * math.exp(-1.0)
            left, right = gh_inverse(y, x_max)
            assert left == -x_max * lambert_w(0, arg).value, (y, x_max)
            # Nearer 0 than -0.015, _wm1_log takes the right root.
            if -arg > WM1_LOG_END:
                assert right == -x_max * lambert_w(-1, arg).value, (y, x_max)


# ----------------------------------------------------------------------
# The lower root near zero, against mpmath

# Where _wm1_log takes W_-1(x), as a range of ln|x| per arm of its seed:
# the asymptotic series, the continued log at depths 3 and 2, and x
# below the normal doubles (subnormal, or underflowed to -0.0).
KERNEL_BANDS = {
    "asymptotic": (math.log(6.4e-12), math.log(WM1_LOG_END)),
    "depth 3": (math.log(2.8e-41), math.log(6.4e-12)),
    "depth 2": (math.log(sys.float_info.min), math.log(2.8e-41)),
    "not normal": (2.0 * math.log(5e-324), math.log(sys.float_info.min)),
}
_X_MAXES = (0.05, 0.3, 1.0, 4.2, 23.0, 700.0)


def _band_lxs(band: str, n: int = 300) -> list[float]:
    lo, hi = KERNEL_BANDS[band]
    return [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]


def _moyal_minus_exact(y: float) -> float:
    with mpmath.workdps(40):
        return float(-mpmath.log(-mpmath.lambertw(-mpmath.mpf(y) ** 2, -1).real))


def _gh_right_exact(y: float, x_max: float) -> float:
    """-x_max W_-1(-y^(1/x_max)/e) at the doubles y, x_max, by mpmath at
    40 digits: no rounded W argument."""
    with mpmath.workdps(40):
        lx = mpmath.log(y) / x_max - 1
        return float(-x_max * mpmath.lambertw(-mpmath.exp(lx), -1).real)


@pytest.mark.parametrize("band", KERNEL_BANDS)
def test_moyal_minus_root_near_zero_within_one_ulp(band):
    """y with ln(y^2) spread over the band; the root is -ln(-W_-1(-y^2))."""
    for lx in _band_lxs(band):
        y = math.exp(0.5 * lx)
        expected = _moyal_minus_exact(y)
        assert abs(moyal_inverse(y, "minus") - expected) <= math.ulp(expected), y


def _assert_gh_right_root(y: float, x_max: float) -> None:
    # Where the W argument is a normal double, forming it rounds 1/x_max
    # and y^(1/x_max), about one ulp of ln(-arg) in all, which the root
    # carries on top of its own rounding; below, ln(-arg) is formed as
    # ln(y)/x_max - 1 and the root as x_max - ln y plus a small term.
    expected = _gh_right_exact(y, x_max)
    normal = -(y ** (1.0 / x_max)) * MINUS_INV_E >= sys.float_info.min
    ulps = 3.0 if normal else 1.5
    assert abs(gh_inverse(y, x_max).right - expected) <= ulps * math.ulp(expected), (y, x_max)


@pytest.mark.parametrize("band", KERNEL_BANDS)
def test_gh_right_root_near_zero_against_mpmath(band):
    """ln(-arg) = ln(y)/x_max - 1 spread over the band, x_max in turn from
    0.05 to 700, where y = e^(x_max (ln(-arg) + 1)) is a positive double."""
    checked = 0
    for i, lx in enumerate(_band_lxs(band)):
        x_max = _X_MAXES[i % len(_X_MAXES)]
        y = math.exp(x_max * (lx + 1.0))
        if y > 0.0:
            _assert_gh_right_root(y, x_max)
            checked += 1
    assert checked >= 100


def test_gh_right_root_near_zero_from_the_smallest_x_max():
    """x_max log-spaced from 5e-324 to 1e3 at four y, wherever the W
    argument is -0.015 or nearer 0: it underflows for every x_max below
    about 1e-3 here, and ln(y)/x_max overflows below 3.9e-309 (y = 0.5)
    to 4.1e-306 (y = 5e-324)."""
    checked = 0
    for x_max in np.geomspace(5e-324, 1e3, 300):
        x_max = float(x_max)
        for y in (0.5, 1e-5, 1e-100, 5e-324):
            if -(y ** (1.0 / x_max)) * MINUS_INV_E <= WM1_LOG_END:
                _assert_gh_right_root(y, x_max)
                checked += 1
    assert checked >= 900


@pytest.mark.parametrize("x_max", [math.inf, math.nan])
def test_gh_rejects_a_non_finite_x_max(x_max):
    with pytest.raises(DomainError, match="finite"):
        gh_inverse(0.5, x_max)
    with pytest.raises(DomainError, match="finite"):
        gaisser_hillas(1.0, x_max)


@pytest.mark.parametrize("x_max", [1e-300, 1e-305, 1e-306, 1e-308, 1e-310, 1e-320, 5e-324])
@pytest.mark.parametrize(
    "y, expected_right",
    # mpmath at 60 digits: the root r of r - x_max ln(r/x_max) = x_max - ln y.
    # 1 - ln(y)/x_max overflows a double for x_max below |ln y|/DBL_MAX:
    # below 3.8e-309 at y = 0.5, below 3.8e-306 and 4.1e-306 at the others.
    # At (1e-300, 1e-306) 1/x_max is finite and ln(y)/x_max is not.
    [(0.5, 0.6931471805599453), (1e-300, 690.7755278982137), (5e-324, 744.4400719213812)],
)
def test_gh_inverse_at_tiny_x_max(y, x_max, expected_right):
    roots = gh_inverse(y, x_max)
    assert abs(roots.right - expected_right) <= 2 * math.ulp(expected_right)
    assert roots.left == 0.0


@pytest.mark.parametrize(
    "x, x_max, expected",
    # mpmath at 60 digits: exp(x_max (ln x - ln x_max) + x_max - x).  Here
    # x/x_max overflows a double.
    [
        (0.6931471805599453, 1e-310, 0.5),
        (0.6931471805599453, 1e-320, 0.5),
        (0.6931471805599453, 5e-324, 0.5),
        (2.0, 1e-308, 0.1353352832366127),
        (1e9, 1e-300, 0.0),
    ],
)
def test_gh_where_x_over_x_max_overflows(x, x_max, expected):
    assert abs(gaisser_hillas(x, x_max) - expected) <= 2 * math.ulp(expected)


def _gh_exact(x: float, x_max: float) -> tuple[float, float, float]:
    """The profile at the doubles x, x_max by mpmath at 120 digits, its
    exponent E = x_max ln(x/x_max) + x_max - x, and
    cond = |x - x_max| + x_max |ln(x/x_max)| + 1: the relative error that
    rounding x and x_max alone carries into the profile, in units of eps.
    Near the largest double E is 32 digits below its terms."""
    with mpmath.workdps(120):
        x, x_max = mpmath.mpf(x), mpmath.mpf(x_max)
        log_ratio = mpmath.log(x / x_max)
        exponent = x_max * log_ratio + x_max - x
        return (float(mpmath.exp(exponent)), float(exponent),
                float(abs(x - x_max) + x_max * abs(log_ratio) + 1))


def _gh_tolerance(x: float, x_max: float, value: float) -> float:
    # The exponent x_max ln(x/x_max) + x_max - x carries rounding of size
    # eps*(x_max + x), which exp turns into that relative error.
    return 4.0 * sys.float_info.epsilon * (x_max + x) * value


@pytest.mark.parametrize(
    "x, x_max, expected",
    # mpmath, the same double at 40 digits and at 120.  Here
    # (x/x_max)^x_max or e^(x_max - x) overflows a double; the last three
    # values underflow, and in the last x/x_max does too.
    [
        (2060.0, 1030.0, 5.4648616732744703e-138),
        (1e5, 1000.0, 0.0),
        (1e-3, 1000.0, 0.0),
        (5e-324, 1e10, 0.0),
    ],
)
def test_gh_where_a_factor_of_the_direct_form_overflows(x, x_max, expected):
    assert _gh_exact(x, x_max)[0] == expected
    assert abs(gaisser_hillas(x, x_max) - expected) <= _gh_tolerance(x, x_max, expected)


def test_gh_at_infinite_depth_is_zero():
    assert gaisser_hillas(math.inf, 2.0) == 0.0
    assert gaisser_hillas(math.inf, 1e-310) == 0.0


def test_gh_forward_check_of_the_roots_at_large_x_max():
    y, x_max = 1e-300, 1e5
    for root in gh_inverse(y, x_max):
        value = gaisser_hillas(root, x_max)
        assert abs(value - _gh_exact(root, x_max)[0]) <= _gh_tolerance(root, x_max, value)
        # The root's last bit and the rounding of root/x_max, amplified by
        # x_max, move the value by about 1e-11 of y.
        assert value == pytest.approx(y, rel=1e-9)


def _assert_gh_within_exponent_rounding(x: float, x_max: float) -> None:
    # A few rounding errors of the exponent E, which exp turns into a
    # relative error of the value: 4 eps (|E| + 1).
    expected, exponent, _ = _gh_exact(x, x_max)
    value = gaisser_hillas(x, x_max)
    if expected == 0.0:
        assert value == 0.0, (x, x_max, value)
        return
    tolerance = 4.0 * sys.float_info.epsilon * (abs(exponent) + 1.0) * expected
    assert abs(value - expected) <= tolerance, (x, x_max, value, expected)


_DBL_MAX = sys.float_info.max


@pytest.mark.parametrize(
    "x, x_max",
    # The direct form overflows at each.  Near the largest double the
    # log-space exponent overflowed (inf) or cancelled to 0 (1.0), where
    # the profile underflows to 0; at x_max = 1e20 and |x - x_max| of
    # 1e10-1e11 it cancelled to 0 where it is -2 to -50.  At the last,
    # q = (x - x_max)/x_max rounds to -1.
    [
        (_DBL_MAX, math.nextafter(_DBL_MAX, 0.0)),
        (math.nextafter(_DBL_MAX, 0.0), _DBL_MAX),
        (math.nextafter(1e300, math.inf), 1e300),
        (1.5e308, 1e308),
        (1e20 - 1e11, 1e20),
        (1e20 + 1e11, 1e20),
        (1e20 - 2e10, 1e20),
        (1e20 - 3e10, 1e20),
        (1e-300, 1e10),
    ],
)
def test_gh_exponent_without_overflow_or_cancellation(x, x_max):
    _assert_gh_within_exponent_rounding(x, x_max)


def test_gh_series_exponent_over_random_points():
    """Near the peak, |q| < 0.25, where the exponent is summed as a series:
    q = (x - x_max)/x_max stratified over (-0.25, 0.25), log x_max over
    [1, 1e15] in a shuffled set of strata of its own."""
    rng = np.random.default_rng(37)
    n = 400
    for i, j in enumerate(rng.permutation(n)):
        q = -0.25 + (i + float(rng.random())) / n * 0.5
        x_max = 10.0 ** ((j + float(rng.random())) / n * 15.0)
        _assert_gh_within_exponent_rounding(x_max * (1.0 + q), x_max)


def test_gh_log_space_over_random_points():
    """Stratified in log x_max over [1, 1e308]; x = x_max (1 + q) with
    |q| log-uniform over [1e-17, 10], or x/x_max log-uniform over
    [e^-700, e^700]; only points where the direct form overflows."""
    rng = np.random.default_rng(31)
    checked = 0
    for i in range(400):
        x_max = 10.0 ** ((i + float(rng.random())) / 400 * 308.25)
        if i % 2:
            q = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-17.0, 1.0))
            x = x_max * (1.0 + q)
        else:
            x = math.exp(min(709.7, math.log(x_max) + float(rng.uniform(-700.0, 700.0))))
        if not 0.0 < x < math.inf or x == x_max:
            continue
        try:
            (x / x_max) ** x_max * math.exp(x_max - x)
            continue
        except OverflowError:
            pass
        _assert_gh_within_exponent_rounding(x, x_max)
        checked += 1
    assert checked >= 300


@pytest.mark.parametrize(
    "x, x_max, expected",
    # mpmath at 60 digits.  Here |q| = |x - x_max|/x_max < 0.25, and the
    # direct form gave 1.01790, 1.00439 and 5.3e-5 too much: the rounding
    # of x/x_max is amplified by x_max.
    [
        (1e15 - 300, 1e15, 0.999999999955),
        (1e15 - 700, 1e15, 0.999999999755),
        (1e12 - 700, 1e12, 0.9999997550000299),
    ],
)
def test_gh_near_the_peak_at_large_x_max(x, x_max, expected):
    with mpmath.workdps(60):
        exact = (mpmath.mpf(x) / x_max) ** x_max * mpmath.exp(mpmath.mpf(x_max) - x)
    assert float(exact) == expected
    value = gaisser_hillas(x, x_max)
    assert value <= 1.0
    assert abs(value - expected) <= 4 * math.ulp(expected)


def _assert_gh_within_input_rounding(x: float, x_max: float) -> None:
    # 2 eps cond relative, and the spacing of the subnormals below the
    # smallest normal, where the result itself is rounded that coarsely.
    expected, _, cond = _gh_exact(x, x_max)
    value = gaisser_hillas(x, x_max)
    floor = math.ulp(0.0) if expected < sys.float_info.min else 0.0
    error = abs(value - expected) - floor
    assert error <= 0.0 or error / expected / cond <= 2.0 * sys.float_info.epsilon, (
        x, x_max, value, expected
    )


@pytest.mark.parametrize(
    "x, x_max",
    # (x/x_max)^x_max underflows where e^(x_max - x) is large, or the
    # reverse: the direct form gave 0.0 for 2.7071782767869986e-305,
    # 7.15e-143 for 5.867096894714485e-143 and 0.0 for 1.8e-250.  In the
    # last three x/x_max is subnormal, and the direct form was up to 22%
    # off (9.76e-227 for 1.253391569203903e-226).
    [
        (50.0, 500.0),
        (1136.2154262784281, 391.5774894425908),
        (100.0, 600.0),
        (5e-324, 0.7),
        (1.5e-323, 0.9),
        (2e-320, 0.3),
    ],
)
def test_gh_where_a_factor_of_the_direct_form_underflows(x, x_max):
    _assert_gh_within_input_rounding(x, x_max)


def test_gh_within_input_rounding_over_random_points():
    """x_max log-uniform over [1e-3, 1e8] with x/x_max log-uniform over
    [1e-6, 30], and over [1e-300, 1e300] with x/x_max over [1e-6, 100]:
    every q = (x - x_max)/x_max, the series near the peak included."""
    rng = np.random.default_rng(41)
    for i in range(600):
        if i % 2:
            x_max = 10.0 ** rng.uniform(-3.0, 8.0)
            x = x_max * 10.0 ** rng.uniform(-6.0, math.log10(30.0))
        else:
            x_max = 10.0 ** rng.uniform(-300.0, 300.0)
            x = x_max * 10.0 ** rng.uniform(-6.0, 2.0)
        _assert_gh_within_input_rounding(float(x), float(x_max))


def test_gh_within_input_rounding_on_a_fixed_grid():
    for x_max in (0.5, 1.0, 23.0, 700.0, 1030.0):
        for x in (1e-300, 0.01, 0.5 * x_max, 1.5 * x_max, 700.0, 1e4):
            _assert_gh_within_input_rounding(x, x_max)


def test_gh_forward_check_of_the_roots_where_the_direct_form_underflows():
    # At x_max = 500 the direct form mapped both roots to 0.0.  A root's
    # own rounding moves the value by eps |x_max - root| <= eps cond.
    y, x_max = 1e-300, 500.0
    for root in gh_inverse(y, x_max):
        _assert_gh_within_input_rounding(root, x_max)
        cond = _gh_exact(root, x_max)[2]
        assert abs(gaisser_hillas(root, x_max) - y) <= 4.0 * sys.float_info.epsilon * cond * y


# ----------------------------------------------------------------------
# Arguments of every kind


# Each function with the argument v in each of its places.
CALLS = [
    moyal, lambda v: moyal_inverse(v, "plus"), lambda v: moyal_inverse(v, "minus"),
    lambda v: gaisser_hillas(v, 2.0), lambda v: gaisser_hillas(1.5, v),
    lambda v: gh_inverse(v, 2.0), lambda v: gh_inverse(0.5, v),
    lambda v: reference_w(0, v), lambda v: reference_w(-1, v),
]


@pytest.mark.parametrize("kind", ARGUMENTS)
def test_every_argument_is_taken_at_its_double(kind):
    v = ARGUMENTS[kind]
    for fn in CALLS:
        if kind in REJECTED:
            with pytest.raises(REJECTED[kind]):
                fn(v)
        else:
            assert typed_bits(fn, v) == typed_bits(fn, float(v)), (kind, fn)


@pytest.mark.parametrize("fn", CALLS[:7])
def test_an_array_is_taken_at_its_double_only_when_0_d(fn):
    """A 0-d array is a scalar; an array of two or more elements raises
    numpy's TypeError (so does a one-element 1-d array, from numpy 2.x on
    where that conversion is retired)."""
    assert typed_bits(fn, np.array(0.3)) == typed_bits(fn, 0.3)
    for array in (np.array([0.3, 0.4]), np.full((2, 2), 0.3)):
        with pytest.raises(TypeError):
            fn(array)
