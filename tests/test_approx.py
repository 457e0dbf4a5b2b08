"""Tests for the initial approximations: series, fits, and recursions."""

import importlib.util
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from lambertw import (
    DomainError,
    MINUS_INV_E,
    RationalFit,
    W0_FIT_1,
    W0_FIT_2,
    WM1_FIT,
    asymptotic_series,
    branch_point_series,
    continued_log_recursion_wm1,
    lambert_w_approximation,
    rational_fit_eval,
    reference_w,
)
from lambertw.api import _WM1_FIT_END, W0_REGIONS, WM1_REGIONS
from lambertw.approx import (
    BRANCH_POINT_COEFFICIENTS,
    CONTINUED_LOG_DEPTH_BOUNDS,
    continued_log_depth,
)

# Stratified points per bit-identity case: one drawn in each of as many
# equal cells.
STRATA = 600


def _horner_reference(ascending, t):
    """sum(ascending[i] * t**i) by Horner's rule, highest coefficient first."""
    value = 0.0
    for c in reversed(ascending):
        value = value * t + c
    return value


def _stratified(lower, upper, seed, n=STRATA):
    """One uniform draw in each of n equal cells of [lower, upper)."""
    u = np.random.default_rng(seed).random(n)
    return [float(lower + (i + u[i]) / n * (upper - lower)) for i in range(n)]


# ----------------------------------------------------------------------
# branch-point series


@pytest.mark.parametrize("branch", [0, -1])
def test_series_collapses_to_minus_one_at_branch_point(branch):
    assert branch_point_series(branch, MINUS_INV_E, order=9) == -1.0


def test_series_order_two_hand_value():
    # -1 + p - p^2/3 with p = sqrt(2(1 + e*(-0.35))).
    p = math.sqrt(2.0 * (1.0 + math.e * -0.35))
    expected = -1.0 + p - p * p / 3.0
    value = branch_point_series(0, -0.35, order=2)
    assert value == pytest.approx(expected, rel=1e-15)
    assert value == pytest.approx(-0.7206, abs=5e-4)


def test_series_sign_convention():
    for x in np.linspace(MINUS_INV_E + 1e-6, -1e-3, 50):
        assert branch_point_series(0, float(x), order=1) >= -1.0
        assert branch_point_series(-1, float(x), order=1) <= -1.0


@pytest.mark.parametrize("branch", [0, -1])
def test_series_error_weakly_decreases_with_order(branch):
    """Near the branch point, each added order helps (or is a wash)."""
    xs = np.linspace(MINUS_INV_E, MINUS_INV_E + 0.01, 100)
    for x in xs:
        x = float(x)
        ref = reference_w(branch, x)
        errors = [abs(branch_point_series(branch, x, order=k) - ref) for k in range(1, 10)]
        for lower, higher in zip(errors, errors[1:]):
            # Allow an ulp of slack: at the smallest |p| the terms are
            # below rounding and the comparison is between noise values.
            assert higher <= lower + 4 * math.ulp(1.0)


def test_series_domain_and_order_validation():
    with pytest.raises(DomainError):
        branch_point_series(0, MINUS_INV_E - 1e-9, order=9)
    with pytest.raises(ValueError):
        branch_point_series(0, 0.0, order=0)
    with pytest.raises(ValueError):
        branch_point_series(0, 0.0, order=12)
    # Branch -1 ends below 0, as in dispatch_region.
    for x in (-0.0, 0.0, 0.5, math.inf):
        with pytest.raises(DomainError, match=r"^branch -1 requires -1/e <= x < 0"):
            branch_point_series(-1, x, order=11)


@pytest.mark.parametrize("order", range(1, len(BRANCH_POINT_COEFFICIENTS)))
@pytest.mark.parametrize("branch", [0, -1])
def test_series_is_the_horner_sum_bit_for_bit(branch, order):
    """Every order, on both branches, over the series region and past it
    to x = 0 (included on branch 0, outside branch -1's domain), plus -1/e
    and the clamped rounding band below it.  On branch 0 also large x up to
    3e307, where p stays finite but its high powers overflow: the zeros that
    pad the lower orders must still add nothing.  2(1 + e*x) is formed as
    2e((x - fl(-1/e)) - lo), lo = (-1/e) - fl(-1/e)."""
    xs = _stratified(MINUS_INV_E, 0.0, seed=100 * order - branch)
    xs += [MINUS_INV_E, MINUS_INV_E - math.ulp(MINUS_INV_E)]
    xs += [0.0, 1e10, 1e300, 3e307] if branch == 0 else []
    for x in xs:
        s = 2.0 * (math.e * ((x - MINUS_INV_E) - 1.2428753672788363e-17))
        p = math.sqrt(s) if s > 0.0 else 0.0
        expected = _horner_reference(BRANCH_POINT_COEFFICIENTS[: order + 1],
                                     p if branch == 0 else -p)
        assert branch_point_series(branch, x, order) == expected, (branch, order, x)


@pytest.mark.parametrize("x", [1e308, math.inf])
def test_series_raises_where_p_overflows(x):
    """2(1 + e*x) overflows on branch 0 from x ~ 3.3e307: every order raises
    DomainError there, where a Horner sum in p = inf has no value.  x = 3e307,
    where p is finite, keeps the Horner sum (see the test above)."""
    for order in range(1, len(BRANCH_POINT_COEFFICIENTS)):
        with pytest.raises(DomainError, match=r"^branch point series needs 2\(1 \+ e\*x\) finite"):
            branch_point_series(0, x, order)


def test_series_clamps_tiny_negative_radicand():
    # 1 ulp below -1/e must not raise: 2(1+ex) rounds slightly negative.
    x = MINUS_INV_E - math.ulp(MINUS_INV_E)
    assert branch_point_series(0, x, order=9) == -1.0


# ----------------------------------------------------------------------
# asymptotic series


def test_asymptotic_exact_at_e():
    # a = 1, b = 0: every correction term carries a factor b.
    assert asymptotic_series(0, math.e) == 1.0


def test_asymptotic_at_1e5():
    ref = reference_w(0, 1e5)
    value = asymptotic_series(0, 1e5)
    assert value == pytest.approx(9.2846, abs=1e-3)
    assert abs(value - ref) / abs(ref) < 1e-4


def test_asymptotic_relative_error_floor_large_x():
    for x in np.geomspace(1e4, 1e12, 60):
        ref = reference_w(0, float(x))
        assert abs(asymptotic_series(0, float(x)) - ref) / abs(ref) < 1e-4


def test_asymptotic_lower_branch_near_zero():
    ref = reference_w(-1, -1e-6)
    value = asymptotic_series(-1, -1e-6)
    assert value == pytest.approx(-16.63, abs=0.02)
    assert value == pytest.approx(ref, abs=1e-3)


def test_asymptotic_domain_errors():
    with pytest.raises(DomainError):
        asymptotic_series(0, 1.0)  # ln ln 1 undefined
    with pytest.raises(DomainError):
        asymptotic_series(-1, 0.1)
    with pytest.raises(DomainError):
        asymptotic_series(-1, -0.5)  # below -1/e


# ----------------------------------------------------------------------
# rational fits


def test_rational_fit_zero_at_origin():
    assert rational_fit_eval(W0_FIT_1, 0.0) == 0.0


@pytest.mark.parametrize(
    "fit, branch, x",
    [
        (W0_FIT_1, 0, -0.2),
        (WM1_FIT, -1, -0.2),
    ],
)
def test_rational_fit_five_decimals(fit, branch, x):
    ref = reference_w(branch, x)
    delta = math.log10(abs(ref)) - math.log10(abs(rational_fit_eval(fit, x) - ref))
    assert delta >= 5.0


def test_rational_fit_shapes():
    # Degree-4 over degree-4 with leading x for the principal-branch
    # fits; degree-2 over degree-5 without it for the lower branch.
    for fit in (W0_FIT_1, W0_FIT_2):
        assert fit.leading_factor_x
        assert len(fit.numerator) == 5 and len(fit.denominator) == 5
        assert fit.denominator[0] == 1.0
    assert not WM1_FIT.leading_factor_x
    assert len(WM1_FIT.numerator) == 3 and len(WM1_FIT.denominator) == 6
    assert WM1_FIT.denominator[0] == 1.0


@pytest.mark.parametrize(
    "fit, region",
    [(W0_FIT_1, W0_REGIONS[1]), (W0_FIT_2, W0_REGIONS[2]), (WM1_FIT, WM1_REGIONS[1])],
    ids=["W0_FIT_1", "W0_FIT_2", "WM1_FIT"],
)
def test_rational_fit_is_the_horner_quotient_bit_for_bit(fit, region):
    """Over the fit's dispatch region, then over all of [-1/e, 10]."""
    xs = _stratified(region.lower, region.upper, seed=11)
    xs += _stratified(MINUS_INV_E, 10.0, seed=12)
    xs += [region.lower, region.upper, 0.0]
    for x in xs:
        value = _horner_reference(fit.numerator, x) / _horner_reference(fit.denominator, x)
        expected = x * value if fit.leading_factor_x else value
        assert rational_fit_eval(fit, x) == expected, x


@pytest.mark.parametrize("leading_factor_x", [False, True])
@pytest.mark.parametrize("numerator, denominator", [
    ((0.5,), (1.0,)),
    ((1.0, 2.0), (1.0, 0.5)),  # the fit tests/test_records.py builds
    ((1.0, -2.0, 0.25, 3.0, -0.125, 1.5, 0.75), (1.0, 0.5, -0.3, 0.0625)),
], ids=["1/1", "2/2", "7/4"])
def test_rational_fit_of_another_shape_is_the_horner_quotient_bit_for_bit(
        numerator, denominator, leading_factor_x):
    """A user-built fit of a shape the library does not ship takes the loop."""
    fit = RationalFit(numerator, denominator, leading_factor_x)
    xs = _stratified(-10.0, 10.0, seed=len(numerator)) + [0.0, -0.5, 1e-300, 1e100]
    for x in xs:
        value = _horner_reference(numerator, x) / _horner_reference(denominator, x)
        expected = x * value if leading_factor_x else value
        assert rational_fit_eval(fit, x) == expected, x


def test_fit_denominators_nonzero_on_dispatch_regions():
    """D(x) = 0 cannot occur where each fit is actually used."""
    cases = [
        (W0_FIT_1, np.linspace(-0.323581, 0.145469, 500)),
        (W0_FIT_2, np.linspace(0.145469, 8.706658, 500)),
        (WM1_FIT, np.linspace(-0.302985, -0.051012, 500)),
    ]
    for fit, xs in cases:
        for x in xs:
            assert abs(_horner_reference(fit.denominator, float(x))) > 1e-3


def test_refit_tool_reproduces_the_fit_tables_bit_for_bit():
    """``tools/refit_rational.py`` derives every table of the package,
    coefficient for coefficient (about 3 s; needs the ``dev`` extra)."""
    pytest.importorskip("scipy")
    path = Path(__file__).resolve().parent.parent / "tools" / "refit_rational.py"
    spec = importlib.util.spec_from_file_location("refit_rational", path)
    refit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(refit)
    for name, fit in (("W0_FIT_1", W0_FIT_1), ("W0_FIT_2", W0_FIT_2), ("WM1_FIT", WM1_FIT)):
        numerator, denominator = refit.fit_table(name)
        leading = (1.0,) if refit.PRINTED[name]["leading_x"] else ()
        assert fit.numerator == leading + tuple(map(float, numerator)), name
        assert fit.denominator == (1.0, *map(float, denominator)), name
        assert fit.leading_factor_x == refit.PRINTED[name]["leading_x"], name


# ----------------------------------------------------------------------
# recursions


def test_continued_log_base_case():
    assert continued_log_recursion_wm1(-0.01, depth=0) == pytest.approx(math.log(0.01), rel=1e-15)


def test_continued_log_depth_one():
    r0 = math.log(0.01)
    expected = r0 - math.log(-r0)
    assert continued_log_recursion_wm1(-0.01, depth=1) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(-6.13235, abs=1e-5)


def test_continued_log_depth_nine_five_decimals():
    ref = reference_w(-1, -0.01)
    assert ref == pytest.approx(-6.472775, abs=1e-6)
    value = continued_log_recursion_wm1(-0.01, depth=9)
    delta = math.log10(abs(ref)) - math.log10(abs(value - ref))
    assert delta >= 5.0


def test_continued_log_depth_steps_down_one_level_at_each_bound():
    assert continued_log_depth(_WM1_FIT_END) == 8
    for depth, bound in zip(range(7, 1, -1), CONTINUED_LOG_DEPTH_BOUNDS):
        assert continued_log_depth(bound) == depth
        assert continued_log_depth(math.nextafter(bound, -math.inf)) == depth + 1
    assert continued_log_depth(-5e-324) == 2


def _continued_log_seed_points() -> list[float]:
    """2000 x log-stratified from the region's end to -5e-324, then every
    depth bound and the doubles next to it."""
    lo, hi = math.log(-_WM1_FIT_END), math.log(5e-324)
    spread = [-math.exp(lo + (hi - lo) * (i + 0.5) / 2000) for i in range(2000)]
    return spread + [_WM1_FIT_END, -5e-324] + [
        y for bound in CONTINUED_LOG_DEPTH_BOUNDS
        for y in (math.nextafter(bound, -math.inf), bound, math.nextafter(bound, 0.0))
    ]


def test_continued_log_seed_keeps_five_decimals_at_its_depth():
    """The dispatched seed, whose depth falls to 2 near zero, against
    mpmath: criterion 2's grid stops at -1e-12, above depths 2 and 3."""
    worst = math.inf
    with mpmath.workdps(30):
        for x in _continued_log_seed_points():
            exact = mpmath.lambertw(x, -1).real
            seed = lambert_w_approximation(-1, x)
            delta = float(mpmath.log10(abs(exact) / abs(mpmath.mpf(seed) - exact)))
            worst = min(worst, delta)
            assert delta >= 5.0, (x, delta)
    print(f"continued-log seed: min delta {worst:.3f}")


def test_continued_log_domain():
    for bad in (-1.0, 0.0, 0.1, MINUS_INV_E):
        with pytest.raises(DomainError):
            continued_log_recursion_wm1(bad, depth=3)


@pytest.mark.parametrize(
    "recursion, branch, xs",
    [
        (continued_log_recursion_wm1, -1, -np.geomspace(0.001, 0.05, 40)),
    ],
)
def test_recursions_improve_monotonically(recursion, branch, xs):
    """Deeper recursion is never worse, past the first oscillation."""
    for x in xs:
        x = float(x)
        ref = reference_w(branch, x)
        errors = [abs(recursion(x, depth=n) - ref) for n in range(2, 10)]
        for lower, higher in zip(errors, errors[1:]):
            assert higher <= lower + 4 * math.ulp(abs(ref))


# ----------------------------------------------------------------------
# regions


def test_regions_cover_domains_contiguously():
    for regions, domain_end in ((W0_REGIONS, math.inf), (WM1_REGIONS, 0.0)):
        assert regions[0].lower == MINUS_INV_E
        assert regions[-1].upper == domain_end
        for left, right in zip(regions, regions[1:]):
            assert left.upper == right.lower


def test_region_membership_is_half_open():
    region = W0_REGIONS[1]
    assert region.lower in region
    assert region.upper not in region
