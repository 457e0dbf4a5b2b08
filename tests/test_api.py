"""Tests for the public evaluation entry points and region dispatch."""

import inspect
import math
import pickle
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest

from lambertw import (
    Branch,
    DomainError,
    EvalResult,
    MINUS_INV_E,
    SCHEMES,
    W0_REGIONS,
    WM1_REGIONS,
    W0_FIT_1,
    W0_FIT_2,
    WM1_FIT,
    asymptotic_series,
    branch_point_series,
    continued_log_recursion_wm1,
    defining_residual,
    dispatch_region,
    fritsch_step,
    halley_step,
    lambert_w,
    lambert_w0,
    lambert_wm1,
    lambert_w_approximation,
    rational_fit_eval,
    reference_w,
    steps_to_converge,
)
from lambertw import api
from lambertw.approx import continued_log_depth
from support import (
    ARGUMENTS,
    BELOW_BAND,
    REJECTED,
    branch_point_band,
    breakpoints,
    depth_bounds,
    log_form_step,
    negated,
    outcome,
    raised,
    region_span,
    time_bound,
    typed_bits,
    ulps_around,
)


# ----------------------------------------------------------------------
# golden evaluations


def test_zero_is_exact():
    result = lambert_w(0, 0.0)
    assert result.value == 0.0
    assert result.refinement_steps == 0
    assert result.residual == 0.0


@pytest.mark.parametrize("x", [0.0, -0.0])
def test_zero_keeps_its_sign_in_the_oracle_and_the_fast_path(x):
    """W0(+-0) is x itself: the oracle, the value and the seed agree in
    the sign bit, so a sweep over signed zeros could compare them."""
    for value in (reference_w(0, x), lambert_w0(x), lambert_w_approximation(0, x)):
        assert value == 0.0 and math.copysign(1.0, value) == math.copysign(1.0, x), value


def test_w0_at_e():
    assert lambert_w(0, math.e).value == pytest.approx(1.0, abs=4e-16)


def test_w0_at_one():
    assert lambert_w(0, 1.0).value == pytest.approx(0.5671432904097838, abs=1e-15)
    assert lambert_w0(1.0) == lambert_w(0, 1.0).value


def test_wm1_golden():
    assert lambert_w(-1, -0.1).value == pytest.approx(-3.5771520639572972, abs=1e-14)
    assert lambert_wm1(-0.1) == lambert_w(-1, -0.1).value


@pytest.mark.parametrize(
    "x, expected",
    # mpmath.lambertw(x, -1) at 40 digits.
    [(-1e-320, -743.4385269728544), (-5e-324, -751.0615595398791), (-8e-310, -718.2988229569027)],
)
def test_wm1_at_subnormal_x(x, expected):
    assert abs(lambert_wm1(x) - expected) <= 4 * math.ulp(expected)


def test_branch_point_returns_minus_one_exactly():
    for branch in (0, -1):
        assert lambert_w(branch, MINUS_INV_E).value == -1.0


# ----------------------------------------------------------------------
# initial approximation entry point


def test_approximation_golden():
    assert lambert_w_approximation(0, MINUS_INV_E) == -1.0
    assert lambert_w_approximation(0, 1.0) == pytest.approx(0.5671432904097838, abs=1e-5)
    ref = reference_w(-1, -0.25)
    assert ref == pytest.approx(-2.1532923, abs=1e-6)
    assert lambert_w_approximation(-1, -0.25) == pytest.approx(ref, abs=1e-5)


def test_static_branch_wrappers_agree():
    assert lambert_w0(2.0) == lambert_w(0, 2.0).value
    assert lambert_wm1(-0.2) == lambert_w(-1, -0.2).value


# -1/e and the 4-ulp band below it, which the series seeds map to -1.
_BRANCH_POINT_BAND = branch_point_band(range(0, -5, -1))
_WRAPPER_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, math.inf]
_WRAPPER_CASES = [
    *[(0, x) for x in breakpoints(W0_REGIONS) + _BRANCH_POINT_BAND + _WRAPPER_EDGES],
    *[(-1, x) for x in breakpoints(WM1_REGIONS) + depth_bounds() + _BRANCH_POINT_BAND
      + _WRAPPER_EDGES],
    *[(branch, x) for branch in (0, -1) for x in (math.nan, -math.inf, BELOW_BAND)],
]


@pytest.mark.parametrize("branch, x", _WRAPPER_CASES)
def test_static_branch_wrappers_are_the_record_value(branch, x):
    """lambert_w0 and lambert_wm1 return lambert_w(branch, x).value bit for
    bit, signed zeros included, and raise its error with its message: at
    every breakpoint and its neighbours, the band at -1/e, the edges of the
    double range and, on branch -1, x >= 0."""
    wrapper = lambert_w0 if branch == 0 else lambert_wm1
    expected = outcome(lambda: lambert_w(branch, x).value)
    assert outcome(wrapper, x) == expected
    if math.isnan(x) or x <= BELOW_BAND or (branch == -1 and x >= 0.0):
        assert expected[0] is DomainError
    else:
        assert isinstance(expected, str)


def test_approximation_at_infinity():
    assert lambert_w_approximation(0, math.inf) == math.inf
    assert lambert_w(0, math.inf).value == math.inf


# ----------------------------------------------------------------------
# region dispatch


def test_dispatch_is_total_and_unique():
    xs = np.concatenate(
        [
            np.linspace(MINUS_INV_E, 0.3, 500),
            np.geomspace(0.3, 1e8, 500),
        ]
    )
    for x in xs:
        x = float(x)
        hits = [r for r in W0_REGIONS if x in r]
        assert len(hits) == 1
        assert dispatch_region(0, x) == hits[0]
    xs = np.linspace(MINUS_INV_E, -1e-9, 500)
    for x in xs:
        x = float(x)
        hits = [r for r in WM1_REGIONS if x in r]
        assert len(hits) == 1
        assert dispatch_region(-1, x) == hits[0]


def test_region_kinds_in_order():
    assert [r.kind for r in W0_REGIONS] == [
        "branch-point-series",
        "rational-fit-1",
        "rational-fit-2",
        "asymptotic",
    ]
    assert [r.kind for r in WM1_REGIONS] == [
        "branch-point-series",
        "rational-fit-1",
        "continued-log",
    ]


def test_eval_result_reports_region_and_steps():
    result = lambert_w(0, 1.0)
    assert isinstance(result, EvalResult)
    assert result.region == "rational-fit-2"
    assert result.refinement_steps == 1
    assert result.residual <= 1e-14
    assert lambert_w(0, 0.1).region == "rational-fit-1"
    assert lambert_w(0, 100.0).region == "asymptotic"
    assert lambert_w(-1, -0.01).region == "continued-log"


# ----------------------------------------------------------------------
# domain handling


@pytest.mark.parametrize(
    "branch, x",
    [
        (0, -1.0),
        (0, MINUS_INV_E - 1e-9),
        (-1, MINUS_INV_E - 1e-9),
        (-1, 0.0),
        (-1, 1e-9),
        (0, -math.inf),
        (-1, math.inf),
        (-1, -0.0),
        (0, math.nan),
        (-1, math.nan),
    ],
)
def test_domain_errors(branch, x):
    with pytest.raises(DomainError):
        lambert_w(branch, x)
    with pytest.raises(DomainError):
        lambert_w_approximation(branch, x)
    # One statement of the domain: every entry raises dispatch_region's error.
    expected = raised(dispatch_region, branch, x)
    for fn in (lambert_w, reference_w, branch_point_series):
        assert raised(fn, branch, x) == expected, fn.__name__


# Every function that takes a branch, with an x inside both branch
# domains (the asymptotic form needs x > 1 on branch 0).
BRANCH_TAKERS = {
    "dispatch_region": (dispatch_region, {0: -0.3, -1: -0.3}),
    "lambert_w": (lambert_w, {0: -0.3, -1: -0.3}),
    "lambert_w_approximation": (lambert_w_approximation, {0: -0.3, -1: -0.3}),
    "branch_point_series": (branch_point_series, {0: -0.3, -1: -0.3}),
    "asymptotic_series": (asymptotic_series, {0: 20.0, -1: -0.01}),
    "reference_w": (reference_w, {0: -0.3, -1: -0.3}),
}


@pytest.mark.parametrize(
    "branch, canonical",
    [(0, 0), (-1, -1), (0.0, 0), (-1.0, -1), (False, 0), (Branch.PRINCIPAL, 0), (Branch.LOWER, -1)],
)
@pytest.mark.parametrize("name", BRANCH_TAKERS)
def test_branch_spellings_are_accepted(name, branch, canonical):
    fn, xs = BRANCH_TAKERS[name]
    assert fn(branch, xs[canonical]) == fn(canonical, xs[canonical])


@pytest.mark.parametrize("branch", [1, 2, -2, 0.5, True, "0"])
@pytest.mark.parametrize("name", BRANCH_TAKERS)
def test_invalid_branch_raises_the_enum_error(name, branch):
    fn, xs = BRANCH_TAKERS[name]
    with pytest.raises(ValueError, match=re.escape(f"{branch!r} is not a valid Branch")):
        fn(branch, xs[0])
    # The branch is checked first, also where x is bad.
    for x in (xs[0], math.nan):
        assert raised(fn, branch, x) == raised(dispatch_region, branch, x)


@pytest.mark.parametrize("branch", [0, -1])
@pytest.mark.parametrize("name", BRANCH_TAKERS)
def test_nan_raises_a_domain_error_naming_nan(name, branch):
    fn, _ = BRANCH_TAKERS[name]
    with pytest.raises(DomainError, match="NaN"):
        fn(branch, math.nan)


@pytest.mark.parametrize("branch", [0, -1])
@pytest.mark.parametrize("name", ["dispatch_region", "lambert_w", "lambert_w_approximation",
                                  "branch_point_series", "reference_w"])
def test_four_ulp_band_below_branch_point(name, branch):
    fn, _ = BRANCH_TAKERS[name]
    result = fn(branch, branch_point_band([-4])[0])
    if name != "dispatch_region":
        assert (result.value if name == "lambert_w" else result) == -1.0
    with pytest.raises(DomainError, match="-1/e"):
        fn(branch, BELOW_BAND)


def _size_1_array_is_a_float() -> bool:
    """Whether this NumPy still converts an array of one element with a
    dimension to a float (with a DeprecationWarning) instead of raising
    TypeError, so that ``math.isnan`` passes it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            math.isnan(np.array([0.5]))
        except TypeError:
            return False
    return True


# lambert_w0/lambert_wm1 take ndarrays (tests/test_array.py); lambert_w
# and lambert_w_approximation take neither a list nor an array.
@pytest.mark.parametrize("fn, x", [
    pytest.param(lambert_w0, [0.5, 1.0], id="lambert_w0-x0"),
    pytest.param(lambert_wm1, [0.5, 1.0], id="lambert_wm1-x0"),
    pytest.param(lambda x: lambert_w(0, x), [0.5, 1.0], id="<lambda>-x0"),
    pytest.param(lambda x: lambert_w(0, x), np.array([-0.2, -0.1]), id="<lambda>-x1"),
    pytest.param(lambda x: lambert_w_approximation(0, x), np.array([0.5]),
                 marks=pytest.mark.skipif(_size_1_array_is_a_float(),
                                          reason="this NumPy converts a size-1 array to a float"),
                 id="approximation-w0-size-1"),
    pytest.param(lambda x: lambert_w_approximation(-1, x), np.array([-0.2, -0.1]),
                 id="approximation-wm1-size-2"),
])
def test_non_scalar_x_raises_type_error(fn, x):
    with pytest.raises(TypeError):
        fn(x)


def test_eval_result_is_an_immutable_named_tuple():
    result = lambert_w(0, 1.0)
    assert isinstance(result, EvalResult)
    assert EvalResult._fields == ("value", "region", "refinement_steps", "residual")
    assert tuple(result) == (result.value, result.region, result.refinement_steps,
                             result.residual)
    with pytest.raises(AttributeError):
        result.value = 0.0


def _same_result(a, b) -> bool:
    """Equal EvalResults, with a NaN residual equal to a NaN residual."""
    return type(a) is type(b) is EvalResult and all(
        u == v or (u != u and v != v) for u, v in zip(a, b)
    )


@pytest.mark.parametrize(
    "branch, x, steps",
    [(0, 1.0, 1), (-1, -0.1, 1), (0, 0.0, 0), (0, MINUS_INV_E, 0), (-1, MINUS_INV_E, 0),
     (0, math.inf, 0)],
)
def test_eval_result_keeps_the_named_tuple_contract(branch, x, steps):
    """What lambert_w returns is a full EvalResult, whether it was stepped,
    its seed was exact, or x = +inf (NaN residual)."""
    result = lambert_w(branch, x)
    assert type(result) is EvalResult
    assert result.refinement_steps == steps
    assert result == EvalResult(*result)
    assert result._fields == EvalResult._fields
    assert result._asdict() == dict(zip(EvalResult._fields, result))
    replaced = result._replace(region="other")
    assert type(replaced) is EvalResult
    assert replaced == (result.value, "other", result.refinement_steps, result.residual)
    assert repr(result) == (
        f"EvalResult(value={result.value!r}, region={result.region!r}, "
        f"refinement_steps={result.refinement_steps!r}, residual={result.residual!r})"
    )
    assert _same_result(pickle.loads(pickle.dumps(result)), result)
    assert math.isnan(result.residual) == (x == math.inf)


def test_domain_error_names_the_bound():
    with pytest.raises(DomainError, match="-1/e"):
        lambert_w(0, -1.0)
    with pytest.raises(DomainError, match="x < 0"):
        lambert_w(-1, 0.5)


def test_within_four_ulp_below_branch_point_is_clamped():
    x = branch_point_band([-2])[0]
    for branch in (0, -1):
        assert lambert_w(branch, x).value == -1.0


# ----------------------------------------------------------------------
# analytic properties


def test_branch_ranges():
    for x in np.linspace(MINUS_INV_E, 10.0, 300):
        assert lambert_w(0, float(x)).value >= -1.0
    for x in np.linspace(MINUS_INV_E, -1e-6, 300):
        assert lambert_w(-1, float(x)).value <= -1.0


def test_strict_monotonicity():
    # Skip the first log point: it duplicates the linear panel's endpoint.
    xs = np.concatenate(
        [np.linspace(MINUS_INV_E + 1e-9, 0.3, 300), np.geomspace(0.3, 1e5, 300)[1:]]
    )
    values = [lambert_w(0, float(x)).value for x in xs]
    assert all(a < b for a, b in zip(values, values[1:]))
    xs = np.concatenate(
        [np.linspace(MINUS_INV_E + 1e-9, -1e-6, 300), -np.geomspace(1e-6, 1e-12, 300)[1:]]
    )
    values = [lambert_w(-1, float(x)).value for x in xs]
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "branch, ws",
    [
        (0, np.linspace(-1.0, 10.0, 200)),
        (-1, np.linspace(-20.0, -1.0, 200)),
    ],
)
def test_inverse_composition(branch, ws):
    """lambert_w(b, w*e^w) recovers w."""
    for w in ws:
        w = float(w)
        x = w * math.exp(w)
        value = lambert_w(branch, x).value
        assert abs(value - w) <= 1e-14 * max(abs(w), 1.0) + 4 * math.ulp(1.0)


def test_defining_identity_spot_grid():
    for x in np.geomspace(1e-3, 1e8, 300):
        result = lambert_w(0, float(x))
        assert result.residual <= 1e-14 * max(abs(x), 1.0)
    for x in -np.geomspace(1e-12, 0.999 / math.e, 300):
        result = lambert_w(-1, float(x))
        assert result.residual <= 1e-14 * max(abs(x), 1.0)


def test_residual_field_matches_defining_residual():
    result = lambert_w(0, 7.5)
    assert result.residual == defining_residual(7.5, result.value)


# ----------------------------------------------------------------------
# refinement step counts, Fritsch against Halley


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


def _region_grid(region, n=200):
    """n points over one dispatch region, the unbounded ones log-spaced."""
    lo, hi, log_spaced = region_span(region)
    return np.geomspace(lo, hi, n) if log_spaced else np.linspace(lo, hi, n, endpoint=False)


# Each region's grid starts at its lower end, so the branch point is in;
# every breakpoint comes with its neighbours, and the branch point with
# the band from 4 ulp below (rounding, clamped to -1/e) to 4 ulp above.
ONE_STEP_GRID = (
    [(0, x) for x in np.geomspace(1e20, 1e300, 400)]
    + [(region.branch, x) for region in W0_REGIONS + WM1_REGIONS for x in _region_grid(region)]
    + [(region.branch, x) for region in W0_REGIONS[:-1] + WM1_REGIONS[:-1]
       for x in ulps_around(region.upper, 1)]
    + [(branch, x) for branch in (0, -1) for x in ulps_around(MINUS_INV_E, 4)]
    + [(0, 0.0)]
)


def test_lambert_w_is_one_fritsch_step_from_the_seed():
    """The value is one Fritsch step from the seed, bit for bit, or the
    seed itself at x = 0 and for x < -1/e + 5e-4, where the series seed
    in the exact 1 + e*x is closer to W than one step would leave it.
    The continued-log region takes the step with z from ln(-x), which
    its seed forms, in place of ln(x/w).

    Past x ~ 5.6e29 the residual tolerance sits below the rounding floor
    of the residual itself, so a residual-gated loop would take more
    steps there.
    """
    for branch, x in ONE_STEP_GRID:
        x = float(x)
        seed = lambert_w_approximation(branch, x)
        result = lambert_w(branch, x)
        assert result.region == dispatch_region(branch, x).kind, (branch, x)
        unstepped = seed == 0.0 or x < MINUS_INV_E + 5e-4
        step = log_form_step if result.region == "continued-log" else fritsch_step
        assert result.value == (seed if unstepped else step(x, seed)), (branch, x)
        assert result.refinement_steps == (0 if unstepped else 1), (branch, x)


# The public seed family of each region, at the series order and
# continued-log depth that lambert_w_approximation writes out.
PUBLIC_SEEDS = {
    (0, "branch-point-series"): lambda x: branch_point_series(0, x, 9),
    (0, "rational-fit-1"): lambda x: rational_fit_eval(W0_FIT_1, x),
    (0, "rational-fit-2"): lambda x: rational_fit_eval(W0_FIT_2, x),
    (0, "asymptotic"): lambda x: asymptotic_series(0, x),
    (-1, "branch-point-series"): lambda x: branch_point_series(-1, x, 11),
    (-1, "rational-fit-1"): lambda x: rational_fit_eval(WM1_FIT, x),
    (-1, "continued-log"): lambda x: continued_log_recursion_wm1(x, continued_log_depth(x)),
}


def test_seed_is_the_public_family_of_its_region_bit_for_bit():
    """lambert_w_approximation writes the seed families out in Horner form;
    each seed equals the family of dispatch_region's region to the bit.
    One Fritsch step usually erases a one-ulp change in a seed, so the
    step test above would not see one; nor a level more or less of the
    continued log, which the depth bounds and their neighbours pin."""
    points = ONE_STEP_GRID + [
        (region.branch, x) for region in W0_REGIONS[:-1] + WM1_REGIONS[:-1]
        for x in ulps_around(region.upper, 3)]
    points += [(-1, x) for x in depth_bounds()]
    points += [(0, math.inf), (-1, -5e-324), (-1, -1e-300)]
    for branch, x in points:
        x = float(x)
        family = PUBLIC_SEEDS[branch, dispatch_region(branch, x).kind]
        assert lambert_w_approximation(branch, x) == family(x), (branch, x)


def test_steps_to_converge_stops_at_the_residual_rounding_noise():
    """Past x ~ 1.4e11 the rounding noise of the residual, up to ~eps*|w|*x,
    exceeds RESIDUAL_TOL*x; a 1e-14 gate alone counted that noise as a
    failure to converge, at 404 of these 4000 points."""
    xs = [float(x) for x in np.geomspace(1e20, 1e308, 4000)]
    assert {steps_to_converge(0, x, "fritsch") for x in xs} == {1}
    assert max(steps_to_converge(0, x, "halley") for x in xs) < 4


def test_steps_to_converge_rejects_unknown_scheme():
    with pytest.raises(ValueError, match=re.escape(str(SCHEMES))):
        steps_to_converge(0, 1.0, "newton")
    with pytest.raises(ValueError, match=re.escape(str(SCHEMES))):
        steps_to_converge(0, math.inf, "newton")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_no_steps_at_infinity(scheme):
    assert lambert_w(0, math.inf).refinement_steps == 0
    assert steps_to_converge(0, math.inf, scheme) == 0


# ----------------------------------------------------------------------
# arguments of every kind

# Each entry point with v on branch 0 and -v on branch -1 (v > 0).
W_CALLS = [
    lambda v: lambert_w(0, v), lambda v: lambert_w(-1, negated(v)),
    lambda v: lambert_w_approximation(0, v),
    lambda v: lambert_w_approximation(-1, negated(v)),
    lambert_w0, lambda v: lambert_wm1(negated(v)),
]
# Each step with v as x, then as w, beside a float of the same sign.
STEP_CALLS = [
    lambda v: fritsch_step(v, 0.25), lambda v: fritsch_step(0.3, v),
    lambda v: halley_step(v, 0.25), lambda v: halley_step(0.3, v),
]


@pytest.mark.parametrize("kind", ARGUMENTS)
def test_every_argument_is_taken_at_its_double(kind):
    """Each x, and each step's x or w, gives what its float gives, bit
    for bit and of the same types, errors included; a complex, a str or
    an int beyond the double range raises.  The time bound makes a hang
    a failure."""
    v = ARGUMENTS[kind]
    for fn in W_CALLS + STEP_CALLS:
        with time_bound(5.0):
            if kind in REJECTED:
                with pytest.raises(REJECTED[kind]):
                    fn(v)
            else:
                assert typed_bits(fn, v) == typed_bits(fn, float(v)), (kind, fn)


def test_a_numpy_scalar_is_not_carried_in_its_own_type():
    """W(0.5 + 1j) = 0.5165 + 0.4221j: the real path once stepped the
    complex to 0.5394 + 0.2504j.  A float16 once came back as float16
    0.3516, and a huge int raised OverflowError."""
    with pytest.raises(TypeError):
        lambert_w(0, np.complex128(0.5 + 1j))
    assert lambert_w(0, np.float16(0.5)) == lambert_w(0, 0.5)
    assert type(lambert_w(0, np.float16(0.5)).value) is float
    with pytest.raises(DomainError):
        lambert_w(0, 10**400)


# ----------------------------------------------------------------------
# the log-argument kernel _wm1_log

# The line of _wm1_log where the step starts, with the seed in w.
_STEP_LINE = api._wm1_log.__code__.co_firstlineno + next(
    i for i, line in enumerate(inspect.getsource(api._wm1_log).splitlines())
    if line.strip() == "u = 1.0 + w")


def _kernel_seed(lx: float) -> float:
    """The seed of _wm1_log(lx): its w as the step's first line runs, or
    the value where the seed is returned unstepped.  A one-ulp change in
    a seed rarely survives the step, so the seed is read, not inferred."""
    seen = []

    def trace(frame, event, arg):
        if frame.f_code is not api._wm1_log.__code__:
            return None

        def line(frame, event, arg):
            if event == "line" and frame.f_lineno == _STEP_LINE:
                seen.append(frame.f_locals["w"])
            return line
        return line

    sys.settrace(trace)
    try:
        value = api._wm1_log(lx)
    finally:
        sys.settrace(None)
    return seen[0] if seen else value


def _away_from(bounds, n=4):
    """A predicate: x is more than n doubles from every bound."""
    near = {y for b in bounds for y in ulps_around(b, n)}
    return lambda x: x not in near


def test_log_kernel_seeds_are_the_public_families_bit_for_bit():
    """At lx = ln(-x), the seed is the continued log that _wm1 walks to
    x's depth (2 or 3, from 2.8e-41 and 6.4e-12 in) and elsewhere
    asymptotic_series(-1, x).  Doubles next to the two handoffs are left
    out: ln rounds several of them to ln of the bound."""
    ends = [api._WM1_LOG_END, 6.4e-12, 2.8e-41, 5e-324]
    xs = [-float(t) for a, b in zip(ends, ends[1:]) for t in np.geomspace(a, b, 1000)]
    xs += [-api._WM1_LOG_END, -6.4e-12, -2.8e-41, -1e-300, -2.2250738585072014e-308]
    away = _away_from([-6.4e-12, -2.8e-41])
    checked = {2: 0, 3: 0, "asymptotic": 0}
    for x in filter(away, xs):
        depth = continued_log_depth(x)
        seed = lambert_w_approximation(-1, x) if depth <= 3 else asymptotic_series(-1, x)
        assert _kernel_seed(math.log(-x)).hex() == seed.hex(), x
        checked[depth if depth <= 3 else "asymptotic"] += 1
    assert min(checked.values()) > 900, checked


def _wm1_of_log(lx: float) -> float:
    """W_-1(-e^lx) by mpmath at 40 digits, rounded once."""
    with mpmath.workdps(40):
        return float(mpmath.lambertw(-mpmath.exp(mpmath.mpf(lx)), -1).real)


def test_log_kernel_against_mpmath_down_to_lx_of_minus_1e300():
    """Within 1 ulp from lx = ln 0.015 to -1e300, over the asymptotic
    arm, depths 3 and 2 and, below lx = -1e150, the unstepped seed.  Below
    lx ~ -745 the argument -e^lx is not a double at all."""
    lxs = [-float(t) for t in np.geomspace(-math.log(api._WM1_LOG_END), 1e300, 1500)]
    lxs += [lx for b in (api._LN_DEPTH_3, api._LN_DEPTH_2, api._LX_UNSTEPPED)
            for lx in ulps_around(b, 2)]
    lxs += [math.log(api._WM1_LOG_END), -sys.float_info.max]
    for lx in lxs:
        expected = _wm1_of_log(lx)
        assert abs(api._wm1_log(lx) - expected) <= math.ulp(expected), lx


def test_library_continued_log_at_depths_2_and_3_is_the_log_kernel_bit_for_bit():
    """At a normal x whose continued log stops at depth 2 or 3, every
    branch -1 kernel steps from the seed's ln(-x) as _wm1_log does, so
    the values agree to the bit, at the depth bounds' neighbours too,
    where ln rounds some x to ln of the bound and the two seeds differ
    by a level."""
    xs = (-np.geomspace(6.4e-12, sys.float_info.min, 3000)).tolist()
    xs += [x for x in depth_bounds() if continued_log_depth(x) <= 3]
    assert {continued_log_depth(x) for x in xs} == {2, 3}
    for x in xs:
        expected = api._wm1_log(math.log(-x)).hex()
        assert lambert_wm1(x).hex() == expected, x
        assert api._wm1(x).hex() == expected, x
        assert api._lambert_w_list(-1, [x])[0].hex() == expected, x
