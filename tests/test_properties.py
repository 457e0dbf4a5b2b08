"""Property tests of both real branches and of the physics inverses,
with inputs drawn by hypothesis.

The examples are derandomized, so every run checks the same inputs.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from lambertw import (MINUS_INV_E, MOYAL_PEAK, RESIDUAL_TOL, defining_residual,
                      gaisser_hillas, gh_inverse, lambert_w, moyal, moyal_inverse)
from lambertw.api import _w0, _wm1
from lambertw.branches import _X_MIN

EPS = math.ulp(1.0)

SETTINGS = settings(max_examples=500, deadline=None, derandomize=True, database=None)

# w = W_b(x) over each branch's range, kept where x = w*e^w is a finite
# normal double: e^w is subnormal below w ~ -708.4, and w*e^w overflows
# above w ~ 703.
BRANCH_W = {
    0: st.floats(-1.0, 700.0),
    -1: st.floats(-708.0, -1.0),
}
BRANCH_X = {
    0: st.floats(MINUS_INV_E, 1.7976931348623157e308),
    -1: st.floats(MINUS_INV_E, 0.0, exclude_max=True),
}

# Every double lambert_w accepts: the 4-ulp band below -1/e, subnormals,
# both zeros on branch 0 and +inf.
IN_DOMAIN = {
    0: st.floats(_X_MIN),
    -1: st.floats(_X_MIN, 0.0, exclude_max=True),
}


def _per_branch(strategies, n=1):
    """(branch, v_1, ..., v_n), each v drawn from the branch's strategy."""
    return st.sampled_from((0, -1)).flatmap(
        lambda b: st.tuples(st.just(b), *(strategies[b] for _ in range(n))))


@SETTINGS
@given(_per_branch(BRANCH_W))
def test_inverts_w_exp_w(branch_w):
    """W_b(w*e^w) = w, to a few ulp plus the rounding of x = w*e^w
    magnified by the condition number 1/|1+W| of W at x."""
    branch, w = branch_w
    value = lambert_w(branch, w * math.exp(w)).value
    condition = math.inf if w == -1.0 else 1.0 / abs(1.0 + w)
    assert abs(value - w) <= 4 * math.ulp(w) + 4 * EPS * abs(w) * condition


@SETTINGS
@given(_per_branch(BRANCH_X, 2))
def test_monotone_on_each_branch(branch_xs):
    branch, a, b = branch_xs
    lo, hi = min(a, b), max(a, b)
    if branch == 0:
        assert lambert_w(0, lo).value <= lambert_w(0, hi).value
    else:
        assert lambert_w(-1, lo).value >= lambert_w(-1, hi).value


@SETTINGS
@given(_per_branch(BRANCH_X))
def test_branches_meet_at_minus_one(branch_x):
    branch, x = branch_x
    value = lambert_w(branch, x).value
    assert (value >= -1.0) if branch == 0 else (value <= -1.0)


@SETTINGS
@given(st.one_of(
    st.tuples(st.just(0), st.floats(1e-3, 1e8)),
    st.tuples(st.sampled_from((0, -1)), st.floats(MINUS_INV_E, -1e-3)),
))
def test_defining_residual_within_tolerance(branch_x):
    branch, x = branch_x
    result = lambert_w(branch, x)
    assert result.residual == defining_residual(x, result.value)
    assert result.residual <= RESIDUAL_TOL * max(abs(x), 1.0)


@SETTINGS
@given(_per_branch(IN_DOMAIN))
def test_one_float_kernel_is_the_float_path_bit_for_bit(branch_x):
    """``_w0`` and ``_wm1``, the physics inverses' kernels, return
    lambert_w's value; hex compares the sign bit, so -0.0 and 0.0 differ."""
    branch, x = branch_x
    kernel = _w0 if branch == 0 else _wm1
    assert kernel(x).hex() == lambert_w(branch, x).value.hex()


# ----------------------------------------------------------------------
# Round trips through the physics inverses

ULP_SLACK = 4


def _brackets(profile, peak: float, root: float, slack: float, y: float, rel: float) -> bool:
    """Whether y lies between the least and the greatest value of the
    unimodal profile on [root - slack, root + slack] (not below 0 for a
    root >= 0), widened by rel of their size: the root is within slack of
    a true one, up to the profile's own rounding, rel."""
    lo, hi = root - slack, root + slack
    if root >= 0.0:
        lo = max(lo, 0.0)
    values = [profile(lo), profile(root), profile(hi)] + ([profile(peak)] if lo < peak < hi else [])
    tiny = ULP_SLACK * math.ulp(0.0)
    return min(values) * max(1.0 - rel, 0.0) - tiny <= y <= max(values) * (1.0 + rel) + tiny


def _slack(root: float, condition: float) -> float:
    """ULP_SLACK ulp of the root, and 4 eps of relative error in the W
    argument, which the inverse forms rounded, magnified by condition:
    the root's change per unit relative change of that argument."""
    return ULP_SLACK * math.ulp(root) + 4.0 * EPS * condition


@SETTINGS
@given(st.floats(5e-324, MOYAL_PEAK), st.sampled_from(("plus", "minus")))
def test_moyal_round_trip(y, side):
    """moyal(moyal_inverse(y)) brackets y.  With w = -e^-x, x is -ln(-w),
    which moves by 1/|1 + w| per unit relative change of w e^w = -y^2;
    moyal rounds its exponent (x + e^-x)/2 to a few eps of its size."""
    x = moyal_inverse(y, side)
    one_plus_w = -math.expm1(-x)
    slack = _slack(x, math.inf if one_plus_w == 0.0 else 1.0 / abs(one_plus_w))
    rel = 4.0 * EPS * (1.0 + 0.5 * (abs(x) + math.exp(-x)))
    assert _brackets(moyal, 0.0, x, slack, y, rel), (y, side, x)


@SETTINGS
@given(st.floats(5e-324, 1.0), st.floats(5e-324, 1e308))
def test_gh_round_trip(y, x_max):
    """gaisser_hillas at each root of gh_inverse brackets y.  A root
    x = -x_max w moves by x_max |w/(1 + w)| = x x_max/|x_max - x| per
    unit relative change of the W argument, and the profile is within
    2 eps cond of exact, with cond = |x - x_max| + x_max |ln(x/x_max)| + 1
    (tests/test_physics.py)."""
    def profile(x):
        return gaisser_hillas(x, x_max)

    for root in gh_inverse(y, x_max):
        condition = math.inf if root == x_max else root * x_max / abs(x_max - root)
        if root > 0.0:
            cond = abs(root - x_max) + x_max * abs(math.log(root / x_max)) + 1.0
        else:
            cond = math.inf
        assert _brackets(profile, x_max, root, _slack(root, condition), y, 4.0 * EPS * cond), (
            y, x_max, root)
