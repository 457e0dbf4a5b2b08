"""Dense per-region accuracy of ``lambert_w`` against mpmath at 40 digits.

Each region outside the branch-point series gets 2000 stratified points:
the middles of 2000 equal cells, in x for the bounded regions and in
log|x| for the unbounded ones (the asymptotic region out to 1.7e308, the
continued-log region down to the smallest subnormal).  The error bound of
a region is its worst measured error rounded up to a whole ulp, here or
in a denser check (4000 cells per region, 40 000 points in branch 0
rational-fit-1), whichever is higher.

The branch-point-series region is left out: there the rounded sum
c = 1 + e*x costs up to ~1e7 ulp within 1e-12 of -1/e, a defect of the
series, not of the step.
"""

import math

import mpmath
import pytest

from lambertw import W0_REGIONS, WM1_REGIONS, lambert_w

POINTS_PER_REGION = 2000

# (branch, region kind) -> bound in ulp; the comment gives the worst
# measured error here, then in the denser check where it is higher.
ULP_BOUNDS = {
    (0, "rational-fit-1"): 3,  # 2.15 ulp; 2.26 on 40 000 points
    (0, "rational-fit-2"): 2,  # 1.10 ulp
    (0, "asymptotic"): 2,  # 0.98 ulp; 1.58 on 4000
    (-1, "rational-fit-1"): 3,  # 2.40 ulp
    (-1, "continued-log"): 2,  # 1.24 ulp; 1.30 on 4000
}


def _cells(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]


def _stratified(region, n: int) -> list[float]:
    if region.kind == "asymptotic":
        lo, hi = region.lower, 1.7e308
    elif region.kind == "continued-log":
        lo, hi = region.lower, -5e-324
    else:
        return _cells(region.lower, region.upper, n)
    sign = math.copysign(1.0, lo)
    small, large = sorted((abs(lo), abs(hi)))
    return [sign * min(max(math.exp(t), small), large)
            for t in _cells(math.log(small), math.log(large), n)]


@pytest.mark.parametrize("branch, kind", list(ULP_BOUNDS))
def test_region_error_against_mpmath(branch, kind):
    region = next(r for r in W0_REGIONS + WM1_REGIONS if r.branch == branch and r.kind == kind)
    worst = 0.0
    with mpmath.workdps(40):
        for x in _stratified(region, POINTS_PER_REGION):
            result = lambert_w(branch, x)
            assert result.region == kind
            exact = mpmath.lambertw(x, branch).real
            error = float(abs(mpmath.mpf(result.value) - exact)) / math.ulp(float(exact))
            worst = max(worst, error)
    print(f"branch {branch} {kind}: worst {worst:.2f} ulp")
    assert worst <= ULP_BOUNDS[branch, kind]
