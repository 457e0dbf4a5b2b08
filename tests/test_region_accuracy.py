"""Dense per-region accuracy of ``lambert_w`` against mpmath at 40 digits.

Each region outside the branch-point series gets 2000 stratified points:
the middles of 2000 equal cells, in x for the bounded regions and in
log|x| for the unbounded ones (the asymptotic region out to 1.7e308, the
continued-log region down to the smallest subnormal).  The error bound of
a region is its worst measured error rounded up to a whole ulp, here or
in a denser check (4000 cells per region, 40 000 points in branch 0
rational-fit-1), whichever is higher.

The branch-point-series region is checked by offset from -1/e instead,
at 50 digits: within 1 ulp out to 1e-4, and within its own bound per
branch beyond, where the seed's truncation grows and, past 5e-4, one
Fritsch step's rounding, amplified by 1/|1 + W|, takes over.
"""

import math

import mpmath
import pytest

from lambertw import MINUS_INV_E, W0_REGIONS, WM1_REGIONS, lambert_w
from support import region_span

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
    lo, hi, log_spaced = region_span(region)
    if not log_spaced:
        return _cells(lo, hi, n)
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


# Bound on the series region past offset 1e-4 from -1/e, in ulp.  Worst
# measured: branch 0 17.65 here, 18.59 on 3000 random offsets in
# [5e-4, 8e-4), just past the first stepped x; branch -1 8.50 here, 10.1
# on 40 random offsets in [1e-3, 2e-3).
SERIES_ULP_BOUNDS = {0: 19, -1: 11}


@pytest.mark.parametrize("branch", [0, -1])
def test_series_region_error_by_offset_from_the_branch_point(branch):
    """The middles of 2000 equal cells in log10 of the offset from -1/e,
    from 1e-16 to the region's end, and the region's last double."""
    region = (W0_REGIONS if branch == 0 else WM1_REGIONS)[0]
    top = math.log10(region.upper - MINUS_INV_E)
    xs = [MINUS_INV_E + 10.0**t for t in _cells(-16.0, top, POINTS_PER_REGION)]
    xs.append(math.nextafter(region.upper, -math.inf))
    worst_near = worst = 0.0
    with mpmath.workdps(50):
        for x in xs:
            result = lambert_w(branch, x)
            assert result.region == "branch-point-series"
            exact = mpmath.lambertw(x, branch).real
            error = float(abs(mpmath.mpf(result.value) - exact)) / math.ulp(float(exact))
            if x - MINUS_INV_E <= 1e-4:
                worst_near = max(worst_near, error)
            worst = max(worst, error)
    print(f"branch {branch} series: worst {worst_near:.2f} ulp to 1e-4, {worst:.2f} overall")
    assert worst_near <= 1.0
    assert worst <= SERIES_ULP_BOUNDS[branch]
