"""Public evaluation entry points, region dispatch and the refinement step.

Every float evaluation takes one path: ``dispatch_region`` validates the
branch and x and picks the region whose initial approximation (the seed)
serves x; the seed is evaluated; ``_step`` applies exactly one Fritsch
step.  A seed that is already exact (w = 0 at x = 0, w = -1 at the branch
point) is returned unstepped.  The array path, ``_lambert_w_array``, is a
second copy of the same arithmetic written out in one loop;
``tests/test_array.py`` holds the two copies equal bit for bit.

Three call shapes are exposed:

* ``lambert_w0(x)`` / ``lambert_wm1(x)`` return the value alone; an x
  with a dtype (a numpy array of any shape, or a numpy scalar) goes to
  the array path and comes back as a float64 array of its shape, or as a
  float when it is 0-d;
* ``lambert_w0_approximation(x)`` / ``lambert_wm1_approximation(x)``
  return the unrefined seed;
* ``lambert_w(branch, x)`` resolves the branch at runtime and returns an
  :class:`EvalResult` carrying diagnostics.

``steps_to_converge(branch, x, scheme)``, the one loop, counts the Fritsch
or Halley steps until |w*e^w - x| <= 1e-14 * max(|x|, 1), or the residual's
own rounding noise where that is larger: the paper's comparison of the
two schemes.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from typing import NamedTuple

from .approx import (
    BRANCH_POINT_COEFFICIENTS,
    ApproximationRegion,
    MINUS_INV_E,
    BRANCH_POINT_TOL,
    W0_FIT_1,
    W0_FIT_2,
    WM1_FIT,
    asymptotic_series,
    branch_point_series,
    continued_log_recursion_wm1,
    rational_fit_eval,
)
from .branches import Branch, invalid_branch
from .errors import DomainError, SingularityError
from .iteration import (
    _SMALLEST_NORMAL,
    SCHEMES,
    SINGULARITY_GUARD,
    defining_residual,
    fritsch_step,
    halley_step,
)

# Residual tolerance scale of the stopping rule in steps_to_converge.
RESIDUAL_TOL = 1e-14
# Rounding noise of a computed residual, in units of |w| * max(|x|, 1):
# one Fritsch step at large x leaves at most ~1 eps of it.
_TWO_EPS = 2.0 * sys.float_info.epsilon

# Region breakpoints: where adjacent approximations cross in accuracy.
# Printed to six decimals; the trailing digits are zeros by convention.
_W0_SERIES_END = -0.323581
_W0_FIT1_END = 0.145469
_W0_FIT2_END = 8.706658
# The branch -1 series here runs at order 11 (see _seed), which
# pushes its five-decimal range past the order-9 crossing near -0.302985.
# The rational fit only reaches five decimals right of -0.3005, so the
# handoff sits at the measured order-11 crossing; both sides hold
# delta >= 5.36 there.
_WM1_SERIES_END = -0.298147
_WM1_FIT_END = -0.051012

W0_REGIONS: tuple[ApproximationRegion, ...] = (
    ApproximationRegion(Branch.PRINCIPAL, MINUS_INV_E, _W0_SERIES_END, "branch-point-series"),
    ApproximationRegion(Branch.PRINCIPAL, _W0_SERIES_END, _W0_FIT1_END, "rational-fit-1"),
    ApproximationRegion(Branch.PRINCIPAL, _W0_FIT1_END, _W0_FIT2_END, "rational-fit-2"),
    ApproximationRegion(Branch.PRINCIPAL, _W0_FIT2_END, math.inf, "asymptotic"),
)

WM1_REGIONS: tuple[ApproximationRegion, ...] = (
    ApproximationRegion(Branch.LOWER, MINUS_INV_E, _WM1_SERIES_END, "branch-point-series"),
    ApproximationRegion(Branch.LOWER, _WM1_SERIES_END, _WM1_FIT_END, "rational-fit-1"),
    ApproximationRegion(Branch.LOWER, _WM1_FIT_END, 0.0, "continued-log"),
)

# Inner region boundaries: region i serves _BREAKS[i-1] <= x < _BREAKS[i].
# x within the rounding band below -1/e lands in the series region.
_W0_BREAKS = tuple(region.upper for region in W0_REGIONS[:-1])
_WM1_BREAKS = tuple(region.upper for region in WM1_REGIONS[:-1])
_X_MIN = MINUS_INV_E - BRANCH_POINT_TOL


class EvalResult(NamedTuple):
    """Refined evaluation with diagnostics (an immutable named tuple).

    value : the branch value W(x)
    region : kind of the initial approximation that seeded the result
    refinement_steps : Fritsch steps applied: 1, or 0 where the seed is
        exact (x = 0 and the branch point) and at x = +inf
    residual : |value * exp(value) - x| of the returned value
    """

    value: float
    region: str
    refinement_steps: int
    residual: float


def _domain_error(x: float) -> DomainError:
    if math.isnan(x):
        return DomainError("x is NaN, outside both branch domains")
    if x < _X_MIN:
        return DomainError(
            f"x = {x!r} is below the branch point bound -1/e = {MINUS_INV_E!r}"
        )
    return DomainError(f"branch -1 requires -1/e <= x < 0, got x = {x!r}")


def dispatch_region(branch: int, x: float) -> ApproximationRegion:
    """Region of the dispatch table that evaluates x on this branch.

    The one place where ``(branch, x)`` is validated: raises ValueError
    for a branch other than 0 or -1 and DomainError for x outside it.
    ``math.isnan`` comes first so that a non-scalar x raises TypeError.
    """
    if branch != 0 and branch != -1:
        raise invalid_branch(branch)
    if math.isnan(x) or x < _X_MIN or (branch == -1 and x >= 0.0):
        raise _domain_error(x)
    if branch == 0:
        return W0_REGIONS[bisect_right(_W0_BREAKS, x)]
    return WM1_REGIONS[bisect_right(_WM1_BREAKS, x)]


def _seed(region: ApproximationRegion, x: float) -> float:
    """Initial approximation of W(x) by the family that serves ``region``.

    x in the rounding band below -1/e needs no clamp: the series clamps
    its root argument and returns exactly -1 there, as at -1/e itself.
    """
    b = region.branch
    kind = region.kind
    if kind == "branch-point-series":
        # Branch -1 runs two orders hotter: its series region reaches
        # p = -0.594, where order 9 falls a shade short of five decimals.
        return branch_point_series(b, x, order=9 if b == 0 else 11)
    if kind == "rational-fit-1":
        fit = W0_FIT_1 if b == 0 else WM1_FIT
        return rational_fit_eval(fit, x)
    if kind == "rational-fit-2":
        return rational_fit_eval(W0_FIT_2, x)
    if kind == "asymptotic":
        return asymptotic_series(b, x)
    return continued_log_recursion_wm1(x)


def _step(x: float, w: float, scheme: str = "fritsch") -> tuple[float, int]:
    """One refinement step of the estimate w of W(x): ``(w, steps)``.

    An exact seed (w = 0, or w within SINGULARITY_GUARD of -1, where a
    step would divide by ~0) comes back unstepped with 0 steps.
    Otherwise one ``scheme`` step (one of SCHEMES, checked by the caller)
    is applied and ``steps`` is 1.
    """
    if w == 0.0 or abs(1.0 + w) <= SINGULARITY_GUARD:
        return w, 0
    return (fritsch_step(x, w) if scheme == "fritsch" else halley_step(x, w)), 1


def steps_to_converge(branch: int, x: float, scheme: str) -> int:
    """Refinement steps needed to reach the residual tolerance at x.

    Steps are repeated until
    |w*e^w - x| <= max(RESIDUAL_TOL, 2*eps*|w|) * max(|x|, 1), at most
    four of them; the residual is only checked after a step.  The
    2*eps*|w| term is the rounding noise of the residual itself, which
    passes RESIDUAL_TOL beyond x ~ 1.4e11 on branch 0 (|w| > 22.5).
    Zero only where the seed is exact (x = 0 and the branch point) and
    at x = +inf, which ``lambert_w`` returns unrefined.
    Raises ValueError for a scheme not in SCHEMES.
    """
    w = lambert_w_approximation(branch, x)
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if math.isinf(x):
        return 0
    scale = max(abs(x), 1.0)
    w, steps = _step(x, w, scheme)
    while 0 < steps < 4 and (
        defining_residual(x, w) > max(RESIDUAL_TOL, _TWO_EPS * abs(w)) * scale
    ):
        w = _step(x, w, scheme)[0]
        steps += 1
    return steps


def lambert_w_approximation(branch: int, x: float) -> float:
    """Initial approximation only: piecewise dispatch, no refinement.

    Accurate to at least five decimal places (three beyond x ~ 7 on the
    principal branch); intended as the seed for one refinement step or
    for throughput-critical callers that can live with that accuracy.
    """
    region = dispatch_region(branch, x)
    return math.inf if math.isinf(x) else _seed(region, x)


def lambert_w0_approximation(x: float) -> float:
    """Principal branch initial approximation (static branch form)."""
    return lambert_w_approximation(0, x)


def lambert_wm1_approximation(x: float) -> float:
    """Branch -1 initial approximation (static branch form)."""
    return lambert_w_approximation(-1, x)


def lambert_w(branch: int, x: float) -> EvalResult:
    """Lambert W with runtime branch selection and diagnostics.

    Raises DomainError outside the branch domain (NaN and -inf
    included).  x = +inf on branch 0 returns +inf with a NaN residual,
    the one place the defining identity cannot be formed.
    """
    region = dispatch_region(branch, x)
    if math.isinf(x):
        return EvalResult(math.inf, region.kind, 0, math.nan)
    w, steps = _step(x, _seed(region, x))
    return EvalResult(w, region.kind, steps, defining_residual(x, w))


def _lambert_w_array(branch: int, x):
    """W on ``branch`` (0 or -1) of every element of x, which has a dtype.

    The scalar path's arithmetic written out in one loop: the region by
    comparison with the breakpoints, the seed in Horner form over the same
    tables, one Fritsch step with the same guards.  Every value is
    bit-identical to ``lambert_w(branch, float(v)).value``, and the first
    bad element in C order raises the scalar path's error.  x is computed
    in float64 (a complex, string or object dtype raises TypeError); a
    float64 array of x's shape is returned, or a float for a 0-d x.
    """
    import numpy as np

    array = np.asarray(x).astype(np.float64, casting="same_kind", copy=False)
    log, sqrt, e, inf = math.log, math.sqrt, math.e, math.inf
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11 = BRANCH_POINT_COEFFICIENTS
    f1n0, f1n1, f1n2, f1n3, f1n4 = W0_FIT_1.numerator
    f1d0, f1d1, f1d2, f1d3, f1d4 = W0_FIT_1.denominator
    f2n0, f2n1, f2n2, f2n3, f2n4 = W0_FIT_2.numerator
    f2d0, f2d1, f2d2, f2d3, f2d4 = W0_FIT_2.denominator
    mn0, mn1, mn2 = WM1_FIT.numerator
    md0, md1, md2, md3, md4, md5 = WM1_FIT.denominator
    lower = branch == -1
    out = []
    for v in array.ravel().tolist():
        # Seed: dispatch_region's test order, then _seed's family.
        if lower:
            if v < _WM1_SERIES_END:
                if v < _X_MIN:
                    raise _domain_error(v)
                s = 2.0 * (1.0 + e * v)
                if s < 0.0:
                    s = 0.0
                p = -sqrt(s)
                w = b0 + p * (b1 + p * (b2 + p * (b3 + p * (b4 + p * (b5 + p * (
                    b6 + p * (b7 + p * (b8 + p * (b9 + p * (b10 + p * b11))))))))))
            elif v < _WM1_FIT_END:
                w = ((mn0 + v * (mn1 + v * mn2))
                     / (md0 + v * (md1 + v * (md2 + v * (md3 + v * (md4 + v * md5))))))
            elif v < 0.0:
                # continued_log_recursion_wm1 at its depth of 9
                lx = log(-v)
                w = lx
                for _ in range(9):
                    w = lx - log(-w)
            else:
                raise _domain_error(v)
        elif v < _W0_SERIES_END:
            if v < _X_MIN:
                raise _domain_error(v)
            s = 2.0 * (1.0 + e * v)
            if s < 0.0:
                s = 0.0
            p = sqrt(s)
            w = b0 + p * (b1 + p * (b2 + p * (b3 + p * (b4 + p * (b5 + p * (
                b6 + p * (b7 + p * (b8 + p * b9))))))))
        elif v < _W0_FIT1_END:
            w = v * ((f1n0 + v * (f1n1 + v * (f1n2 + v * (f1n3 + v * f1n4))))
                     / (f1d0 + v * (f1d1 + v * (f1d2 + v * (f1d3 + v * f1d4)))))
        elif v < _W0_FIT2_END:
            w = v * ((f2n0 + v * (f2n1 + v * (f2n2 + v * (f2n3 + v * f2n4))))
                     / (f2d0 + v * (f2d1 + v * (f2d2 + v * (f2d3 + v * f2d4)))))
        elif v < inf:
            # asymptotic_series on branch 0
            a = log(v)
            b = log(a)
            ia = 1.0 / a
            tail = (60.0 + b * (-300.0 + b * (350.0 + b * (-125.0 + b * 12.0)))) / 60.0
            tail = (-12.0 + b * (36.0 + b * (-22.0 + b * 3.0))) / 12.0 + ia * tail
            tail = (6.0 + b * (-9.0 + b * 2.0)) / 6.0 + ia * tail
            tail = (-2.0 + b) / 2.0 + ia * tail
            tail = 1.0 + ia * tail
            w = a - b + b * ia * tail
        elif v == inf:
            out.append(v)
            continue
        else:
            raise _domain_error(v)
        # Step: _step's exact seeds, then fritsch_step.
        if w == 0.0 or abs(1.0 + w) <= SINGULARITY_GUARD:
            out.append(w)
            continue
        ratio = v / w
        if ratio < _SMALLEST_NORMAL:
            if v == 0.0 or (v > 0.0) != (w > 0.0):
                raise DomainError(
                    f"fritsch step needs x and w of equal sign, got x = {v!r}, w = {w!r}"
                )
            z = log(abs(v)) - log(abs(w)) - w
        else:
            z = log(ratio) - w
        q = 2.0 * (1.0 + w) * (1.0 + w + (2.0 / 3.0) * z)
        denom = q - 2.0 * z
        if abs(denom) < 1e-300:
            raise SingularityError(
                f"fritsch step denominator underflow at x = {v!r}, w = {w!r}"
            )
        out.append(w * (1.0 + (z / (1.0 + w)) * ((q - z) / denom)))
    if array.ndim == 0:
        return out[0]
    return np.array(out).reshape(array.shape)


def lambert_w0(x: float) -> float:
    """Principal branch value W_0(x), defined on [-1/e, inf).

    An x with a dtype (a numpy array or scalar) is evaluated elementwise
    in float64, bit-identical to the float path: an array of x's shape
    comes back, or a float for a 0-d x.
    """
    if type(x) is not float and hasattr(x, "dtype"):
        return _lambert_w_array(0, x)
    return lambert_w(0, x).value


def lambert_wm1(x: float) -> float:
    """Lower branch value W_-1(x), defined on [-1/e, 0).

    Takes an x with a dtype as ``lambert_w0`` does.
    """
    if type(x) is not float and hasattr(x, "dtype"):
        return _lambert_w_array(-1, x)
    return lambert_w(-1, x).value
