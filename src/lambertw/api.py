"""Public evaluation entry points, region dispatch and the refinement step.

A float evaluation is one seed and one Fritsch step.  ``lambert_w``
checks the branch and x, picks the region whose initial approximation
(the seed) serves x by comparison with the breakpoints, and applies
``fritsch_step``'s arithmetic inline, with z = ln(x/w) - w, or in the
continued-log arm, where x/w = e^w can be subnormal, z = (ln(-x) - w) -
ln(-w); except at x = 0 (w = 0), at +inf and for x < -1/e + 5e-4, as
``_w0`` and ``_wm1`` do.  There the branch point
series, in the exact c = 1 + e*x, is within 0.51 ulp out to 1e-4 from
-1/e and 5.4 ulp at 5e-4, while on branch 0 one step from it lands
4e5 ulp off at 1e-12 and 27 ulp at 2.5e-4 (19 ulp past 5e-4).  That
range holds the one seed of exactly -1 (at -1/e and in the rounding
band below it), so every stepped seed keeps |1 + w| > 0.05, far outside
the 1e-12 input check of the public steps.  ``lambert_w`` calls the
public seed family, written out in Horner form as the kernels are, and
``defining_residual``; the benchmark's tracer times both as layers.
``lambert_w_approximation`` is the one seed kernel: the region chain and
every seed family in Horner form, with ``dispatch_region``'s checks.  It
serves the sweeps and ``steps_to_converge``.  Its arms are written out
twice more, each followed by ``lambert_w``'s inline step and with the
same unstepped cases: ``_w0`` and ``_wm1``, one call per W for the
physics inverses, and the loop of ``_lambert_w_list``, for arrays;
floats take ``lambert_w``.  ``tests/test_api.py`` pins ``lambert_w``'s
regions and errors to ``dispatch_region``'s and each seed to its public
family, and ``tests/test_array.py`` holds ``_w0``, ``_wm1``, the list
path and ``lambert_w`` bit for bit equal, errors included.  Near zero
the physics inverses take branch -1 from ``_wm1_log(ln(-x))`` instead,
whose seeds ``tests/test_api.py`` pins to the public families, and whose
value at a normal x of continued-log depth 2 or 3 is ``_wm1``'s bits.

Three call shapes are exposed:

* ``lambert_w0(x)`` / ``lambert_wm1(x)`` return the value alone; an x
  with a dtype (a numpy array of any shape, or a numpy scalar) goes to
  the array path and comes back as a float64 array of its shape, or as a
  float when it is 0-d;
* ``lambert_w(branch, x)`` resolves the branch at runtime and returns an
  :class:`EvalResult` carrying diagnostics;
* ``lambert_w_approximation(branch, x)`` returns the unrefined seed.

``steps_to_converge(branch, x, scheme)``, the one loop, counts the Fritsch
or Halley steps until |w*e^w - x| <= 1e-14 * max(|x|, 1), or the residual's
own rounding noise where that is larger: the paper's comparison of the
two schemes.
"""

import math
import sys
from bisect import bisect_right
from collections import namedtuple

from .approx import (
    BRANCH_POINT_COEFFICIENTS,
    CONTINUED_LOG_DEPTH_BOUNDS,
    ApproximationRegion,
    W0_FIT_1,
    W0_FIT_2,
    WM1_FIT,
    asymptotic_series,
    branch_point_series,
    continued_log_depth,
    continued_log_recursion_wm1,
    rational_fit_eval,
)
from .branches import (_MINUS_INV_E_LO, _X_MIN, MINUS_INV_E, Branch, _as_double, _domain_error,
                       invalid_branch)
from .iteration import SCHEMES, defining_residual, fritsch_step, halley_step

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
# The branch -1 series here runs at order 11 (see lambert_w_approximation),
# which pushes its five-decimal range past the order-9 crossing near -0.302985.
# The rational fit only reaches five decimals right of -0.3005, so the
# handoff sits at the measured order-11 crossing; both sides hold
# delta >= 5.36 there.
_WM1_SERIES_END = -0.298147
_WM1_FIT_END = -0.051012
# Below this x the series seed is returned unstepped on both branches.
_UNSTEPPED_END = MINUS_INV_E + 5e-4

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


class EvalResult(namedtuple("EvalResult", "value region refinement_steps residual")):
    """Refined evaluation with diagnostics (an immutable named tuple).

    value : the branch value W(x)
    region : kind of the initial approximation that seeded the result
    refinement_steps : Fritsch steps applied: 1, or 0 at x = 0, at
        x = +inf and for x < -1/e + 5e-4, where the series seed is
        the value
    residual : |value * exp(value) - x| of the returned value
    """

    __slots__ = ()
    value: float
    region: str
    refinement_steps: int
    residual: float


def dispatch_region(branch: int, x: float) -> ApproximationRegion:
    """Region of the dispatch table that evaluates x on this branch.

    Raises ValueError for a branch other than 0 or -1 and DomainError
    for x outside it; ``lambert_w`` makes the same checks in the same
    order.  ``math.isnan`` comes first so that a non-scalar x raises
    TypeError.
    """
    if branch != 0 and branch != -1:
        raise invalid_branch(branch)
    if _isnan(x) or x < _X_MIN or (branch == -1 and x >= 0.0):
        raise _domain_error(x)
    if branch == 0:
        return W0_REGIONS[bisect_right(_W0_BREAKS, x)]
    return WM1_REGIONS[bisect_right(_WM1_BREAKS, x)]


def steps_to_converge(branch: int, x: float, scheme: str) -> int:
    """Refinement steps needed to reach the residual tolerance at x.

    Steps are repeated until
    |w*e^w - x| <= max(RESIDUAL_TOL, 2*eps*|w|) * max(|x|, 1), at most
    four of them; the residual is only checked after a step.  The
    2*eps*|w| term is the rounding noise of the residual itself, which
    passes RESIDUAL_TOL beyond x ~ 1.4e11 on branch 0 (|w| > 22.5).
    Zero only where the seed is exact (x = 0 and the branch point) and
    at x = +inf.
    Raises ValueError for a scheme not in SCHEMES.
    """
    w = lambert_w_approximation(branch, x)
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if w == 0.0 or w == -1.0 or w == _INF:
        return 0
    step = fritsch_step if scheme == "fritsch" else halley_step
    scale = max(abs(x), 1.0)
    w, steps = step(x, w), 1
    while steps < 4 and defining_residual(x, w) > max(RESIDUAL_TOL, _TWO_EPS * abs(w)) * scale:
        w, steps = step(x, w), steps + 1
    return steps


def lambert_w(branch: int, x: float) -> EvalResult:
    """Lambert W with runtime branch selection and diagnostics.

    Raises ValueError for a branch other than 0 or -1 and DomainError
    outside the branch domain (NaN and -inf included), as
    ``dispatch_region`` does.  x = +inf on branch 0 returns +inf with a
    NaN residual, the one place the defining identity cannot be formed.
    A non-float x is taken at its double: a complex, a str or an array of
    one or more dimensions raises TypeError, and an int beyond the double
    range DomainError.
    """
    # dispatch_region and fritsch_step written out, as their checks repeat this
    # one; the seed families stay calls, which the benchmark times as layers.
    if branch != 0 and branch != -1:
        raise invalid_branch(branch)
    # x != x is the NaN test for a float: cheaper than math.isnan's call.
    if type(x) is not float or x != x:
        x = _as_double(x)
        if _isnan(x):
            raise _domain_error(x)
    # Below -1/e the series family raises dispatch_region's DomainError.
    if branch == 0:
        if x < _W0_SERIES_END:
            kind, w = "branch-point-series", branch_point_series(0, x, 9)
        elif x < _W0_FIT1_END:
            kind, w = "rational-fit-1", rational_fit_eval(W0_FIT_1, x)
        elif x < _W0_FIT2_END:
            kind, w = "rational-fit-2", rational_fit_eval(W0_FIT_2, x)
        else:
            kind, w = "asymptotic", asymptotic_series(0, x)
        # _new (tuple.__new__) builds the result in C, at a tenth of EvalResult(...)'s cost.
        if x < _UNSTEPPED_END or w == 0.0 or w == _INF:
            return _new(EvalResult, (w, kind, 0, defining_residual(x, w)))
        z = _log(x / w) - w
    elif x < _WM1_SERIES_END:
        kind, w = "branch-point-series", branch_point_series(-1, x, 11)
        if x < _UNSTEPPED_END:
            return _new(EvalResult, (w, kind, 0, defining_residual(x, w)))
        z = _log(x / w) - w
    elif x < _WM1_FIT_END:
        kind, w = "rational-fit-1", rational_fit_eval(WM1_FIT, x)
        z = _log(x / w) - w
    elif x < 0.0:
        kind, w = "continued-log", continued_log_recursion_wm1(x, continued_log_depth(x))
        z = (_log(-x) - w) - _log(-w)  # the traced seed call keeps its ln(-x)
    else:
        raise _domain_error(x)
    # fritsch_step's arithmetic from the arm's z; its checks cannot fire on
    # these seeds (see _lambert_w_list).
    u = 1.0 + w
    q = 2.0 * u * (u + (2.0 / 3.0) * z)
    w = w + w * ((z / u) * ((q - z) / (q - 2.0 * z)))
    return _new(EvalResult, (w, kind, 1, defining_residual(x, w)))


def _lambert_w_array(branch: int, x):
    """``_lambert_w_list`` over the elements of x, which has a dtype, in
    float64 (a complex, string or object dtype raises TypeError): a
    float64 array of x's shape, or a float for a 0-d x."""
    import numpy as np

    array = np.asarray(x).astype(np.float64, casting="same_kind", copy=False)
    out = _lambert_w_list(branch, array.ravel().tolist())
    return out[0] if array.ndim == 0 else np.array(out).reshape(array.shape)


# The seed tables of lambert_w_approximation and _lambert_w_list, unpacked once.
_B0, _B1, _B2, _B3, _B4, _B5, _B6, _B7, _B8, _B9, _B10, _B11 = BRANCH_POINT_COEFFICIENTS
_F1N0, _F1N1, _F1N2, _F1N3, _F1N4 = W0_FIT_1.numerator
_F1D0, _F1D1, _F1D2, _F1D3, _F1D4 = W0_FIT_1.denominator
_F2N0, _F2N1, _F2N2, _F2N3, _F2N4 = W0_FIT_2.numerator
_F2D0, _F2D1, _F2D2, _F2D3, _F2D4 = W0_FIT_2.denominator
_MN0, _MN1, _MN2 = WM1_FIT.numerator
_MD0, _MD1, _MD2, _MD3, _MD4, _MD5 = WM1_FIT.denominator
# continued_log_depth(x) is 2 and a level for each bound above x: walk them from 0 out.
_DEPTH_BOUNDS_OUT = CONTINUED_LOG_DEPTH_BOUNDS[::-1]
# math's functions and constants for the float path, and tuple.__new__, bound
# once: a global is cheaper than an attribute.
_isnan, _log, _sqrt, _E, _INF = math.isnan, math.log, math.sqrt, math.e, math.inf
_new = tuple.__new__


def lambert_w_approximation(branch: int, x: float) -> float:
    """Initial approximation only: piecewise dispatch, no refinement.

    Accurate to at least five decimal places (three beyond x ~ 7 on the
    principal branch); intended as the seed for one refinement step or
    for throughput-critical callers that can live with that accuracy.
    Equal, bit for bit, to the public seed family of ``dispatch_region``'s
    region, which it writes out in Horner form, with the same errors.
    A non-float x is taken at its double, as in ``lambert_w``.
    """
    if branch == 0:
        if type(x) is not float or x != x:
            x = _as_double(x)
            if _isnan(x):
                raise _domain_error(x)
        if x < _W0_SERIES_END:
            if x < _X_MIN:
                raise _domain_error(x)
            # s = 2c with c = 1 + e*x formed exactly.  x at or below -1/e
            # gives s <= 0 and p = 0: exactly -1.
            s = 2.0 * (_E * ((x - MINUS_INV_E) - _MINUS_INV_E_LO))
            p = _sqrt(s) if s > 0.0 else 0.0
            return _B0 + p * (_B1 + p * (_B2 + p * (_B3 + p * (_B4 + p * (_B5 + p * (
                _B6 + p * (_B7 + p * (_B8 + p * _B9))))))))
        if x < _W0_FIT1_END:
            return x * ((_F1N0 + x * (_F1N1 + x * (_F1N2 + x * (_F1N3 + x * _F1N4))))
                        / (_F1D0 + x * (_F1D1 + x * (_F1D2 + x * (_F1D3 + x * _F1D4)))))
        if x < _W0_FIT2_END:
            return x * ((_F2N0 + x * (_F2N1 + x * (_F2N2 + x * (_F2N3 + x * _F2N4))))
                        / (_F2D0 + x * (_F2D1 + x * (_F2D2 + x * (_F2D3 + x * _F2D4)))))
        if x < _INF:
            a = _log(x)
            b = _log(a)
            ia = 1.0 / a
            tail = (60.0 + b * (-300.0 + b * (350.0 + b * (-125.0 + b * 12.0)))) / 60.0
            tail = (-12.0 + b * (36.0 + b * (-22.0 + b * 3.0))) / 12.0 + ia * tail
            tail = (6.0 + b * (-9.0 + b * 2.0)) / 6.0 + ia * tail
            tail = (-2.0 + b) / 2.0 + ia * tail
            return a - b + b * ia * (1.0 + ia * tail)
        return x  # +inf
    if branch == -1:
        if type(x) is not float or x != x:
            x = _as_double(x)
            if _isnan(x):
                raise _domain_error(x)
        if x < _WM1_SERIES_END:
            if x < _X_MIN:
                raise _domain_error(x)
            # Branch -1 runs two orders hotter: its series region reaches
            # p = -0.594, where order 9 falls a shade short of five decimals.
            s = 2.0 * (_E * ((x - MINUS_INV_E) - _MINUS_INV_E_LO))
            p = -_sqrt(s) if s > 0.0 else 0.0
            return _B0 + p * (_B1 + p * (_B2 + p * (_B3 + p * (_B4 + p * (_B5 + p * (
                _B6 + p * (_B7 + p * (_B8 + p * (_B9 + p * (_B10 + p * _B11))))))))))
        if x < _WM1_FIT_END:
            return ((_MN0 + x * (_MN1 + x * _MN2))
                    / (_MD0 + x * (_MD1 + x * (_MD2 + x * (_MD3 + x * (_MD4 + x * _MD5))))))
        if x < 0.0:
            lx = _log(-x)
            w = lx - _log(-(lx - _log(-lx)))
            for bound in _DEPTH_BOUNDS_OUT:
                if x >= bound:
                    break
                w = lx - _log(-w)
            return w
        raise _domain_error(x)
    raise invalid_branch(branch)


def _w0(x: float) -> float:
    """``lambert_w(0, x).value``, bit for bit, with its errors: the
    branch 0 arms of ``lambert_w_approximation`` and one Fritsch step.

    The seed comes back unstepped at x = 0, at x = +inf and for
    x < -1/e + 5e-4, each in the arm that makes it.  A NaN fails every
    comparison and reaches the last arm's error.
    """
    if x < _W0_SERIES_END:
        if x < _X_MIN:
            raise _domain_error(x)
        s = 2.0 * (_E * ((x - MINUS_INV_E) - _MINUS_INV_E_LO))
        p = _sqrt(s) if s > 0.0 else 0.0
        w = _B0 + p * (_B1 + p * (_B2 + p * (_B3 + p * (_B4 + p * (_B5 + p * (
            _B6 + p * (_B7 + p * (_B8 + p * _B9))))))))
        if x < _UNSTEPPED_END:
            return w
    elif x < _W0_FIT1_END:
        w = x * ((_F1N0 + x * (_F1N1 + x * (_F1N2 + x * (_F1N3 + x * _F1N4))))
                 / (_F1D0 + x * (_F1D1 + x * (_F1D2 + x * (_F1D3 + x * _F1D4)))))
        if w == 0.0:
            return w
    elif x < _W0_FIT2_END:
        w = x * ((_F2N0 + x * (_F2N1 + x * (_F2N2 + x * (_F2N3 + x * _F2N4))))
                 / (_F2D0 + x * (_F2D1 + x * (_F2D2 + x * (_F2D3 + x * _F2D4)))))
    elif x < _INF:
        a = _log(x)
        b = _log(a)
        ia = 1.0 / a
        tail = (60.0 + b * (-300.0 + b * (350.0 + b * (-125.0 + b * 12.0)))) / 60.0
        tail = (-12.0 + b * (36.0 + b * (-22.0 + b * 3.0))) / 12.0 + ia * tail
        tail = (6.0 + b * (-9.0 + b * 2.0)) / 6.0 + ia * tail
        tail = (-2.0 + b) / 2.0 + ia * tail
        w = a - b + b * ia * (1.0 + ia * tail)
    elif x == _INF:
        return x
    else:
        raise _domain_error(x)
    u = 1.0 + w
    z = _log(x / w) - w
    q = 2.0 * u * (u + (2.0 / 3.0) * z)
    return w + w * ((z / u) * ((q - z) / (q - 2.0 * z)))


def _wm1(x: float) -> float:
    """``lambert_w(-1, x).value``, bit for bit, with its errors, as
    ``_w0`` is for branch 0: the seed comes back unstepped only for
    x < -1/e + 5e-4, and the continued-log arm steps as ``_wm1_log``."""
    if x < _WM1_SERIES_END:
        if x < _X_MIN:
            raise _domain_error(x)
        s = 2.0 * (_E * ((x - MINUS_INV_E) - _MINUS_INV_E_LO))
        p = -_sqrt(s) if s > 0.0 else 0.0
        w = _B0 + p * (_B1 + p * (_B2 + p * (_B3 + p * (_B4 + p * (_B5 + p * (
            _B6 + p * (_B7 + p * (_B8 + p * (_B9 + p * (_B10 + p * _B11))))))))))
        if x < _UNSTEPPED_END:
            return w
        z = _log(x / w) - w
    elif x < _WM1_FIT_END:
        w = ((_MN0 + x * (_MN1 + x * _MN2))
             / (_MD0 + x * (_MD1 + x * (_MD2 + x * (_MD3 + x * (_MD4 + x * _MD5))))))
        z = _log(x / w) - w
    elif x < 0.0:
        lx = _log(-x)
        w = lx - _log(-(lx - _log(-lx)))
        for bound in _DEPTH_BOUNDS_OUT:
            if x >= bound:
                break
            w = lx - _log(-w)
        # x/w = e^w is subnormal below w = -708.4: z from the seed's ln(-x).
        z = (lx - w) - _log(-w)
    else:
        raise _domain_error(x)
    u = 1.0 + w
    q = 2.0 * u * (u + (2.0 / 3.0) * z)
    return w + w * ((z / u) * ((q - z) / (q - 2.0 * z)))


# _wm1_log serves -x up to this (lx <= ln 0.015): its asymptotic seed keeps
# five decimals for x >= -0.01626.
_WM1_LOG_END = 0.015
# ln(-x) at the continued log's two innermost depth bounds, -2.8e-41 (depth 2
# at and above it) and -6.4e-12 (depth 3).
_LN_DEPTH_2, _LN_DEPTH_3 = (_log(-bound) for bound in _DEPTH_BOUNDS_OUT[:2])
# Below this lx the step's q = 2u(u + 2z/3) nears overflow (from |u| ~ 9.5e153),
# and the depth-2 seed is W to rounding (beyond |lx| ~ 1e6).
_LX_UNSTEPPED = -1e150


def _wm1_log(lx: float) -> float:
    """W_-1(x) from lx = ln(-x) <= ln 0.015, without forming x, which
    may underflow.

    The seed is ``_wm1``'s continued log at depth 2 (lx <= ln 2.8e-41)
    or 3 (lx <= ln 6.4e-12), else ``asymptotic_series(-1, x)``, both bit
    for bit at lx = ln(-x).  One Fritsch step follows, with
    z = (lx - w) - ln(-w): no division, and no subnormal operand.  Below
    lx = -1e150 the seed, W to rounding, is returned unstepped.  At
    normal x of depth 2 or 3 it is ``_wm1(x)`` to the bit.
    """
    if lx <= _LN_DEPTH_3:
        w = lx - _log(-(lx - _log(-lx)))
        if lx > _LN_DEPTH_2:
            w = lx - _log(-w)
        elif lx < _LX_UNSTEPPED:
            return w
    else:
        b = _log(-lx)
        ia = 1.0 / lx
        tail = (60.0 + b * (-300.0 + b * (350.0 + b * (-125.0 + b * 12.0)))) / 60.0
        tail = (-12.0 + b * (36.0 + b * (-22.0 + b * 3.0))) / 12.0 + ia * tail
        tail = (6.0 + b * (-9.0 + b * 2.0)) / 6.0 + ia * tail
        tail = (-2.0 + b) / 2.0 + ia * tail
        w = lx - b + b * ia * (1.0 + ia * tail)
    u = 1.0 + w
    # lx - w is exact (Sterbenz: lx ~ w + ln(-w), and 0 < ln(-w) < -w/2), so z
    # carries the rounding of ln(-w) alone, not that of a log of size |w|.
    z = (lx - w) - _log(-w)
    q = 2.0 * u * (u + (2.0 / 3.0) * z)
    return w + w * ((z / u) * ((q - z) / (q - 2.0 * z)))


def _lambert_w_list(branch: int, values: list) -> list:
    """W on ``branch`` (0 or -1) of every float in ``values``, as a list.

    Each arm of the loop is ``lambert_w_approximation``'s, with ``w =``
    for ``return``, and the arm's z and unstepped seed and the step are
    ``_w0``'s and ``_wm1``'s (``tests/test_array.py`` ties the three).  Every
    value is bit-identical to ``lambert_w(branch, v).value``; the first bad
    one raises its error.  It stays written out: mapping ``_w0`` over a
    32-element list takes longer than this loop.
    """
    lower = branch == -1
    out = []
    for v in values:
        # Seed and z: dispatch_region's tests, then lambert_w_approximation's family.
        if lower:
            if v < _WM1_SERIES_END:
                if v < _X_MIN:
                    raise _domain_error(v)
                s = 2.0 * (_E * ((v - MINUS_INV_E) - _MINUS_INV_E_LO))
                p = -_sqrt(s) if s > 0.0 else 0.0
                w = _B0 + p * (_B1 + p * (_B2 + p * (_B3 + p * (_B4 + p * (_B5 + p * (
                    _B6 + p * (_B7 + p * (_B8 + p * (_B9 + p * (_B10 + p * _B11))))))))))
                if v < _UNSTEPPED_END:
                    out.append(w)
                    continue
                z = _log(v / w) - w
            elif v < _WM1_FIT_END:
                w = ((_MN0 + v * (_MN1 + v * _MN2))
                     / (_MD0 + v * (_MD1 + v * (_MD2 + v * (_MD3 + v * (_MD4 + v * _MD5))))))
                z = _log(v / w) - w
            elif v < 0.0:
                lx = _log(-v)
                w = lx - _log(-(lx - _log(-lx)))
                for bound in _DEPTH_BOUNDS_OUT:
                    if v >= bound:
                        break
                    w = lx - _log(-w)
                z = (lx - w) - _log(-w)
            else:
                raise _domain_error(v)
        else:
            if v < _W0_SERIES_END:
                if v < _X_MIN:
                    raise _domain_error(v)
                s = 2.0 * (_E * ((v - MINUS_INV_E) - _MINUS_INV_E_LO))
                p = _sqrt(s) if s > 0.0 else 0.0
                w = _B0 + p * (_B1 + p * (_B2 + p * (_B3 + p * (_B4 + p * (_B5 + p * (
                    _B6 + p * (_B7 + p * (_B8 + p * _B9))))))))
                if v < _UNSTEPPED_END:
                    out.append(w)
                    continue
            elif v < _W0_FIT1_END:
                w = v * ((_F1N0 + v * (_F1N1 + v * (_F1N2 + v * (_F1N3 + v * _F1N4))))
                         / (_F1D0 + v * (_F1D1 + v * (_F1D2 + v * (_F1D3 + v * _F1D4)))))
                if w == 0.0:
                    out.append(w)
                    continue
            elif v < _W0_FIT2_END:
                w = v * ((_F2N0 + v * (_F2N1 + v * (_F2N2 + v * (_F2N3 + v * _F2N4))))
                         / (_F2D0 + v * (_F2D1 + v * (_F2D2 + v * (_F2D3 + v * _F2D4)))))
            elif v < _INF:
                a = _log(v)
                b = _log(a)
                ia = 1.0 / a
                tail = (60.0 + b * (-300.0 + b * (350.0 + b * (-125.0 + b * 12.0)))) / 60.0
                tail = (-12.0 + b * (36.0 + b * (-22.0 + b * 3.0))) / 12.0 + ia * tail
                tail = (6.0 + b * (-9.0 + b * 2.0)) / 6.0 + ia * tail
                tail = (-2.0 + b) / 2.0 + ia * tail
                w = a - b + b * ia * (1.0 + ia * tail)
            elif v == _INF:
                out.append(v)
                continue
            else:
                raise _domain_error(v)
            z = _log(v / w) - w
        # fritsch_step's own checks cannot fire here: every stepped seed has x's
        # sign and keeps |1 + w| and |q - 2z| far from 0 (tests/test_array.py).
        u = 1.0 + w
        q = 2.0 * u * (u + (2.0 / 3.0) * z)
        out.append(w + w * ((z / u) * ((q - z) / (q - 2.0 * z))))
    return out


def lambert_w0(x: float) -> float:
    """Principal branch value W_0(x), defined on [-1/e, inf).

    An x with a dtype (a numpy array or scalar) is evaluated elementwise
    in float64, bit-identical to the float path: an array of x's shape
    comes back, or a float for a 0-d x.
    """
    if type(x) is not float and hasattr(x, "dtype"):
        return _lambert_w_array(0, x)
    # [0] is the record's value, read without the named tuple's descriptor.
    return lambert_w(0, x)[0]


def lambert_wm1(x: float) -> float:
    """Lower branch value W_-1(x), defined on [-1/e, 0).

    Takes an x with a dtype as ``lambert_w0`` does.
    """
    if type(x) is not float and hasattr(x, "dtype"):
        return _lambert_w_array(-1, x)
    return lambert_w(-1, x)[0]
