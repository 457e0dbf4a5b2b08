"""Reference solver for w * exp(w) = x by bracketed bisection.

This module is the measuring stick for everything else in the package, so
it deliberately shares no code with the fast evaluation path: it imports
only the branch error and the exception types, never the approximation,
iteration, or dispatch modules.

The solver bisects until the bracket collapses to adjacent floats (a one
ulp interval) and then returns the endpoint with the smaller defining
residual.  Two formulations are used:

* away from the branch point, plain ``g(y) = y*exp(y) - x``;
* within ``x <= -0.2``, the shifted variable ``u = 1 + w`` and the
  identity ``(u - 1)*e^u + 1 = 1 + e*x``, evaluated through ``expm1`` so
  the cancellation of ``y*exp(y)`` against ``x ~ -1/e`` never happens;
* on branch -1 at subnormal x, the logarithm of the identity,
  ``y + log(-y) = log(-x)``, because ``y*exp(y)`` underflows there.

Without the shifted form, the root location drowns in rounding noise of
size ``eps / sqrt(2*e*(x + 1/e))``, which is worse than 1e-12 for x
within 1e-9 of the branch point.
"""

from __future__ import annotations

import math
import sys

from .branches import invalid_branch
from .errors import DomainError

# Most negative representable argument: -1/e, with a 4 ulp acceptance band
# below it that is treated as the branch point itself.
MINUS_INV_E = -math.exp(-1.0)
BRANCH_POINT_TOL = 4.0 * math.ulp(math.exp(-1.0))

# Below this x both branches sit close enough to w = -1 that the shifted
# formulation is required; above it the plain residual is well conditioned.
_SHIFTED_CUTOFF = -0.2


def _bisect(f, lo: float, hi: float) -> float:
    """Root of increasing ``f`` on [lo, hi], refined to a one-ulp bracket."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo > 0.0 or fhi < 0.0:
        raise ValueError(f"root not bracketed by [{lo}, {hi}]")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm < 0.0:
            lo, flo = mid, fm
        elif fm > 0.0:
            hi, fhi = mid, fm
        else:
            return mid
    return lo if abs(flo) <= abs(fhi) else hi


def _shifted_gap(u: float, c: float) -> float:
    # (u-1)*e^u + 1 - c, with the +1 folded in via expm1 to avoid
    # cancellation for small u.
    return (u - 1.0) * math.expm1(u) + u - c


def _reference_w0(x: float) -> float:
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return math.inf
    if x <= _SHIFTED_CUTOFF:
        c = 1.0 + math.e * x
        if c <= 0.0:
            return -1.0
        u = _bisect(lambda t: _shifted_gap(t, c), 0.0, 2.0)
        return -1.0 + u
    if x <= math.e:
        return _bisect(lambda y: y * math.exp(y) - x, -1.0, 1.0)
    # For x > e bisect in y >= 1 on the residual divided by x, written
    # through expm1 so huge x cannot overflow y*exp(y).
    hi = math.log(x) + 1.0
    return _bisect(lambda y: math.expm1(y + math.log(y / x)), 1.0, hi)


def _reference_wm1(x: float) -> float:
    if x <= _SHIFTED_CUTOFF:
        c = 1.0 + math.e * x
        if c <= 0.0:
            return -1.0
        u = _bisect(lambda t: -_shifted_gap(t, c), -3.0, 0.0)
        return -1.0 + u
    log_x = math.log(-x)
    lo = log_x - 40.0
    if -x < sys.float_info.min:
        return _bisect(lambda y: y + math.log(-y) - log_x, lo, -1.0)
    return _bisect(lambda y: x - y * math.exp(y), lo, -1.0)


def reference_w(branch: int, x: float) -> float:
    """Lambert W by bisection, correct to the last bit or the one before it.

    Parameters
    ----------
    branch : int
        0 for the principal branch, -1 for the lower one.
    x : float
        Point to evaluate at.  Branch 0 accepts [-1/e, inf], branch -1
        accepts [-1/e, 0); anything within 4 ulp below -1/e maps to the
        branch point value -1.

    Returns
    -------
    float
        The branch value w with |w*e^w - x| minimized over representable
        candidates near the root.
    """
    if branch != 0 and branch != -1:
        raise invalid_branch(branch)
    if math.isnan(x):
        raise DomainError("x is NaN, outside both branch domains")
    if x < MINUS_INV_E - BRANCH_POINT_TOL:
        raise DomainError(
            f"x = {x!r} is below the branch point bound -1/e = {MINUS_INV_E!r}"
        )
    if x < MINUS_INV_E:
        return -1.0
    if branch == 0:
        return _reference_w0(x)
    if x >= 0.0:
        raise DomainError(f"branch -1 requires -1/e <= x < 0, got x = {x!r}")
    return _reference_wm1(x)
