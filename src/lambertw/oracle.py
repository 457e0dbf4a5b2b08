"""Reference solver for w * exp(w) = x: bracketed Newton, one-ulp bracket.

This module is the measuring stick for everything else in the package, so
it deliberately shares no code with the fast evaluation path: it takes
only the branch domain from ``branches`` (-1/e with its rounding band,
the exception types and their messages), never the approximation,
iteration, or dispatch modules.

The solver keeps a sign-checked bracket, takes Newton steps inside it
(with a midpoint in the order of doubles as the fallback) until the
bracket collapses to adjacent floats (a one ulp interval), and then
returns the endpoint with the smaller defining residual.  The ends of
the given bracket are evaluated, and sign-checked, only where the solve
reads them, which most solves never do.  Each formulation supplies its
own derivative, from the same exponential or logarithm as its residual,
and a start point, which only decides how many evaluations the bracket
takes to close.  Outside the log-space form, the closed-form starts get
steps of Iacono and Boyd's (2017) iteration
``w <- w/(1 + w)*(1 + ln(x/w))``, one log each: two bring them to a
relative error of about 1e-7 or less.  The formulations are:

* away from the branch point, plain ``g(y) = y*exp(y) - x``, started on
  branch 0 at Winitzki's ``L*(1 - ln(1 + L)/(2 + L))`` with
  ``L = log1p(x)``, refined by three steps through ``ln(x/w)``, and on
  branch -1 at the asymptotic start
  ``L1 - L2 + L2/L1 + L2*(L2 - 2)/(2*L1**2)``, refined through
  ``ln(x/w) = L1 - ln|w|``;
* on branch 0 at x > e, the log of ``y*exp(y)/x``, ``y + log(y/x)``,
  which has the residual's sign, so huge x cannot overflow ``y*exp(y)``,
  started at the asymptotic start, refined through ``L1 - ln(w)``;
* within ``x <= -0.2``, the identity ``(u - 1)*e^u + 1 = 1 + e*x`` in
  the shifted variable ``u = 1 + w``, evaluated through ``expm1`` so the
  cancellation of ``y*exp(y)`` against ``x ~ -1/e`` never happens, with
  ``1 + e*x`` formed exactly as ``e*((x - fl(-1/e)) - lo)``, but
  solved for w itself on [-1, 1] (branch 0) or [-4, -1] (branch -1), so
  that the bracket closes on adjacent doubles of the returned value;
  started at the branch point series ``-1 + p - p**2/3 + 11*p**3/72 ...``
  to order 9 in ``p = +-sqrt(2*(1 + e*x))`` (Corless et al. 1996),
  refined by two steps with ``1 + ln(x/w) = log1p(-c) - log1p(-u)``,
  ``c = 1 + e*x``, a form that does not cancel near -1/e and keeps the
  start within a few ulp of the root there;
* on branch -1 at subnormal x, the logarithm of the identity,
  ``y + log(-y) = log(-x)``, because ``y*exp(y)`` underflows there,
  started at the asymptotic start, unrefined.

Here ``L1 = ln|x|`` and ``L2 = ln|L1|``.  Without the shifted form, the
root location drowns in rounding noise of size
``eps / sqrt(2*e*(x + 1/e))``, which is worse than 1e-12 for x within
1e-9 of the branch point.
"""

import math
import struct
import sys

from .branches import (
    _MINUS_INV_E_LO,
    _X_MIN,
    MINUS_INV_E,
    _as_double,
    _domain_error,
    invalid_branch,
)

# Below this x both branches sit close enough to w = -1 that the shifted
# formulation is required; above it the plain residual is well conditioned.
_SHIFTED_CUTOFF = -0.2

# math's names, bound once: a global is cheaper than an attribute.
_exp, _expm1, _log, _log1p, _sqrt = math.exp, math.expm1, math.log, math.log1p, math.sqrt
_isnan, _nextafter, _E, _INF = math.isnan, math.nextafter, math.e, math.inf
_SMALLEST_NORMAL = sys.float_info.min

_FLOAT64 = struct.Struct("<d")
_INT64 = struct.Struct("<q")
_SIGN_MASK = (1 << 63) - 1


def _key(t: float) -> int:
    """Position of double ``t`` in the order of doubles (both zeros at 0)."""
    n = _INT64.unpack(_FLOAT64.pack(t))[0]
    return n if n >= 0 else -(n & _SIGN_MASK)


def _midpoint(lo: float, hi: float) -> float:
    """The double halfway between lo and hi in the order of doubles."""
    k = (_key(lo) + _key(hi)) // 2
    t = _FLOAT64.unpack(_INT64.pack(abs(k)))[0]
    return -t if k < 0 else t


def _solve(fd, a: float, lo: float, hi: float, start: float) -> float:
    """Root of increasing ``f`` on [lo, hi], refined to a one-ulp bracket.

    ``fd(t, a)`` returns ``(f(t), f'(t))`` for the residual's parameter
    ``a`` (x, c or ln(-x)).  Every evaluation shrinks the
    sign-checked bracket.  The first point is ``start`` if it lies inside
    the bracket; each later one is the Newton step from the bracket end
    with the smaller ``|f|``, or the midpoint in the order of doubles when
    that step leaves the bracket or is more than half the step before the
    last one.  A Newton step under one ulp is replaced by the neighbouring
    double on its far side, which closes the bracket when the sign changes
    there.  The one-ulp test runs only when the Newton step is not taken:
    a step strictly inside leaves a double between the ends.  The
    endpoint of the final one-ulp bracket with the smaller ``|f|`` is
    returned.  Where the rounded ``f`` changes sign once, that
    bracket is unique, so ``start`` decides only how fast it closes, not
    where.

    An end of the given [lo, hi] is evaluated only when its value is
    read: when the Newton step would start from it, which an unread end,
    counted as |f| = inf, never wins, or when the one-ulp bracket closes
    on it.  It is sign-checked then, and a wrong sign raises ValueError.
    A ``start`` outside (lo, hi), or on one of its ends, is never
    evaluated: the first point is then the midpoint.
    """
    lo0, hi0 = lo, hi
    flo, dlo = -_INF, 0.0  # an end not read yet; two names build no tuple
    fhi, dhi = _INF, 0.0
    t = start
    older = step = hi - lo
    while True:
        if lo < t < hi:
            f, d = fd(t, a)
            if f < 0.0:
                lo, flo, dlo = t, f, d
            elif f > 0.0:
                hi, fhi, dhi = t, f, d
            else:
                return t
        # Step from the endpoint with the smaller |f|; a flat one has none.
        if -flo <= fhi:
            t, f, d = lo, flo, dlo
        else:
            t, f, d = hi, fhi, dhi
        new = t - f / d if d > 0.0 else _INF
        if lo < new < hi:
            size = new - t if new > t else t - new
            if size <= 0.5 * older:
                older, step, t = step, size, new
                continue
        if _nextafter(lo, hi) == hi:
            if flo == -_INF:
                flo = fd(lo, a)[0]
            if fhi == _INF:
                fhi = fd(hi, a)[0]
            if flo > 0.0 or fhi < 0.0:
                raise ValueError(f"root not bracketed by [{lo0}, {hi0}]")
            return lo if -flo <= fhi else hi
        new = _nextafter(t, hi if f < 0.0 else lo) if new == t else _midpoint(lo, hi)
        older, step, t = step, new - t if new > t else t - new, new


# (u-1)*e^u + 1 - c, u = 1 + w, and its derivative u*e^u, negated on
# branch -1, as functions of w itself: the solve closes on adjacent
# doubles of w, not of u.  u is exact for w in [-4, -1/2] (Sterbenz below
# |w| = 2), branch -1 and branch 0 up to -1/2, so w stands in for u - 1;
# expm1 folds in the +1 without cancellation at small u.
def _shifted_w0(w: float, c: float) -> tuple[float, float]:
    u = 1.0 + w
    em1 = _expm1(u)
    return w * em1 + u - c, u * (em1 + 1.0)


def _shifted_wm1(w: float, c: float) -> tuple[float, float]:
    u = 1.0 + w
    em1 = _expm1(u)
    return -(w * em1 + u - c), -u * (em1 + 1.0)


def _plain_w0(y: float, x: float) -> tuple[float, float]:
    ey = _exp(y)
    return y * ey - x, (1.0 + y) * ey


def _plain_wm1(y: float, x: float) -> tuple[float, float]:
    ey = _exp(y)
    return x - y * ey, -(1.0 + y) * ey


def _scaled(y: float, x: float) -> tuple[float, float]:
    return y + _log(y / x), 1.0 + 1.0 / y


def _log_space(y: float, log_x: float) -> tuple[float, float]:
    return y + _log(-y) - log_x, 1.0 + 1.0 / y


def _branch_point_start(c: float, sign: float) -> float:
    # The branch point series w = -1 + p - p^2/3 + ... at p = sign*sqrt(2c)
    # to ninth order (Corless et al. 1996), written out here so that the
    # oracle shares no code with the approximations it judges.
    p = sign * _sqrt(2.0 * c)
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (
        -43.0 / 540.0 + p * (769.0 / 17280.0 + p * (-221.0 / 8505.0 + p * (
            680863.0 / 43545600.0 + p * (-1963.0 / 204120.0 + p * (
                226287557.0 / 37623398400.0)))))))))


def _asymptotic_start(log_x: float) -> float:
    # L1 - L2 + L2/L1 + L2(L2 - 2)/(2 L1^2) with L1 = ln|x|, L2 = ln|L1|:
    # the first terms of the asymptotic series of W0 at large x and of
    # W-1 at small -x.
    log_log = _log(abs(log_x))
    return log_x - log_log + log_log / log_x + log_log * (log_log - 2.0) / (2.0 * log_x * log_x)


# Each branch off the shifted zone, x > -0.2; reference_w solves that zone.
def _reference_w0(x: float) -> float:
    if x == 0.0 or x == _INF:  # W0(x) = x, signed zeros included
        return x
    if x <= _E:
        # Winitzki's L*(1 - ln(1 + L)/(2 + L)), L = ln(1 + x), within 2% of
        # W, and three steps w <- w/(1 + w)*(1 + ln(x/w)) (Iacono and Boyd 2017).
        log1p_x = _log1p(x)
        w = log1p_x * (1.0 - _log(1.0 + log1p_x) / (2.0 + log1p_x))
        w = w / (1.0 + w) * (1.0 + _log(x / w))
        w = w / (1.0 + w) * (1.0 + _log(x / w))
        return _solve(_plain_w0, x, -1.0, 1.0, w / (1.0 + w) * (1.0 + _log(x / w)))
    # For x > e solve in y >= 1 on ln(y*exp(y)/x) = y + ln(y/x): it has
    # the sign of y*exp(y) - x, which huge x would overflow.
    log_x = _log(x)
    w = _asymptotic_start(log_x)
    w = w / (1.0 + w) * (1.0 + log_x - _log(w))
    return _solve(_scaled, x, 1.0, log_x + 1.0, w / (1.0 + w) * (1.0 + log_x - _log(w)))


def _reference_wm1(x: float) -> float:
    log_x = _log(-x)
    w = _asymptotic_start(log_x)
    if -x < _SMALLEST_NORMAL:
        return _solve(_log_space, log_x, log_x - 40.0, -1.0, w)
    w = w / (1.0 + w) * (1.0 + log_x - _log(-w))
    return _solve(_plain_wm1, x, log_x - 40.0, -1.0, w / (1.0 + w) * (1.0 + log_x - _log(-w)))


def reference_w(branch: int, x: float) -> float:
    """Lambert W by bracketed Newton, correct to the last bit or one before.

    Parameters
    ----------
    branch : int
        0 for the principal branch, -1 for the lower one.
    x : float
        Point to evaluate at.  Branch 0 accepts [-1/e, inf], branch -1
        accepts [-1/e, 0); anything within 4 ulp below -1/e maps to the
        branch point value -1.  Any other real number, such as an int, a
        ``Fraction`` or a numpy scalar, is evaluated at ``float(x)``; a
        complex x raises TypeError, and an int beyond the double range
        DomainError.

    Returns
    -------
    float
        The branch value w with |w*e^w - x| minimized over representable
        candidates near the root.
    """
    if branch != 0 and branch != -1:
        raise invalid_branch(branch)
    if type(x) is not float:
        # The solve is written for binary64: a longdouble c would leave a
        # bracket narrower than one double's ulp, which never closes.
        x = _as_double(x)
    if _isnan(x):
        raise _domain_error(x)
    if x < _X_MIN:
        raise _domain_error(x)
    if x <= _SHIFTED_CUTOFF:
        c = _E * ((x - MINUS_INV_E) - _MINUS_INV_E_LO)
        if c <= 0.0:
            return -1.0
        fd, sign, lo, hi = ((_shifted_w0, 1.0, -1.0, 1.0) if branch == 0
                            else (_shifted_wm1, -1.0, -4.0, -1.0))
        # Two Iacono-Boyd steps with 1 + ln(x/w) = ln(1 - c) - ln(1 - u),
        # u = 1 + w: the plain form would cancel near -1/e.
        log1p_c = _log1p(-c)
        w = _branch_point_start(c, sign)
        u = 1.0 + w
        w = w / u * (log1p_c - _log1p(-u))
        u = 1.0 + w
        return _solve(fd, c, lo, hi, w / u * (log1p_c - _log1p(-u)))
    if branch == 0:
        return _reference_w0(x)
    if x >= 0.0:
        raise _domain_error(x)
    return _reference_wm1(x)
