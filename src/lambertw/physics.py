"""Closed-form inverses of two shower-physics profile functions.

Both the Moyal function and the one-parameter Gaisser-Hillas profile
can be inverted exactly in terms of the two real Lambert W branches:
the principal branch selects the solution on one side of the profile
maximum, the lower branch the other side.  Where the lower branch's
argument x lies in [-0.015, 0), both inverses take that root from
ln(-x): Moyal's as 2 ln y, Gaisser-Hillas's as ln(-x), or as
ln(y)/x_max - 1 where x is not a normal double.  So a root whose x
underflows is as accurate as any other.
Every function computes in binary64: an int, a ``Fraction``, a numpy
scalar or a 0-d array argument is taken at its double, and a complex
one raises TypeError, as does an array of one or more dimensions.
"""

import math
from typing import NamedTuple

from .api import _WM1_LOG_END, _w0, _wm1, _wm1_log
from .branches import MINUS_INV_E, DomainError, _as_double
from .iteration import _SMALLEST_NORMAL

# Peak value of the Moyal function, attained at x = 0.
MOYAL_PEAK = math.exp(-0.5)
_MOYAL_PEAK_TOL = 4.0 * math.ulp(MOYAL_PEAK)
_MOYAL_Y_MAX = MOYAL_PEAK + _MOYAL_PEAK_TOL

MOYAL_SIDES = ("plus", "minus")

# math.log and tuple.__new__, bound once: a global is cheaper than an attribute.
_log, _new = math.log, tuple.__new__


def moyal(x: float) -> float:
    """Un-normalized Moyal function exp(-(x + e^-x)/2), range (0, e^-1/2].

    A NaN x raises DomainError, as in the inverses and ``gaisser_hillas``.
    """
    if type(x) is not float:
        x = _as_double(x)
    if math.isnan(x):
        raise DomainError("moyal is undefined at x = NaN")
    if x < -700.0:
        # e^-x overflows a double here while the function value itself
        # underflows; return the limit directly.
        return 0.0
    return math.exp(-0.5 * (x + math.exp(-x)))


def moyal_inverse(y: float, side: str = "plus") -> float:
    """Solve moyal(x) = y for x.

    The Moyal function rises to its single maximum e^-1/2 at x = 0 and
    decays on both sides, so each value in (0, e^-1/2) is attained
    twice.  ``side="plus"`` returns the root right of the maximum
    (principal branch, x > 0), ``side="minus"`` the root left of it
    (lower branch, x < 0).

    Raises
    ------
    DomainError
        If y is not in (0, e^-1/2].
    """
    if side != "plus" and side != "minus":
        raise ValueError(f"side must be one of {MOYAL_SIDES}, got {side!r}")
    if type(y) is not float:
        y = _as_double(y)
    if not y > 0.0:
        raise DomainError(f"moyal values are positive; y={y!r} is outside (0, {MOYAL_PEAK!r}]")
    if y > _MOYAL_Y_MAX:
        raise DomainError(
            f"y={y!r} exceeds the Moyal maximum e^-1/2 = {MOYAL_PEAK!r}"
        )
    # Values within rounding of the peak correspond to the branch point;
    # snap them so the W argument does not land below -1/e.
    if y > MOYAL_PEAK:
        y = MOYAL_PEAK
    if side == "plus":
        return _w0(-y * y) - 2.0 * _log(y)
    # With w e^w = -y^2, x = w - 2 ln y equals -ln(-w), which does not
    # cancel w against 2 ln y.
    if y * y > _WM1_LOG_END:
        return -_log(-_wm1(-y * y))
    return -_log(-_wm1_log(2.0 * _log(y)))


# 1/(k+2) for k = 26..0, in Horner order: (ln(1+q) - q)/q^2 is the sum
# of (-q)^k/(k+2), whose terms from k = 27 on are below 2^-53 of it for
# |q| < 0.25.
_GH_SERIES = tuple(1.0 / (k + 2) for k in range(26, -1, -1))


def gaisser_hillas(x: float, x_max: float) -> float:
    """One-parameter Gaisser-Hillas profile (x/x_max)^x_max * e^(x_max - x).

    Normalized to peak value 1 at x = x_max.  A profile in depth X with
    start X0, maximum Xmax and attenuation length lam takes
    x = (X - X0)/lam and x_max = (Xmax - X0)/lam.
    """
    if type(x) is not float:
        x = _as_double(x)
    if type(x_max) is not float:
        x_max = _as_double(x_max)
    if not 0.0 < x_max < math.inf:
        raise DomainError(f"x_max must be positive and finite, got {x_max!r}")
    if not x >= 0.0:
        raise DomainError(f"profile depth must be >= 0, got x={x!r}")
    if x == 0.0 or x == math.inf:
        return 0.0
    # The exponent is x_max (ln(1+q) - q) with q = (x - x_max)/x_max; each
    # factor of (x/x_max)^x_max * e^(x_max - x) can over- or underflow alone.
    # Near the peak take it by its series, where log1p(q) - q cancels.
    q = (x - x_max) / x_max
    if abs(q) < 0.25:
        t, acc = -q, 0.0
        for c in _GH_SERIES:
            acc = acc * t + c
        return math.exp(-x_max * q * q * acc)
    ratio = x / x_max
    # As x_max (ln x - ln x_max) + x_max - x where x/x_max overflows (tiny
    # x_max) or is not normal, although the profile is at most 1.
    if not _SMALLEST_NORMAL <= ratio < math.inf:
        return math.exp(x_max * (_log(x) - _log(x_max)) + x_max - x)
    # Else with ln(x/x_max) for ln(1+q) where 1 + q < 1/2 is rounded.
    return math.exp(x_max * ((_log(ratio) if q < -0.5 else math.log1p(q)) - q))


class GhRoots(NamedTuple):
    """The two depths at which a Gaisser-Hillas profile attains a value."""

    left: float
    right: float


def gh_inverse(y: float, x_max: float) -> GhRoots:
    """Solve gaisser_hillas(x, x_max) = y for both roots.

    Returns ``(left, right)`` with left <= x_max <= right; the bounds
    are strict except at the peak value y = 1, where both roots
    coincide with x_max.

    Raises
    ------
    DomainError
        If y is not in (0, 1] or x_max is not positive and finite.
    """
    if type(y) is not float:
        y = _as_double(y)
    if type(x_max) is not float:
        x_max = _as_double(x_max)
    if not 0.0 < x_max < math.inf:
        raise DomainError(f"x_max must be positive and finite, got {x_max!r}")
    if not 0.0 < y <= 1.0:
        raise DomainError(f"profile values lie in (0, 1]; got y={y!r}")
    # (x/x_max) e^(1 - x/x_max) = y^(1/x_max) rearranges to
    # (-x/x_max) e^(-x/x_max) = -y^(1/x_max)/e, a Lambert W equation.
    # Writing the right side with MINUS_INV_E keeps y = 1 exactly on the
    # branch point, so both roots collapse to x_max with no rounding.
    arg = y ** (1.0 / x_max) * MINUS_INV_E
    if -arg > _WM1_LOG_END:
        right = -x_max * _wm1(arg)
    elif -arg >= _SMALLEST_NORMAL:
        right = -x_max * _wm1_log(_log(-arg))
    else:
        # lx = ln(-arg), formed without arg.  w = W_-1 solves w + ln(-w) = lx,
        # so right = -x_max w = x_max - ln y + x_max ln(-w), whose first terms
        # keep the bits that rounding lx drops; where lx overflows, the last
        # term is below rounding.
        ln_y = _log(y)
        lx = ln_y / x_max - 1.0
        right = x_max - ln_y
        if lx > -math.inf:
            right += x_max * _log(-_wm1_log(lx))
    # _new builds the record in C, at about half GhRoots(...)'s cost.
    return _new(GhRoots, (-x_max * _w0(arg), right))

