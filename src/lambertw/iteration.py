"""One-step refinements of Lambert W estimates.

Both steps take the point x and the current estimate w and return an
improved estimate:

* ``halley_step`` is third order and needs one exp per call, and a log
  and a second exp where e^w is subnormal (branch -1, |x| < ~1e-305);
* ``fritsch_step`` is fourth order, needs one log per call, and in
  practice turns any five-decimal initial guess into a result at the
  rounding floor, which is why the evaluation path defaults to it.  Its
  update is written w + w*eps, not w*(1 + eps).  The product w*eps is
  far below w, and so is its rounding error, which leaves one rounding
  at w's scale, in the sum.  Forming 1 + eps drops the bits of eps
  below half an ulp of 1 and the product rounds again; that error moves
  with the seed, and shorter seeds then give worse final values.

``lambertw.api`` applies at most one Fritsch step per evaluation: none
at x = 0, at +inf and for x < -1/e + 5e-4, where the branch point series
seed is the value.  Only ``steps_to_converge`` there repeats steps, to
count them.

Neither step is defined at w = -1 (the derivative of w*e^w vanishes).
``SINGULARITY_GUARD`` is the input check of the two public steps: an
estimate within 1e-12 of -1 raises SingularityError.  ``api`` skips -1,
the series seed at -1/e and in the rounding band below it, by that
unstepped range, and every seed it steps keeps |1 + w| > 0.05.  The
accuracy sweeps step the unstepped seeds too, skipping -1 by equality;
every other seed keeps |1 + w| >= 1e-8.
"""

import math
import sys

from .branches import DomainError, SingularityError

# Estimates closer to w = -1 than this are considered to sit on the
# branch point singularity; the public steps refuse to refine them.
SINGULARITY_GUARD = 1e-12

SCHEMES = ("halley", "fritsch")

# Bound once for the steps: a global is cheaper than an attribute.
_exp, _log, _SMALLEST_NORMAL = math.exp, math.log, sys.float_info.min


def defining_residual(x: float, w: float) -> float:
    """|w*exp(w) - x|, safe against overflow of the product for large w."""
    if w > 1.0 and x > math.e:
        return abs(x * math.expm1(w + math.log(w / x)))
    return abs(w * math.exp(w) - x)


def halley_step(x: float, w: float) -> float:
    """One Halley iteration for w*e^w = x (third order).

    Uses t = w*e^w - x, s = (w+2)/(2*(w+1)), u = (w+1)*e^w and updates
    w <- w + t/(t*s - u).  Where e^w is subnormal or 0 and x < 0, t and u
    are divided by e^w, with x*e^-w = -exp(ln(-x) - w).  A NaN x or w
    raises DomainError, as in ``fritsch_step``.
    """
    if x != x or w != w:
        raise DomainError(f"halley step got NaN: x = {x!r}, w = {w!r}")
    if -SINGULARITY_GUARD < w + 1.0 < SINGULARITY_GUARD:
        raise SingularityError(
            f"halley step undefined within {SINGULARITY_GUARD} of w = -1, got w = {w!r}"
        )
    ew = _exp(w)
    if ew < _SMALLEST_NORMAL and x < 0.0:
        t = w + _exp(_log(-x) - w)
        u = w + 1.0
    else:
        t = w * ew - x
        u = (w + 1.0) * ew
    s = (w + 2.0) / (2.0 * (w + 1.0))
    return w + t / (t * s - u)


def fritsch_step(x: float, w: float) -> float:
    """One Fritsch iteration for w*e^w = x (fourth order).

    With z = ln(x/w) - w, q = 2*(1+w)*(1+w+(2/3)*z) and
    eps = (z/(1+w)) * (q-z)/(q-2z), updates w <- w + w*eps, which
    rounds once at w's scale where w*(1+eps) rounds twice (see the module
    docstring).  Requires x and w of the same strict sign (true for every
    in-branch estimate except the removable point x = w = 0, which callers
    short-circuit); zeros, mixed signs and NaN raise DomainError.
    """
    u = 1.0 + w
    if -SINGULARITY_GUARD < u < SINGULARITY_GUARD:
        raise SingularityError(
            f"fritsch step undefined within {SINGULARITY_GUARD} of w = -1, got w = {w!r}"
        )
    if not (x > 0.0 < w or x < 0.0 > w):
        raise DomainError(
            f"fritsch step needs x and w of equal sign, got x = {x!r}, w = {w!r}"
        )
    ratio = x / w
    if ratio < _SMALLEST_NORMAL:
        # x/w is subnormal or underflows (branch -1 at subnormal x): the
        # quotient has lost digits, so take the logarithms apart.
        z = _log(abs(x)) - _log(abs(w)) - w
    else:
        z = _log(ratio) - w
    q = 2.0 * u * (u + (2.0 / 3.0) * z)
    denom = q - 2.0 * z
    if -1e-300 < denom < 1e-300:
        raise SingularityError(
            f"fritsch step denominator underflow at x = {x!r}, w = {w!r}"
        )
    eps = (z / u) * ((q - z) / denom)
    return w + w * eps

