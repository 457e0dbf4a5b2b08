"""Untimed correctness check against ``mpmath.lambertw`` at 40 digits.

The reference is independent of the library: its bisection oracle is not
used.  A value passes when its error is within what rounding of the
inputs allows: 16 ulp of the result, widened by the condition number
``1/|1+W|`` of W at the argument (Corless et al. 1996), which grows
without bound at the branch point.  ``digits`` is the paper's delta
metric, ``log10|ref| - log10|value - ref|``, capped at 17; magnitudes
below the smallest normal double count as that double, because a
subnormal result cannot carry more absolute precision than that.
"""

from __future__ import annotations

import mpmath

from lambertw import MOYAL_PEAK, lambert_w_approximation
from lambertw.iteration import SINGULARITY_GUARD, fritsch_step

DPS = 40
DIGITS_CAP = 17.0
ULPS = 16
EPS = 2.0 ** -52
TINY = 2.2250738585072014e-308
# |1+W| below this counts as the branch point itself: a 4-ulp step of x
# there moves W by about 3e-8.
_SINGULAR = 1e-8
# Two digit counts within this of each other, or both above the floor,
# describe the same error.
_DELTA_SLACK = 0.5
_DELTA_FLOOR = 15.0

mp = mpmath.MPContext()
mp.dps = DPS
_INV_E = mp.exp(-1)


class Reference:
    """Memoised 40-digit Lambert W of exact arguments."""

    def __init__(self):
        self._cache: dict = {}

    def w(self, branch: int, a):
        """W_branch(a); arguments at or below -1/e map to -1, as in the library."""
        a = mp.mpf(a)
        key = (branch, a)
        ref = self._cache.get(key)
        if ref is None:
            ref = mp.mpf(-1) if a <= -_INV_E else mp.lambertw(a, branch).real
            self._cache[key] = ref
        return ref


def w_tolerance(ref, widen: float = 1.0) -> float:
    """Allowed |w - ref| for a W value whose argument carries rounding error."""
    cond = 1.0 + 1.0 / max(abs(float(ref) + 1.0), _SINGULAR)
    return ULPS * EPS * max(abs(float(ref)), TINY) * cond * widen


def digits(value: float, ref, scale=None) -> float:
    err = abs(mp.mpf(value) - ref)
    if err == 0:
        return DIGITS_CAP
    size = max(abs(ref) if scale is None else scale, TINY)
    return min(DIGITS_CAP, float(mp.log10(size) - mp.log10(err)))


def stage_value(branch: int, x: float) -> float:
    """The "one-fritsch" value an accuracy sweep measures, from public calls."""
    w = lambert_w_approximation(branch, x)
    if abs(1.0 + w) <= SINGULARITY_GUARD:
        return w
    return fritsch_step(x, w)


def _check_w(refs, branch, x, value):
    ref = refs.w(branch, x)
    return [bool(abs(mp.mpf(value) - ref) <= w_tolerance(ref))], [digits(value, ref)]


def _check_sweep(refs, args, report):
    branch = args[0]
    oks, found = [], []
    for x, delta, _region in report.samples:
        ref = refs.w(branch, x)
        d = digits(stage_value(branch, x), ref)
        oks.append(abs(delta - d) <= _DELTA_SLACK or min(delta, d) >= _DELTA_FLOOR)
        found.append(d)
    return oks, found


def _check_moyal(refs, args, x):
    y, side = args
    y = min(y, MOYAL_PEAK)  # the library clamps values within 4 ulp above the peak
    w = refs.w(0 if side == "plus" else -1, -mp.mpf(y) ** 2)
    two_log = 2 * mp.log(mp.mpf(y))
    ref = w - two_log
    tol = w_tolerance(w) + ULPS * EPS * float(abs(two_log) + abs(ref))
    # x = W - 2 ln y cancels near the peak, so digits are counted
    # against the size of the two terms rather than of x.
    return [bool(abs(mp.mpf(x) - ref) <= tol)], [digits(x, ref, abs(w) + abs(two_log))]


def _check_roots(refs, args, roots):
    y, x_max = args
    t = 1 / mp.mpf(x_max)
    a = -(mp.mpf(y) ** t) * _INV_E
    # The library rounds 1/x_max before raising y to it; that error is
    # amplified by |ln y|/x_max in the argument of W.
    widen = 1.0 + float(abs(mp.log(mp.mpf(y)) * t))
    oks, found = [], []
    for branch, root in ((0, roots.left), (-1, roots.right)):
        w = refs.w(branch, a)
        ref = -x_max * w
        oks.append(bool(abs(mp.mpf(root) - ref) <= x_max * w_tolerance(w, widen)))
        found.append(digits(root, ref))
    return oks, found


def _check_array(refs, args, values):
    scalar, array = args
    branch = -1 if scalar.__name__ == "lambert_wm1" else 0
    oks, found = [], []
    for x, v in zip(array.tolist(), values.tolist()):
        good, d = _check_w(refs, branch, x, v)
        oks += good
        found += d
    return oks, found


def check(refs: Reference, op, result) -> tuple[list[bool], list[float]]:
    """Whether each value of one op's result is accepted, and its digits."""
    fn, args, kind = op
    if kind == "moyal":
        return _check_moyal(refs, args, result)
    if kind == "value":
        branch = -1 if fn.__name__ == "lambert_wm1" else 0
        return _check_w(refs, branch, args[0], result)
    if kind == "result":
        return _check_w(refs, args[0], args[1], result.value)
    if kind == "sweep":
        return _check_sweep(refs, args, result)
    if kind == "roots":
        return _check_roots(refs, args, result)
    return _check_array(refs, args, result)
