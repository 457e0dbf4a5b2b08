"""Initial approximations for the real branches of Lambert W.

Four families, each accurate to at least five decimal places on the
interval where the dispatcher (see :mod:`lambertw.api`) selects it,
save branch 0's asymptotic expansion, which keeps only three beyond
x ~ 7 (4.28 at its start, x = 8.706658, and 3.68 at x = 10):

* a power series around the branch point (-1/e, -1), usable on both
  branches through the sign of ``p = +-sqrt(2*(1 + e*x))``;
* rational fits in x, refreshed to full double precision by least
  squares (see ``tools/refit_rational.py``);
* the classic two-logarithm asymptotic expansion for large arguments;
* a continued-logarithm recursion for branch -1 near zero, run to the
  depth ``continued_log_depth(x)`` that x needs: two levels below
  |x| = 2.8e-41, eight only next to the fit's region.

All polynomials are evaluated in Horner form, lowest coefficient last,
written out: the series from a table padded with zeros to order 11, so
that one expression serves every order, and the fits in the two shapes
the library ships (5/5 and 3/6 coefficients); other fits take a loop.
"""

import math
from bisect import bisect_right
from collections import namedtuple

from .branches import (_MINUS_INV_E_LO, _X_MIN, MINUS_INV_E, Branch, DomainError,
                       _domain_error, invalid_branch)


# ---------------------------------------------------------------------------
# Branch point series
# ---------------------------------------------------------------------------

# Frozen float table: b_0..b_7 are the classical rationals, the rest
# come from the recurrence of Corless et al. (1996, section 4), which
# tests/test_branch_coefficients.py runs in exact rationals to pin every
# entry.  Orders 10 and 11 exist because the order-9 truncation bottoms
# out at 4.7 decimals at the right edge of the branch -1 series region,
# just under the five-decimal floor the dispatcher promises.
BRANCH_POINT_COEFFICIENTS: tuple[float, ...] = (
    -1.0,
    1.0,
    -1 / 3,
    11 / 72,
    -43 / 540,
    769 / 17280,
    -221 / 8505,
    680863 / 43545600,
    -1963 / 204120,
    226287557 / 37623398400,
    -5776369 / 1515591000,
    169709463197 / 69528040243200,
)

_MAX_SERIES_ORDER = len(BRANCH_POINT_COEFFICIENTS) - 1
# b_0..b_order per truncation order, then zeros to b_11: each adds exactly +-0.
_SERIES_PADDED = tuple(BRANCH_POINT_COEFFICIENTS[:k + 1] + (0.0,) * (_MAX_SERIES_ORDER - k)
                       for k in range(_MAX_SERIES_ORDER + 1))
# math's functions and constants, bound once: a global is cheaper than an attribute.
_isnan, _log, _sqrt, _E, _INF = math.isnan, math.log, math.sqrt, math.e, math.inf


def branch_point_series(branch: int, x: float, order: int = 9) -> float:
    """Series approximation around the branch point (-1/e, -1).

    The principal branch takes the positive square root in
    p = sqrt(2*(1 + e*x)), branch -1 the negative one.  1 + e*x is
    formed exactly, as e*((x - fl(-1/e)) - lo) with lo the part of -1/e
    that fl(-1/e) drops, and is clamped to zero in the rounding band
    below -1/e; anything further out, and on branch -1 any x >= 0,
    raises ``dispatch_region``'s DomainError, as does a branch-0 x from
    ~3.3e307 to +inf, where 2*(1 + e*x) overflows and p has no value.
    """
    if branch != 0 and branch != -1:
        raise invalid_branch(branch)
    if not 1 <= order <= _MAX_SERIES_ORDER:
        raise ValueError(f"order must be in [1, {_MAX_SERIES_ORDER}], got {order}")
    if _isnan(x) or x < _X_MIN or (branch == -1 and x >= 0.0):
        raise _domain_error(x)
    s = 2.0 * (_E * ((x - MINUS_INV_E) - _MINUS_INV_E_LO))
    if not 0.0 <= s < _INF:
        if s == _INF:
            raise DomainError(f"branch point series needs 2(1 + e*x) finite, got x = {x!r}")
        s = 0.0
    p = _sqrt(s) if branch == 0 else -_sqrt(s)
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11 = _SERIES_PADDED[order]
    return b0 + p * (b1 + p * (b2 + p * (b3 + p * (b4 + p * (b5 + p * (
        b6 + p * (b7 + p * (b8 + p * (b9 + p * (b10 + p * b11))))))))))


# ---------------------------------------------------------------------------
# Asymptotic expansion
# ---------------------------------------------------------------------------

def asymptotic_series(branch: int, x: float) -> float:
    """Two-logarithm asymptotic form, terms through 1/a^5.

    With a = ln x, b = ln ln x on branch 0 (x > 1), and
    a = ln(-x), b = ln(-ln(-x)) on branch -1 (-1/e < x < 0):

        A(a, b) = a - b + b/a + b(-2+b)/(2a^2) + b(6-9b+2b^2)/(6a^3)
                  + b(-12+36b-22b^2+3b^3)/(12a^4)
                  + b(60-300b+350b^2-125b^3+12b^4)/(60a^5)

    The dispatcher only uses this beyond x ~ 8.7 on branch 0, where the
    truncation error is already below the 1e-3 level and falls fast.
    x = +inf on branch 0 returns +inf, as the dispatcher's seed does.
    """
    if branch != 0 and branch != -1:
        raise invalid_branch(branch)
    if _isnan(x):
        raise _domain_error(x)
    if branch == 0:
        if x <= 1.0:
            raise DomainError(f"asymptotic form on branch 0 needs x > 1, got x = {x!r}")
        if x == _INF:
            return x
        a = _log(x)
        b = _log(a)
    else:
        if not MINUS_INV_E < x < 0.0:
            raise DomainError(f"asymptotic form on branch -1 needs -1/e < x < 0, got x = {x!r}")
        a = _log(-x)
        b = _log(-a)
    ia = 1.0 / a
    tail = (60.0 + b * (-300.0 + b * (350.0 + b * (-125.0 + b * 12.0)))) / 60.0
    tail = (-12.0 + b * (36.0 + b * (-22.0 + b * 3.0))) / 12.0 + ia * tail
    tail = (6.0 + b * (-9.0 + b * 2.0)) / 6.0 + ia * tail
    tail = (-2.0 + b) / 2.0 + ia * tail
    return a - b + b * ia * (1.0 + ia * tail)


# ---------------------------------------------------------------------------
# Rational fits
# ---------------------------------------------------------------------------

class RationalFit(namedtuple("RationalFit", "numerator denominator leading_factor_x",
                             defaults=(False,))):
    """Rational approximation N(x)/D(x), optionally times a leading x
    (an immutable named tuple; ``leading_factor_x`` defaults to False).

    Coefficients are stored lowest order first; the denominator is
    normalized to D(0) = 1 so the representation is unique.
    """

    __slots__ = ()
    numerator: tuple[float, ...]
    denominator: tuple[float, ...]
    leading_factor_x: bool


def rational_fit_eval(fit: RationalFit, x: float) -> float:
    """Evaluate a RationalFit by Horner's rule on both polynomials: written
    out for the shipped shapes (5/5 and 3/6 coefficients), looped for others.
    Raises DomainError where the value is not finite (NaN or infinite x, a
    zero denominator, or an overflowing polynomial far outside the fitted
    interval)."""
    numerator, denominator, leading_factor_x = fit
    try:
        if len(numerator) == 5 and len(denominator) == 5:
            n0, n1, n2, n3, n4 = numerator
            d0, d1, d2, d3, d4 = denominator
            q = ((n0 + x * (n1 + x * (n2 + x * (n3 + x * n4))))
                 / (d0 + x * (d1 + x * (d2 + x * (d3 + x * d4)))))
        elif len(numerator) == 3 and len(denominator) == 6:
            n0, n1, n2 = numerator
            d0, d1, d2, d3, d4, d5 = denominator
            q = (n0 + x * (n1 + x * n2)) / (d0 + x * (d1 + x * (d2 + x * (d3 + x * (d4 + x * d5)))))
        else:
            num = den = 0.0
            for c in reversed(numerator):
                num = num * x + c
            for c in reversed(denominator):
                den = den * x + c
            q = num / den
    except ZeroDivisionError:
        # A zero denominator: the fit has a pole at x.
        raise DomainError(f"rational fit has no finite value at x = {x!r}") from None
    w = x * q if leading_factor_x else q
    if not -_INF < w < _INF:
        raise DomainError(f"rational fit has no finite value at x = {x!r}")
    return w


# Full-precision tables from tools/refit_rational.py: box-constrained
# least squares, each coefficient bounded to the six-decimal window it
# is conventionally printed with.  A free fit cannot reproduce them: the
# least squares valley is too shallow to pin coefficients below ~1e-3.

# Principal branch, fitted on x in [-0.3, 0], used on [-0.323581, 0.145469).
W0_FIT_1 = RationalFit(
    numerator=(1.0, 5.931375637209183, 11.392205463463618, 7.338883832457112, 0.6534496094913013),
    denominator=(1.0, 6.931373492196208, 16.82349439489298, 16.430723616796634, 5.115235352981799),
    leading_factor_x=True,
)

# Principal branch, fitted on x in [0.3, 2e], used on [0.145469, 8.706658).
W0_FIT_2 = RationalFit(
    numerator=(1.0, 2.4450530597572935, 1.3436642056045047, 0.14844027800572313, 0.0008047603289867508),
    denominator=(1.0, 3.444708962446945, 3.2924898347108655, 0.9164602678407445, 0.05306879423987136),
    leading_factor_x=True,
)

# Branch -1, fitted and used on [-0.302985, -0.051012).
WM1_FIT = RationalFit(
    numerator=(-7.814176000012631, 253.88810100000032, 657.9493179999998),
    denominator=(1.0, -60.439587999995354, 99.9856709999999, 682.6073990000001, 962.1784399999999, 1477.9341280000003),
    leading_factor_x=False,
)


# ---------------------------------------------------------------------------
# Continued logarithm
# ---------------------------------------------------------------------------

# Continued-log depth by x: 8 from the region's end -0.051012, one level
# less from each bound on (x >= bound), so 2 from -2.8e-41 to 0.  A depth
# keeps its fewest decimals where it starts, 5.30 to 5.57 (8 at -0.051012).
CONTINUED_LOG_DEPTH_BOUNDS = (-0.029, -9.6e-3, -1.04e-3, -8.4e-6, -6.4e-12, -2.8e-41)


def continued_log_depth(x: float) -> int:
    """Levels of the continued logarithm that a five-decimal seed at x
    needs on branch -1's continued-log region: 2 to 8."""
    return 8 - bisect_right(CONTINUED_LOG_DEPTH_BOUNDS, x)


def continued_log_recursion_wm1(x: float, depth: int = 9) -> float:
    """Continued logarithm for branch -1 on (-1/e, 0).

    R_0 = ln(-x), R_n = ln(-x) - ln(-R_{n-1}).  Converges linearly with
    ratio ~1/|W|, so each level gains about log10|W| decimals: depth 8
    is worth 5.57 decimals at the region's end x = -0.051012, depth 2
    from x = -2.8e-41 to zero.  The dispatcher runs it at
    ``continued_log_depth(x)``, the least depth that keeps five decimals
    at x; the default of 9 serves the whole region with a level to
    spare.  Every R_n is <= -1: ln(-x) <= -1 on the domain, and
    -ln(-R) >= 0 for R <= -1.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if _isnan(x) or not MINUS_INV_E < x < 0.0:
        raise DomainError(
            f"continued log recursion needs -1/e < x < 0, got x = {x!r}"
        )
    r = lx = _log(-x)
    for _ in range(depth):
        r = lx - _log(-r)
    return r


# ---------------------------------------------------------------------------
# Dispatch metadata
# ---------------------------------------------------------------------------

class ApproximationRegion(namedtuple("ApproximationRegion", "branch lower upper kind")):
    """Half-open interval [lower, upper) served by one approximation
    (an immutable named tuple)."""

    __slots__ = ()
    branch: Branch
    lower: float
    upper: float
    kind: str

    def __contains__(self, x: float) -> bool:
        return self.lower <= x < self.upper
