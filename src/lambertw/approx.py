"""Initial approximations for the real branches of Lambert W.

Four families, each accurate to at least five decimal places on the
interval where the dispatcher (see :mod:`lambertw.api`) selects it:

* a power series around the branch point (-1/e, -1), usable on both
  branches through the sign of ``p = +-sqrt(2*(1 + e*x))``;
* rational fits in x, refreshed to full double precision by least
  squares (see ``tools/refit_rational.py``);
* the classic two-logarithm asymptotic expansion for large arguments;
* a continued-logarithm recursion for branch -1 near zero.

All polynomials are evaluated in Horner form, lowest coefficient last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .branches import Branch, invalid_branch
from .errors import DomainError

MINUS_INV_E = -math.exp(-1.0)

# x this far (or less) below -1/e is still treated as the branch point:
# it only arises from rounding of expressions that target -1/e exactly.
BRANCH_POINT_TOL = 4.0 * math.ulp(math.exp(-1.0))
_X_MIN = MINUS_INV_E - BRANCH_POINT_TOL


def _domain_error(x: float) -> DomainError:
    """The error for an x outside the branch domain: NaN, below -1/e,
    or else (branch -1 only) not negative."""
    if math.isnan(x):
        return DomainError("x is NaN, outside both branch domains")
    if x < _X_MIN:
        return DomainError(
            f"x = {x!r} is below the branch point bound -1/e = {MINUS_INV_E!r}"
        )
    return DomainError(f"branch -1 requires -1/e <= x < 0, got x = {x!r}")


# ---------------------------------------------------------------------------
# Branch point series
# ---------------------------------------------------------------------------

def derive_branch_coefficients(n: int) -> list[Fraction]:
    """Exact coefficients b_0..b_n of the branch point series.

    Both branches may be written w = sum_i b_i p^i with
    p = +-sqrt(2*(1 + e*x)).  The b_i follow from reverting the series of
    f(y) = 2*(e * (y - 1)*exp(y - 1) + 1), whose Taylor coefficients are
    analytic: f(y) = sum_{k>=2} 2*(k-1)/k! * y^k.  The reversion is done
    in exact rational arithmetic, so the result is reproducible bit for
    bit and usable as a test oracle for the frozen float table below.

    Parameters
    ----------
    n : int
        Highest index to produce, at most 12 (beyond that the series is
        of no practical use in double precision).

    Returns
    -------
    list of Fraction
        [b_0, ..., b_n] with b_0 = -1, b_1 = 1, b_2 = -1/3, ...
    """
    if not 0 <= n <= 12:
        raise ValueError(f"n must be in [0, 12], got {n}")
    if n == 0:
        return [Fraction(-1)]
    forward = [Fraction(0), Fraction(0)]
    forward += [Fraction(2 * (k - 1), math.factorial(k)) for k in range(2, n + 2)]
    # Solve f(u(p)) = p^2 order by order for u(p) = sum c_i p^i.  The
    # coefficient of p^(m+1) depends on c_m only through the cross term
    # 2*c_1*c_m of u^2, so each order is a linear solve with slope 2.
    c = [Fraction(0), Fraction(1)]
    for m in range(2, n + 1):
        trunc = m + 2
        composed = [Fraction(0)] * trunc
        power = [Fraction(1)] + [Fraction(0)] * (trunc - 1)
        for k in range(1, len(forward)):
            nxt = [Fraction(0)] * trunc
            for i, a in enumerate(power):
                if a == 0:
                    continue
                for j, b in enumerate(c):
                    if b == 0 or i + j >= trunc:
                        continue
                    nxt[i + j] += a * b
            power = nxt
            if forward[k] != 0:
                for i in range(trunc):
                    composed[i] += forward[k] * power[i]
        c.append(-composed[m + 1] / 2)
    return [Fraction(-1)] + c[1 : n + 1]


# Frozen float table: b_0..b_7 are the classical rationals, the rest
# come from derive_branch_coefficients and are pinned by a test.  Orders
# 10 and 11 exist because the order-9 truncation bottoms out at 4.7
# decimals at the right edge of the branch -1 series region, just under
# the five-decimal floor the dispatcher promises.
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

MAX_SERIES_ORDER = len(BRANCH_POINT_COEFFICIENTS) - 1
# b_order..b_0 per truncation order, in the order Horner's rule takes them.
_SERIES_DESCENDING = tuple(BRANCH_POINT_COEFFICIENTS[k::-1] for k in range(MAX_SERIES_ORDER + 1))


def branch_point_series(branch: int, x: float, order: int = 9) -> float:
    """Series approximation around the branch point (-1/e, -1).

    The principal branch takes the positive square root in
    p = sqrt(2*(1 + e*x)), branch -1 the negative one.  The argument of
    the root is clamped to zero when rounding drags it a few ulp below;
    anything further out is a domain error.
    """
    if branch != 0 and branch != -1:
        raise invalid_branch(branch)
    if not 1 <= order <= MAX_SERIES_ORDER:
        raise ValueError(f"order must be in [1, {MAX_SERIES_ORDER}], got {order}")
    if math.isnan(x) or x < _X_MIN:
        raise _domain_error(x)
    s = 2.0 * (1.0 + math.e * x)
    if s < 0.0:
        s = 0.0
    p = math.sqrt(s) if branch == 0 else -math.sqrt(s)
    acc = 0.0
    for c in _SERIES_DESCENDING[order]:
        acc = acc * p + c
    return acc


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
    """
    if branch != 0 and branch != -1:
        raise invalid_branch(branch)
    if math.isnan(x):
        raise _domain_error(x)
    if branch == 0:
        if x <= 1.0:
            raise DomainError(f"asymptotic form on branch 0 needs x > 1, got x = {x!r}")
        a = math.log(x)
    else:
        if not MINUS_INV_E < x < 0.0:
            raise DomainError(f"asymptotic form on branch -1 needs -1/e < x < 0, got x = {x!r}")
        a = math.log(-x)
    b = math.log(-a) if a < 0.0 else math.log(a)
    ia = 1.0 / a
    tail = (60.0 + b * (-300.0 + b * (350.0 + b * (-125.0 + b * 12.0)))) / 60.0
    tail = (-12.0 + b * (36.0 + b * (-22.0 + b * 3.0))) / 12.0 + ia * tail
    tail = (6.0 + b * (-9.0 + b * 2.0)) / 6.0 + ia * tail
    tail = (-2.0 + b) / 2.0 + ia * tail
    tail = 1.0 + ia * tail
    return a - b + b * ia * tail


# ---------------------------------------------------------------------------
# Rational fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalFit:
    """Rational approximation N(x)/D(x), optionally times a leading x.

    Coefficients are stored lowest order first; the denominator is
    normalized to D(0) = 1 so the representation is unique.
    """

    numerator: tuple[float, ...]
    denominator: tuple[float, ...]
    leading_factor_x: bool = False

    def __post_init__(self) -> None:
        if not self.numerator or not self.denominator:
            raise ValueError("numerator and denominator must be non-empty")
        if self.denominator[0] != 1.0:
            raise ValueError("denominator must be normalized to D(0) = 1")


def rational_fit_eval(fit: RationalFit, x: float) -> float:
    """Evaluate a RationalFit by Horner's rule on both polynomials."""
    num = den = 0.0
    for c in reversed(fit.numerator):
        num = num * x + c
    for c in reversed(fit.denominator):
        den = den * x + c
    return x * (num / den) if fit.leading_factor_x else num / den


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

def continued_log_recursion_wm1(x: float, depth: int = 9) -> float:
    """Continued logarithm for branch -1 on (-1/e, 0).

    R_0 = ln(-x), R_n = ln(-x) - ln(-R_{n-1}).  Converges linearly with
    ratio ~1/|W|, so it is excellent close to zero and still worth five
    decimals at depth 9 near x = -0.05.  Every R_n is <= -1: ln(-x) <= -1
    on the domain, and -ln(-R) >= 0 for R <= -1.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if math.isnan(x) or not MINUS_INV_E < x < 0.0:
        raise DomainError(
            f"continued log recursion needs -1/e < x < 0, got x = {x!r}"
        )
    log = math.log
    r = lx = log(-x)
    for _ in range(depth):
        r = lx - log(-r)
    return r


# ---------------------------------------------------------------------------
# Dispatch metadata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproximationRegion:
    """Half-open interval [lower, upper) served by one approximation."""

    branch: Branch
    lower: float
    upper: float
    kind: str

    def __contains__(self, x: float) -> bool:
        return self.lower <= x < self.upper
