"""The two real branches of Lambert W and their common domain.

Both branches start at the branch point x = -1/e, w = -1; branch 0 runs
on to +inf and branch -1 up to 0 from below.  This module states that
domain once: the branch enum, -1/e with its rounding band, the exception
types, and the messages of the three ways an x falls outside.  The
evaluation path and the reference solver both take it from here.
"""

import math
from enum import IntEnum


class DomainError(ValueError):
    """Argument lies outside the domain of the requested branch or function."""


class SingularityError(ArithmeticError):
    """Evaluation attempted too close to a singular point of a formula."""


class Branch(IntEnum):
    """Real branch selector: only 0 and -1 exist.

    ``Branch(k)`` raises ``ValueError`` for any other ``k``, so code that
    normalizes user input through this enum gets domain checking for free.
    """

    PRINCIPAL = 0
    LOWER = -1


def invalid_branch(branch) -> ValueError:
    """The error of ``Branch(branch)``, for code that compares with 0 and -1."""
    return ValueError(f"{branch!r} is not a valid Branch")


MINUS_INV_E = -math.exp(-1.0)
# (-1/e) - MINUS_INV_E.  With it c = 1 + e*x is formed as
# e*((x - MINUS_INV_E) - _MINUS_INV_E_LO), whose difference is exact for x
# in [-0.73, -0.18] (Sterbenz), instead of cancelling e*x against 1.
_MINUS_INV_E_LO = 1.2428753672788363e-17

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
