"""Tests for the exact coefficients of the branch-point expansion.

The expansion W = sum_i b_i p^i with p = +-sqrt(2(1 + e x)) has exactly
known rational coefficients.  ``support.derive_branch_coefficients``
recomputes them by the recurrence of Corless et al. (1996) in exact
Fraction arithmetic; its output anchors the frozen float table used at
evaluation time.
"""

import math
from fractions import Fraction

import pytest

from lambertw import BRANCH_POINT_COEFFICIENTS
from support import EXACT_TABLE, derive_branch_coefficients


# b8..b12, as reverting the forward series order by order gives them.
EXACT_HIGHER_ORDERS = [
    Fraction(-1963, 204120),
    Fraction(226287557, 37623398400),
    Fraction(-5776369, 1515591000),
    Fraction(169709463197, 69528040243200),
    Fraction(-1118511313, 709296588000),
]


def test_lowest_order_is_square_root_behavior():
    assert derive_branch_coefficients(1) == [Fraction(-1), Fraction(1)]


def test_first_four_coefficients():
    assert derive_branch_coefficients(3) == EXACT_TABLE[:4]


def test_published_table_exact_as_rationals():
    derived = derive_branch_coefficients(7)
    assert derived == EXACT_TABLE
    assert derived[7] == Fraction(680863, 43545600)


def test_higher_orders_exact_as_rationals():
    full = EXACT_TABLE + EXACT_HIGHER_ORDERS
    for n in range(13):
        assert derive_branch_coefficients(n) == full[: n + 1]


def test_results_are_fractions():
    assert all(isinstance(b, Fraction) for b in derive_branch_coefficients(5))


def test_frozen_float_table_matches_reversion():
    """Every frozen coefficient is the exact one, correctly rounded."""
    derived = derive_branch_coefficients(len(BRANCH_POINT_COEFFICIENTS) - 1)
    for i, frozen in enumerate(BRANCH_POINT_COEFFICIENTS):
        exact_as_float = float(derived[i])
        assert abs(frozen - exact_as_float) <= math.ulp(abs(exact_as_float)), (
            f"b{i}: frozen {frozen!r} vs derived {exact_as_float!r}"
        )
    # The published entries must agree bit-for-bit.
    for i in range(8):
        assert BRANCH_POINT_COEFFICIENTS[i] == float(EXACT_TABLE[i])


def test_order_bounds():
    assert len(derive_branch_coefficients(12)) == 13
    with pytest.raises(ValueError):
        derive_branch_coefficients(13)
    with pytest.raises(ValueError):
        derive_branch_coefficients(-1)
