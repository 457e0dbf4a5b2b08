"""Tests for the bisection reference solver.

The oracle is the measuring stick for every accuracy claim in the
package, so its own tests use only frozen golden values, structural
checks and mpmath — never the approximation code it is meant to judge.
"""

import math
import pathlib
import re
import sys

import mpmath
import numpy as np
import pytest

from lambertw import Branch, DomainError, reference_w
from lambertw.oracle import MINUS_INV_E

EPS = math.ulp(1.0)


# Golden values, frozen from independent evaluation: each w below
# satisfies w*e^w = x to the last digit shown (checked by hand via
# w*exp(w) round-trips, e.g. 0.5671432904*e^0.5671432904 = 0.99999999986).
GOLDEN = [
    (0, 0.0, 0.0),
    (0, math.e, 1.0),
    (0, 1.0, 0.5671432904097838),
    (-1, -0.1, -3.5771520639572972),
]


@pytest.mark.parametrize("branch, x, expected", GOLDEN)
def test_golden_values(branch, x, expected):
    assert reference_w(branch, x) == pytest.approx(expected, abs=2 * math.ulp(abs(expected) + 1))


def test_omega_constant_bit_exact():
    # W0(1) rounds to this double; the bisection bracket is 1 ulp wide,
    # so the returned endpoint must be exactly the correctly rounded value.
    assert reference_w(0, 1.0) == 0.5671432904097838


@pytest.mark.parametrize("branch", [0, -1])
def test_branch_point_clamp(branch):
    assert reference_w(branch, MINUS_INV_E) == -1.0


def test_defining_identity_forward_checks():
    # Verify the golden values the cheap way: plug them back in.
    for branch, x, expected in GOLDEN:
        assert expected * math.exp(expected) == pytest.approx(x, abs=4 * EPS * max(abs(x), 1.0))


@pytest.mark.parametrize(
    "branch, xs",
    [
        (0, np.linspace(MINUS_INV_E, 0.3, 400)),
        (0, np.geomspace(0.3, 1e5, 400)),
        (0, np.geomspace(1e5, 1e300, 50)),
        (-1, np.linspace(MINUS_INV_E, -1e-6, 400)),
        (-1, -np.geomspace(1e-6, 1e-300, 50)),
    ],
)
def test_self_consistency(branch, xs):
    """|w e^w - x| small, with a condition-aware allowance.

    A correctly rounded w carries up to half an ulp of quantization,
    which the defining expression amplifies by the factor |1 + w| (its
    log-derivative), so the bound must grow with |1 + w|: a flat few-ulp
    bound is unattainable by any double-precision solver once |w| is
    large.
    """
    for x in xs:
        x = float(x)
        w = reference_w(branch, x)
        residual = abs(w * math.exp(w) - x) if w > -700 else abs(x)
        bound = (4.0 + abs(1.0 + w)) * EPS * max(abs(x), 1.0)
        assert residual <= bound, f"x={x!r}: residual {residual!r} > bound {bound!r}"


def _band(start, count):
    """``count`` consecutive doubles upward from ``start``."""
    xs = [start]
    for _ in range(count - 1):
        xs.append(math.nextafter(xs[-1], math.inf))
    return xs


# Both branches over the whole double range: the 17 doubles from -1/e up,
# linear panels, and log grids from the smallest subnormal to near the
# largest double.
MPMATH_POINTS = [
    *((0, x) for x in _band(MINUS_INV_E, 17)),
    *((-1, x) for x in _band(MINUS_INV_E, 17)),
    *((0, x) for x in np.linspace(MINUS_INV_E, 0.3, 60)),
    *((-1, x) for x in np.linspace(MINUS_INV_E, -1e-6, 60)),
    *((0, x) for x in np.geomspace(5e-324, 1.7e308, 150)),
    *((0, x) for x in -np.geomspace(5e-324, 0.36, 60)),
    *((-1, x) for x in -np.geomspace(5e-324, 0.36, 150)),
]


def test_agrees_with_mpmath_over_the_double_range():
    """Within a few ulp of mpmath at 40 digits, allowing for the
    conditioning 1/|1+W| near the branch point, where rounding x alone
    moves W that much.  fl(-1/e) lies just below -1/e, where mpmath's W
    is complex with real part -1; the allowance there covers its
    imaginary part."""
    tiny = sys.float_info.min
    failures = []
    with mpmath.workdps(40):
        for branch, x in MPMATH_POINTS:
            x = float(x)
            exact = mpmath.lambertw(x, branch)
            w = reference_w(branch, x)
            size = max(float(abs(exact)), tiny)
            tol = 4.0 * EPS * size * (1.0 + 1.0 / max(float(abs(1 + exact)), 1e-8))
            if abs(mpmath.mpf(w) - exact) > tol:
                failures.append((branch, x, w, complex(exact)))
    assert failures == []


def test_extreme_arguments():
    w = reference_w(0, 1e300)
    assert w * math.exp(w) == pytest.approx(1e300, rel=1e-13)
    assert reference_w(0, 1e-300) == pytest.approx(1e-300, rel=1e-12)
    w = reference_w(-1, -1e-300)
    assert w * math.exp(w) == pytest.approx(-1e-300, rel=1e-12)
    assert reference_w(0, math.inf) == math.inf


def test_monotone_spot_checks():
    xs = np.linspace(MINUS_INV_E, 5.0, 200)
    w0 = [reference_w(0, float(x)) for x in xs]
    assert all(a < b for a, b in zip(w0, w0[1:]))
    xs = np.linspace(MINUS_INV_E, -1e-3, 200)
    wm1 = [reference_w(-1, float(x)) for x in xs]
    assert all(a > b for a, b in zip(wm1, wm1[1:]))


@pytest.mark.parametrize(
    "branch, x",
    [
        (0, MINUS_INV_E - 1e-10),
        (-1, MINUS_INV_E - 1e-10),
        (-1, 0.0),
        (-1, 0.5),
        (0, -math.inf),
        (0, math.nan),
        (-1, math.nan),
    ],
)
def test_domain_errors(branch, x):
    with pytest.raises(DomainError):
        reference_w(branch, x)


def test_rejects_other_branches():
    with pytest.raises(ValueError):
        reference_w(2, 1.0)
    with pytest.raises(ValueError):
        Branch(1)


def test_structural_independence():
    """The oracle module must not import any approximation machinery."""
    import lambertw.oracle as oracle_module

    source = pathlib.Path(oracle_module.__file__).read_text(encoding="utf-8")
    forbidden = re.findall(r"from\s+\.(approx|iteration|api|accuracy)\b|import\s+lambertw\.(approx|iteration|api|accuracy)\b", source)
    assert forbidden == [], f"oracle imports approximation code: {forbidden}"
