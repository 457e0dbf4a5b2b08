"""Inputs, probes and exact references that several test modules share.

Each is stated here once.  Test modules import them from here and never
from one another (``test_support.py`` checks that), so a change to a
grid is one diff.  ``perfbench/workloads.py`` keeps its own copy of the
region grid: the benchmark's files change only with the benchmark.
"""

import contextlib
import math
import signal
from fractions import Fraction

import numpy as np
import pytest

from lambertw import MINUS_INV_E, DomainError
from lambertw.approx import CONTINUED_LOG_DEPTH_BOUNDS

# The delta below which a step's result counts as deficient rather than
# rounded (acceptance criterion 3): converged values 1-2 ulp from the
# oracle read as delta 15.3-16.
CONTAINMENT_DELTA = 14.5


def region_span(region) -> tuple[float, float, bool]:
    """The ends of one dispatch region's test grid, and whether the grid
    is spread in log|x|: an unbounded region runs out to 1.7e308
    (``region.upper`` is inf) or in to -5e-324 (``region.upper`` is 0)."""
    if region.upper == math.inf:
        return region.lower, 1.7e308, True
    if region.upper == 0.0:
        return region.lower, -5e-324, True
    return region.lower, region.upper, False


def ulps_around(x: float, n: int) -> list[float]:
    """x and the n doubles on either side of it, in increasing order."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def breakpoints(regions) -> list[float]:
    """Every inner breakpoint and its two neighbouring doubles."""
    return [y for r in regions[1:] for y in ulps_around(r.lower, 1)]


def depth_bounds(n: int = 2) -> list[float]:
    """Every continued-log depth bound and the n doubles on either side of it."""
    return [y for b in CONTINUED_LOG_DEPTH_BOUNDS for y in ulps_around(b, n)]


def branch_point_band(ks) -> list[float]:
    """-1/e + k ulp for each k in ``ks``: one ulp is the same on both
    sides of -1/e, so consecutive k are consecutive doubles."""
    ulp = math.ulp(MINUS_INV_E)
    return [MINUS_INV_E + k * ulp for k in ks]


# Under the 4-ulp rounding band below -1/e, where both branches raise.
BELOW_BAND = branch_point_band([-5])[0]


def outcome(fn, *args):
    """The float.hex of fn(*args), which keeps the sign of zero, or the
    type and message of the exception it raises."""
    try:
        return fn(*args).hex()
    except Exception as exc:
        return type(exc), str(exc)


class FloatSubclass(float):
    pass


# One argument of each kind.  A real one is computed at its double; a
# numpy float16 or float32 was once carried through the arithmetic in its
# own precision.  A complex or a str raises TypeError, and an int beyond
# the double range DomainError: REJECTED names each one's error.
ARGUMENTS = {
    "int": 1, "bool": True, "huge int": 10**400, "Fraction": Fraction(3, 10),
    "float subclass": FloatSubclass(0.3), "float16": np.float16(0.3),
    "float32": np.float32(0.3), "float64": np.float64(0.3),
    "longdouble": np.longdouble(3) / 10, "int64": np.int64(2),
    "complex": 0.3 + 0j, "complex64": np.complex64(0.3), "complex128": np.complex128(0.3),
    "str": "0.3",
}
REJECTED = {"huge int": DomainError, "complex": TypeError, "complex64": TypeError,
            "complex128": TypeError, "str": TypeError}


def negated(v):
    """v with its sign flipped, in its own kind: a str gains a "-", and a
    float subclass stays one."""
    if isinstance(v, str):
        return "-" + v
    return FloatSubclass(-v) if type(v) is FloatSubclass else -v


def typed_bits(fn, v):
    """Type and float.hex of each value fn(v) returns (of each field of a
    tuple), or the type and message of the exception it raises."""
    try:
        value = fn(v)
    except Exception as exc:
        return type(exc), str(exc)
    return [(type(part), float(part).hex() if isinstance(part, float) else part)
            for part in (value if isinstance(value, tuple) else (value,))]


@contextlib.contextmanager
def time_bound(seconds):
    """Raise TimeoutError inside the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def raised(fn, *args) -> tuple[type, str]:
    """Type and message of the exception that ``fn(*args)`` raises."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def derive_branch_coefficients(n: int) -> list[Fraction]:
    """Exact coefficients b_0..b_n of the branch point series.

    Both branches may be written w = sum_i b_i p^i with
    p = +-sqrt(2*(1 + e*x)).  The b_i follow from the recurrence of
    Corless et al. (1996, section 4), with b_0 = -1, b_1 = 1, a_0 = 2,
    a_1 = -1:

        b_k = (k-1)/(k+1) * (b_{k-2}/2 + a_{k-2}/4) - a_k/2 - b_{k-1}/(k+1),
        a_k = sum_{j=2}^{k-1} b_j * b_{k+1-j}.

    n is at most 12: beyond that the series is of no practical use in
    double precision.
    """
    if not 0 <= n <= 12:
        raise ValueError(f"n must be in [0, 12], got {n}")
    b = [Fraction(-1), Fraction(1)]
    a = [Fraction(2), Fraction(-1)]
    for k in range(2, n + 1):
        a.append(sum((b[j] * b[k + 1 - j] for j in range(2, k)), Fraction(0)))
        b.append(Fraction(k - 1, k + 1) * (b[k - 2] / 2 + a[k - 2] / 4)
                 - a[k] / 2 - b[k - 1] / (k + 1))
    return b[: n + 1]


# Exact rational values of b0..b7, as published.
EXACT_TABLE = [
    Fraction(-1),
    Fraction(1),
    Fraction(-1, 3),
    Fraction(11, 72),
    Fraction(-43, 540),
    Fraction(769, 17280),
    Fraction(-221, 8505),
    Fraction(680863, 43545600),
]
