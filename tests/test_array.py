"""The ndarray path of ``lambert_w0`` and ``lambert_wm1``.

An x with a dtype is evaluated by a second, written-out copy of the
scalar path's seed and step arithmetic.  These tests tie that copy to
the scalar functions bit for bit, over every dispatch region, its
breakpoints and the edges of the double range, and pin the array
contract: shape, float64 arithmetic, and the scalar path's errors.
"""

import math
import re
import sys

import numpy as np
import pytest

from lambertw import (
    MINUS_INV_E,
    W0_REGIONS,
    WM1_REGIONS,
    DomainError,
    continued_log_recursion_wm1,
    lambert_w0,
    lambert_w_approximation,
    lambert_wm1,
)

POINTS_PER_REGION = 500
FUNCTIONS = {0: lambert_w0, -1: lambert_wm1}


def _region_points(region, seed: int, n: int = POINTS_PER_REGION) -> np.ndarray:
    """n points of one region: half evenly spread (in log|x| for the
    unbounded regions), half drawn at random in the same measure."""
    rng = np.random.default_rng(seed)
    even, drawn = np.linspace(0.0, 1.0, n // 2, endpoint=False), rng.random(n - n // 2)
    t = np.concatenate([even, drawn])
    if region.kind == "asymptotic":
        xs = np.exp(np.log(region.lower) + t * (np.log(1.7e308) - np.log(region.lower)))
    elif region.kind == "continued-log":
        xs = -np.exp(np.log(-region.lower) + t * (np.log(5e-324) - np.log(-region.lower)))
    else:
        xs = region.lower + t * (region.upper - region.lower)
    return np.clip(xs, min(region.lower, region.upper), max(region.lower, region.upper))


def _breakpoints(regions) -> list[float]:
    """Every inner breakpoint and its two neighbouring doubles."""
    return [y for r in regions[1:]
            for y in (math.nextafter(r.lower, -math.inf), r.lower, math.nextafter(r.lower, math.inf))]


def _band() -> list[float]:
    ulp = math.ulp(MINUS_INV_E)
    return [MINUS_INV_E + k * ulp for k in range(-4, 17)]


EDGES = {
    0: [5e-324, 1e-320, 2.2250738585072014e-308, -5e-324, -1e-310, 0.0, -0.0, 1.7e308,
        math.inf],
    -1: [-5e-324, -1e-320, -8e-310, -2.2250738585072014e-308],
}


def _inputs(branch: int) -> np.ndarray:
    regions = W0_REGIONS if branch == 0 else WM1_REGIONS
    parts = [_region_points(r, seed) for seed, r in enumerate(regions)]
    parts.append(np.array(_breakpoints(regions) + _band() + EDGES[branch]))
    return np.concatenate(parts)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _scalar(branch: int, xs: np.ndarray) -> np.ndarray:
    fn = FUNCTIONS[branch]
    return np.array([fn(x) for x in xs.tolist()])


@pytest.mark.parametrize("branch", [0, -1])
def test_array_equals_scalar_bit_for_bit(branch):
    xs = _inputs(branch)
    assert xs.size >= POINTS_PER_REGION * len(W0_REGIONS if branch == 0 else WM1_REGIONS)
    out = FUNCTIONS[branch](xs)
    assert out.dtype == np.float64 and out.shape == xs.shape
    np.testing.assert_array_equal(_bits(out), _bits(_scalar(branch, xs)))


# The kernel's Fritsch step checks neither the signs of x and w nor its
# denominator, and the continued logarithm does not check that it stays
# on branch -1.  These tests pin why no input can need those checks, so
# that a seed change that breaks the reasoning fails here.


def _finite_seed_inputs(branch: int) -> list[float]:
    """``_inputs`` plus ten times as many region points, without x = +inf."""
    regions = W0_REGIONS if branch == 0 else WM1_REGIONS
    dense = [_region_points(r, 10 + seed, 10 * POINTS_PER_REGION) for seed, r in enumerate(regions)]
    xs = np.concatenate([_inputs(branch), *dense]).tolist()
    return [x for x in xs if x != math.inf]


@pytest.mark.parametrize("branch", [0, -1])
def test_every_seed_is_exact_or_has_the_sign_of_x_away_from_minus_one(branch):
    for x in _finite_seed_inputs(branch):
        w = lambert_w_approximation(branch, x)
        if x == 0.0:
            assert w == 0.0, x
        elif x <= MINUS_INV_E:  # -1/e and the clamped band below it
            assert w == -1.0, x
        else:
            assert w != 0.0 and w != -1.0 and (w > 0.0) == (x > 0.0), (x, w)
            assert abs(1.0 + w) >= 1e-8, (x, w)


@pytest.mark.parametrize("branch", [0, -1])
def test_fritsch_denominator_from_every_stepped_seed_is_nonzero(branch):
    for x in _finite_seed_inputs(branch):
        w = lambert_w_approximation(branch, x)
        if w == 0.0 or w == -1.0:
            continue
        ratio = x / w
        if ratio < sys.float_info.min:
            z = math.log(abs(x)) - math.log(abs(w)) - w
        else:
            z = math.log(ratio) - w
        q = 2.0 * (1.0 + w) * (1.0 + w + (2.0 / 3.0) * z)
        assert abs(q - 2.0 * z) > 1e-16, (x, w)


@pytest.mark.parametrize("depth", range(10))
def test_continued_log_iterates_stay_at_or_below_minus_one(depth):
    ulp = math.ulp(MINUS_INV_E)
    near = [MINUS_INV_E + k * ulp for k in range(1, 17)]
    spread = (-np.geomspace(-MINUS_INV_E, 5e-324, 2000)[1:-1]).tolist()
    for x in [*near, *spread, -1e-320, -5e-324]:
        assert continued_log_recursion_wm1(x, depth) <= -1.0, x


@pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 2)])
def test_shape_is_kept(shape):
    xs = np.linspace(-0.3, 5.0, math.prod(shape)).reshape(shape)
    out = lambert_w0(xs)
    assert out.shape == shape and out.dtype == np.float64
    np.testing.assert_array_equal(_bits(out.ravel()), _bits(_scalar(0, xs.ravel())))


def test_non_contiguous_input():
    base = -np.geomspace(1e-300, 0.3, 24).reshape(4, 6)
    for view in (base[:, ::2], base.T, np.asfortranarray(base)):
        assert not view.flags.c_contiguous
        out = lambert_wm1(view)
        assert out.shape == view.shape
        expected = np.vectorize(lambert_wm1, otypes=[np.float64])(view.tolist())
        np.testing.assert_array_equal(_bits(out), _bits(expected))


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_empty_input(shape):
    for fn in FUNCTIONS.values():
        out = fn(np.empty(shape))
        assert out.shape == shape and out.dtype == np.float64


def test_int_and_float32_are_computed_in_float64():
    ints = np.array([0, 1, 2, 100], dtype=np.int64)
    out = lambert_w0(ints)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(_bits(out), _bits([lambert_w0(float(v)) for v in ints]))
    halves = np.array([0.5, -0.2, 3.0], dtype=np.float32)
    out = lambert_w0(halves)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(_bits(out), _bits([lambert_w0(float(v)) for v in halves]))


@pytest.mark.parametrize("branch, scalar", [
    (0, np.float32(0.5)), (0, np.float64(0.5)), (0, np.float16(0.5)), (0, np.array(0.5)),
    (-1, np.float32(-0.25)), (-1, np.array(-0.25, dtype=np.float32)),
])
def test_zero_d_input_returns_the_float64_value_as_a_float(branch, scalar):
    # lambert_w0(np.float32(0.5)) used to come back as float32 0.35173368.
    value = FUNCTIONS[branch](scalar)
    assert type(value) is float
    assert value == FUNCTIONS[branch](float(scalar))


def _scalar_message(fn, x: float) -> str:
    with pytest.raises(DomainError) as info:
        fn(x)
    return str(info.value)


BELOW = MINUS_INV_E - 5 * math.ulp(math.exp(-1.0))


@pytest.mark.parametrize("branch, bad", [(0, math.nan), (-1, math.nan), (0, BELOW),
                                         (-1, BELOW), (0, -math.inf), (-1, 0.0), (-1, 0.5),
                                         (-1, math.inf)])
def test_bad_element_raises_the_scalar_error(branch, bad):
    fn = FUNCTIONS[branch]
    good = -0.2
    xs = np.array([[good, bad], [good, good]])
    with pytest.raises(DomainError, match=re.escape(_scalar_message(fn, bad))):
        fn(xs)


def test_first_bad_element_in_c_order_is_named():
    # In C order nan (0.0) comes first, in memory order -1.0 (0.5).
    xs = np.asfortranarray(np.array([[0.5, math.nan], [-1.0, 1.0]]))
    with pytest.raises(DomainError, match="NaN"):
        lambert_w0(xs)
    xs = np.asfortranarray(np.array([[-0.2, 0.0], [0.5, -0.1]]))
    with pytest.raises(DomainError, match=re.escape(_scalar_message(lambert_wm1, 0.0))):
        lambert_wm1(xs)


# A list, and lambert_w with an array, are in test_api's
# test_non_scalar_x_raises_type_error.
@pytest.mark.parametrize("fn", [lambert_w0, lambert_wm1])
def test_a_tuple_still_raises_type_error(fn):
    with pytest.raises(TypeError):
        fn((-0.2,))


@pytest.mark.parametrize("xs", [np.array([0.5 + 1j]), np.array(["0.5"]),
                                np.array([0.5], dtype=object)])
def test_non_real_dtype_raises_type_error(xs):
    with pytest.raises(TypeError):
        lambert_w0(xs)
