"""Tests for the reference solver: bracketed Newton, one-ulp bracket.

The oracle is the measuring stick for every accuracy claim in the
package, so its own tests use only frozen golden values, structural
checks and mpmath — never the approximation code it is meant to judge.
"""

import math
import pathlib
import random
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from lambertw import Branch, DomainError, default_panels, reference_w
from lambertw import oracle
from lambertw.branches import MINUS_INV_E
from support import branch_point_band, outcome, time_bound

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
    # W0(1) rounds to this double; the final bracket is 1 ulp wide,
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


# Both branches over the whole double range: the 17 doubles from -1/e up,
# linear panels, and log grids from the smallest subnormal to near the
# largest double.
MPMATH_POINTS = [
    *((0, x) for x in branch_point_band(range(17))),
    *((-1, x) for x in branch_point_band(range(17))),
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


def _strata(lo, hi, count, seed):
    """One value drawn uniformly from each of ``count`` equal strata of
    [lo, hi]."""
    rng = random.Random(seed)
    return [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]


def _log_strata(lo, hi, count, seed, sign=1.0):
    """``sign * 10**e`` for ``e`` stratified over [lo, hi]."""
    return [sign * 10.0 ** e for e in _strata(lo, hi, count, seed)]


_LOG10_TINY = math.log10(sys.float_info.min)
_LOG10_SUBNORMAL_MIN = math.log10(5e-324)

# Every formulation away from the shifted zone x <= -0.2, by branch.
# The plain branch-0 zone is sampled linearly over (-0.2, e] and in
# log|x| on both sides of 0 down to the smallest subnormal.
UNSHIFTED_ZONES = {
    "plain, branch 0": [
        (0, x)
        for x in _strata(-0.2, math.e, 1000, 1)
        + _log_strata(_LOG10_SUBNORMAL_MIN, math.log10(0.2), 1000, 2)
        + _log_strata(_LOG10_SUBNORMAL_MIN, math.log10(0.2), 1000, 3, sign=-1.0)
        if x > -0.2
    ],
    "x > e, branch 0": [(0, x) for x in _log_strata(math.log10(math.e), 308.25, 1000, 4)],
    "plain, branch -1": [(-1, x) for x in _log_strata(_LOG10_TINY, math.log10(0.2), 1000, 5, sign=-1.0)],
    "log space, branch -1": [
        (-1, x) for x in _log_strata(_LOG10_SUBNORMAL_MIN, _LOG10_TINY, 1000, 6, sign=-1.0)
    ],
}


@pytest.mark.parametrize("zone", UNSHIFTED_ZONES)
def test_within_one_and_a_half_ulp_of_mpmath_off_the_shifted_zone(zone):
    """Away from the branch point the oracle is within 1.5 ulp of mpmath
    at 40 digits, with no allowance for conditioning: x is exact, and
    these formulations resolve the root to the last bit or the one
    before it."""
    points = UNSHIFTED_ZONES[zone]
    assert len(points) >= 1000
    worst = 0.0
    with mpmath.workdps(40):
        for branch, x in points:
            exact = mpmath.lambertw(x, branch).real
            error = float(abs(mpmath.mpf(reference_w(branch, x)) - exact)) / math.ulp(float(exact))
            worst = max(worst, error)
    assert worst <= 1.5, f"{zone}: worst error {worst:.3f} ulp"


def _recorded_solves(points):
    """``(fd, a, lo, hi, start, root)`` of every solve that ``reference_w``
    runs on ``points``."""
    solves = []
    solve = oracle._solve

    def record(fd, a, lo, hi, start):
        root = solve(fd, a, lo, hi, start)
        solves.append((fd, a, lo, hi, start, root))
        return root

    oracle._solve = record
    try:
        for branch, x in points:
            reference_w(branch, float(x))
    finally:
        oracle._solve = solve
    return solves


# Zones where the rounded residual changes sign once near the root.  The
# plain branch-0 form is not among them: for about 3% of its x the
# rounding noise of y*exp(y) - x flips the sign over a few ulp, and the
# shifted zone is noisy by construction near -1/e.
WELL_CONDITIONED = [
    *UNSHIFTED_ZONES["x > e, branch 0"][::5],
    *UNSHIFTED_ZONES["plain, branch -1"][::5],
    *UNSHIFTED_ZONES["log space, branch -1"][::5],
]


def test_start_point_sets_only_the_speed():
    """Any start gives the same double when the root is the only double
    of its sign change.  That excludes x where the rounded residual is
    exactly 0 at two adjacent doubles, which the log-space form has at
    about 1 x in 100: either zero is then a valid result."""
    solves = _recorded_solves(WELL_CONDITIONED)
    assert len(solves) == len(WELL_CONDITIONED)
    isolated = [
        (fd, a, lo, hi, start, root)
        for fd, a, lo, hi, start, root in solves
        if fd(math.nextafter(root, -math.inf), a)[0] != 0.0
        and fd(math.nextafter(root, math.inf), a)[0] != 0.0
    ]
    assert len(isolated) >= 0.95 * len(solves)
    for fd, a, lo, hi, start, root in isolated:
        for other in (lo, hi, lo + 0.001 * (hi - lo), hi - 0.001 * (hi - lo), 0.5 * (lo + hi)):
            assert oracle._solve(fd, a, lo, hi, other) == root, (lo, hi, start, other)


def test_root_is_the_better_end_of_a_one_ulp_sign_change():
    """Every solve, noisy zones included, ends on adjacent doubles whose
    residuals differ in sign and returns the one with the smaller |f|."""
    for fd, a, lo, hi, start, root in _recorded_solves(MPMATH_POINTS):
        f = fd(root, a)[0]
        if f == 0.0:
            continue
        other = fd(math.nextafter(root, hi if f < 0.0 else lo), a)[0]
        assert (f < 0.0) != (other < 0.0) and abs(f) <= abs(other), (lo, hi, root)


def _evaluation_counts(points):
    """Residual evaluations of every solve that ``reference_w`` runs on
    ``points``, each solve replayed from its start."""
    counts = []
    for fd, a, lo, hi, start, root in _recorded_solves(points):
        calls = [0]

        def counted(t, a, fd=fd):
            calls[0] += 1
            return fd(t, a)

        assert oracle._solve(counted, a, lo, hi, start) == root
        counts.append(calls[0])
    return counts


def _count_points():
    """The mpmath points and both branches' default panels."""
    points = [(branch, float(x)) for branch, x in MPMATH_POINTS]
    for branch in (0, -1):
        points += [(branch, x) for grid in default_panels(branch) for x in grid.points()]
    return points


def test_at_most_10_evaluations_per_solve():
    """Over the mpmath points and the default panels, no solve takes more
    than 10 evaluations, and the mean stays near the two or three that
    Newton needs from starts refined to within about 1e-7: the given
    bracket ends are evaluated only where the solve reads them."""
    counts = _evaluation_counts(_count_points())
    assert len(counts) > 4000
    assert max(counts) <= 10
    assert sum(counts) / len(counts) <= 2.2


def test_residuals_are_module_level_functions():
    """Every residual ``reference_w`` solves is a function of the oracle
    module taking its parameter as an argument, not a closure built per
    call, which costs about 6% of a sweep."""
    residuals = {fd for fd, *_ in _recorded_solves(_count_points())}
    assert len(residuals) == 6
    for fd in residuals:
        assert fd.__closure__ is None and getattr(oracle, fd.__name__) is fd, fd


def test_shifted_zone_solves_start_near_the_root():
    """In the shifted zone x <= -0.2 the ninth-order branch point series,
    refined by two Iacono-Boyd steps in log1p form, and a bracket in w
    itself keep the solve short, although the rounded residual there is
    noisy over a few ulp."""
    shifted = [(branch, x) for branch, x in _count_points()
               if x <= -0.2 and 1.0 + math.e * x > 0.0]
    counts = _evaluation_counts(shifted)
    assert len(counts) > 700
    assert max(counts) <= 10
    assert sum(counts) / len(counts) <= 2.6


@pytest.mark.parametrize("branch", [0, -1])
def test_shifted_zone_start_is_within_4_ulp_next_to_the_branch_point(branch):
    """From 1e-16 to 1e-3 above -1/e the refined start is within 4 ulp of
    the root: the steps form 1 + ln(x/w) as log1p(-c) - log1p(-(1 + w)),
    which does not cancel there as the plain form does."""
    points = [(branch, MINUS_INV_E + offset) for offset in np.geomspace(1e-16, 1e-3, 200)]
    solves = _recorded_solves(points)
    assert len(solves) == len(points)
    worst = max(abs(start - root) / math.ulp(root) for fd, a, lo, hi, start, root in solves)
    assert worst <= 4.0, f"worst start {worst} ulp from the root"


def test_solver_rejects_a_bracket_without_a_sign_change():
    with pytest.raises(ValueError, match="not bracketed"):
        oracle._solve(lambda t, a: (t - a, 1.0), 5.0, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="not bracketed"):
        oracle._solve(lambda t, a: (t + a, 1.0), 5.0, 0.0, 1.0, 0.5)


@pytest.mark.parametrize("fd", [lambda t: (t - 1.5, 1.0), lambda t: (t + 0.5, 1.0)])
def test_solver_rejects_a_wrong_sign_first_read_at_the_close(fd):
    """Every point inside the bracket has the sign of one end, so the
    other end is first evaluated when the one-ulp bracket closes on it,
    and its sign is checked there; the message names the given bracket.
    The first read is the start inside (0, 1), and an interior point,
    the midpoint, for a start on an end or outside."""
    for start in (0.5, 0.0, 2.0):
        reads = []

        def recorded(t, a):
            reads.append(t)
            return fd(t)

        with pytest.raises(ValueError, match=re.escape("not bracketed by [0.0, 1.0]")):
            oracle._solve(recorded, 0.0, 0.0, 1.0, start)
        first = start if 0.0 < start < 1.0 else oracle._midpoint(0.0, 1.0)
        assert reads[0] == first and 0.0 < first < 1.0, start
        assert reads[-1] in (0.0, 1.0) and reads.count(reads[-1]) == 1, start


def test_a_start_outside_the_bracket_gives_the_same_root():
    """A start outside (lo, hi) is never evaluated: the first point is the
    midpoint of the bracket, and the solve closes on the same one-ulp
    bracket."""
    solves = _recorded_solves(WELL_CONDITIONED[::4])
    for fd, a, lo, hi, start, root in solves:
        for outside in (lo - 1.0, hi + 1.0, math.inf):
            assert oracle._solve(fd, a, lo, hi, outside) == root, (lo, hi, start, outside)


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


# x in the shifted zone (-0.3 and -0.2), in the plain zones of both
# branches, past e and below -1/e, in every real numpy scalar type that
# holds it.
_REAL_XS = [-0.3, -0.2, -1e-5, 0.5, 30.0, -1.0]
_INTEGER_XS = [0, 1, 2, 100, -1]
NUMERIC_XS = {
    **{t.__name__: [t(v) for v in _REAL_XS]
       for t in (np.float16, np.float32, np.float64, np.longdouble)},
    **{t.__name__: [t(v) for v in _INTEGER_XS] for t in (np.int8, np.int16, np.int32, np.int64)},
    **{t.__name__: [t(v) for v in _INTEGER_XS if v >= 0]
       for t in (np.uint8, np.uint16, np.uint32, np.uint64)},
    "bool_": [np.False_, np.True_],
    "int": _INTEGER_XS,
    "bool": [False, True],
    "Fraction": [Fraction(v) for v in _REAL_XS],
}


@pytest.mark.parametrize("kind", NUMERIC_XS)
def test_any_real_x_is_solved_at_its_double(kind):
    """Each x gives what float(x) gives, bit for bit, errors included.
    A longdouble x in the shifted zone once kept its precision in
    c = 1 + e*x, left the solve a bracket narrower than one double's ulp
    and never returned: the time bound makes that a failure."""
    for x in NUMERIC_XS[kind]:
        for branch in (0, -1):
            with time_bound(5.0):
                result = outcome(reference_w, branch, x)
            assert result == outcome(reference_w, branch, float(x)), (branch, x)


def test_a_str_x_raises_type_error():
    with pytest.raises(TypeError):
        reference_w(0, "0.5")


def test_structural_independence():
    """The oracle module must not import any approximation machinery."""
    import lambertw.oracle as oracle_module

    source = pathlib.Path(oracle_module.__file__).read_text(encoding="utf-8")
    forbidden = re.findall(r"from\s+\.(approx|iteration|api|accuracy)\b|import\s+lambertw\.(approx|iteration|api|accuracy)\b", source)
    assert forbidden == [], f"oracle imports approximation code: {forbidden}"
