"""Seeded inputs and operations for the benchmark's workloads.

Every workload turns ``--seed`` into a list of operations.  An operation
is ``(fn, args, kind)``: the timed part is ``fn(*args)``, and ``kind``
tells the untimed checker how to read the result.  The library receives
only the generated arguments, never the seed.

Inputs are stratified: a range cut into ``n`` equal cells (in x, or in
log|x| for the log-spaced regions) gets the middle of every cell.  The
seed sets the order of the operations and nothing else, so every run
evaluates the same values.  That keeps the rare edge-of-range cases, such
as the subnormal tail or the asymptotic region beyond 5e29, in every run,
and it keeps the worst accuracy steady: next to the edge of a known
defect the error changes erratically with the last bits of x, so moving a
point within its cell would change the worst case from run to run.
"""

from __future__ import annotations

import math
import random

import numpy as np

from lambertw import (
    MINUS_INV_E,
    MOYAL_PEAK,
    W0_REGIONS,
    WM1_REGIONS,
    GridSpec,
    accuracy_sweep,
    default_panels,
    gh_inverse,
    lambert_w,
    lambert_w0,
    lambert_wm1,
    moyal_inverse,
)

WORKLOADS = ("scalar-mix", "sweep-panels", "physics-inverse", "bulk-array")

# Largest and smallest magnitudes drawn in the two unbounded regions.
X_MAX = 1.7e308
X_TINY = 5e-324

# Fixed offsets, in ulp of 1/e, of the -1/e band added to every
# branch-point-series region; negative offsets lie in the 4-ulp band
# below -1/e that the library maps to the branch point itself.
BAND_ULPS = tuple(range(-4, 17))

SCALAR_POINTS_PER_REGION = 2000
SWEEP_POINTS = 4
PHYSICS_OPS = 6000
BULK_LENGTH = 32
BULK_ARRAYS_PER_BRANCH = 512


def _cells(lo: float, hi: float, n: int) -> list[float]:
    """Middles of n equal cells of [lo, hi]."""
    return [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]


def _log_cells(lo: float, hi: float, n: int) -> list[float]:
    """Middles of n cells equal in log|x| between lo and hi (same sign, nonzero)."""
    sign = math.copysign(1.0, lo)
    small, large = sorted((abs(lo), abs(hi)))
    return [sign * min(max(math.exp(t), small), large)
            for t in _cells(math.log(abs(lo)), math.log(abs(hi)), n)]


def _scatter(values: list, stride: int = 7919) -> list:
    """A fixed permutation that spreads neighbouring values apart (7919 is
    prime, so coprime with any list length used here)."""
    return [values[i * stride % len(values)] for i in range(len(values))]


def _band() -> list[float]:
    ulp = math.ulp(MINUS_INV_E)
    return [MINUS_INV_E + k * ulp for k in BAND_ULPS]


def region_points(region, n: int) -> list[float]:
    """n inputs spread over one dispatch region of ``lambertw.api``."""
    if region.kind == "asymptotic":
        return _log_cells(region.lower, X_MAX, n)
    if region.kind == "continued-log":
        return _log_cells(region.lower, -X_TINY, n)
    if region.kind == "branch-point-series":
        band = _band()
        return band + _cells(region.lower, region.upper, n - len(band))
    return _cells(region.lower, region.upper, n)


def branch_points(branch: int, per_region: int) -> list[float]:
    regions = W0_REGIONS if branch == 0 else WM1_REGIONS
    return [x for region in regions for x in region_points(region, per_region)]


def scalar_mix(seed: int, per_region: int = SCALAR_POINTS_PER_REGION) -> list[tuple]:
    """Single-value calls, equally many per seed region, static and runtime branch."""
    static = {0: lambert_w0, -1: lambert_wm1}
    ops = []
    for branch in (0, -1):
        for i, x in enumerate(branch_points(branch, per_region)):
            if i % 2:
                ops.append((lambert_w, (branch, x), "result"))
            else:
                ops.append((static[branch], (x,), "value"))
    random.Random(seed).shuffle(ops)
    return ops


def sweep_panels(seed: int, points: int = SWEEP_POINTS) -> list[tuple]:
    """One-Fritsch accuracy sweeps over consecutive sub-grids of the default panels.

    The sub-grids tile every panel exactly; the seed sets the order in
    which they are visited.
    """
    ops = []
    for branch in (0, -1):
        for panel in default_panels(branch):
            xs = [float(x) for x in panel.points()]
            for j in range(0, len(xs) - points + 1, points):
                grid = GridSpec(panel.kind, xs[j], xs[j + points - 1], points)
                ops.append((accuracy_sweep, (branch, "one-fritsch", grid), "sweep"))
    random.Random(seed).shuffle(ops)
    return ops


def _profile_values(top: float, n: int, near_top: list[float]) -> list[float]:
    """Values in (0, top]: mostly uniform, a log-uniform tail down to the
    smallest double, and a fixed set at and around the peak value."""
    n_log = n // 8
    return (near_top + _cells(0.0, top, n - n_log - len(near_top))
            + _log_cells(X_TINY, top, n_log))


def physics_inverse(seed: int, n_ops: int = PHYSICS_OPS) -> list[tuple]:
    """Moyal inverses on either side of the peak and Gaisser-Hillas
    inverses, a third of the ops each, over their whole value ranges.

    With as many Moyal as Gaisser-Hillas ops the median op would be the
    dearest Moyal or the cheapest Gaisser-Hillas one, an extreme of either
    group, and would jump between the two from run to run.
    """
    third = n_ops // 3
    ulp = math.ulp(MOYAL_PEAK)
    # Up to 4 ulp above the peak is accepted and clamped by moyal_inverse.
    moyal_top = [MOYAL_PEAK + k * ulp for k in range(-8, 5)]
    gh_top = [1.0 - k * math.ulp(0.5) for k in range(0, 9)]
    ys = _profile_values(MOYAL_PEAK, 2 * third, moyal_top)
    gs = _profile_values(1.0, third, gh_top)
    x_maxes = _scatter(_log_cells(1.0, 100.0, third))
    ops = [(moyal_inverse, (y, "plus" if i % 2 == 0 else "minus"), "moyal")
           for i, y in enumerate(ys)]
    ops += [(gh_inverse, (y, x_max), "roots") for y, x_max in zip(gs, x_maxes)]
    random.Random(seed).shuffle(ops)
    return ops


def elementwise(fn, array):
    """Stand-in array path: the scalar function mapped over the elements."""
    return np.array([fn(v) for v in array.tolist()])


def native(fn, array):
    """The array path of the library itself."""
    return fn(array)


def native_array_path() -> bool:
    """True when ``lambert_w0`` accepts an ndarray itself."""
    try:
        lambert_w0(np.array([0.5, 1.0]))
    except TypeError:
        return False
    return True


def bulk_array(seed: int, length: int = BULK_LENGTH,
               arrays_per_branch: int = BULK_ARRAYS_PER_BRANCH) -> list[tuple]:
    """Fixed-length float64 arrays per branch, drawn as in scalar-mix."""
    path = native if native_array_path() else elementwise
    ops = []
    for branch, fn in ((0, lambert_w0), (-1, lambert_wm1)):
        regions = len(W0_REGIONS if branch == 0 else WM1_REGIONS)
        xs = _scatter(branch_points(branch, -(-length * arrays_per_branch // regions)))
        for k in range(arrays_per_branch):
            array = np.array(xs[k * length:(k + 1) * length], dtype=np.float64)
            ops.append((path, (fn, array), "array"))
    random.Random(seed).shuffle(ops)
    return ops


GENERATORS = {
    "scalar-mix": scalar_mix,
    "sweep-panels": sweep_panels,
    "physics-inverse": physics_inverse,
    "bulk-array": bulk_array,
}


def operations(workload: str, seed: int, **sizes) -> list[tuple]:
    return GENERATORS[workload](seed, **sizes)


def describe(op) -> tuple:
    """The inputs of an op as plain values (for identity checks and logs)."""
    fn, args, kind = op
    plain = []
    for a in args:
        if isinstance(a, GridSpec):
            plain.append((a.kind, a.start, a.stop, a.count))
        elif hasattr(a, "tolist"):
            plain.append(tuple(a.tolist()))
        elif callable(a):
            plain.append(a.__name__)
        else:
            plain.append(a)
    return (fn.__name__, tuple(plain), kind)


def setup_expression(op) -> str:
    """Python source that performs ``op`` in a fresh interpreter with
    ``lambertw`` imported as ``L``; used to time a cold start."""
    fn, args, kind = op
    if kind == "sweep":
        branch, stage, grid = args
        return (f"L.accuracy_sweep({branch}, {stage!r}, "
                f"L.GridSpec({grid.kind!r}, {grid.start!r}, {grid.stop!r}, {grid.count}))")
    if kind == "array":
        scalar, values = args[0].__name__, args[1].tolist()
        array = f"__import__('numpy').array({values!r})"
        if fn is elementwise:
            return f"[L.{scalar}(v) for v in {array}.tolist()]"
        return f"L.{scalar}({array})"
    return f"L.{fn.__name__}{tuple(args)!r}"

