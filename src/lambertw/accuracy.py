"""Decimal-places accuracy metric and grid sweeps against the reference solver.

The central quantity is

    delta(x) = log10|w_exact| - log10|w_approx - w_exact|,

the number of correct decimal places of an approximation relative to the
reference value.  ``accuracy_sweep`` evaluates a chosen pipeline stage
(the raw approximation, or one Halley or Fritsch step from it; the last
is the value ``lambert_w`` returns except for x < -1/e + 5e-4, where
``lambert_w`` returns the series seed unstepped) over a sampling grid
and reports the per-point deltas; ``write_report`` writes a report to
an open text file as plain-text data suitable for plotting.
"""

import math
from operator import index as _index
from typing import NamedTuple, TextIO

from .api import dispatch_region, lambert_w_approximation
from .branches import MINUS_INV_E, Branch
from .iteration import fritsch_step, halley_step
from .oracle import reference_w

# Value reported when approximation and reference agree bit-for-bit.  A
# double carries just under 16 significant decimal digits, so 17 sits
# above every resolvable delta and reads as "machine accurate".
DELTA_CAP = 17.0

# Pipeline stages that a sweep can measure.
STAGES = ("approximation", "one-halley", "one-fritsch")

_UNDEFINED_AT_ZERO = "delta accuracy is undefined when the exact value is 0"

# math's names and tuple.__new__, bound once: a global is cheaper than an attribute.
_log10, _copysign, _INF = math.log10, math.copysign, math.inf
_new = tuple.__new__


def delta_accuracy(approx: float, exact: float) -> float:
    """Number of correct decimal places of ``approx`` relative to ``exact``.

    Returns ``log10|exact| - log10|approx - exact|``, or :data:`DELTA_CAP`
    when the two values are identical in working precision.

    Raises
    ------
    ValueError
        If ``exact`` is zero; the metric divides by the true value's
        magnitude and is undefined there.
    """
    if exact == 0.0:
        raise ValueError(_UNDEFINED_AT_ZERO)
    if approx == exact:
        return DELTA_CAP
    return _log10(abs(exact)) - _log10(abs(approx - exact))


class _GridSpecFields(NamedTuple):
    kind: str
    start: float
    stop: float
    count: int


class GridSpec(_GridSpecFields):
    """Sampling grid: ``kind`` is ``"linear"`` or ``"log"``.

    Log grids require ``start`` and ``stop`` of the same nonzero sign;
    negative log grids (used to approach 0 from below on the lower
    branch) are spaced geometrically in ``|x|``.  An immutable named
    tuple, validated on construction and by ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, kind: str, start: float, stop: float, count: int) -> "GridSpec":
        if kind not in ("linear", "log"):
            raise ValueError(f"grid kind must be 'linear' or 'log', got {kind!r}")
        try:
            count = _index(count)
        except TypeError:
            raise ValueError(f"grid point count must be an integer, got {count!r}") from None
        if count < 2:
            raise ValueError(f"grid needs at least 2 points, got {count}")
        if kind == "log" and not (start > 0.0 < stop or start < 0.0 > stop):
            raise ValueError("log grid endpoints must share a nonzero sign")
        return super().__new__(cls, kind, start, stop, count)

    @classmethod
    def _make(cls, iterable):
        # The inherited _make (and so _replace) calls tuple.__new__,
        # which would skip the checks above.
        return cls(*iterable)

    def points(self) -> list[float]:
        """``count`` points from ``start`` to ``stop``, both exact: ``a + i*step``
        as in ``numpy.linspace``, with ``a, step`` taken in ``log10|x|`` for log
        grids, so that no ratio of the endpoints can overflow.  A log grid's
        inner points are ``copysign(10.0**(a + i*step), start)``."""
        kind, start, stop, count = self
        # One list, appended to in place: a comprehension is a function call
        # of its own before Python 3.12, dearer than the loop on a short grid.
        points = [start]
        if kind == "log":
            a = _log10(abs(start))
            step = (_log10(abs(stop)) - a) / (count - 1)
            for i in range(1, count - 1):
                points.append(_copysign(10.0 ** (a + i * step), start))
        else:
            step = (stop - start) / (count - 1)
            for i in range(1, count - 1):
                points.append(start + i * step)
        points.append(stop)
        return points

    def describe(self) -> str:
        return f"{self.kind}[{self.start:.17g}, {self.stop:.17g}, {self.count}]"


class AccuracyReport(NamedTuple):
    """Per-point deltas for one branch/stage/grid combination (an
    immutable named tuple)."""

    branch: Branch
    stage: str
    grid: GridSpec
    samples: tuple[tuple[float, float, str], ...]  # (x, delta, region kind)

    @property
    def min_delta(self) -> float:
        return min(delta for _, delta, _ in self.samples)


def default_panels(branch: int) -> tuple[GridSpec, ...]:
    """Canonical sweep grids for a branch, mirroring the accuracy plots.

    Branch 0 pairs a linear panel across the definition-range start with
    a log panel out to 1e5; branch -1 pairs a linear panel with a log
    panel approaching 0 from below.  Both start 1e-9 right of -1/e: at
    the branch point itself the delta is limited by representability of
    x, not by any algorithm.
    """
    b = Branch(branch)
    if b is Branch.PRINCIPAL:
        return (
            GridSpec("linear", MINUS_INV_E + 1e-9, 0.3, 1000),
            GridSpec("log", 0.3, 1e5, 1000),
        )
    return (
        GridSpec("linear", MINUS_INV_E + 1e-9, -1e-6, 1000),
        GridSpec("log", -1e-6, -1e-12, 1000),
    )


def accuracy_sweep(branch: int, stage: str, grid: GridSpec) -> AccuracyReport:
    """Measure ``stage`` against the reference solver over ``grid``.

    A sweep calls ``Branch`` once, and at each point ``reference_w``,
    ``lambert_w_approximation``, the stage's step unless the seed is -1
    or +inf, and ``dispatch_region`` for the region column; delta is
    :func:`delta_accuracy`'s expression, formed in the loop.  Those calls
    stay so that the benchmark's per-layer split, which wraps them, sees
    every layer a sweep runs.  They take the branch as the plain int
    ``int(Branch(branch))``: an ``IntEnum`` misses CPython's exact-int
    compare, and each point makes up to nine branch compares.

    Parameters
    ----------
    branch : int
        0 or -1.
    stage : str
        One of :data:`STAGES`.
    grid : GridSpec
        Sampling grid; must lie inside the branch domain and exclude 0.

    Returns
    -------
    AccuracyReport
    """
    b = Branch(branch)
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")
    step = None if stage == "approximation" else (
        halley_step if stage == "one-halley" else fritsch_step)
    # Read from the module's globals, where a tracer may swap them, per sweep.
    reference, seed, region = reference_w, lambert_w_approximation, dispatch_region
    k = int(b)
    samples = []
    for x in grid.points():
        if x == 0.0:
            raise ValueError("accuracy grids must exclude x = 0 (delta undefined)")
        try:
            exact = reference(k, x)
            value = seed(k, x)
            # An exact seed (-1 at the branch point) and +inf are not
            # stepped, as in lambert_w; the seeds that lambert_w leaves
            # unstepped near -1/e are, so the stage measures the step.
            if step is not None and value != -1.0 and value != _INF:
                value = step(x, value)
            # delta_accuracy(value, exact) without the call.
            if exact == 0.0:
                raise ValueError(_UNDEFINED_AT_ZERO)
            delta = DELTA_CAP if value == exact else (
                _log10(abs(exact)) - _log10(abs(value - exact)))
        except (ValueError, ArithmeticError) as exc:
            raise type(exc)(f"at x={x!r}: {exc}") from exc
        samples.append((x, delta, region(k, x).kind))
    return _new(AccuracyReport, (b, stage, grid, tuple(samples)))


def write_report(report: AccuracyReport, destination: TextIO) -> None:
    """Write a report to the open text file ``destination``: a ``#``
    header, then x/delta/region rows at full (round-trippable) precision.
    """
    destination.write(
        f"# branch={int(report.branch)} stage={report.stage} grid={report.grid.describe()}\n"
    )
    for x, delta, region in report.samples:
        destination.write(f"{x!r} {delta!r} {region}\n")
