"""Decimal-places accuracy metric and grid sweeps against the reference solver.

The central quantity is

    delta(x) = log10|w_exact| - log10|w_approx - w_exact|,

the number of correct decimal places of an approximation relative to the
reference value.  ``accuracy_sweep`` evaluates a chosen pipeline stage
(the raw approximation, or one Halley or Fritsch step from it; the last
is the value ``lambert_w`` returns) over a sampling grid and reports the
per-point deltas; ``write_report`` writes a report as a plain-text data
file suitable for plotting.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .api import _step, dispatch_region, lambert_w_approximation
from .branches import Branch
from .oracle import MINUS_INV_E, reference_w

# Value reported when approximation and reference agree bit-for-bit.  A
# double carries just under 16 significant decimal digits, so 17 sits
# above every resolvable delta and reads as "machine accurate".
DELTA_CAP = 17.0

# Pipeline stages that a sweep can measure.
STAGES = ("approximation", "one-halley", "one-fritsch")


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
        raise ValueError("delta accuracy is undefined when the exact value is 0")
    if approx == exact:
        return DELTA_CAP
    return math.log10(abs(exact)) - math.log10(abs(approx - exact))


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid: ``kind`` is ``"linear"`` or ``"log"``.

    Log grids require ``start`` and ``stop`` of the same nonzero sign;
    negative log grids (used to approach 0 from below on the lower
    branch) are spaced geometrically in ``|x|``.
    """

    kind: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "log"):
            raise ValueError(f"grid kind must be 'linear' or 'log', got {self.kind!r}")
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")
        if self.kind == "log" and not (self.start > 0.0 < self.stop or self.start < 0.0 > self.stop):
            raise ValueError("log grid endpoints must share a nonzero sign")

    def points(self) -> list[float]:
        """``count`` points from ``start`` to ``stop``, both exact: ``a + i*step``
        as in ``numpy.linspace``, with ``a, step`` taken in ``log10|x|`` for log
        grids, so that no ratio of the endpoints can overflow."""
        a, b = self.start, self.stop
        if self.kind == "log":
            a, b = math.log10(abs(a)), math.log10(abs(b))
        step = (b - a) / (self.count - 1)
        inner = [a + i * step for i in range(1, self.count - 1)]
        if self.kind == "log":
            inner = [math.copysign(10.0**e, self.start) for e in inner]
        return [self.start, *inner, self.stop]

    def describe(self) -> str:
        return f"{self.kind}[{self.start:.17g}, {self.stop:.17g}, {self.count}]"


@dataclass(frozen=True)
class AccuracyReport:
    """Per-point deltas for one branch/stage/grid combination."""

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


def _stage_value(branch: Branch, stage: str, x: float) -> float:
    """Evaluate one pipeline stage at ``x``."""
    w = lambert_w_approximation(branch, x)
    if stage == "approximation":
        return w
    return _step(x, w, "halley" if stage == "one-halley" else "fritsch")[0]


def accuracy_sweep(branch: int, stage: str, grid: GridSpec) -> AccuracyReport:
    """Measure ``stage`` against the reference solver over ``grid``.

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
    samples = []
    for x in grid.points():
        if x == 0.0:
            raise ValueError("accuracy grids must exclude x = 0 (delta undefined)")
        try:
            exact = reference_w(b, x)
            value = _stage_value(b, stage, x)
            delta = delta_accuracy(value, exact)
        except (ValueError, ArithmeticError) as exc:
            raise type(exc)(f"at x={x!r}: {exc}") from exc
        samples.append((x, delta, dispatch_region(b, x).kind))
    return AccuracyReport(b, stage, grid, tuple(samples))


def write_report(report: AccuracyReport, destination) -> None:
    """Write a report as plain text: a ``#`` header, then x/delta/region rows.

    ``destination`` may be a filesystem path or an open text file.
    Values are printed with full (round-trippable) precision.
    """
    if not hasattr(destination, "write"):
        with open(os.fspath(destination), "w", encoding="ascii") as handle:
            write_report(report, handle)
        return
    destination.write(
        f"# branch={int(report.branch)} stage={report.stage} grid={report.grid.describe()}\n"
    )
    for x, delta, region in report.samples:
        destination.write(f"{x!r} {delta!r} {region}\n")
