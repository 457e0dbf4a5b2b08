"""Micro-benchmark comparing the Halley and Fritsch refinement backends.

Timing a few-microsecond function call honestly requires two tricks,
both applied here:

* every call gets a slightly different input (a shrink of at most one
  part in 10^9 toward zero, staying inside the branch domain) and every
  result lands in a running checksum, so the work cannot be hoisted or
  elided;
* an identical loop with the function replaced by the identity is timed
  as an overhead baseline and subtracted, so the reported figure is the
  net cost per call.

Both schemes run through the evaluation path's own refinement loop
(``lambertw.api._refine``), so they stop on the same rule as
``lambert_w``.  Wall-clock numbers vary by machine; the durable
observable is the step count: how many refinement steps each scheme
needs to reach the 1e-14-scale residual from the dispatch approximation.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

from .accuracy import GridSpec
from .api import _refine, dispatch_region, lambert_w_approximation
from .branches import Branch
from .iteration import SCHEMES

# Relative shrink applied across one timing loop; small enough never to
# cross a domain boundary, large enough to defeat result caching.
_PERTURBATION = 1e-9


def _refined(branch: Branch, x: float, scheme: str) -> float:
    """Full evaluation pipeline with a selectable refinement scheme."""
    return _refine(x, lambert_w_approximation(branch, x), scheme)[0]


def steps_to_converge(branch: int, x: float, scheme: str) -> int:
    """Refinement steps needed to reach the residual tolerance at x.

    Counts the steps the evaluation pipeline actually takes: at least
    one (the residual is only checked after a step), at most four, and
    zero only where the seed is exact (x = 0 and the branch point).
    Raises ValueError for a scheme not in SCHEMES.
    """
    return _refine(x, lambert_w_approximation(branch, x), scheme)[1]


def checksum_pass(branch: int, grid: GridSpec, scheme: str, calls_per_point: int) -> float:
    """Sum of results over exactly the inputs a timed run would evaluate.

    Used to confirm that timing instrumentation does not change results:
    this untimed sum must equal the benchmark's checksum bit-for-bit.
    """
    b = Branch(branch)
    total = 0.0
    shrink = _PERTURBATION / calls_per_point
    # Accumulate a per-point subtotal first, exactly as the timed run
    # does; float addition is not associative, and the checksums must
    # match bit-for-bit.
    for x in grid.points():
        x = float(x)
        subtotal = 0.0
        for i in range(calls_per_point):
            subtotal += _refined(b, x * (1.0 - i * shrink), scheme)
        total += subtotal
    return total


@dataclass(frozen=True)
class BenchRecord:
    """Net timing and step count for one grid point and scheme."""

    x: float
    scheme: str
    region: str
    net_ns: float       # net time per call (overhead subtracted), ns
    spread_ns: float    # (max - min)/2 of per-call time across repetitions
    steps: int


@dataclass(frozen=True)
class BenchReport:
    branch: Branch
    grid: GridSpec
    calls_per_point: int
    repetitions: int
    overhead_ns_per_call: float
    records: tuple[BenchRecord, ...]
    checksums: dict[str, float]

    def total_steps(self, scheme: str) -> int:
        return sum(r.steps for r in self.records if r.scheme == scheme)


def _time_loop(func, x: float, calls: int) -> tuple[int, float]:
    """Time ``calls`` invocations with per-call perturbation; also checksum."""
    shrink = _PERTURBATION / calls
    total = 0.0
    start = time.perf_counter_ns()
    for i in range(calls):
        total += func(x * (1.0 - i * shrink))
    elapsed = time.perf_counter_ns() - start
    return elapsed, total


def run_benchmark(
    branch: int,
    grid: GridSpec,
    schemes: tuple[str, ...] = SCHEMES,
    calls_per_point: int = 10_000,
    repetitions: int = 5,
) -> BenchReport:
    """Benchmark the chosen schemes over a grid.

    Each (point, scheme) pair is timed ``repetitions`` times and the
    median per-call time is kept; an identity-function loop of identical
    shape provides the overhead baseline that is subtracted.  Results
    accumulate into per-scheme checksums so the calls cannot be
    optimized away and runs can be checked for determinism.
    """
    b = Branch(branch)
    if calls_per_point < 10_000:
        raise ValueError(f"calls_per_point must be >= 10000, got {calls_per_point}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; expected subset of {SCHEMES}")

    xs = [float(x) for x in grid.points()]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        identity = lambda value: value  # noqa: E731 - loop shape must match exactly
        overhead_times = [
            _time_loop(identity, xs[0], calls_per_point)[0] for _ in range(repetitions)
        ]
        overhead_per_call = statistics.median(overhead_times) / calls_per_point

        records = []
        checksums: dict[str, float] = {}
        for x in xs:
            region = dispatch_region(b, x).kind
            for scheme in schemes:
                func = lambda value, s=scheme: _refined(b, value, s)  # noqa: E731
                elapsed = []
                checksum = 0.0
                for _ in range(repetitions):
                    ns, checksum = _time_loop(func, x, calls_per_point)
                    elapsed.append(ns)
                per_call = [ns / calls_per_point for ns in elapsed]
                net = max(0.0, statistics.median(per_call) - overhead_per_call)
                spread = (max(per_call) - min(per_call)) / 2.0
                records.append(
                    BenchRecord(x, scheme, region, net, spread,
                                steps_to_converge(b, x, scheme))
                )
                checksums[scheme] = checksums.get(scheme, 0.0) + checksum
    finally:
        if gc_was_enabled:
            gc.enable()

    return BenchReport(
        branch=b,
        grid=grid,
        calls_per_point=calls_per_point,
        repetitions=repetitions,
        overhead_ns_per_call=overhead_per_call,
        records=tuple(records),
        checksums=checksums,
    )

