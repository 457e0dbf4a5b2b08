"""Measurement behind run.py: timed loops, traced runs, and the result line.

Imported only after run.py has put this checkout's ``src/`` on the path.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import statistics
import struct
import subprocess
import sys
import time
from array import array
from pathlib import Path

import mpmath
import numpy as np

import lambertw
import refcheck
import tracing
import workloads
from yardstick import YARDSTICK_NS, yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_SPAWNS = 11
# Spans kept by a traced run; bounds its memory to about 20 MB.
SPAN_CAP = 1 << 17
# A function called fewer times than this by the workload's own
# operations is timed on the side sample instead (see side_operations).
MIN_SPANS = 20
# Recorded calls replayed per function and caller, and times each.
REPLAY_SAMPLE = 1000
REPLAY_REPEATS = 3


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------

def values_of(kind: str, result) -> tuple[float, ...]:
    """The W-derived values an op produced, in a fixed order."""
    if kind == "result":
        return (result.value,)
    if kind == "sweep":
        return tuple(delta for _, delta, _ in result.samples)
    if kind == "roots":
        return (result.left, result.right)
    if kind == "array":
        return tuple(result.tolist())
    return (result,)


def run_pass(ops, fns=None):
    """Run every op once; a raised exception is kept as the op's result."""
    results = []
    for i, (fn, args, _kind) in enumerate(ops):
        try:
            results.append((fns[i] if fns else fn)(*args))
        except Exception as exc:  # a failed op is counted, not fatal
            results.append(exc)
    return results


def checksum(ops, results) -> str:
    digest = hashlib.sha256()
    for (_, _, kind), result in zip(ops, results):
        if isinstance(result, Exception):
            digest.update(type(result).__name__.encode())
        else:
            values = values_of(kind, result)
            digest.update(struct.pack(f"<{len(values)}d", *values))
    return digest.hexdigest()


def timed_loop(calls, seconds: float):
    """Closed loop of whole passes over ``calls`` until ``seconds`` have
    passed.  Returns the per-op latencies and the yardstick time before
    each op (both ns), the number of ops that raised, the start time and
    the end time of every pass."""
    latencies = array("q")
    sticks = array("q")
    marks = []
    clock = time.perf_counter_ns
    raised = 0
    gc.disable()
    try:
        start = t2 = clock()
        deadline = start + int(seconds * 1e9)
        while t2 < deadline:
            for fn, args in calls:
                t0 = clock()
                yardstick()
                t1 = clock()
                try:
                    fn(*args)
                except Exception:
                    raised += 1
                t2 = clock()
                latencies.append(t2 - t1)
                sticks.append(t1 - t0)
            marks.append(t2)
    finally:
        gc.enable()
    return latencies, sticks, raised, start, marks


def quartile_spread(values) -> float:
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


# ---------------------------------------------------------------------------
# Machine and provenance
# ---------------------------------------------------------------------------

def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    clock = time.perf_counter_ns
    steps = [b - a for a, b in ((clock(), clock()) for _ in range(1000))]
    floor, sticks, _, _, _ = timed_loop([(_ignore, ())] * 1000, 0.05)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "lambertw": lambertw.__version__,
        "git_revision": _git_revision(),
        "perf_counter_resolution_ns": time.get_clock_info("perf_counter").resolution * 1e9,
        "perf_counter_read_ns": statistics.median(steps),
        # What a timed op's latency includes besides the op: a no-op's.
        "timed_noop_ns": statistics.median(floor),
        "yardstick_ns": statistics.median(sticks),
    }


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------

def setup_costs(op) -> tuple[list[float], list[float], list[float]]:
    """Set-up time of fresh interpreters: from just before ``import
    lambertw`` until ``op`` has returned, in reference seconds (over the
    mean of a yardstick run in the same interpreter just before and just
    after; see yardstick.py).  Returns those, the same times as measured,
    and the wall time of each whole interpreter run."""
    code = "\n".join((
        "import sys, time",
        f"sys.path.insert(0, {str(HERE)!r})",
        "import yardstick",
        "before = yardstick.mean_ns()",
        "start = time.perf_counter_ns()",
        f"sys.path.insert(0, {str(SRC)!r})",
        "import lambertw as L",
        workloads.setup_expression(op),
        "end = time.perf_counter_ns()",
        "print(end - start, before, yardstick.mean_ns())",
    ))
    costs, setups, walls = [], [], []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                             capture_output=True, text=True, timeout=120).stdout
        walls.append(time.perf_counter() - start)
        setup_ns, before, after = (float(v) for v in out.split()[-3:])
        setups.append(setup_ns / 1e9)
        costs.append(setup_ns / ((before + after) / 2) * YARDSTICK_NS / 1e9)
    return costs, setups, walls


def op_costs(latencies, sticks, n: int, passes: slice) -> np.ndarray:
    """Each op's cost in reference ns: the median over ``passes`` of its
    time over the yardstick's, times YARDSTICK_NS (see yardstick.py)."""
    lat = np.frombuffer(latencies, dtype=np.int64).reshape(-1, n)[passes]
    stick = np.frombuffer(sticks, dtype=np.int64).reshape(-1, n)[passes]
    return np.median(lat / stick, axis=0) * YARDSTICK_NS


def summary(costs: np.ndarray, accepted: list[int]) -> tuple[float, float, float]:
    """(p50, p99, values per second) over the distinct ops' costs."""
    ordered = np.sort(costs)
    return (percentile(ordered, 50), percentile(ordered, 99),
            sum(accepted) / (float(costs.sum()) / 1e9))


def end_to_end(ops, first, verdict, seconds):
    calls = [(fn, args) for fn, args, _ in ops]
    n = len(ops)
    latencies, sticks, raised, start, marks = timed_loop(calls, seconds)
    passes = len(marks)
    attempted = passes * n
    failed = passes * sum(verdict.bad)
    values = passes * sum(verdict.accepted)
    deterministic = raised == passes * sum(isinstance(r, Exception) for r in first)
    p50, p99, per_s = summary(op_costs(latencies, sticks, n, slice(None)), verdict.accepted)
    halves = [summary(op_costs(latencies, sticks, n, part), verdict.accepted)
              for part in (slice(0, passes // 2), slice(passes // 2, None))] if passes > 1 else []
    raw = np.frombuffer(latencies, dtype=np.int64)
    best = np.sort(raw.reshape(-1, n).min(axis=0))
    every = np.sort(raw)
    good = next(i for i, bad in enumerate(verdict.bad) if not bad)
    setups, setup_walls, spawn_walls = setup_costs(ops[good])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_ns.p50": (p50, "ns"),
        "latency_ns.p99": (p99, "ns"),
        "values_per_s": (per_s, "1/s"),
        "min_digits": (verdict.min_digits, "digits"),
    }
    detail = {
        "latency_samples": n,
        "passes": passes,
        "failed_frac": failed / attempted,
        "setup_s_samples": setups,
        "setup_wall_s": setup_walls,
        "interpreter_wall_s": spawn_walls,
        "yardstick_ns": {"median": float(np.median(np.frombuffer(sticks, dtype=np.int64))),
                         "min": float(min(sticks))},
        # Wall-clock figures as measured, without the yardstick.
        "wall": {
            "latency_ns.p50": percentile(every, 50),
            "latency_ns.p99": percentile(every, 99),
            "best_of_passes_ns.p50": percentile(best, 50),
            "best_of_passes_ns.p99": percentile(best, 99),
            "values_per_s": values / ((marks[-1] - start) / 1e9),
        },
        # Relative difference between the two halves of the run.
        "half_split_spread": {
            name: abs(a - b) / ((a + b) / 2)
            for name, a, b in zip(("latency_ns.p50", "latency_ns.p99", "values_per_s"), *halves)
        } if halves else {},
        "setup_s_spread": quartile_spread(setups),
    }
    return metrics, attempted, failed, deterministic, detail


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return float(ordered[rank - 1])


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

SCALAR_LAYER_CHILDREN = (
    "api.dispatch_region", "approx.branch_point_series", "approx.rational_fit_eval",
    "approx.asymptotic_series", "approx.continued_log_recursion_wm1",
    "iteration.fritsch_step", "iteration.defining_residual",
)
TIMINGS = (
    "branches.Branch", "api.dispatch_region", "api.lambert_w_approximation",
    "api.lambert_w", "approx.branch_point_series", "approx.rational_fit_eval",
    "approx.asymptotic_series", "approx.continued_log_recursion_wm1",
    "iteration.fritsch_step", "iteration.defining_residual", "iteration.halley_step",
    "oracle.reference_w", "physics.moyal_inverse", "physics.gh_inverse",
)


def side_operations(seed: int):
    """A small sample of every workload, so each layer is timed on every run."""
    return (workloads.scalar_mix(seed, per_region=32)
            + workloads.sweep_panels(seed)[:4]
            + workloads.physics_inverse(seed, n_ops=64)
            + workloads.bulk_array(seed, arrays_per_branch=1))


def traced_fns(tracer, ops) -> list:
    """The functions to call for ``ops`` while ``tracer`` is installed."""
    return [tracer.traced(fn, "bulk.call" if kind == "array" else None) for fn, _, kind in ops]


def repeat_passes(ops, fns, seconds, tracer=None):
    """Passes over ``ops`` through ``fns`` until ``seconds`` (or the span
    cap) are reached; the first pass is recorded by ``tracer``.  Returns
    the first pass's results, the ops run and the wall time in ns."""
    gc.disable()
    try:
        start = time.perf_counter_ns()
        if tracer is not None:
            tracer.recording = True
        first = run_pass(ops, fns)
        if tracer is not None:
            tracer.recording = False
        done = len(ops)
        deadline = start + int(seconds * 1e9)
        while time.perf_counter_ns() < deadline and (tracer is None or len(tracer) < SPAN_CAP):
            run_pass(ops, fns)
            done += len(ops)
        wall = time.perf_counter_ns() - start
    finally:
        gc.enable()
    return first, done, wall


def _ignore(*args, **kwargs):
    return None


def replay_costs(fn, calls, repeats: int = REPLAY_REPEATS) -> np.ndarray:
    """Cost of ``fn`` on each recorded ``(args, kwargs)``, untraced, in
    reference ns: each call is timed after the yardstick as in the timed
    loop, and the median over ``repeats`` is kept."""
    clock = time.perf_counter_ns
    ratios = np.empty((repeats, len(calls)))
    gc.disable()
    try:
        for r in range(repeats):
            for i, (args, kwargs) in enumerate(calls):
                t0 = clock()
                yardstick()
                t1 = clock()
                try:
                    fn(*args, **kwargs)
                except Exception:  # replayed as the workload made it, failures too
                    pass
                t2 = clock()
                ratios[r, i] = (t2 - t1) / (t1 - t0)
    finally:
        gc.enable()
    return np.median(ratios, axis=0) * YARDSTICK_NS


class LayerCosts:
    """Mean cost per call of every traced function, by caller, from
    replaying the calls recorded in one traced pass.  The cost of an empty
    call of the same shape is subtracted."""

    def __init__(self, tracer, extra: dict | None = None):
        groups = tracer.recorded()
        groups.update(extra or {})
        self.floor = float(np.median(replay_costs(_ignore, [((0, 1.0), {})] * REPLAY_SAMPLE)))
        functions = dict(tracer.originals, **{
            "iteration.halley_step": lambertw.halley_step,
            "oracle.reference_w": lambertw.reference_w})
        self.count = {key: len(calls) for key, calls in groups.items()}
        self.mean = {}
        for key, calls in groups.items():
            sample = calls[::max(1, len(calls) // REPLAY_SAMPLE)]
            self.mean[key] = float(replay_costs(functions[key[0]], sample).mean()) - self.floor

    def calls(self, name: str) -> int:
        return sum(n for (f, _), n in self.count.items() if f == name)

    def total(self, name: str) -> float:
        """Summed cost of the recorded calls of ``name``."""
        return sum(self.count[k] * self.mean[k] for k in self.count if k[0] == name)

    def per_call(self, name: str) -> float:
        return self.total(name) / self.calls(name)

    def self_per_call(self, names, children=None) -> float:
        """Cost per call of ``names`` less that of the calls they make to
        ``children`` (to every traced function when None)."""
        own = sum(self.total(n) for n in names)
        below = sum(self.count[k] * self.mean[k] for k in self.count
                    if k[1] in names and (children is None or k[0] in children))
        return (own - below) / sum(self.calls(n) for n in names)


def unreached_calls(tracer) -> dict:
    """Calls that the evaluation path never makes, replayed on the
    workload's own arguments: halley_step on the (x, w) pairs of its
    Fritsch steps, and reference_w on its W arguments unless it calls it."""
    extra = {("iteration.halley_step", "replay"):
             [(args, {}) for args, _ in tracer.calls["iteration.fritsch_step"]]}
    if tracer.count("oracle.reference_w") < MIN_SPANS:
        extra[("oracle.reference_w", "replay")] = [(args, {}) for args, _ in w_calls(tracer)]
    return {key: calls for key, calls in extra.items() if calls}


def w_calls(tracer):
    return tracer.calls["api.lambert_w"] + tracer.calls["api.lambert_w_approximation"]


def layer_counts(tracer, refs) -> dict:
    """Exact counts from the first traced pass over the workload."""
    hits = {f"api.region_hits.{label}.{r.kind}": 0
            for label, regions in (("w0", lambertw.W0_REGIONS), ("wm1", lambertw.WM1_REGIONS))
            for r in regions}
    steps = {k: 0 for k in range(1, 5)}
    caps, worst = 0, 0.0
    for (branch, x), result in tracer.calls["api.lambert_w"]:
        if isinstance(result, Exception):
            continue
        label = "w0" if branch == 0 else "wm1"
        hits[f"api.region_hits.{label}.{result.region}"] += 1
        tol = lambertw.RESIDUAL_TOL * max(abs(x), 1.0)
        if result.refinement_steps in steps:
            steps[result.refinement_steps] += 1
        if result.refinement_steps == 4 and result.residual > tol:
            caps += 1
        if math.isfinite(result.residual):
            worst = max(worst, result.residual / tol)
    seed_digits = refcheck.DIGITS_CAP
    for (branch, x), result in tracer.calls["api.lambert_w_approximation"]:
        if not isinstance(result, Exception):
            label = "w0" if branch == 0 else "wm1"
            hits[f"api.region_hits.{label}.{lambertw.dispatch_region(branch, x).kind}"] += 1
    for (branch, x), result in w_calls(tracer):
        if isinstance(result, Exception):
            continue
        try:
            seed = lambertw.lambert_w_approximation(branch, x)
        except Exception:
            continue
        seed_digits = min(seed_digits, refcheck.digits(seed, refs.w(branch, x)))
    useful = attempted = 0
    for (x, w_in), w_out in tracer.calls["iteration.fritsch_step"]:
        if isinstance(w_out, Exception):
            continue
        ref = refs.w(-1 if w_in < -1.0 else 0, x)
        attempted += 1
        useful += abs(refcheck.mp.mpf(w_out) - ref) < abs(refcheck.mp.mpf(w_in) - ref)
    counts = {name: (n, "count") for name, n in hits.items()}
    counts.update({f"api.steps.{k}": (n, "count") for k, n in steps.items()})
    counts["api.cap_hits"] = (caps, "count")
    counts["api.one_step_frac"] = (useful / attempted if attempted else 0.0, "ratio")
    counts["api.worst_residual_ratio"] = (worst, "ratio")
    counts["approx.seed_digits_min"] = (seed_digits, "digits")
    return counts


def step_table() -> dict:
    """The paper's Halley-vs-Fritsch step counts over the criterion-9 grids."""
    grids = (lambertw.GridSpec("linear", lambertw.MINUS_INV_E + 1e-9, 0.3, 500),
             lambertw.GridSpec("log", 0.3, 1e8, 500))
    xs = [float(x) for grid in grids for x in grid.points()]
    table = {}
    for scheme in ("fritsch", "halley"):
        counts = [lambertw.steps_to_converge(0, x, scheme) for x in xs]
        table[scheme] = {"total": sum(counts),
                         "histogram": {str(k): counts.count(k) for k in sorted(set(counts))}}
    return table


def per_layer(workload, seed, ops, seconds, refs):
    _, untraced_ops, untraced_ns = repeat_passes(ops, [fn for fn, _, _ in ops], seconds / 2)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_first, traced_ops, traced_ns = repeat_passes(
            ops, traced_fns(tracer, ops), seconds / 2, tracer)
    side = tracing.Tracer()
    side_ops = side_operations(seed)
    with side.installed():
        repeat_passes(side_ops, traced_fns(side, side_ops), 0.0, side)
    main = LayerCosts(tracer, unreached_calls(tracer))
    side_costs = LayerCosts(side, unreached_calls(side))
    from_side = []

    def pick(*names):
        if min(main.calls(n) for n in names) >= MIN_SPANS:
            return main
        from_side.extend(names)
        return side_costs

    metrics = {f"{name}.ns": (pick(name).per_call(name), "ns") for name in TIMINGS}
    metrics["api.glue_ns"] = (
        pick("api.lambert_w").self_per_call(["api.lambert_w"], SCALAR_LAYER_CHILDREN), "ns")
    metrics["accuracy.self_ns_per_point"] = (
        pick("accuracy.accuracy_sweep").self_per_call(["accuracy.accuracy_sweep"])
        / workloads.SWEEP_POINTS, "ns")
    physics_calls = ["physics.moyal_inverse", "physics.gh_inverse"]
    metrics["physics.self_ns"] = (pick(*physics_calls).self_per_call(physics_calls), "ns")
    metrics["bulk.ns_per_element"] = (
        pick("bulk.call").per_call("bulk.call") / workloads.BULK_LENGTH, "ns")
    overhead = (traced_ns / traced_ops) / (untraced_ns / untraced_ops) - 1.0
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    metrics.update(layer_counts(tracer, refs))
    table = step_table()
    metrics["iteration.steps.fritsch"] = (table["fritsch"]["total"], "count")
    metrics["iteration.steps.halley"] = (table["halley"]["total"], "count")

    OUT.mkdir(exist_ok=True)
    np.savez(OUT / f"spans-{workload}.npz", spans=tracer.table(), names=np.array(tracer.names),
             side_spans=side.table(), side_names=np.array(side.names))
    detail = {
        "spans": len(tracer),
        "traced_ops": traced_ops,
        "untraced_ops": untraced_ops,
        "replay_noop_ns": main.floor,
        "side_sample_metrics": sorted(set(from_side)),
        "step_table": table,
        "traced_checksum": checksum(ops, traced_first),
    }
    return metrics, detail


class Verdict:
    """Outcome of the mpmath check of each distinct op."""

    def __init__(self, ops, results, refs):
        self.bad = []       # the op raised or a value was rejected
        self.accepted = []  # values of the op that passed the check
        digits = []
        for op, result in zip(ops, results):
            if isinstance(result, Exception):
                self.bad.append(True)
                self.accepted.append(0)
                continue
            oks, found = refcheck.check(refs, op, result)
            self.bad.append(not all(oks))
            self.accepted.append(sum(oks))
            digits += found
        self.min_digits = min(digits)


def main(args) -> int:
    """Run one workload as ``args`` (from run.py) asks; print the report and
    the result; return the exit code."""
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    ops = workloads.operations(args.workload, args.seed)
    first = run_pass(ops)
    refs = refcheck.Reference()
    verdict = Verdict(ops, first, refs)
    first_sum = checksum(ops, first)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "distinct_ops": len(ops),
              "distinct_failed": sum(verdict.bad), "checksum": first_sum}
    if args.workload == "bulk-array":
        report["array_path"] = "native" if workloads.native_array_path() else "elementwise"
    if args.trace:
        metrics, detail = per_layer(args.workload, args.seed, ops, args.seconds, refs)
        attempted, failed = len(ops), sum(verdict.bad)
        metrics["failed_frac"] = (failed / attempted, "ratio")
        correct = detail["traced_checksum"] == first_sum
    else:
        metrics, attempted, failed, deterministic, detail = end_to_end(
            ops, first, verdict, args.seconds)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced_first, _, _ = repeat_passes(ops, traced_fns(tracer, ops), 0.0)
        detail["traced_checksum"] = checksum(ops, traced_first)
        correct = deterministic and detail["traced_checksum"] == first_sum
    report.update(detail)
    report["provenance"] = provenance()
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1
