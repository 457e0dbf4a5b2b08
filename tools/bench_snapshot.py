"""Write the committed benchmark snapshots ``BENCH_<workload>.json``.

Runs ``perfbench/run.py --trace 0`` of this checkout (the change) and of
a parent checkout on every workload of ``BENCHMARK.json`` for seeds 1, 2
and 3, and stores both in ``BENCH_<workload>.json`` at the root of this
repository, under the labels ``change`` and ``parent``:

    git clone . ../parent && git -C ../parent checkout <parent revision>
    python3 tools/bench_snapshot.py --parent ../parent

``--workload NAME`` (repeatable) limits a refresh to those workloads,
and ``--pairs N`` measures N pairs per seed instead of one, for a
workload whose runs spread too widely for three pairs to resolve a
change:

    python3 tools/bench_snapshot.py --parent ../parent --workload sweep-panels --pairs 3

The two are measured in alternation: for each workload and seed, N runs
of each, the first side switching from one pair to the next.  So the two
runs of a pair are seconds apart, and a drift of the machine's speed
over the minutes a snapshot takes moves both labels alike instead of
reading as a change.  Before the pairs of a workload, each checkout
makes one run of it that is discarded: the first run of a workload
after runs of another one can read a much slower set-up (bulk-array
read ``setup_s`` of 104-111 ms there, 55-72 ms in every later run).

Each run keeps the result line (the end-to-end metrics and the
correctness flag) and from the report line the checksums, the number of
distinct failed operations and the provenance (machine, versions, git
revision).  Each label also gets the median of every metric over its
runs, and ``clean``: whether ``src/`` and ``perfbench/`` of the checkout
matched its git revision (``git status --porcelain`` printed nothing),
so that a label measured on uncommitted changes says so.  Under
``comparison`` each metric gets the number of pairs, the pairs each side
won in the metric's ``better`` direction of BENCHMARK.json (a tie counts
for neither), the parent's interquartile spread and ``gain_shown``, the
rule for claiming a gain: over at least ten pairs, the change wins at
least nine pairs in ten, and its median is better than the parent's by
more than that spread.  Under ``identical_checksums``, kept apart from
``comparison`` because every key there is read as a metric, go the
number of pairs and how many of them printed the same ``checksum`` and
the same ``traced_checksum`` on both sides: a change that keeps every
value shows all pairs equal.  Runs last ``run_seconds`` of BENCHMARK.json, as the
benchmark's own runs do; the 32 runs of a snapshot of every workload at
one pair per seed, 8 of them warm-up runs, take about sixteen minutes.

Each label also gets ``counts``, figures that do not depend on the
machine's speed: the mean number of bytecodes executed per operation
and the C functions called per operation, by name (``math.log``,
``math.exp``, ...), with the ``sys.version_info`` of the interpreter
that counted them.  They are taken in a subprocess in each checkout,
which runs its own ``perfbench/workloads.py`` operations for seed 1
once untraced, so that lazy imports stay out of the counts, and then
once under ``sys.settrace`` (opcode events) and ``sys.setprofile``
(``c_call`` events), with the garbage collector off.  The seed only
orders the operations, so the counts are the same for every seed and
every run.  ``counts_comparison``, kept apart from ``comparison`` as
``identical_checksums`` is, gives the change of each count, change minus
parent, where both were taken on the same Python minor version; an
opcode is not a unit of time, so counts sit beside the timed metrics
and replace no bound.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = (1, 2, 3)
SECONDS = SPEC["run_seconds"]
BETTER = {metric["name"]: metric["better"] for metric in SPEC["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run of ``checkout``, as stored in a snapshot."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"bench_snapshot: {' '.join(command)} in {checkout} exited "
                 f"{done.returncode}:\n{done.stderr}")
    report_line, result_line = done.stdout.strip().splitlines()[-2:]
    report = json.loads(report_line)["report"]
    return {
        "seed": seed,
        "result": json.loads(result_line),
        "checksum": report["checksum"],
        "traced_checksum": report["traced_checksum"],
        "distinct_failed": report["distinct_failed"],
        "provenance": report["provenance"],
    }


def count_ops(workload: str, seed: int) -> dict:
    """Bytecodes and C calls per op of ``workload`` for the checkout in the
    current directory; run in a subprocess by ``op_counts``."""
    sys.path[:0] = ["src", "perfbench"]
    import workloads  # the checkout's own, which imports its src/lambertw

    ops = workloads.operations(workload, seed)
    opcodes = 0
    c_calls: Counter = Counter()

    def trace(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        elif event == "call":
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
        return trace

    def profile(frame, event, arg):
        if event == "c_call" and arg is not sys.setprofile:  # not the call that ends it
            module = getattr(arg, "__module__", None)
            c_calls[f"{module}.{arg.__qualname__}" if module else arg.__qualname__] += 1

    gc.disable()
    for traced in (False, True):
        if traced:
            sys.settrace(trace)
            sys.setprofile(profile)
        # This frame was entered untraced, so only the ops' own frames count.
        for fn, args, _kind in ops:
            try:
                fn(*args)
            except Exception:  # a failed op is counted as far as it ran
                pass
        sys.setprofile(None)
        sys.settrace(None)
    return {
        "seed": seed,
        "ops": len(ops),
        "opcodes_per_op": opcodes / len(ops),
        "c_calls_per_op": {name: c_calls[name] / len(ops) for name in sorted(c_calls)},
        "python": list(sys.version_info),
    }


def op_counts(checkout: Path, workload: str, seed: int = SEEDS[0]) -> dict:
    """``count_ops`` in a fresh interpreter in ``checkout``."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
            f"import json, bench_snapshot; "
            f"print(json.dumps(bench_snapshot.count_ops({workload!r}, {seed})))")
    done = subprocess.run([sys.executable, "-c", code], cwd=checkout,
                          capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"bench_snapshot: counting {workload} in {checkout} exited "
                 f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def count_changes(parent: dict, change: dict) -> dict:
    """Each count of ``change`` minus that of ``parent``; ``comparable`` is
    false, and no change is given, across Python minor versions."""
    if parent["python"][:2] != change["python"][:2]:
        return {"comparable": False}
    names = sorted(parent["c_calls_per_op"].keys() | change["c_calls_per_op"].keys())
    return {
        "comparable": True,
        "opcodes_per_op": change["opcodes_per_op"] - parent["opcodes_per_op"],
        "c_calls_per_op": {name: change["c_calls_per_op"].get(name, 0.0)
                           - parent["c_calls_per_op"].get(name, 0.0) for name in names},
    }


def clean_tree(checkout: Path) -> bool:
    """True when ``git status`` finds no change under src/ or perfbench/."""
    done = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                          cwd=checkout, capture_output=True, text=True, check=True)
    return done.stdout == ""


def label(workload: str, clean: bool, runs: list[dict], counts: dict) -> dict:
    """The snapshot entry of one checkout: its runs, their medians and its counts."""
    metrics = runs[0]["result"]["metrics"]
    return {
        "command": f"python3 perfbench/run.py --workload {workload} --seed N "
                   f"--seconds {SECONDS} --trace 0",
        "clean": clean,
        "median": {name: statistics.median(r["result"]["metrics"][name]["value"] for r in runs)
                   for name in metrics},
        "counts": counts,
        "runs": runs,
    }


def comparison(parent: list[dict], change: list[dict]) -> dict:
    """Per metric, over the pairs ``(parent[i], change[i])``: the pairs
    each side won (better by the metric's ``better`` field; a tie counts
    for neither), the parent's interquartile spread ``q3 - q1``, with
    quartiles as perfbench takes them (``statistics.quantiles``), and
    ``gain_shown``: whether, over at least ten pairs, the change won at
    least nine pairs in ten and its median is better than the parent's
    by more than that spread.  Fewer pairs show no gain: three pairs of
    a workload that runs none of the changed code can all fall to the
    change."""
    summary = {}
    for name in parent[0]["result"]["metrics"]:
        sign = 1.0 if BETTER[name] == "higher" else -1.0
        before, after = ([run["result"]["metrics"][name]["value"] for run in runs]
                         for runs in (parent, change))
        gains = [sign * (b - a) for a, b in zip(before, after)]
        q1, _, q3 = statistics.quantiles(before, n=4)
        change_wins = sum(gain > 0.0 for gain in gains)
        median_gain = sign * (statistics.median(after) - statistics.median(before))
        summary[name] = {
            "pairs": len(gains),
            "change_wins": change_wins,
            "parent_wins": sum(gain < 0.0 for gain in gains),
            "parent_iqr": q3 - q1,
            "gain_shown": (len(gains) >= 10 and 10 * change_wins >= 9 * len(gains)
                           and median_gain > q3 - q1),
        }
    return summary


def identical_checksums(parent: list[dict], change: list[dict]) -> dict:
    """Over the pairs ``(parent[i], change[i])``: how many printed the
    same ``checksum`` and how many the same ``traced_checksum``."""
    pairs = list(zip(parent, change))
    return {"pairs": len(pairs)} | {
        key: sum(before[key] == after[key] for before, after in pairs)
        for key in ("checksum", "traced_checksum")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent revision, measured against this one")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to measure, repeatable (default: every workload)")
    parser.add_argument("--pairs", type=int, default=1,
                        help="alternating parent/change pairs per seed (default: 1)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    clean = {side: clean_tree(path) for side, path in checkouts.items()}
    pair = 0
    for workload in args.workload or names:
        runs = {"parent": [], "change": []}
        for side in checkouts:
            run_once(checkouts[side], workload, SEEDS[0])  # warm-up, discarded
        for seed in SEEDS:
            for _ in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(checkouts[side], workload, seed))
                pair += 1
        counts = {side: op_counts(checkouts[side], workload) for side in checkouts}
        snapshot = {"workload": workload}
        for side in ("parent", "change"):
            snapshot[side] = label(workload, clean[side], runs[side], counts[side])
        snapshot["comparison"] = comparison(runs["parent"], runs["change"])
        snapshot["identical_checksums"] = identical_checksums(runs["parent"], runs["change"])
        snapshot["counts_comparison"] = count_changes(counts["parent"], counts["change"])
        path = ROOT / f"BENCH_{workload}.json"
        path.write_text(json.dumps(snapshot, indent=1) + "\n")
        for side in ("parent", "change"):
            print(f"{path.name}: {side} " + " ".join(
                f"{name}={value:.6g}" for name, value in snapshot[side]["median"].items()))
        print(f"{path.name}: change wins " + " ".join(
            f"{name}={c['change_wins']}/{c['pairs']}{' (gain shown)' if c['gain_shown'] else ''}"
            for name, c in snapshot["comparison"].items()))
        same = snapshot["identical_checksums"]
        print(f"{path.name}: identical checksum={same['checksum']}/{same['pairs']} "
              f"traced_checksum={same['traced_checksum']}/{same['pairs']}")
        print(f"{path.name}: opcodes per op " + " ".join(
            f"{side}={counts[side]['opcodes_per_op']:.2f}" for side in ("parent", "change")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
