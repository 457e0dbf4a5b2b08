"""Write the committed benchmark snapshots ``BENCH_<workload>.json``.

Runs ``perfbench/run.py --trace 0`` of one checkout on every workload of
``BENCHMARK.json`` for seeds 1, 2 and 3, and stores the runs under a
label in ``BENCH_<workload>.json`` at the root of this repository.  The
other label already in a file is kept, so one file carries the numbers
of a change and of its parent, measured by the same harness on the same
machine:

    git clone . ../parent && git -C ../parent checkout <parent revision>
    python3 tools/bench_snapshot.py --label parent --checkout ../parent
    python3 tools/bench_snapshot.py --label change

Each run keeps the result line (the end-to-end metrics and the
correctness flag) and from the report line the checksums, the number of
distinct failed operations and the provenance (machine, versions, git
revision).  Each label also gets the median of every metric over its
runs, and ``clean``: whether ``src/`` and ``perfbench/`` of the checkout
matched its git revision (``git status --porcelain`` printed nothing),
so that a label measured on uncommitted changes says so.  Runs last
``run_seconds`` of BENCHMARK.json, as the benchmark's own runs do; one
label of four workloads takes about six minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = (1, 2, 3)
SECONDS = SPEC["run_seconds"]


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


def clean_tree(checkout: Path) -> bool:
    """True when ``git status`` finds no change under src/ or perfbench/."""
    done = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                          cwd=checkout, capture_output=True, text=True, check=True)
    return done.stdout == ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, choices=("parent", "change"))
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="tree whose perfbench/run.py and src/ are run (default: this one)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    clean = clean_tree(checkout)
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run_once(checkout, workload, seed) for seed in SEEDS]
        metrics = runs[0]["result"]["metrics"]
        path = ROOT / f"BENCH_{workload}.json"
        snapshot = json.loads(path.read_text()) if path.exists() else {"workload": workload}
        snapshot[args.label] = {
            "command": f"python3 perfbench/run.py --workload {workload} --seed N "
                       f"--seconds {SECONDS} --trace 0",
            "clean": clean,
            "median": {name: statistics.median(r["result"]["metrics"][name]["value"] for r in runs)
                       for name in metrics},
            "runs": runs,
        }
        path.write_text(json.dumps(snapshot, indent=1) + "\n")
        print(f"{path.name}: {args.label} " + " ".join(
            f"{name}={value:.6g}" for name, value in snapshot[args.label]["median"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
