#!/usr/bin/env python3
"""Benchmark of the lambertw library, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload scalar-mix --seed 1 --seconds 15 --trace 0

The library is imported from ``src/`` next to this directory; nothing is
built or installed.  One process, one thread, one closed-loop client:
each operation starts when the previous one has returned.

``--trace 0`` times every operation and prints the end-to-end metrics
named in BENCHMARK.json:

* ``latency_ns.p50`` and ``latency_ns.p99``: percentiles over the
  distinct operations of a workload of each one's cost: the median over
  the run's passes of its time over that of a fixed piece of pure-Python
  work timed just before it, in ns of the reference machine (see
  yardstick.py, which says why); the wall-clock figures are in the report
  line;
* ``values_per_s``: values that passed the check, per second of those
  costs;
* ``min_digits``: the worst decimal-places accuracy of any value against
  mpmath at 40 digits;
* ``setup_s``: the median over several fresh interpreters of the time
  from just before ``import lambertw`` until the workload's first
  operation has returned, scaled by the yardstick run in the same
  interpreter.

``--trace 1`` runs the same operations with spans around every public
function of the library and prints the per-layer metrics.  Either way
every distinct operation is first run once untimed and checked against
mpmath, and the results of a traced and an untraced pass must agree bit
for bit.

Standard output ends with two JSON lines: a report (machine, provenance,
sample counts, checksums, wall-clock figures, within-run spread) and then
the result, ``{"correct", "attempted", "failed", "metrics"}``.  The spans
of a traced run are written to ``.perfbench-out/`` at the repository root.
The benchmark's own tests: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_library():
    """Import lambertw from this checkout's src/, never from elsewhere."""
    package = SRC / "lambertw"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: library source not found at {package}")
    sys.path.insert(0, str(SRC))
    import lambertw

    if Path(lambertw.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported lambertw from {lambertw.__file__}, not {package}")
    return lambertw


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import harness  # imports lambertw, so only after import_library

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
