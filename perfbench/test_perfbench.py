"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import functools
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

# Smaller op lists, so a run of every workload takes seconds.
SMALL = {
    "scalar-mix": {"per_region": 40},
    "sweep-panels": {},
    "physics-inverse": {"n_ops": 200},
    "bulk-array": {"arrays_per_branch": 4},
}


@pytest.fixture
def small(monkeypatch):
    for name, sizes in SMALL.items():
        monkeypatch.setitem(workloads.GENERATORS, name,
                            functools.partial(workloads.GENERATORS[name], **sizes))
    monkeypatch.setattr(harness, "SETUP_SPAWNS", 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    sizes = SMALL[workload]
    first = [workloads.describe(op) for op in workloads.operations(workload, 7, **sizes)]
    again = [workloads.describe(op) for op in workloads.operations(workload, 7, **sizes)]
    other = [workloads.describe(op) for op in workloads.operations(workload, 8, **sizes)]
    assert first == again
    assert first != other


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_names_and_units_use_the_allowed_characters():
    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]), entry


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_printed_metrics_match_benchmark_json(small, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for entry in spec:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"])
    assert report["traced_checksum"] == report["checksum"]
    if workload == "bulk-array":
        assert report["array_path"] in ("native", "elementwise")


def test_check_rejects_a_wrong_value():
    refs = refcheck.Reference()
    omega = 0.5671432904097838
    op = (workloads.lambert_w0, (1.0,), "value")
    assert refcheck.check(refs, op, omega)[0] == [True]
    assert refcheck.check(refs, op, omega * (1 + 1e-12))[0] == [False]


def test_tracing_leaves_results_and_modules_unchanged():
    from lambertw import api

    ops = workloads.scalar_mix(5, per_region=40)
    plain = harness.run_pass(ops)
    original = api.lambert_w
    tracer = tracing.Tracer()
    with tracer.installed():
        traced, _, _ = harness.repeat_passes(ops, harness.traced_fns(tracer, ops), 0.0, tracer)
        assert api.lambert_w is not original
    assert api.lambert_w is original
    assert harness.checksum(ops, traced) == harness.checksum(ops, plain)
    assert len(tracer.calls["api.lambert_w"]) == len(ops)


def test_fails_without_printing_a_result_when_the_library_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
