"""Tests for the pair summary that ``tools/bench_snapshot.py`` writes."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_snapshot.py"


@pytest.fixture(scope="module")
def snapshot():
    spec = importlib.util.spec_from_file_location("bench_snapshot", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(series: dict) -> list[dict]:
    """Runs as a snapshot stores them, the i-th taking each series' i-th value."""
    count = len(next(iter(series.values())))
    return [{"result": {"metrics": {name: {"value": values[i]}
                                    for name, values in series.items()}}}
            for i in range(count)]


def test_comparison_counts_wins_by_direction_and_the_parent_spread(snapshot):
    parent = _runs({"latency_ns.p50": [10.0, 12.0, 11.0, 13.0], "values_per_s": [100.0] * 4})
    change = _runs({"latency_ns.p50": [9.0, 12.0, 12.0, 10.0],
                    "values_per_s": [101.0, 99.0, 100.0, 102.0]})
    summary = snapshot.comparison(parent, change)
    # Lower is better for latency: pairs 1 and 4 go to the change, pair 3
    # to the parent, and the tie in pair 2 to neither.
    assert summary["latency_ns.p50"] == {
        "pairs": 4, "change_wins": 2, "parent_wins": 1,
        # Exclusive quartiles of 10, 11, 12, 13: 10.25 and 12.75.
        "parent_iqr": 2.5,
    }
    # Higher is better for throughput; a constant parent has no spread.
    assert summary["values_per_s"] == {
        "pairs": 4, "change_wins": 2, "parent_wins": 1, "parent_iqr": 0.0,
    }


def test_identical_checksums_counts_equal_pairs_per_checksum(snapshot):
    parent = [{"checksum": "a", "traced_checksum": "a"},
              {"checksum": "b", "traced_checksum": "b"},
              {"checksum": "c", "traced_checksum": "c"}]
    change = [{"checksum": "a", "traced_checksum": "a"},
              {"checksum": "x", "traced_checksum": "b"},
              {"checksum": "c", "traced_checksum": "y"}]
    assert snapshot.identical_checksums(parent, change) == {
        "pairs": 3, "checksum": 2, "traced_checksum": 2,
    }
