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
        "parent_iqr": 2.5, "gain_shown": False,
    }
    # Higher is better for throughput; a constant parent has no spread.
    assert summary["values_per_s"] == {
        "pairs": 4, "change_wins": 2, "parent_wins": 1, "parent_iqr": 0.0,
        "gain_shown": False,
    }


def test_gain_shown_needs_ten_pairs_nine_wins_in_ten_and_a_gap_beyond_the_spread(snapshot):
    parent = [100.0 + i % 5 for i in range(10)]  # quartiles 100.75 and 103.25
    shown = {name: snapshot.comparison(_runs({"latency_ns.p50": parent}),
                                       _runs({"latency_ns.p50": change}))
             ["latency_ns.p50"]["gain_shown"]
             for name, change in {
                 # 10 of 10 pairs, median 102 -> 98.5: a gap of 3.5 > 2.5.
                 "all pairs, wide gap": [p - 3.5 for p in parent],
                 # 10 of 10 pairs, but a gap of 2.0 inside the spread.
                 "all pairs, narrow gap": [p - 2.0 for p in parent],
                 # A median gap of 3.5, and the parent wins the first pair: 9 of 10.
                 "nine pairs": [parent[0] + 1.0] + [p - 4.0 for p in parent[1:]],
                 # A median gap of 3.0, but the first two pairs tie: 8 of 10.
                 "eight pairs": parent[:2] + [p - 4.0 for p in parent[2:]],
                 # Higher latency is worse, however wide the gap.
                 "worse": [p + 5.0 for p in parent],
             }.items()}
    assert shown == {"all pairs, wide gap": True, "all pairs, narrow gap": False,
                     "nine pairs": True, "eight pairs": False, "worse": False}
    # Higher is better for throughput: the same gap the other way is shown.
    summary = snapshot.comparison(_runs({"values_per_s": parent}),
                                  _runs({"values_per_s": [p + 3.5 for p in parent]}))
    assert summary["values_per_s"]["gain_shown"] is True
    # Three pairs, each won by a wide margin, are too few to show a gain.
    summary = snapshot.comparison(_runs({"values_per_s": parent[:3]}),
                                  _runs({"values_per_s": [p + 9.0 for p in parent[:3]]}))
    assert summary["values_per_s"]["change_wins"] == 3
    assert summary["values_per_s"]["gain_shown"] is False


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


def test_counts_are_the_same_for_every_seed_and_every_run(snapshot):
    """The seed only orders a workload's operations, and nothing the library
    keeps between calls moves a count: seeds 1 and 2 and a second run of
    seed 1 count alike (about a second each, in fresh interpreters)."""
    root = PATH.parent.parent
    first, other_seed, again = (snapshot.op_counts(root, "scalar-mix", seed) for seed in (1, 2, 1))
    assert first == again
    assert other_seed.pop("seed") == 2 and first.pop("seed") == 1
    assert other_seed == first
    assert first["ops"] == 14000 and first["opcodes_per_op"] > 100.0
    assert first["c_calls_per_op"]["math.log"] > 1.0
    assert "sys.setprofile" not in first["c_calls_per_op"]


def test_count_changes_subtract_within_one_python_minor_version(snapshot):
    parent = {"opcodes_per_op": 250.0, "c_calls_per_op": {"math.log": 2.0, "math.exp": 0.75},
              "python": [3, 11, 7, "final", 0]}
    change = {"opcodes_per_op": 225.5, "c_calls_per_op": {"math.log": 2.0, "builtins.len": 1.0},
              "python": [3, 11, 9, "final", 0]}
    assert snapshot.count_changes(parent, change) == {
        "comparable": True, "opcodes_per_op": -24.5,
        "c_calls_per_op": {"builtins.len": 1.0, "math.exp": -0.75, "math.log": 0.0},
    }
    change["python"] = [3, 12, 1, "final", 0]
    assert snapshot.count_changes(parent, change) == {"comparable": False}
