"""The aggregation of `tools/bench_pairs.py`, on fixed results records."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _record(seed, wall, rss, failed=0, samples=None):
    metrics = {
        "wall_s": wall, "setup_s": 2.0 * wall, "cpu_s": 3.0 * wall, "peak_rss_mb": rss,
    }
    return {
        "seed": seed,
        "correct": failed == 0,
        "attempted": 4,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()},
        "samples": samples
        or {"cmd": {"wall": [wall, 3 * wall], "setup": [1.0], "cpu": [2.0, 4.0], "rss": [rss]}},
    }


def test_summary_of_fixed_pairs():
    parent_walls = [1.0, 2.0, 3.0, 4.0, 5.0]
    change_walls = [0.5, 2.5, 2.0, 4.0, 1.0]
    pairs = [
        {"parent": _record(500 + i, p, 40.0 + i), "change": _record(500 + i, c, 41.0, failed=i == 3)}
        for i, (p, c) in enumerate(zip(parent_walls, change_walls))
    ]
    summary = bench_pairs.summarize(pairs)
    assert summary["pairs"] == 5
    assert summary["seeds"] == [500, 501, 502, 503, 504]
    assert summary["failed_over_attempted"] == {"parent": "0/20", "change": "1/20"}
    assert summary["correct"] == {"parent": True, "change": False}
    wall = summary["end_to_end"]["wall_s"]
    # inclusive quartiles of 1..5 are 2, 3 and 4
    assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert wall["change"] == {"median": 2.0, "q1": 1.0, "q3": 2.5}
    # lower in pairs 0, 2 and 4; the tie at 4.0 counts for neither side
    assert wall["change_lower_pairs"] == "3/5"
    assert summary["end_to_end"]["cpu_s"]["change"]["median"] == 6.0
    # the change's peak, 41, is lower than the parent's only in pairs 2-4
    assert summary["end_to_end"]["peak_rss_mb"]["change_lower_pairs"] == "3/5"
    cmd = summary["per_command_medians"]["cmd"]
    # per run the median of (w, 3w) is 2w; over the parent's runs, 2 * 3
    assert cmd["wall_s"] == {"parent": 6.0, "change": 4.0}
    assert cmd["setup_s"] == {"parent": 1.0, "change": 1.0}
    assert cmd["cpu_s"] == {"parent": 3.0, "change": 3.0}
    assert cmd["rss_MB"] == {"parent": 42.0, "change": 41.0}
    assert cmd["rss_max_MB"] == {"parent": 42.0, "change": 41.0}
    assert cmd["samples_per_run"] == {"parent": 2, "change": 2}


def test_seed_ranges():
    assert bench_pairs._seeds("500-509") == list(range(500, 510))
    assert bench_pairs._seeds("7") == [7]


def test_traced_lists_every_layer_metric_of_both_sides():
    parent = {"correct": True, "metrics": {"a_s": {"value": 2.0, "unit": "s"}}}
    change = {
        "correct": False,
        "metrics": {"a_s": {"value": 1.0, "unit": "s"}, "b_ms": {"value": 3.0, "unit": "ms"}},
    }
    assert bench_pairs._traced({"parent": parent, "change": change}) == {
        "correct": {"parent": True, "change": False},
        "metrics": {"a_s": {"parent": 2.0, "change": 1.0}, "b_ms": {"parent": None, "change": 3.0}},
    }
