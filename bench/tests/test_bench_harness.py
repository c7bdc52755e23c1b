"""Unit tests of the benchmark harness: metric names, span arithmetic, checks."""

import json
import re
import sys
import threading
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_benchmark_metric_names_and_units_are_well_formed():
    entries = SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for entry in entries:
        assert NAME.match(entry["name"]), entry["name"]
        if "unit" in entry:
            assert UNIT.match(entry["unit"]), entry["unit"]
    for entry in SPEC["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25


def test_command_metric_names_are_well_formed_and_unique():
    labels = [cmd.metric for work in WORKLOADS.values() for cmd in work.commands]
    assert len(labels) == len(set(labels))
    assert all(NAME.match(label) for label in labels)


def test_workloads_match_benchmark_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_seed_zero_reproduces_readme_seeds_and_seeds_differ():
    martingale = WORKLOADS["trees"].commands[0]
    assert martingale.argv_for(0)[-2:] == ["--seed", "2"]
    assert martingale.seed_for(1) != martingale.seed_for(0)
    collide = WORKLOADS["exact"].commands[0]
    assert "--seed" not in collide.argv_for(5)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def span(id, layer, start, end, parent=None):
    s = tracing.Span(id, f"{layer}.f", layer, start, parent, 0)
    s.end = end
    return s


def test_covered_length_merges_and_clips():
    assert tracing.covered_length([], 0.0, 1.0) == 0.0
    assert tracing.covered_length([(0.1, 0.3), (0.2, 0.5)], 0.0, 1.0) == pytest.approx(0.4)
    assert tracing.covered_length([(0.1, 0.2), (0.6, 0.7)], 0.0, 1.0) == pytest.approx(0.2)
    assert tracing.covered_length([(-1.0, 0.5), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.6)


def test_self_time_subtracts_children_once():
    spans = [
        span(0, "cli", 0.0, 10.0),
        span(1, "yule", 1.0, 4.0, parent=0),
        span(2, "yule", 2.0, 6.0, parent=0),  # overlaps span 1 (parallel worker)
        span(3, "discrete", 2.5, 3.0, parent=2),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(3.5)
    assert own[3] == pytest.approx(0.5)
    summary = tracing.layer_summary(spans)
    assert summary["yule"] == {"self_s": pytest.approx(6.5), "calls": 2}
    assert summary["cube"] == {"self_s": 0.0, "calls": 0}


def test_tracer_records_layer_boundaries_only():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: None, "discrete", "discrete.inner")
    same = tracer.wrap(lambda: inner(), "yule", "yule.same")
    outer = tracer.wrap(lambda: same(), "yule", "yule.outer")
    root = tracer.wrap(lambda: outer(), "cli", "cli.main")
    root()
    names = {s.name: s for s in tracer.spans}
    assert set(names) == {"cli.main", "yule.outer", "discrete.inner"}
    assert names["yule.outer"].parent == names["cli.main"].id
    assert names["discrete.inner"].parent == names["yule.outer"].id


def test_tracer_parents_worker_threads_to_the_waiting_main_span():
    tracer = tracing.Tracer()
    work = tracer.wrap(lambda: None, "yule", "yule.martingale_samples")

    def main_body():
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    tracer.wrap(main_body, "cli", "cli.main")()
    root = next(s for s in tracer.spans if s.name == "cli.main")
    workers = [s for s in tracer.spans if s.name == "yule.martingale_samples"]
    assert len(workers) == 2 and all(s.parent == root.id for s in workers)
    metrics = tracing.trace_metrics(tracer.spans)
    assert metrics["yule.martingale.calls"]["value"] == 2
    assert all(NAME.match(name) for name in metrics)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def test_failed_ratio_counts_commands_not_problems():
    ok = checks.CheckResult("a")
    bad = checks.CheckResult("b", problems=["x", "y"])
    assert checks.failed_ratio([ok, bad, ok, ok]) == 0.25
    assert checks.failed_ratio([ok]) == 0.0
    with pytest.raises(ValueError):
        checks.failed_ratio([])


def test_failed_exit_status_fails_the_command(tmp_path):
    cmd = WORKLOADS["exact"].commands[0]
    res = checks.check_command(cmd, tmp_path, 3, 0, {})
    assert not res.ok and "exit status 3" in res.problems[0]


def test_missing_output_fails_the_command(tmp_path):
    cmd = WORKLOADS["exact"].commands[0]
    res = checks.check_command(cmd, tmp_path, 0, 0, {})
    assert not res.ok and "unreadable output" in res.problems[0]


@pytest.mark.parametrize("n", [1, 4, 14])
def test_collide_closed_form_is_a_distribution(n):
    classes = checks.collide_mono_uniform_classes(n)
    assert sum(comb(n, k) * v for k, v in enumerate(classes)) == pytest.approx(1.0, abs=1e-14)


def test_evolve_discrete_closed_form_matches_one_step_by_hand():
    # one step from the two-point start: each site copies one of two
    # independent two-point parents, so P(all plus) = 1/4 + 1/4 * 2^-n * 2
    n = 3
    classes = checks.evolve_discrete_mono_classes(n, 1)
    assert classes[n] == pytest.approx(float(Fraction(1, 4) + Fraction(1, 4) * Fraction(2, 2**n)))
    assert sum(comb(n, m) * v for m, v in enumerate(classes)) == pytest.approx(1.0, abs=1e-14)


def test_band_uses_reference_spread():
    band = {"mean": 1.0, "sd": 0.1, "k": 3}  # half-width 6 * 0.1 * sqrt(4/3) = 0.693
    assert checks.within_band(1.69, band)
    assert checks.within_band(0.31, band)
    assert not checks.within_band(1.70, band)


def test_digest_changes_are_counted_not_failed(tmp_path):
    cmd = Command("collide", ("collide", "--n", "2", "--a", "mono", "--b", "uniform"))
    classes = checks.collide_mono_uniform_classes(2)
    rows = "".join(f"{i},{classes[bin(i).count('1')]!r}\n" for i in range(4))
    (tmp_path / "collide.csv").write_text("index,value\n" + rows)
    manifest = {"exit_status": 0, "outputs": [{"file": "collide.csv", "sha256": "new"}]}
    checks.manifest_path(tmp_path, "collide").write_text(json.dumps(manifest))
    reference = {"digests": {"collide": {"collide.csv": "old"}}}
    res = checks.check_command(cmd, tmp_path, 0, 0, reference)
    assert res.ok and res.digests_checked == 1 and res.bytes_changed == 1
