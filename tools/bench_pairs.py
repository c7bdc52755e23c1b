"""Alternating parent/change pairs of the benchmark, summarized as one JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workloads trees,limit,exact --seeds 500-509 --out BENCH_<n>.json

Each revision's committed files are exported with `git archive` into a fresh
directory, so neither side sees untracked files or the other's bytecode.  An
uncommitted change can be passed as the commit that `git stash create`
prints after `git add -A`.  For each workload and seed, pair i runs

    python3 bench/run.py --workload W --seed S --trace 0

in both copies, unchanged, the parent first on even pairs and the change
first on odd ones, and reads each run's
`bench/out/results-W-seedS-trace0.json`.  The output holds the machine (with
`PYTHONDONTWRITEBYTECODE` and a bare-interpreter start time), and per
workload the runs' failures, the median and quartiles of each end-to-end
metric on each side, the pairs in which the change read lower, and
per-command medians over the runs.  With `--traced W`, each copy then runs
one `--trace 1` pass of workload W at the first seed, parent first, and the
output's `traced` block holds every layer metric of both passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

END_TO_END = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
# per-command sample lists of a results file, and their names in the output
COMMAND_SAMPLES = (("wall", "wall_s"), ("setup", "setup_s"), ("cpu", "cpu_s"), ("rss", "rss_MB"))
SIDES = ("parent", "change")


def _quartiles(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarize(pairs: Sequence[Dict[str, dict]]) -> dict:
    """One workload's summary from its pairs of `bench/run.py` results records.

    Each pair maps "parent" and "change" to a results record (its `seed`,
    `correct`, `attempted`, `failed`, `metrics` and per-command `samples`).
    Quartiles interpolate between order statistics (inclusive method).  A
    pair counts as the change reading lower only where its value is strictly
    below the parent's.  Per-command values are medians over runs of each
    run's median, apart from `rss_max_MB`, the median of each run's maximum,
    and `samples_per_run`, the median sample count.
    """
    runs = {side: [pair[side] for pair in pairs] for side in SIDES}
    end_to_end = {}
    for name in END_TO_END:
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
        end_to_end[name] = {
            **{side: _quartiles(values[side]) for side in SIDES},
            "change_lower_pairs": f"{lower}/{len(pairs)}",
        }
    commands = {}
    for label in runs["parent"][0]["samples"]:
        entry = {}
        for key, name in COMMAND_SAMPLES:
            entry[name] = {
                side: round(statistics.median(statistics.median(r["samples"][label][key])
                                              for r in runs[side]), 6)
                for side in SIDES
            }
        entry["rss_max_MB"] = {
            side: round(statistics.median(max(r["samples"][label]["rss"]) for r in runs[side]), 6)
            for side in SIDES
        }
        entry["samples_per_run"] = {
            side: statistics.median(len(r["samples"][label]["wall"]) for r in runs[side])
            for side in SIDES
        }
        commands[label] = entry
    return {
        "pairs": len(pairs),
        "seeds": [pair["parent"]["seed"] for pair in pairs],
        "failed_over_attempted": {
            side: f"{sum(r['failed'] for r in runs[side])}/{sum(r['attempted'] for r in runs[side])}"
            for side in SIDES
        },
        "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
        "end_to_end": end_to_end,
        "per_command_medians": commands,
    }


def _export(repo: Path, revision: str, dest: Path) -> None:
    """The committed files of `revision`, written under `dest`."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(
        ["git", "-C", str(repo), "archive", "--format=tar", revision], stdout=subprocess.PIPE
    )
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {revision} exited {archive.returncode}")


def _run(copy: Path, workload: str, seed: int, trace: int = 0) -> dict:
    argv = ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    subprocess.run(argv, cwd=copy, check=True, stdout=subprocess.DEVNULL)
    results = copy / "bench" / "out" / f"results-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(results.read_text())


def _traced(runs: Dict[str, dict]) -> dict:
    """Each layer metric of one traced pass per side, as {name: {side: value}}."""
    names = sorted(set(runs["parent"]["metrics"]) | set(runs["change"]["metrics"]))
    return {
        "correct": {side: runs[side]["correct"] for side in SIDES},
        "metrics": {
            name: {
                side: runs[side]["metrics"].get(name, {}).get("value") for side in SIDES
            }
            for name in names
        },
    }


def _bare_start(runs: int = 15) -> float:
    """Median seconds for `python3 -c pass` to start and exit."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(["python3", "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 6)


def _seeds(spec: str) -> List[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1", help="revision of the parent")
    parser.add_argument("--change", default="HEAD", help="revision of the change")
    parser.add_argument("--workloads", default="trees,limit,exact")
    parser.add_argument("--seeds", default="500-509", help="first-last, inclusive")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--note", action="append", default=[], help="a line for `notes`")
    parser.add_argument("--traced", default="", help="workloads to run one --trace 1 pass of")
    args = parser.parse_args(argv)
    repo = Path(__file__).resolve().parent.parent
    seeds = _seeds(args.seeds)
    workloads = args.workloads.split(",")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as workdir:
        copies = {side: Path(workdir) / side for side in SIDES}
        for side, revision in zip(SIDES, (args.parent, args.change)):
            _export(repo, revision, copies[side])
        machine = None
        summary = {}
        for workload in workloads:
            pairs = []
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {side: _run(copies[side], workload, seed) for side in order}
                machine = machine or pair["parent"]["machine"]
                pairs.append(pair)
                print(workload, seed, {s: pair[s]["metrics"]["wall_s"]["value"] for s in SIDES},
                      file=sys.stderr)
            summary[workload] = summarize(pairs)
        traced = {
            workload: _traced({side: _run(copies[side], workload, seeds[0], 1) for side in SIDES})
            for workload in filter(None, args.traced.split(","))
        }
    machine.update(
        PYTHONDONTWRITEBYTECODE=os.environ.get("PYTHONDONTWRITEBYTECODE"),
        bare_python_start_s=_bare_start(),
    )
    record = {
        "machine": machine,
        "runs": {
            "end_to_end": (
                f"python3 bench/run.py --workload W --seed S --trace 0 for S = {args.seeds}, "
                f"from git archive copies of {args.parent} (parent) and {args.change} (change); "
                "parent first on even pairs, change first on odd ones; quartiles inclusive; "
                "per-command values are medians over runs of each run's per-command median "
                "(rss_max_MB: of each run's per-command maximum) from "
                "bench/out/results-W-seedS-trace0.json"
            ),
            "traced": (
                f"python3 bench/run.py --workload W --seed {seeds[0]} --trace 1, once per side, "
                f"parent first, for W in {sorted(traced)}; values from "
                f"bench/out/results-W-seed{seeds[0]}-trace1.json"
            ),
        },
        "workloads": summary,
        "traced": traced,
        "notes": args.note,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
