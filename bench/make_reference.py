"""Regenerate `reference.json`, the pinned values the output checks compare with.

    PYTHONPATH=src python3 bench/make_reference.py

Run it from the repository root on a commit whose outputs are trusted; it
takes a few minutes.  It pins:

* the per-popcount weights of the two `evolve-continuous` outputs (the
  start and the dynamics are symmetric under site permutations, so the
  popcount classes describe the whole vector) and every cell of the
  `profile-discrete` table;
* sha256 digests of every exact output, and of every Monte Carlo output at
  workload seed 0;
* for each Monte Carlo statistic, the mean and standard deviation over
  48 independent runs of the same command at the same size, which the
  checks turn into a z-band.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from checks import OUTPUT_FILE, REFERENCE_PATH, digest_key, manifest_path, read_rows  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# workload seeds of the band runs, far from the small seeds benchmark runs use
BAND_SEED_BASE = 500_000
# enough runs that the spread estimate is within about 20%: a band pinned
# from an underestimated spread would fail correct runs again and again
BAND_RUNS = 48
LOWERBOUND_KEYS = ("tv_lower_bound", "block_count_tv", "evolved_complement")


def run(cmd, seed: int, out_dir: Path):
    from recomblab import cli

    status = cli.main(cmd.argv_for(seed) + ["--out-dir", str(out_dir)])
    if status != 0:
        raise SystemExit(f"{cmd.label} exited {status}")
    manifest = json.loads(manifest_path(out_dir, cmd.subcommand).read_text())
    header, rows = read_rows(out_dir / OUTPUT_FILE[cmd.subcommand])
    return manifest, header, rows


def popcount_classes(rows) -> list:
    n = len(rows).bit_length() - 1
    return [float(rows[(1 << k) - 1][1]) for k in range(n + 1)]


def band(values) -> dict:
    return {"mean": statistics.fmean(values), "sd": statistics.stdev(values), "k": len(values)}


def statistics_of(label: str, header, rows) -> dict:
    """The Monte Carlo statistics a check compares, keyed as the check keys them."""
    if label == "lowerbound-continuous":
        table = dict(rows)
        return {key: float(table[key]) for key in LOWERBOUND_KEYS}
    if label == "fragmentation":
        return {"mean": statistics.fmean(int(r[1]) for r in rows)}
    column = header.index("probability" if label == "w-tail" else "tv")
    return {repr(float(r[0])): float(r[column]) for r in rows}


def main() -> int:
    ref = {"pmf_classes": {}, "tables": {}, "digests": {}, "bands": {}}
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for work in WORKLOADS.values():
            for cmd in work.commands:
                out = scratch / cmd.label
                manifest, header, rows = run(cmd, 0, out / "seed0")
                ref["digests"][digest_key(cmd, 0)] = {
                    entry["file"]: entry["sha256"] for entry in manifest["outputs"]
                }
                if cmd.label.startswith("evolve-continuous"):
                    ref["pmf_classes"][cmd.label] = popcount_classes(rows)
                elif cmd.label == "profile-discrete":
                    ref["tables"][cmd.label] = {"header": header, "rows": rows}
                if cmd.kind != "monte-carlo" or cmd.label == "martingale":
                    continue
                per_run = []
                for j in range(BAND_RUNS):
                    _, header, rows = run(cmd, BAND_SEED_BASE + j, out / f"band{j}")
                    per_run.append(statistics_of(cmd.label, header, rows))
                ref["bands"][cmd.label] = {
                    key: band([stats[key] for stats in per_run]) for key in per_run[0]
                }
                print(f"{cmd.label}: {ref['bands'][cmd.label]}", flush=True)
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
