"""Output checks for one CLI command run: exit status, reference values, z-gates.

Exact commands are compared cell by cell with closed forms or with values
pinned in `reference.json`, within a relative tolerance of 1e-10.  Monte
Carlo commands must land inside stated z-gates: the martingale mean within
4 standard errors of 1, and the other statistics within 6 standard
deviations of the mean of independent reference runs of the same command at
the same size (a full set of benchmark runs makes about a thousand such
checks, which calls for a wide gate).  Output digests are compared with
pinned ones only for information: a changed byte is counted, never failed,
so an announced sampler change is not rejected for its bytes alone.

Pure Python on purpose: the parent process checks outputs without importing
numpy, so it stays light while the children are timed.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

from workloads import Command

EXACT_RTOL = 1e-10
MARTINGALE_Z = 4.0
BAND_Z = 6.0

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# default output file of each subcommand, as the CLI names it
OUTPUT_FILE = {
    "collide": "collide.csv",
    "evolve-discrete": "evolved_discrete.csv",
    "evolve-continuous": "evolved_continuous.csv",
    "profile-discrete": "profile_discrete.csv",
    "martingale": "martingale.csv",
    "lowerbound-continuous": "lowerbound_continuous.csv",
    "fragmentation": "fragmentation.csv",
    "w-tail": "w_tail.csv",
    "profile-continuous": "profile_continuous.csv",
}


@dataclass
class CheckResult:
    label: str
    problems: List[str] = field(default_factory=list)
    digests_checked: int = 0
    bytes_changed: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def manifest_path(out_dir: Path, subcommand: str) -> Path:
    return out_dir / f"{subcommand.replace('-', '_')}_manifest.json"


def failed_ratio(results: List[CheckResult]) -> float:
    """Commands that failed a check, over commands attempted."""
    if not results:
        raise ValueError("no commands attempted")
    return sum(not r.ok for r in results) / len(results)


# ---------------------------------------------------------------------------
# closed forms for the exact commands
# ---------------------------------------------------------------------------


def collide_mono_uniform_classes(n: int) -> List[float]:
    """Weight of a configuration with k plus sites after colliding the
    two-point start with the uniform measure: (3^k + 3^(n-k)) / (2 * 4^n)."""
    return [float(Fraction(3**k + 3 ** (n - k), 2 * 4**n)) for k in range(n + 1)]


def evolve_discrete_mono_classes(n: int, steps: int) -> List[float]:
    """Weight of a configuration with m plus sites after `steps` self-collisions
    of the two-point start.  Every site copies one of N = 2^steps independent
    two-point leaves uniformly, so the state is a Binomial(N, 1/2) mixture of
    products with plus-probability K/N."""
    leaves = 1 << steps
    out = []
    for m in range(n + 1):
        total = sum(
            math.comb(leaves, k) * k**m * (leaves - k) ** (n - m)
            for k in range(leaves + 1)
        )
        out.append(float(Fraction(total, 2**leaves * leaves**n)))
    return out


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def within_band(value: float, band: dict) -> bool:
    """`band` holds the mean and standard deviation of k reference runs of one
    statistic; a new run's deviation from that mean has variance sd^2 (1 + 1/k)."""
    return abs(value - band["mean"]) <= BAND_Z * band["sd"] * math.sqrt(1.0 + 1.0 / band["k"])


def read_rows(path: Path) -> tuple:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _check_pmf_classes(rows: list, header: list, classes: List[float], res: CheckResult):
    n = len(classes) - 1
    if header != ["index", "value"] or len(rows) != 1 << n:
        res.problems.append(f"expected {1 << n} index,value rows, got {len(rows)}")
        return
    floor = 2.0**-n
    worst = 0.0
    for i, (idx, value) in enumerate(rows):
        ref = classes[bin(i).count("1")]
        gap = abs(float(value) - ref) / max(abs(ref), floor)
        worst = max(worst, gap)
        if int(idx) != i:
            res.problems.append(f"row {i} carries index {idx}")
            return
    if worst > EXACT_RTOL:
        res.problems.append(f"pmf off its reference by {worst:.2e} relative (tol {EXACT_RTOL})")


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def _arg(cmd: Command, flag: str) -> str:
    return cmd.argv[cmd.argv.index(flag) + 1]


def _check_collide(cmd, header, rows, ref, res):
    n = int(_arg(cmd, "--n"))
    _check_pmf_classes(rows, header, collide_mono_uniform_classes(n), res)


def _check_evolve_discrete(cmd, header, rows, ref, res):
    n, steps = int(_arg(cmd, "--n")), int(_arg(cmd, "--steps"))
    _check_pmf_classes(rows, header, evolve_discrete_mono_classes(n, steps), res)


def _check_pinned_classes(cmd, header, rows, ref, res):
    _check_pmf_classes(rows, header, ref["pmf_classes"][cmd.label], res)


def _check_pinned_table(cmd, header, rows, ref, res):
    pinned = ref["tables"][cmd.label]
    if header != pinned["header"] or len(rows) != len(pinned["rows"]):
        res.problems.append(f"table shape {header}x{len(rows)} differs from reference")
        return
    for row, want in zip(rows, pinned["rows"]):
        for cell, target in zip(row, want):
            if abs(float(cell) - float(target)) > EXACT_RTOL * abs(float(target)):
                res.problems.append(f"cell {cell} differs from reference {target}")
                return


def _check_martingale(cmd, header, rows, ref, res):
    samples = int(_arg(cmd, "--samples"))
    if header != ["sample", "t", "W", "leaves"] or len(rows) != samples:
        res.problems.append(f"expected {samples} sample rows, got {len(rows)}")
        return
    values = [float(r[2]) for r in rows]
    if any(not (v > 0.0 and math.isfinite(v)) for v in values):
        res.problems.append("martingale values must be finite and positive")
        return
    if any(int(r[3]) < 1 for r in rows):
        res.problems.append("every tree has at least one leaf")
    mean = math.fsum(values) / samples
    var = math.fsum((v - mean) ** 2 for v in values) / (samples - 1)
    z = (mean - 1.0) / math.sqrt(var / samples)
    if abs(z) > MARTINGALE_Z:
        res.problems.append(f"martingale mean {mean:.5f} is {z:+.2f} SE from 1")


def _check_keyed_bands(cmd, header, rows, ref, res):
    table = {key: value for key, value in rows}
    if table.get("second_moment_bound_ok") != "True":
        res.problems.append("second-moment bound reported violated")
    for key, band in ref["bands"][cmd.label].items():
        if key not in table:
            res.problems.append(f"missing key {key}")
        elif not within_band(float(table[key]), band):
            res.problems.append(f"{key}={table[key]} outside reference band {band}")


def _check_fragmentation(cmd, header, rows, ref, res):
    trials, n = int(_arg(cmd, "--trials")), int(_arg(cmd, "--n"))
    if header != ["trial", "time"] or len(rows) != trials:
        res.problems.append(f"expected {trials} trial rows, got {len(rows)}")
        return
    times = [int(r[1]) for r in rows]
    if min(times) < math.ceil(math.log2(n)):
        res.problems.append(f"a fragmentation time below log2(n): {min(times)}")
    mean = sum(times) / trials
    if not within_band(mean, ref["bands"][cmd.label]["mean"]):
        res.problems.append(f"mean time {mean:.4f} outside reference band")


def _check_row_bands(cmd, header, rows, ref, res, column: str):
    """One row per window or threshold; `column` holds a probability."""
    bands = ref["bands"][cmd.label]
    if len(rows) != len(bands):
        res.problems.append(f"expected {len(bands)} rows, got {len(rows)}")
        return
    col = header.index(column)
    for row in rows:
        key = repr(float(row[0]))
        value = float(row[col])
        if key not in bands:
            res.problems.append(f"unexpected row key {key}")
        elif not 0.0 <= value <= 1.0:
            res.problems.append(f"{column}={value} outside [0, 1] at {key}")
        elif not within_band(value, bands[key]):
            res.problems.append(f"{column}={value} at {key} outside band {bands[key]}")


CHECKS: Dict[str, Callable] = {
    "collide": _check_collide,
    "evolve-discrete": _check_evolve_discrete,
    "evolve-continuous.n12": _check_pinned_classes,
    "evolve-continuous.n4": _check_pinned_classes,
    "profile-discrete": _check_pinned_table,
    "martingale": _check_martingale,
    "lowerbound-continuous": _check_keyed_bands,
    "fragmentation": _check_fragmentation,
    "w-tail": functools.partial(_check_row_bands, column="probability"),
    "profile-continuous": functools.partial(_check_row_bands, column="tv"),
}


def digest_key(cmd: Command, workload_seed: int) -> str:
    return cmd.label if cmd.kind == "exact" else f"{cmd.label}@{workload_seed}"


def check_command(
    cmd: Command,
    out_dir: Path,
    exit_status: int,
    workload_seed: int,
    reference: dict,
) -> CheckResult:
    res = CheckResult(cmd.label)
    if exit_status != 0:
        res.problems.append(f"exit status {exit_status}, expected 0")
        return res
    try:
        manifest = json.loads(manifest_path(out_dir, cmd.subcommand).read_text())
        header, rows = read_rows(out_dir / OUTPUT_FILE[cmd.subcommand])
        CHECKS[cmd.label](cmd, header, rows, reference, res)
    except (OSError, ValueError, KeyError, IndexError) as err:
        res.problems.append(f"unreadable output: {type(err).__name__}: {err}")
        return res
    if manifest.get("exit_status") != 0:
        res.problems.append(f"manifest exit_status {manifest.get('exit_status')}")
    pinned: Optional[dict] = reference.get("digests", {}).get(digest_key(cmd, workload_seed))
    if pinned:
        for entry in manifest.get("outputs", []):
            if entry["file"] in pinned:
                res.digests_checked += 1
                res.bytes_changed += entry["sha256"] != pinned[entry["file"]]
    return res
