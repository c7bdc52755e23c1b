"""Command-line experiment driver.

Every subcommand reads its parameters from flags, runs one experiment, writes
CSV outputs plus a JSON run manifest, and exits 0 on success.  Each option
declares its default, or that it is required, with argparse.  Outputs are a
pure function of (flags, seed) byte for byte; the manifest additionally
records wall-clock time, peak resident memory, output checksums, any capacity
caps that fired, and the random-substream derivation identifier.

This module is the only one that knows the CSV formats.  Every table, from a
pmf's `index,value` rows to the martingale's `sample,t,W,leaves` rows, is
formatted by one formatter, `_csv_text`, in the bytes csv.writer writes, and
every file, manifests included, goes through one write path: a temporary file
moved into place.  `_load_start` reads an `index,value` start file back.

Exit codes: 2 for configuration errors (a missing, bad or abbreviated flag
exits through argparse's message) and for outputs that cannot be written, 3
for capacity errors, 4 for numerical invariant violations.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import resource
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, count, repeat
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__, cube, discrete, profiles, yule
from .acceptance import DEFAULT_SEED, run_all
from .errors import (
    CapacityError,
    ConfigError,
    InvalidDistributionError,
    NumericalInvariantError,
    RecombError,
)
from .streams import STREAM_ALGORITHM, rng_substream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_NUMERICAL = 4

OUT_DIR_ENV = "RECOMBLAB_OUT_DIR"

# fixed Monte Carlo chunk size: the chunk plan depends only on the sample
# count, so results are identical for every worker-pool width
CHUNK_SIZE = 10_000
CHUNK_TASK_BASE = 100

# the commands that evaluate a scipy special function.  `main` imports
# scipy.special for them before the manifest clock starts, so wall_seconds
# excludes imports, and every other command starts without scipy.
SCIPY_COMMANDS = frozenset(
    {
        "profile-discrete",
        "lowerbound-discrete",
        "lowerbound-continuous",
        "selftest",
    }
)


# ---------------------------------------------------------------------------
# small parsing helpers
# ---------------------------------------------------------------------------

# a value that argparse would take for an option: `-` then a digit or `.digit`
# (no option name starts that way)
_NUMBER_VALUE = re.compile(r"-\.?[0-9]")


def _join_negative_values(argv: List[str]) -> List[str]:
    """Fold `--flag -4..4`, `--flag -3,-1` or `--flag -1e1` into `--flag=...`.

    argparse reads such a token as an option; joined, it is the flag's value.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok.startswith("--")
            and "=" not in tok
            and i + 1 < len(argv)
            and _NUMBER_VALUE.match(argv[i + 1])
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _parse_grid(text: str) -> List[float]:
    """Grid syntax: `a..b` (inclusive integer range), `a,b,c`, or a scalar.

    Every point must be finite.
    """
    text = text.strip()
    try:
        if ".." in text:
            lo_txt, hi_txt = text.split("..", 1)
            lo, hi = int(lo_txt), int(hi_txt)
            if hi < lo:
                raise ValueError("range upper end below lower end")
            return [float(v) for v in range(lo, hi + 1)]
        grid = [float(v) for v in text.split(",")]
        if not all(map(math.isfinite, grid)):
            raise ValueError("points must be finite")
        return grid
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {err}") from None


def _count(minimum: int):
    """argparse type for a count option: an integer of at least `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value

    return parse


_COUNT = _count(1)
_NONNEGATIVE_COUNT = _count(0)
# a count that feeds a sample standard deviation
_SPREAD_COUNT = _count(2)


def _real(minimum: float, *, strict: bool = False):
    """argparse type for a real option: a finite float >= `minimum` (> with `strict`)."""
    relation = ">" if strict else ">="

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not math.isfinite(value) or value < minimum or (strict and value == minimum):
            raise argparse.ArgumentTypeError(
                f"expected a finite number {relation} {minimum:g}, got {text!r}"
            )
        return value

    return parse


_NONNEGATIVE_REAL = _real(0.0)
_POSITIVE_REAL = _real(0.0, strict=True)


# ---------------------------------------------------------------------------
# run context: outputs, checksums, manifest
# ---------------------------------------------------------------------------


@dataclass
class RunContext:
    command: str
    out_dir: Path
    parameters: Dict[str, object]
    outputs: List[Dict[str, object]] = field(default_factory=list)
    capacity_events: List[Dict[str, object]] = field(default_factory=list)
    # which algorithm each `auto` picked, and how much work it did
    resolved: Dict[str, object] = field(default_factory=dict)
    counters: Dict[str, object] = field(default_factory=dict)
    # wall seconds of named phases, kept out of the CSVs so that their bytes
    # depend on the flags and the seed alone
    phases: Dict[str, float] = field(default_factory=dict)
    started_at: str = ""
    manifest_name: str = field(init=False)
    _clock: float = 0.0

    def __post_init__(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_name = f"{self.command.replace('-', '_')}_manifest.json"
        self.started_at = datetime.now(timezone.utc).isoformat()
        self._clock = time.perf_counter()

    def _publish(self, name: str, text: str) -> Path:
        """Write `text` to a temporary file, then move it into place as `name`."""
        path = self.out_dir / name
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(text.encode())
        os.replace(tmp, path)
        return path

    def write_rows(self, name: str, header: Sequence[str], rows) -> Path:
        """Write a csv output and record its checksum."""
        manifest = (self.out_dir / self.manifest_name).resolve()
        if (self.out_dir / name).resolve() in (manifest, Path(f"{manifest}.tmp")):
            raise ConfigError(f"output {name} is where the run's manifest goes")
        text = _csv_text(header, rows)
        path = self._publish(name, text)
        blob = text.encode()
        self.outputs.append(
            {"file": path.name, "sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}
        )
        return path

    def record_capacity(self, err: CapacityError):
        self.capacity_events.append({"message": str(err), **err.stats})

    def finish(self, status: int) -> Path:
        manifest = {
            "command": self.command,
            "version": __version__,
            "stream_algorithm": STREAM_ALGORITHM,
            "started_at": self.started_at,
            "wall_seconds": round(time.perf_counter() - self._clock, 6),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "parameters": self.parameters,
            "outputs": self.outputs,
            "capacity_events": self.capacity_events,
            "resolved": self.resolved,
            "counters": self.counters,
            "phases": self.phases,
            "exit_status": status,
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        return self._publish(self.manifest_name, text)


def _csv_text(header: Sequence[str], rows) -> str:
    """The bytes csv.writer writes for `header` and `rows`, one line per row.

    Every row holds one cell per header name.  A table of plain floats and
    ints, whose reprs never need quoting, is formatted by one printf template
    over all its cells; any other table goes through csv.writer cell by cell.
    The rows are flattened straight from their iterator, so a `zip` or
    `enumerate` of them allocates no tuple per row.
    """
    width = len(header)
    cells = tuple(chain.from_iterable(rows))
    if len(cells) % width:
        raise ValueError(f"{len(cells)} cells do not fill rows of {width}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    if {float, int}.issuperset(map(type, cells)):
        return buf.getvalue() + ("%r," * (width - 1) + "%r\n") * (len(cells) // width) % cells
    texts = list(map(_cell, cells))
    writer.writerows(texts[i : i + width] for i in range(0, len(texts), width))
    return buf.getvalue()


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


# ---------------------------------------------------------------------------
# shared input loading
# ---------------------------------------------------------------------------


def _load_start(spec: str, n: Optional[int]) -> cube.Pmf:
    """A start measure: `mono`, `uniform`, `point:BITS`, or an `index,value` CSV path."""
    if spec in ("mono", "uniform") or spec.startswith("point:"):
        if n is None:
            raise ConfigError(f"--n is required with start {spec!r}")
        if spec == "mono":
            return cube.monochromatic_pmf(n)
        if spec == "uniform":
            return cube.uniform_pmf(n)
        try:
            bits = int(spec.split(":", 1)[1], 0)
        except ValueError:
            raise ConfigError(f"bad point spec {spec!r}") from None
        return cube.point_mass(n, bits)
    path = Path(spec)
    if not path.exists():
        raise ConfigError(f"start {spec!r} is neither a named start nor a file")
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise ConfigError(f"cannot read start file {path}: {err}") from None
    if rows[:1] != [["index", "value"]]:
        raise InvalidDistributionError(f"{path}: expected header index,value")
    rows = rows[1:]
    values = np.empty(len(rows))
    for expect, row in enumerate(rows):
        try:
            index, value = int(row[0]), float(row[1])
        except (IndexError, ValueError):
            index = None
        if len(row) != 2 or index != expect:
            raise InvalidDistributionError(f"{path}: bad row {row!r}")
        values[expect] = value
    if values.size == 0 or values.size & (values.size - 1):
        raise InvalidDistributionError(f"{path}: row count {values.size} is not 2^n")
    pmf = cube.Pmf(values.size.bit_length() - 1, values)
    if n is not None and pmf.n != n:
        raise ConfigError(f"{spec} holds {pmf.n} sites, --n says {n}")
    return pmf


def _chunk_plan(total: int) -> List[int]:
    sizes = []
    left = total
    while left > 0:
        take = min(CHUNK_SIZE, left)
        # Welford/std needs at least 2 per chunk; merge a trailing 1
        if left - take == 1:
            take += 1
        sizes.append(take)
        left -= take
    return sizes


def _sample_martingale(
    ctx: RunContext, t: float, total: int, seed: int, workers: int, method: str
) -> yule.MartingaleBatch:
    """Chunked martingale sampling with order fixed by task id.

    The sampler choice and the chunk plan depend only on (t, total), never
    on the worker count, so the concatenated batch is reproducible for any
    parallelism degree.  Each cascade chunk grows its own pool; the manifest
    gets the resolved sampler, the tree nodes grown summed over chunks and,
    for the cascade, the pool size and the final-stage draws, last-pool
    entries grown and expected repeat draws summed over chunks.
    """
    method = yule.resolve_martingale_method(t, total, method)
    sizes = _chunk_plan(total)

    def run_chunk(task: tuple) -> yule.MartingaleBatch:
        idx, size = task
        rng = rng_substream(seed, CHUNK_TASK_BASE + idx)
        return yule.martingale_samples(t, size, rng, method=method)

    tasks = list(enumerate(sizes))
    if workers <= 1 or len(tasks) == 1:
        parts = [run_chunk(task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_chunk, tasks))
    batch = yule.MartingaleBatch(
        horizon=float(t),
        values=np.concatenate([p.values for p in parts]),
        leaf_counts=np.concatenate([p.leaf_counts for p in parts]),
        method=method,
        pool_size=max(p.pool_size for p in parts),
        pool_draws=sum(p.pool_draws for p in parts),
        pool_grown=sum(p.pool_grown for p in parts),
        expected_repeat_draws=sum(p.expected_repeat_draws for p in parts),
        nodes_grown=sum(p.nodes_grown for p in parts),
    )
    ctx.resolved["martingale_method"] = method
    ctx.counters["nodes_grown"] = batch.nodes_grown
    if method == "cascade":
        ctx.resolved["cascade_sampler_version"] = yule.CASCADE_SAMPLER_VERSION
        ctx.counters.update(
            cascade_pool_size=batch.pool_size,
            cascade_pool_draws=batch.pool_draws,
            cascade_pool_grown=batch.pool_grown,
            cascade_expected_repeat_draws=batch.expected_repeat_draws,
        )
    return batch


def _martingale_values(ns, ctx: RunContext) -> np.ndarray:
    """The `--samples` martingale values of `w-tail` and `profile-continuous`.

    At `--horizon` they come from `_sample_martingale`.  Without it they are
    exact draws of the t = inf limit, from substream 0 in one call whatever
    `--workers` is; the limit has one sampler, so `--method` must be `auto`.
    """
    if ns.horizon is not None:
        return _sample_martingale(ctx, ns.horizon, ns.samples, ns.seed, ns.workers, ns.method).values
    if ns.method != "auto":
        raise ConfigError(f"--method {ns.method} needs --horizon: the limit has one sampler")
    ctx.resolved["martingale_method"] = "limit"
    ctx.counters["nodes_grown"] = 0
    return yule.martingale_limit_samples(ns.samples, rng_substream(ns.seed, 0))


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_collide(ns, ctx: RunContext) -> int:
    a = _load_start(ns.a, ns.n)
    b = _load_start(ns.b, ns.n)
    out = discrete.collide_pmf(a, b)
    ctx.resolved["collision_kernel"] = discrete.resolve_collision_method(a.n)
    ctx.write_rows(ns.out, ["index", "value"], enumerate(out.weights.tolist()))
    return EXIT_OK


def _cmd_evolve_discrete(ns, ctx: RunContext) -> int:
    state = discrete.evolve_discrete(_load_start(ns.start, ns.n), ns.steps)
    ctx.resolved["collision_kernel"] = discrete.resolve_collision_method(state.n)
    ctx.write_rows(ns.out, ["index", "value"], enumerate(state.weights.tolist()))
    return EXIT_OK


def _cmd_evolve_continuous(ns, ctx: RunContext) -> int:
    state = yule.evolve_continuous(_load_start(ns.start, ns.n), ns.t, step=ns.step)
    ctx.resolved["collision_kernel"] = discrete.resolve_collision_method(state.n)
    ctx.write_rows(ns.out, ["index", "value"], enumerate(state.weights.tolist()))
    return EXIT_OK


def _cmd_profile_discrete(ns, ctx: RunContext) -> int:
    """Exact two-point-start profile at steps round(log2 n) + window, with
    the Gaussian profile and the site union bound at each window's scale."""
    windows = []
    for w in ns.lambda_grid:
        if w != int(w):
            raise ConfigError(f"discrete profile windows must be integers, got {w}")
        windows.append(int(w))
    t_base = round(math.log2(ns.n))
    rows = []
    ctx.counters["mixture_cells"] = 0
    for w in windows:
        t = t_base + w
        if t < 0:
            raise ConfigError(f"window {w} puts the step count below zero")
        scale = ns.n * 2.0 ** (-t)
        tv = discrete.mono_mixture_tv(ns.n, t)
        ctx.counters["mixture_cells"] += discrete.mixture_window(ns.n, t).cells
        rows.append((float(w), scale, tv, profiles.gaussian_tv(scale), min(1.0, scale)))
    ctx.write_rows(ns.out, ["lambda", "s", "tv_exact", "phi_s", "upper_bound"], rows)
    return EXIT_OK


def _cmd_profile_continuous(ns, ctx: RunContext) -> int:
    """Mixture profile on the window grid from one martingale batch."""
    values = _martingale_values(ns, ctx)
    rows = []
    for w in ns.lambda_grid:
        # before the scale: it turns an e^(-w/2) that overflows into a ConfigError
        tv = profiles.mixture_profile_tv(w, values)
        rows.append((w, math.exp(-w / 2.0), tv))
    ctx.write_rows(ns.out, ["lambda", "scale", "tv"], rows)
    return EXIT_OK


def _cmd_fragmentation(ns, ctx: RunContext) -> int:
    times = discrete.fragmentation_times(ns.n, ns.trials, rng_substream(ns.seed, 0))
    ctx.resolved["fragmentation_sampler_version"] = discrete.FRAGMENTATION_SAMPLER_VERSION
    ctx.write_rows(ns.out, ["trial", "time"], enumerate(times.tolist()))
    return EXIT_OK


def _cmd_martingale(ns, ctx: RunContext) -> int:
    batch = _sample_martingale(ctx, ns.t, ns.samples, ns.seed, ns.workers, ns.method)
    rows = zip(count(), repeat(batch.horizon), batch.values.tolist(), batch.leaf_counts.tolist())
    ctx.write_rows(ns.out, ["sample", "t", "W", "leaves"], rows)
    return EXIT_OK


def _cmd_w_tail(ns, ctx: RunContext) -> int:
    values = _martingale_values(ns, ctx)
    rows = []
    for eps in ns.eps:
        est = yule.tail_probability_from_samples(values, eps)
        rows.append(
            (eps, est.probability, est.stderr, est.ci_low, est.ci_high, est.samples)
        )
    ctx.write_rows(
        ns.out,
        ["eps", "probability", "stderr", "ci_low", "ci_high", "samples"],
        rows,
    )
    return EXIT_OK


def _cmd_lowerbound_discrete(ns, ctx: RunContext) -> int:
    report = profiles.lowerbound_experiment_discrete(ns.n, ns.t)
    ctx.write_rows(ns.out, ["key", "value"], vars(report).items())
    return EXIT_OK


def _cmd_lowerbound_continuous(ns, ctx: RunContext) -> int:
    rng = rng_substream(ns.seed, 0)
    report = profiles.lowerbound_experiment_continuous(ns.n, ns.t, ns.trees, rng)
    ctx.resolved["tree_sampler_version"] = yule.TREE_SAMPLER_VERSION
    ctx.write_rows(ns.out, ["key", "value"], vars(report).items())
    return EXIT_OK


def _cmd_spinal_check(ns, ctx: RunContext) -> int:
    report = yule.spinal_identity_check(ns.t, ns.samples, rng_substream(ns.seed, 0))
    rows = [
        (r.name, r.weighted_mean, r.plain_mean, r.z, r.analytic, r.z_analytic)
        for r in report.results
    ]
    ctx.write_rows(
        ns.out,
        ["functional", "weighted_mean", "plain_mean", "z", "analytic", "z_analytic"],
        rows,
    )
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def _cmd_selftest(ns, ctx: RunContext) -> int:
    results = run_all(ns.seed, printer=print)
    ctx.phases.update((f"criterion_{r.number}", round(r.seconds, 3)) for r in results)
    rows = [(r.number, r.slug, int(r.passed), r.summary) for r in results]
    ctx.write_rows(ns.out, ["criterion", "slug", "passed", "summary"], rows)
    return EXIT_OK if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser construction
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recomblab",
        description="Recombination dynamics on the Boolean cube: exact evolution, "
        "Monte Carlo tree representations, and mixing profiles.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"recomblab {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="command")

    # flags that several commands share, each declared once on a parent parser
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", required=True, type=_NONNEGATIVE_COUNT, help="master seed")
    sites = argparse.ArgumentParser(add_help=False)
    sites.add_argument("--n", required=True, type=_COUNT, help="number of sites")
    start = argparse.ArgumentParser(add_help=False)
    start.add_argument("--n", type=_COUNT, help="number of sites")
    start.add_argument(
        "--start", required=True, help="start measure: mono | uniform | point:BITS | csv path"
    )
    windows = argparse.ArgumentParser(add_help=False)
    windows.add_argument(
        "--lambda", required=True, type=_parse_grid, dest="lambda_grid", help="windows, e.g. -4..4"
    )
    sampler = argparse.ArgumentParser(add_help=False)
    sampler.add_argument(
        "--method", choices=("auto", "direct", "cascade"), default="auto", help="martingale sampler"
    )
    sampler.add_argument("--workers", type=_COUNT, default=1, help="worker threads")
    limit = argparse.ArgumentParser(add_help=False, parents=[sampler])
    limit.add_argument(
        "--horizon", type=_NONNEGATIVE_REAL, help="finite horizon; default the exact t = inf limit"
    )

    p = subs.add_parser("collide", help="one collision of two measures")
    p.add_argument("--n", type=_COUNT, help="number of sites (needed for named starts)")
    p.add_argument(
        "--a", required=True, help="first measure: mono | uniform | point:BITS | csv path"
    )
    p.add_argument("--b", required=True, help="second measure")
    p.add_argument("--out", default="collide.csv", help="output pmf csv")
    p.set_defaults(fn=_cmd_collide)

    p = subs.add_parser("evolve-discrete", help="iterate the self-collision map", parents=[start])
    p.add_argument("--steps", required=True, type=_NONNEGATIVE_COUNT, help="number of steps")
    p.add_argument("--out", default="evolved_discrete.csv", help="output pmf csv")
    p.set_defaults(fn=_cmd_evolve_discrete)

    p = subs.add_parser(
        "evolve-continuous", help="integrate the continuous dynamics", parents=[start]
    )
    p.add_argument("--t", required=True, type=_NONNEGATIVE_REAL, help="horizon")
    p.add_argument("--step", type=_POSITIVE_REAL, default=0.01, help="integrator step bound")
    p.add_argument("--out", default="evolved_continuous.csv", help="output pmf csv")
    p.set_defaults(fn=_cmd_evolve_continuous)

    p = subs.add_parser(
        "profile-discrete", help="exact distance profile around the mixing window",
        parents=[sites, windows],
    )
    p.add_argument(
        "--seed", type=_NONNEGATIVE_COUNT, help="echoed to the manifest; unused (exact pipeline)"
    )
    p.add_argument("--out", default="profile_discrete.csv", help="output csv")
    p.set_defaults(fn=_cmd_profile_discrete)

    p = subs.add_parser(
        "profile-continuous", help="sampled mixture profile of the continuous limit",
        parents=[windows, limit, seed],
    )
    p.add_argument("--samples", type=_COUNT, default=10_000, help="martingale sample count")
    p.add_argument("--out", default="profile_continuous.csv", help="output csv")
    p.set_defaults(fn=_cmd_profile_continuous)

    p = subs.add_parser(
        "fragmentation", help="sample full-fragmentation times", parents=[sites, seed]
    )
    p.add_argument("--trials", type=_COUNT, default=1000, help="number of runs")
    p.add_argument("--out", default="fragmentation.csv", help="output csv")
    p.set_defaults(fn=_cmd_fragmentation)

    p = subs.add_parser(
        "martingale", help="sample the additive leaf-weight martingale", parents=[sampler, seed]
    )
    p.add_argument("--t", required=True, type=_NONNEGATIVE_REAL, help="horizon")
    p.add_argument("--samples", type=_COUNT, default=10_000, help="sample count")
    p.add_argument("--out", default="martingale.csv", help="output csv (sample,t,W,leaves)")
    p.set_defaults(fn=_cmd_martingale)

    p = subs.add_parser("w-tail", help="small-value tail of the martingale", parents=[limit, seed])
    p.add_argument(
        "--eps", required=True, type=_parse_grid, help="thresholds, e.g. 0.5,0.25,0.125"
    )
    p.add_argument("--samples", type=_COUNT, default=100_000, help="sample count")
    p.add_argument("--out", default="w_tail.csv", help="output csv")
    p.set_defaults(fn=_cmd_w_tail)

    p = subs.add_parser(
        "lowerbound-discrete", help="exact block-event distance lower bound", parents=[sites]
    )
    p.add_argument("--t", required=True, type=_NONNEGATIVE_COUNT, help="step count")
    p.add_argument("--out", default="lowerbound_discrete.csv", help="output csv")
    p.set_defaults(fn=_cmd_lowerbound_discrete)

    p = subs.add_parser(
        "lowerbound-continuous", help="sampled block-event lower bound, continuous time",
        parents=[sites, seed],
    )
    p.add_argument("--t", required=True, type=_POSITIVE_REAL, help="horizon")
    p.add_argument("--trees", type=_SPREAD_COUNT, default=400, help="sampled trees")
    p.add_argument("--out", default="lowerbound_continuous.csv", help="output csv")
    p.set_defaults(fn=_cmd_lowerbound_continuous)

    p = subs.add_parser(
        "spinal-check", help="size-biased reweighting identity check", parents=[seed]
    )
    p.add_argument("--t", required=True, type=_POSITIVE_REAL, help="horizon")
    p.add_argument("--samples", type=_SPREAD_COUNT, default=200_000, help="paths per side")
    p.add_argument("--out", default="spinal_check.csv", help="output csv")
    p.set_defaults(fn=_cmd_spinal_check)

    p = subs.add_parser("selftest", help="run the acceptance registry")
    p.add_argument(
        "--seed", type=_NONNEGATIVE_COUNT, default=DEFAULT_SEED, help="registry master seed"
    )
    p.add_argument("--out", default="selftest.csv", help="result table")
    p.set_defaults(fn=_cmd_selftest)

    # every command writes a run directory, and none takes an abbreviated
    # option: argparse would read any unambiguous prefix as the full name
    for sub in subs.choices.values():
        sub.add_argument("--out-dir", help=f"output directory (default: ${OUT_DIR_ENV} or cwd)")
        sub.allow_abbrev = False
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = _join_negative_values(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_help()
        return EXIT_CONFIG
    if ns.command in SCIPY_COMMANDS:
        import scipy.special  # noqa: F401
    # an unwritable output exits 2, with a manifest wherever its directory exists
    try:
        ctx = RunContext(
            command=ns.command,
            out_dir=Path(ns.out_dir or os.environ.get(OUT_DIR_ENV) or Path.cwd()),
            parameters={k: v for k, v in sorted(vars(ns).items()) if k not in ("fn", "command")},
        )
        try:
            status = ns.fn(ns, ctx)
        except ConfigError as err:
            print(f"config error: {err}", file=sys.stderr)
            status = EXIT_CONFIG
        except CapacityError as err:
            print(f"capacity error: {err}", file=sys.stderr)
            ctx.record_capacity(err)
            status = EXIT_CAPACITY
        except NumericalInvariantError as err:
            print(f"numerical invariant violated: {err}", file=sys.stderr)
            status = EXIT_NUMERICAL
        except RecombError as err:
            print(f"error: {err}", file=sys.stderr)
            status = EXIT_CONFIG
        except OSError:
            ctx.finish(EXIT_CONFIG)
            raise
        ctx.finish(status)
    except OSError as err:
        print(f"output error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return status


if __name__ == "__main__":
    sys.exit(main())
