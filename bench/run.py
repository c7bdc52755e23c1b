"""recomblab benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload exact --seed 0 --seconds 34 --trace 0

`--trace 0` runs the workload's CLI commands one after another, each in a
fresh `python -m recomblab.cli` child, cycling through them until
`--seconds` are spent (one full pass always runs).  Each child's resources
are read with `os.wait4`, its time split into the manifest's
`wall_seconds` and the set-up around it, and its outputs checked.  The
end-to-end metrics are sums of per-command medians.

`--trace 1` times the public functions of each module in isolation
(`layers.py`) and runs the workload's commands in-process twice, untraced
and traced (`tracing.py`), each in a fresh interpreter; it reports the
per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Scratch
output and a results file go under `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from checks import CheckResult, check_command, failed_ratio, load_reference, manifest_path  # noqa: E402
from workloads import WORKLOADS, Command, Workload, workload_seed  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# one process does the work at a time; the only extra threads are the CLI's
# own `--workers`
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# a run must end within 180 s whatever a child does
RUN_LIMIT_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def child_env(tmp: Path) -> Dict[str, str]:
    """Environment of every child: the absolute `src` on PYTHONPATH (so no
    install is needed and the child's cwd does not matter), single-threaded
    BLAS/OpenMP, and a temp dir inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    env["TMPDIR"] = str(tmp)
    env.pop("RECOMBLAB_OUT_DIR", None)
    return env


def _cache_sizes() -> Dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine_info(env: Dict[str, str]) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        **versions,
        "child_threads": {var: env[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


@dataclass
class ChildRun:
    status: int
    elapsed: float
    cpu: float
    peak_rss_mb: float


def run_child(argv: List[str], env: Dict[str, str], log: Path, kill_at: float) -> ChildRun:
    """Run one child to completion and account its resources with wait4,
    which reports this child alone (RUSAGE_CHILDREN would mix in every
    earlier child's peak RSS).  The child is killed at `kill_at`."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=err, stderr=err)
        timer = threading.Timer(max(0.0, kill_at - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        status=proc.returncode,
        elapsed=elapsed,
        cpu=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def cli_argv(cmd: Command, seed: int, out_dir: Path) -> List[str]:
    return [sys.executable, "-m", "recomblab.cli", *cmd.argv_for(seed), "--out-dir", str(out_dir)]


# ---------------------------------------------------------------------------
# --trace 0: end to end
# ---------------------------------------------------------------------------


@dataclass
class Samples:
    wall: List[float] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    cpu: List[float] = field(default_factory=list)
    rss: List[float] = field(default_factory=list)


def end_to_end_metrics(samples: Dict[str, Samples]) -> Dict[str, float]:
    """Sums of per-command medians, so a partial last cycle weighs nothing."""
    med = statistics.median
    return {
        "wall_s": sum(med(s.wall) for s in samples.values()),
        "setup_s": sum(med(s.setup) for s in samples.values()),
        "cpu_s": sum(med(s.cpu) for s in samples.values()),
        "peak_rss_mb": max(max(s.rss) for s in samples.values()),
    }


def run_end_to_end(work: Workload, seed: int, seconds: float, env, scratch: Path, reference, kill_at):
    samples: Dict[str, Samples] = {cmd.label: Samples() for cmd in work.commands}
    results: List[CheckResult] = []
    last_elapsed: Dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        cmd = work.commands[i % len(work.commands)]
        if i >= len(work.commands) and time.perf_counter() + last_elapsed[cmd.label] > deadline:
            break
        out_dir = scratch / f"{i:03d}-{cmd.label}"
        out_dir.mkdir(parents=True)
        child = run_child(cli_argv(cmd, seed, out_dir), env, out_dir / "stderr.log", kill_at)
        check = check_command(cmd, out_dir, child.status, seed, reference)
        results.append(check)
        try:
            wall = json.loads(manifest_path(out_dir, cmd.subcommand).read_text())["wall_seconds"]
        except (OSError, ValueError, KeyError):
            wall = child.elapsed  # a failed child: all of it counts as wall
        s = samples[cmd.label]
        s.wall.append(wall)
        s.setup.append(child.elapsed - wall)
        s.cpu.append(child.cpu)
        s.rss.append(child.peak_rss_mb)
        last_elapsed[cmd.label] = child.elapsed
        if check.ok:  # keep only what a failed check needs for inspection
            shutil.rmtree(out_dir)
        i += 1
    return samples, results


def report_end_to_end(work: Workload, samples: Dict[str, Samples], results) -> dict:
    metrics = end_to_end_metrics(samples)
    print(f"{'metric':28s} {'median':>10s} {'max':>10s} {'n':>3s} unit")
    for cmd in work.commands:
        wall = samples[cmd.label].wall
        print(f"{cmd.metric:28s} {statistics.median(wall):10.4f} {max(wall):10.4f} {len(wall):3d} s")
    for name, value in metrics.items():
        print(f"{name:28s} {value:10.4f} {'':>10s} {'':>3s} {END_TO_END_UNITS[name]}")
    print(f"{'failed_ratio':28s} {failed_ratio(results):10.4f} {'':>10s} {len(results):3d} 1")
    checked = sum(r.digests_checked for r in results)
    changed = sum(r.bytes_changed for r in results)
    print(f"bytes_changed {changed} of {checked} pinned digests (informational)")
    for r in results:
        for problem in r.problems:
            print(f"CHECK FAILED {r.label}: {problem}")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}


# ---------------------------------------------------------------------------
# --trace 1: per layer
# ---------------------------------------------------------------------------


def last_json_line(path: Path) -> dict:
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path.name} is empty")
    return json.loads(lines[-1])


def run_python_child(script: str, args: List[str], env, log: Path, kill_at: float) -> dict:
    child = run_child([sys.executable, str(BENCH_DIR / script), *args], env, log, kill_at)
    if child.status != 0:
        raise RuntimeError(f"{script} exited {child.status}; see {log}")
    return last_json_line(log)


def run_per_layer(work: Workload, seed: int, env, scratch: Path, reference, kill_at):
    layer = run_python_child("layers.py", ["--seed", str(seed)], env, scratch / "layers.log", kill_at)
    passes = {}
    results: List[CheckResult] = []
    for mode in ("untraced", "traced"):
        out_dir = scratch / mode
        args = ["--workload", work.name, "--seed", str(seed), "--out-dir", str(out_dir)]
        if mode == "traced":
            args += ["--spans", str(OUT / f"spans-{work.name}-seed{seed}.json")]
        passes[mode] = run_python_child("tracing.py", args, env, scratch / f"{mode}.log", kill_at)
        for cmd, status in zip(work.commands, passes[mode]["status"]):
            results.append(check_command(cmd, out_dir / cmd.label, status, seed, reference))
    traced = passes["traced"]
    metrics = dict(layer)
    metrics.update(traced["metrics"])
    metrics["trace.overhead_s"] = {
        "value": traced["wall_s"] - passes["untraced"]["wall_s"],
        "unit": "s",
    }
    for name, entry in sorted(metrics.items()):
        print(f"{name:48s} {entry['value']:14.6g} {entry['unit']}")
    for line in traced["report"]:
        print(line)
    for r in results:
        for problem in r.problems:
            print(f"CHECK FAILED {r.label}: {problem}")
    return metrics, results


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    kill_at = time.perf_counter() + RUN_LIMIT_S

    if not (SRC / "recomblab" / "cli.py").is_file():
        print(f"no recomblab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    seed = workload_seed(args.seed)
    scratch = OUT / f"run-{os.getpid()}"
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True)
    env = child_env(tmp)
    info = machine_info(env)
    reference = load_reference()
    print(f"workload {work.name}, seed {seed}, trace {args.trace}; machine {json.dumps(info)}")
    failed = None
    try:
        samples = {}
        if args.trace:
            metrics, results = run_per_layer(work, seed, env, scratch, reference, kill_at)
        else:
            samples, results = run_end_to_end(
                work, seed, args.seconds, env, scratch, reference, kill_at
            )
            metrics = report_end_to_end(work, samples, results)
        failed = sum(not r.ok for r in results)
    finally:
        if failed == 0:  # otherwise the outputs stay for inspection
            shutil.rmtree(scratch, ignore_errors=True)
    summary = {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}
    record = {
        "workload": work.name,
        "seed": seed,
        "trace": args.trace,
        "machine": info,
        "samples": {label: vars(s) for label, s in samples.items()},
        "problems": [[r.label, r.problems] for r in results if r.problems],
        **summary,
    }
    (OUT / f"results-{work.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
