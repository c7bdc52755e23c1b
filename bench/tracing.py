"""In-process pass over one workload's commands, optionally traced.

    python3 bench/tracing.py --workload trees --seed 0 --out-dir DIR [--spans FILE]

Each command runs through `recomblab.cli.main(argv)` in this interpreter.
With `--spans`, span wrappers are installed around the entry points of every
layer (`cube`, `discrete`, `yule`, `profiles`, `streams`, `cli`) in every
namespace that binds them, since modules import functions such as
`collide_coeffs`, `sample_yule` and `mono_mixture_tv` by name.  A span is
recorded only where a call crosses from one layer into another.  Spans are
kept in memory and written to FILE at the end.  The last output line is a
JSON summary.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS, workload_seed  # noqa: E402

LAYERS = {
    "recomblab.cube": "cube",
    "recomblab.discrete": "discrete",
    "recomblab.yule": "yule",
    "recomblab.profiles": "profiles",
    "recomblab.streams": "streams",
    "recomblab.cli": "cli",
}
# layers with work on every workload; a layer idle on some workload would
# report a self time of exactly zero there, so only its call count is kept
SELF_TIME_METRIC_LAYERS = ("cli", "yule", "profiles")


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "request")

    def __init__(self, id, name, layer, start, parent, request):
        self.id = id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request

    def as_row(self) -> list:
        return [self.id, self.name, self.layer, self.start, self.end, self.parent, self.request]


class Tracer:
    """Collects spans; worker threads without an open span of their own are
    parented to the innermost open span of the main thread, which is blocked
    waiting for them."""

    def __init__(self):
        self.spans: List[Span] = []
        self.request: Optional[int] = None
        self._ids = itertools.count()
        self._main: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._main[-1] if tracer._main else None)
            if parent is not None and parent.layer == layer:
                return fn(*args, **kwargs)
            span = Span(
                next(tracer._ids), name, layer, time.perf_counter(),
                None if parent is None else parent.id, tracer.request,
            )
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer function that is public or bound outside its home
    module, and rebind it in every recomblab namespace."""
    import recomblab  # noqa: F401
    import recomblab.acceptance  # noqa: F401
    import recomblab.cli  # noqa: F401

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "recomblab"]
    wanted: Dict[int, Tuple[object, str, str]] = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            home = getattr(obj, "__module__", None)
            if home not in LAYERS or isinstance(obj, type) or not callable(obj):
                continue
            if not attr.startswith("_") or mod.__name__ != home:
                layer = LAYERS[home]
                wanted[id(obj)] = (obj, layer, f"{layer}.{obj.__name__}")
    wrappers = {key: tracer.wrap(obj, layer, name) for key, (obj, layer, name) in wanted.items()}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and wanted[id(obj)][0] is obj:
                setattr(mod, attr, wrappers[id(obj)])


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """A span's duration minus the part of it that its child spans cover;
    children running in parallel threads are counted once."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered_length(children[s.id], s.start, s.end) for s in spans}


def layer_summary(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    own = self_times(spans)
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS.values()}
    for s in spans:
        out[s.layer]["self_s"] += own[s.id]
        out[s.layer]["calls"] += 1
    return out


def trace_metrics(spans: List[Span]) -> Dict[str, dict]:
    summary = layer_summary(spans)
    metrics = {}
    for layer in SELF_TIME_METRIC_LAYERS:
        metrics[f"{layer}.self_s"] = {"value": summary[layer]["self_s"], "unit": "s"}
    for layer, row in summary.items():
        metrics[f"{layer}.calls"] = {"value": row["calls"], "unit": "count"}
    martingale = sum(s.name == "yule.martingale_samples" for s in spans)
    metrics["yule.martingale.calls"] = {"value": martingale, "unit": "count"}
    return metrics


def report(spans: List[Span], expected: Tuple[str, ...]) -> List[str]:
    summary = layer_summary(spans)
    total = sum(row["self_s"] for row in summary.values()) or 1.0
    lines = [f"{'layer':10s} {'self_s':>10s} {'share':>7s} {'calls':>8s}"]
    for layer, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{layer:10s} {row['self_s']:10.4f} {row['self_s'] / total:7.1%} {row['calls']:8d}"
        )
    top = max(summary, key=lambda layer: summary[layer]["self_s"])
    verdict = "as predicted" if top in expected else "MISMATCH"
    lines.append(f"dominant layer: {top} (predicted {'/'.join(expected)}): {verdict}")
    return lines


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spans", help="trace the pass and write its spans here")
    args = parser.parse_args(argv)
    work = WORKLOADS[args.workload]
    seed = workload_seed(args.seed)

    tracer = Tracer() if args.spans else None
    if tracer is not None:
        install(tracer)
    from recomblab import cli

    statuses, seconds = [], []
    for index, cmd in enumerate(work.commands):
        if tracer is not None:
            tracer.request = index
        argv = cmd.argv_for(seed) + ["--out-dir", str(Path(args.out_dir) / cmd.label)]
        start = time.perf_counter()
        statuses.append(cli.main(argv))
        seconds.append(time.perf_counter() - start)

    summary = {"status": statuses, "seconds": seconds, "wall_s": sum(seconds)}
    if tracer is not None:
        spans = tracer.spans
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        Path(args.spans).write_text(
            json.dumps(
                {
                    "workload": work.name,
                    "seed": seed,
                    "requests": [cmd.label for cmd in work.commands],
                    "columns": ["id", "name", "layer", "start", "end", "parent", "request"],
                    "spans": [s.as_row() for s in spans],
                }
            )
        )
        summary["metrics"] = trace_metrics(spans)
        summary["report"] = report(spans, work.dominant_layers)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
