"""Isolated, warm, in-process timings of each module's public functions.

    python3 bench/layers.py --seed 0

Each entry times one function at the size named in its metric: one warm-up
call fills caches (such as the pair tables), then the median of repeated
calls is reported, repeating until 0.3 s are spent or 7 calls made.  Work counts (bytes moved, nodes grown,
cells evaluated) are computed from array sizes, not measured.  Two entries run
in a fresh interpreter because users pay them on every CLI run: the import of
`recomblab.cli` and the cold n=14 pair-table build.  The last output line is a
JSON object of metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from recomblab import acceptance, cli, cube, discrete, profiles, yule
from recomblab.streams import rng_substream

ACCEPTANCE_CRITERIA = (1, 2, 3, 4, 5, 6, 7, 9, 11, 12, 13)
MIN_TOTAL_S = 0.3
MAX_REPS = 7


def timed(fn) -> float:
    """Seconds per warm call: the median of repeats after one warm-up call."""
    fn()
    times = []
    while len(times) < MAX_REPS and sum(times) < MIN_TOTAL_S:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def fresh_interpreter(code: str, reps: int) -> float:
    """Median of a time printed by `code` run in `reps` fresh interpreters."""
    values = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
        )
        values.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


IMPORT_CODE = """
import time
start = time.perf_counter()
import recomblab.cli
print(time.perf_counter() - start)
"""

COLD_PAIRS_CODE = """
import time
import numpy as np
from recomblab import cube, discrete
rng = np.random.default_rng(14)
f = cube.wht_forward(cube.random_pmf(14, rng)).coeffs
g = cube.wht_forward(cube.random_pmf(14, rng)).coeffs
start = time.perf_counter()
discrete.collide_coeffs(f, g, 14, method="pairs")
print(time.perf_counter() - start)
"""


def butterfly_bytes(n: int) -> int:
    """One copy in, then per site a half-size copy and two half-size updates,
    each reading and writing float64: (16 + 32 n) 2^n bytes."""
    return (16 + 32 * n) << n


def mixture_cells(n: int, t: int) -> int:
    """(n + 1) x kept binomial terms, as `mono_mixture_tv` sizes its grid."""
    leaves = 1 << t
    half = math.sqrt(0.5 * leaves * math.log(2.0 / discrete._TRUNCATED_MASS))
    klo = max(1, math.ceil(leaves / 2 - half))
    khi = min(leaves - 1, math.floor(leaves / 2 + half))
    return (n + 1) * max(0, khi - klo + 1)


def measure(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("cli.import_s", fresh_interpreter(IMPORT_CODE, 3), "s")

    # cube
    for n in (16, 20, 24):
        pmf = cube.random_pmf(n, rng)
        put(f"cube.wht_forward.n{n}_s", timed(lambda: cube.wht_forward(pmf)), "s")
    put(
        "cube.wht_forward.n24_bytes_per_s",
        butterfly_bytes(24) / m["cube.wht_forward.n24_s"]["value"],
        "B/s",
    )
    del pmf
    biases16 = rng.uniform(-1.0, 1.0, 16)
    put("cube.product_pmf.n16_s", timed(lambda: cube.product_pmf(biases16)), "s")
    for n in (12, 16):
        put(f"cube.product_fourier.n{n}_s", timed(lambda: cube.product_fourier(biases16[:n])), "s")

    # discrete
    coeffs = {
        n: (cube.wht_forward(cube.random_pmf(n, rng)).coeffs, cube.wht_forward(cube.random_pmf(n, rng)).coeffs)
        for n in (4, 12, 14, 16)
    }
    put("discrete.collide.pairs.n14_cold_s", fresh_interpreter(COLD_PAIRS_CODE, 1), "s")
    for n in (12, 14):
        f, g = coeffs[n]
        put(f"discrete.collide.pairs.n{n}_s", timed(lambda: discrete.collide_coeffs(f, g, n, "pairs")), "s")
    for n in (12, 14, 16):
        f, g = coeffs[n]
        put(f"discrete.collide.ranked.n{n}_s", timed(lambda: discrete.collide_coeffs(f, g, n, "ranked")), "s")
    f4, g4 = coeffs[4]
    calls = 2000

    def tiny_calls():
        for _ in range(calls):
            discrete.collide_coeffs(f4, g4, 4)

    put("discrete.collide.auto.n4_us", 1e6 * timed(tiny_calls) / calls, "us")
    for n, t in ((4096, 12), (4096, 16), (16384, 16)):
        put(f"discrete.mono_mixture_tv.n{n}_t{t}_s", timed(lambda: discrete.mono_mixture_tv(n, t)), "s")
    put(
        "discrete.mono_mixture_tv.cells_per_s",
        mixture_cells(16384, 16) / m["discrete.mono_mixture_tv.n16384_t16_s"]["value"],
        "1/s",
    )
    trials = 200
    frag_rng = rng_substream(seed, 64)

    def fragment():
        for _ in range(trials):
            discrete.fragmentation_time(64, frag_rng)

    put("discrete.fragmentation_time.n64_us", 1e6 * timed(fragment) / trials, "us")

    # yule
    start = time.perf_counter()
    batch = yule.martingale_samples(6.0, 10_000, rng_substream(seed, 6), method="direct")
    wave_s = time.perf_counter() - start
    put("yule.wave.nodes_per_s", float((2 * batch.leaf_counts - 1).sum()) / wave_s, "1/s")

    tree_rng = np.random.default_rng(10)  # a fixed tree set, whatever the seed
    nodes = 0
    start = time.perf_counter()
    for horizon, count in ((6.0, 20), (10.0, 2)):
        for _ in range(count):
            nodes += yule.sample_yule(horizon, tree_rng).num_nodes
    put("yule.sample_yule.nodes_per_s", nodes / (time.perf_counter() - start), "1/s")

    stage_rng = rng_substream(seed, 2)
    cascade = {}
    for horizon in (2.0, 4.0):
        start = time.perf_counter()
        yule.martingale_samples(horizon, 1000, stage_rng, method="cascade")
        cascade[horizon] = time.perf_counter() - start
    put("yule.cascade.stage_s", cascade[4.0] - cascade[2.0], "s")

    mono4, mono12 = cube.monochromatic_pmf(4), cube.monochromatic_pmf(12)
    put(
        "yule.evolve_continuous.n4_step_us",
        1e6 * timed(lambda: yule.evolve_continuous(mono4, 1.0, step=0.001)) / 1000,
        "us",
    )
    put(
        "yule.evolve_continuous.n12_step_ms",
        1e3 * timed(lambda: yule.evolve_continuous(mono12, 0.05, step=0.01)) / 5,
        "ms",
    )
    samples = 500
    for name, estimator in (
        ("wild_mc_estimate", yule.wild_mc_estimate),
        ("double_quenched_estimate", yule.double_quenched_estimate),
    ):
        est_rng = rng_substream(seed, 8)
        secs = timed(lambda: estimator(mono4, 2.0, samples, est_rng))
        put(f"yule.{name}.samples_per_s", samples / secs, "1/s")

    # profiles
    values = batch.values
    grid_points = 2 * math.ceil(12.0 / 1e-3) + 1
    for label, size in (("m1e3", 1000), ("m1e4", 10_000)):
        put(
            f"profiles.mixture_profile_tv.{label}_s",
            timed(lambda: profiles.mixture_profile_tv(0.0, values[:size])),
            "s",
        )
    put(
        "profiles.mixture_profile_tv.cells_per_s",
        grid_points * 10_000 / m["profiles.mixture_profile_tv.m1e4_s"]["value"],
        "1/s",
    )
    lb_rng = rng_substream(seed, 3)
    start = time.perf_counter()
    profiles.lowerbound_experiment_continuous(1000, 3.0, 400, lb_rng)
    put("profiles.lowerbound_experiment_continuous.t3_s", time.perf_counter() - start, "s")

    # cli
    rows = [(i, 6.0, float(v), 1) for i, v in enumerate(np.resize(values, 100_000))]
    with tempfile.TemporaryDirectory() as tmp:
        ctx = cli.RunContext(command="write-rows", out_dir=Path(tmp), parameters={})
        secs = timed(lambda: ctx.write_rows("rows.csv", ["sample", "t", "W", "leaves"], rows))
    put("cli.write_rows.rows_per_s", len(rows) / secs, "1/s")

    # acceptance registry (selftest), one run each
    for number in ACCEPTANCE_CRITERIA:
        result = acceptance.get_criterion(number).run(acceptance.DEFAULT_SEED)
        put(f"acceptance.criterion_{number}_s", result.seconds, "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    metrics = measure(args.seed)
    for name, entry in metrics.items():
        print(f"{name:48s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
