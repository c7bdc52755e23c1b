"""Command-line driver: reproducibility, manifests, flags, exit codes."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from recomblab import cli, cube, discrete, profiles, yule
from recomblab.errors import NumericalInvariantError
from recomblab.streams import rng_substream


# the directory this process imported recomblab from; the child gets it
# first on PYTHONPATH so it runs the same code from any working directory
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def run_python(args, cwd, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def run_cli(args, cwd, env_extra=None):
    return run_python(["-m", "recomblab.cli", *args], cwd, env_extra)


def _subparsers(parser):
    """The subcommand parsers of `parser`, keyed by command."""
    return next(
        action.choices
        for action in parser._actions
        if isinstance(action, cli.argparse._SubParsersAction)
    )


@pytest.mark.parametrize("module", ["recomblab", "recomblab.cli"])
def test_package_import_loads_no_scipy(tmp_path, module):
    # each command is a fresh process; scipy.special alone adds about a
    # quarter of a second to its start, scipy.stats about a second more
    probe = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    r = run_python(["-c", probe], tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_cli_import_loads_no_thread_pool(tmp_path):
    # martingale chunks run one after another, so no command pays for the
    # thread pool's imports at start
    probe = (
        "import sys, recomblab.cli; "
        "print(sorted({'concurrent.futures', 'queue', 'logging'} & set(sys.modules)))"
    )
    r = run_python(["-c", probe], tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_limit_and_block_experiments_load_no_scipy(tmp_path):
    # the binomial law they share is numpy and math alone
    probe = (
        "import sys\n"
        "from recomblab import profiles\n"
        "from recomblab.streams import rng_substream\n"
        "profiles.mono_tv_large_n_limit(16)\n"
        "profiles.lowerbound_experiment_discrete(5120, 3)\n"
        "profiles.lowerbound_experiment_continuous(400, 1.0, 2, rng_substream(23, 1))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    r = run_python(["-c", probe], tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


# Runs one command in a fresh interpreter and prints the modules imported
# between the start of the manifest clock and the end of the manifest, every
# scipy module loaded by then, and which of the optional modules (LOAD_WATCH)
# the run loaded.  selftest runs four quick criteria; criteria 2 and 5 call
# gammaln.  The probe narrows the registry where the clock starts, and only
# if the command has imported it by then: a probe that imported it itself
# would load every module before the clock.
LOAD_WATCH = (
    "recomblab.yule", "recomblab.profiles", "recomblab.binomial", "recomblab.acceptance",
    "numpy.random", "scipy",
)
CLOCK_PROBE = f"""
import json, sys
from recomblab import cli

snapshots = []
start, finish = cli.RunContext.__post_init__, cli.RunContext.finish

def timed_start(self):
    snapshots.append(set(sys.modules))
    acceptance = sys.modules.get("recomblab.acceptance")
    if acceptance is not None:
        acceptance.CRITERIA[:] = [c for c in acceptance.CRITERIA if c.number in (1, 2, 5, 13)]
    start(self)

def timed_finish(self, status):
    path = finish(self, status)
    snapshots.append(set(sys.modules))
    return path

cli.RunContext.__post_init__ = timed_start
cli.RunContext.finish = timed_finish
status = cli.main(sys.argv[1:])
before, after = snapshots
print(json.dumps({{
    "status": status,
    "imported": sorted(after - before),
    "scipy": sorted(m for m in after if m.split(".")[0] == "scipy"),
    "loaded": [m for m in {LOAD_WATCH!r} if m in after],
}}))
"""

# keyed by command, or by `command@case` for a second run of one command
CLOCK_ARGS = {
    "collide": ["--n", "3", "--a", "mono", "--b", "uniform"],
    "evolve-discrete": ["--n", "3", "--start", "mono", "--steps", "2"],
    "evolve-continuous": ["--n", "3", "--start", "mono", "--t", "0.1"],
    "profile-discrete": ["--n", "64", "--lambda", "-1..1"],
    "profile-continuous": [
        "--lambda", "0", "--samples", "50", "--horizon", "2", "--seed", "1",
    ],
    "fragmentation": ["--n", "8", "--trials", "5", "--seed", "1"],
    # two chunks, run one after the other inside the clock
    "martingale": ["--t", "0.5", "--samples", "10005", "--workers", "2", "--seed", "1"],
    "w-tail": [
        "--horizon", "3", "--samples", "50", "--eps", "0.5", "--method", "cascade",
        "--seed", "1",
    ],
    # no --horizon: exact draws of the t = inf limit
    "w-tail@limit": ["--samples", "50", "--eps", "0.5", "--seed", "1"],
    "profile-continuous@limit": ["--lambda", "0", "--samples", "50", "--seed", "1"],
    "lowerbound-discrete": ["--n", "400", "--t", "1"],
    "lowerbound-continuous": ["--n", "400", "--t", "0.5", "--trees", "5", "--seed", "1"],
    "spinal-check": ["--t", "0.5", "--samples", "100", "--seed", "1"],
    "selftest": [],
}


# the LOAD_WATCH modules each case loads, in that order; scipy.special loads
# numpy.random itself
_TREES = ["recomblab.yule", "numpy.random"]
_BLOCKS = ["recomblab.profiles", "recomblab.binomial"]
_MIXTURE = ["recomblab.yule", "recomblab.profiles", "recomblab.binomial", "numpy.random"]
CASE_LOADS = {
    "collide": [],
    "evolve-discrete": [],
    "evolve-continuous": ["recomblab.yule"],
    "profile-discrete": [*_BLOCKS, "numpy.random", "scipy"],
    "profile-continuous": _MIXTURE,
    "profile-continuous@limit": _MIXTURE,
    "fragmentation": ["numpy.random"],
    "martingale": _TREES,
    "w-tail": _TREES,
    "w-tail@limit": _TREES,
    "lowerbound-discrete": _BLOCKS,
    "lowerbound-continuous": _MIXTURE,
    "spinal-check": _TREES,
    "selftest": list(LOAD_WATCH),
}


def test_clock_probe_covers_every_command():
    commands = _subparsers(cli.build_parser())
    assert {case.partition("@")[0] for case in CLOCK_ARGS} == set(commands)
    assert set(cli.PRECLOCK_IMPORTS) == set(commands)
    assert set(CASE_LOADS) == set(CLOCK_ARGS)


@pytest.fixture(scope="module", params=sorted(CLOCK_ARGS))
def clock_report(request, tmp_path_factory):
    """The case and the CLOCK_PROBE report of one run of it."""
    case = request.param
    out = tmp_path_factory.mktemp("clock")
    r = run_python(
        ["-c", CLOCK_PROBE, case.partition("@")[0], *CLOCK_ARGS[case], "--out-dir", str(out)],
        out,
    )
    assert r.returncode == 0, r.stderr
    return case, json.loads(r.stdout.strip().splitlines()[-1])


def test_no_import_runs_inside_the_manifest_clock(clock_report):
    # wall_seconds times the work alone; a module loaded lazily inside it
    # would count start-up cost, and a scipy import in a command that needs
    # none would bring back a quarter-second start
    case, report = clock_report
    assert report["status"] == 0
    assert report["imported"] == []
    if "scipy.special" in cli.PRECLOCK_IMPORTS[case.partition("@")[0]]:
        assert "scipy.special" in report["scipy"]
    else:
        assert report["scipy"] == []


def test_each_command_loads_only_what_it_runs(clock_report):
    # every command starts from cube, discrete, errors and streams, and its
    # row of cli.PRECLOCK_IMPORTS adds only what it runs: a module missing
    # there fails the clock test above, a needless one fails here
    case, report = clock_report
    assert report["loaded"] == CASE_LOADS[case]


# -----------------------------------------------------------------------
# parsing units
# -----------------------------------------------------------------------


def test_grid_parsing():
    assert cli._parse_grid("-4..4") == [float(v) for v in range(-4, 5)]
    assert cli._parse_grid("0.5,0.25") == [0.5, 0.25]
    assert cli._parse_grid("3") == [3.0]
    for bad in ("4..-4", "0.5,nan", "-inf"):
        with pytest.raises(cli.argparse.ArgumentTypeError):
            cli._parse_grid(bad)


def test_negative_value_folding():
    argv = ["profile-discrete", "--lambda", "-4..4", "--n", "16"]
    folded = cli._join_negative_values(argv)
    assert "--lambda=-4..4" in folded
    assert "--n" in folded
    for value in ("-3,-1", "-1e1", "-.5", "-2..-1"):
        assert cli._join_negative_values(["--lambda", value]) == [f"--lambda={value}"]
    # an option after an option is left alone
    assert cli._join_negative_values(["--lambda", "--n"]) == ["--lambda", "--n"]


def test_chunk_plan_is_worker_free_and_covers_total():
    for total in (1, 2, 9999, 10_000, 10_001, 25_000, 100_000):
        plan = cli._chunk_plan(total)
        assert sum(plan) == total
        assert all(size >= 1 for size in plan)
        # never a trailing singleton chunk: no statistic needs this, but the
        # merge keeps the plan, and so the seeded outputs, as they were
        if total >= 2:
            assert all(size >= 2 for size in plan[1:] or plan)


# -----------------------------------------------------------------------
# end-to-end runs
# -----------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(set(CLOCK_ARGS) - {"selftest"}))
def test_rerun_is_byte_identical(tmp_path, capsys, case):
    checksums = []
    for run in ("a", "b"):
        out = tmp_path / run
        args = [case.partition("@")[0], *CLOCK_ARGS[case], "--out-dir", str(out)]
        assert cli.main(args) == 0
        (path,) = out.glob("*_manifest.json")
        outputs = json.loads(path.read_text())["outputs"]
        checksums.append([(entry["file"], entry["sha256"]) for entry in outputs])
    assert checksums[0] and checksums[0] == checksums[1]


def test_worker_count_does_not_change_output(tmp_path):
    base = ["martingale", "--t", "2.0", "--samples", "25000", "--seed", "5"]
    r1 = run_cli(base + ["--workers", "1", "--out-dir", str(tmp_path / "w1")], tmp_path)
    r4 = run_cli(base + ["--workers", "4", "--out-dir", str(tmp_path / "w4")], tmp_path)
    assert r1.returncode == 0, r1.stderr
    assert r4.returncode == 0, r4.stderr
    assert (tmp_path / "w1" / "martingale.csv").read_bytes() == (
        tmp_path / "w4" / "martingale.csv"
    ).read_bytes()


def test_cascade_worker_count_does_not_change_output(tmp_path):
    base = [
        "w-tail", "--method", "cascade", "--horizon", "3", "--samples", "25000",
        "--eps", "0.5,0.25", "--seed", "5",
    ]
    r1 = run_cli(base + ["--workers", "1", "--out-dir", str(tmp_path / "w1")], tmp_path)
    r2 = run_cli(base + ["--workers", "2", "--out-dir", str(tmp_path / "w2")], tmp_path)
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0, r2.stderr
    assert (tmp_path / "w1" / "w_tail.csv").read_bytes() == (
        tmp_path / "w2" / "w_tail.csv"
    ).read_bytes()


def test_limit_run_is_one_draw_whatever_the_workers(tmp_path, capsys):
    # without --horizon: 25 000 values from substream 0 in one call, no tree
    args = ["w-tail", "--samples", "25000", "--eps", "0.5,0.25", "--seed", "5"]
    tables = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert cli.main([*args, "--workers", workers, "--out-dir", str(out)]) == 0
        tables.append((out / "w_tail.csv").read_bytes())
        manifest = json.loads((out / "w_tail_manifest.json").read_text())
        assert manifest["resolved"] == {"martingale_method": "limit"}
        assert manifest["counters"] == {"nodes_grown": 0}
        assert manifest["parameters"]["horizon"] is None
    assert tables[0] == tables[1]
    values = yule.martingale_limit_samples(25000, rng_substream(5, 0))
    with open(tmp_path / "1" / "w_tail.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            below = (values <= float(row["eps"])).sum()
            assert float(row["probability"]) == below / 25000


def test_default_profile_continuous_is_the_limit_profile(tmp_path, capsys):
    # the README command against the exact t = inf profile at w = -4, -2, 0, 2, 4
    args = ["profile-continuous", "--lambda", "-4..4", "--samples", "20000", "--seed", "7"]
    assert cli.main([*args, "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "profile_continuous.csv", newline="") as fh:
        tv = {float(row["lambda"]): float(row["tv"]) for row in csv.DictReader(fh)}
    exact = {-4.0: 0.347653, -2.0: 0.213023, 0.0: 0.114603, 2.0: 0.055028, 4.0: 0.024185}
    for w, value in exact.items():
        assert abs(tv[w] - value) <= 0.005, w


def test_manifest_names_the_sampler_and_its_pool(tmp_path):
    # two chunks, 10 000 and 50 samples, each with its own 2^20 pool
    out = tmp_path / "run"
    r = run_cli(
        [
            "w-tail", "--method", "cascade", "--horizon", "3", "--samples", "10050",
            "--eps", "0.5", "--seed", "3", "--out-dir", str(out),
        ],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    manifest = json.loads((out / "w_tail_manifest.json").read_text())
    assert manifest["resolved"] == {
        "martingale_method": "cascade",
        "martingale_sampler_version": 1,
        "tree_sampler_version": 3,
        "cascade_sampler_version": 4,
    }
    chunks = [
        yule.martingale_samples(
            3.0, size, rng_substream(3, cli.CHUNK_TASK_BASE + idx), "cascade"
        )
        for idx, size in enumerate(cli._chunk_plan(10050))
    ]
    assert [c.values.size for c in chunks] == [10000, 50]
    assert manifest["counters"] == {
        "nodes_grown": sum(c.nodes_grown for c in chunks),
        "widest_wave": max(c.widest_wave for c in chunks),
        "split_draws": sum(c.split_draws for c in chunks),
        "table_draws": sum(c.table_draws for c in chunks),
        "cascade_pool_size": 1048576,
        "cascade_pool_draws": sum(c.pool_draws for c in chunks),
        "cascade_pool_grown": sum(c.pool_grown for c in chunks),
        "cascade_expected_repeat_draws": sum(
            c.pool_draws**2 / (2.0 * 1048576) for c in chunks
        ),
    }

    r = run_cli(
        ["martingale", "--t", "1.0", "--samples", "20", "--seed", "3", "--out-dir", str(out)],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    manifest = json.loads((out / "martingale_manifest.json").read_text())
    assert manifest["resolved"] == {"martingale_method": "direct", "martingale_sampler_version": 1}
    # the direct sampler grows no tree, but counts the nodes its trees have
    batch = yule.martingale_samples(1.0, 20, rng_substream(3, cli.CHUNK_TASK_BASE), "direct")
    assert batch.nodes_grown == int((2 * batch.leaf_counts - 1).sum())
    assert manifest["counters"] == {
        "nodes_grown": batch.nodes_grown,
        "widest_wave": batch.widest_wave,
        "split_draws": batch.split_draws,
        "table_draws": batch.table_draws,
    }


def test_finite_horizon_profile_names_the_tree_sampler(tmp_path, capsys):
    args = [
        "profile-continuous", "--lambda", "0", "--horizon", "1", "--samples", "50", "--seed", "2",
    ]
    assert cli.main([*args, "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "profile_continuous_manifest.json").read_text())
    assert manifest["resolved"] == {
        "martingale_method": "direct",
        "martingale_sampler_version": yule.MARTINGALE_SAMPLER_VERSION,
    }
    assert yule.MARTINGALE_SAMPLER_VERSION == 1
    batch = yule.martingale_samples(1.0, 50, rng_substream(2, cli.CHUNK_TASK_BASE), "direct")
    assert manifest["counters"] == {
        "nodes_grown": batch.nodes_grown,
        "widest_wave": batch.widest_wave,
        "split_draws": batch.split_draws,
        "table_draws": batch.table_draws,
    }


def test_nodes_grown_counts_every_tree_node(tmp_path):
    # a binary tree with L leaves has 2L - 1 nodes; two chunks are summed
    r = run_cli(
        [
            "martingale", "--t", "1.5", "--samples", "10007", "--seed", "4",
            "--method", "direct", "--out-dir", str(tmp_path),
        ],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "martingale.csv", newline="") as fh:
        leaves = [int(row["leaves"]) for row in csv.DictReader(fh)]
    assert len(leaves) == 10007
    manifest = json.loads((tmp_path / "martingale_manifest.json").read_text())
    assert manifest["counters"]["nodes_grown"] == sum(2 * c - 1 for c in leaves)


# sha256 of small seeded outputs, recorded before the wave kernel and the
# lower-bound tail evaluation were rewritten.  A change of draw order must
# fail here and announce a sampler version bump: every grown tree output is
# pinned at tree sampler version 3 (tree chunks sized so the widest wave
# expects 2^17 lineages), both direct outputs at martingale sampler version
# 1 (no tree grown: geometric leaf counts, uniform splits, exact tables up
# to 16 leaves), `fragmentation` at fragmentation sampler version 2 (one
# word of all rounds per site, drawn for every trial at once), and both
# cascade outputs at cascade sampler version 4 (the last pool grown only at
# the entries the final stage draws), with their first pool drawn by the
# direct sampler (recorded again for each).  The horizon-6 direct row spans
# three direct chunks (1498, 1498 and 4 trees), so it pins the chunk
# boundary.
# The `lowerbound-continuous`
# digest was recorded again when its binomial law moved to the public
# scipy.special functions, and again when its binomial tails moved from
# bdtr/bdtrc to betainc: both times the same draws, cells changed in the last
# bits, and again when the sign draws per tree became the fixed 2048, from
# 512: the same trees, more draws; and again when the block tails moved from
# scipy.special to the numpy binomial law and the trees' biases were
# evaluated in groups: the same draws and biases, and three cells changed in
# the last bits (the stationary event is now correctly rounded, where betainc
# was 1.6e-15 off); and again at sign sampler version 2, when each sign
# became one bit of a packed random byte: the same trees, new sign draws,
# the same law.  The limit `w-tail` pins the exact t = inf draw,
# 1 / chi-squared(3) from substream 0.
SEEDED_OUTPUT_SHA256 = [
    (
        ("martingale", "--t", "2.5", "--samples", "400", "--seed", "77",
         "--method", "direct"),
        "martingale.csv",
        "bd8c722638b87c66f75e4c9ff3dacf54c6d06f120012677bf0f6dc7984346ca4",
    ),
    (
        ("martingale", "--t", "6.0", "--samples", "3000", "--seed", "3",
         "--method", "direct"),
        "martingale.csv",
        "f35f1fd619fd3208af86f429c6848f5ae72fe5662c62633482a1bce9c542be62",
    ),
    (
        ("martingale", "--t", "5.0", "--samples", "300", "--seed", "8",
         "--method", "cascade"),
        "martingale.csv",
        "626b67a1ceabd283bdf9d454489803b064b8d6bb3db650cc2fe2a6a14a7eb3e5",
    ),
    (
        ("w-tail", "--horizon", "5", "--samples", "300", "--eps", "0.5,0.25",
         "--seed", "5", "--method", "cascade"),
        "w_tail.csv",
        "08db39730740ead3ca469f704f28b9725e30ae4484af8d7bca39321a51ed3c12",
    ),
    (
        ("w-tail", "--samples", "300", "--eps", "0.5,0.25", "--seed", "5"),
        "w_tail.csv",
        "fb68d6bc64163a41d55b69a901de0f88ab4f352574bd850bc8e2e7efa7194257",
    ),
    (
        ("fragmentation", "--n", "64", "--trials", "300", "--seed", "1"),
        "fragmentation.csv",
        "c9846ceeda46efc21856ae472345e127ca9afe6bfd1b9294f2393637255e8abf",
    ),
    (
        ("lowerbound-continuous", "--n", "400", "--t", "1.0", "--trees", "120", "--seed", "9"),
        "lowerbound_continuous.csv",
        "f79093d7628a66781768839b901af199b8b33cd1e7d195cb72f1244d8da73fe9",
    ),
    (
        ("spinal-check", "--t", "1.0", "--samples", "2000", "--seed", "5"),
        "spinal_check.csv",
        "d903d39f7218a1a9587a0f7330aae9adb74a78e629b796d269b552143c4a1e90",
    ),
    # the exact bench commands, whose exchangeable starts run on popcount
    # classes; recorded from the full 2^n-column ring
    (
        ("collide", "--n", "14", "--a", "mono", "--b", "uniform"),
        "collide.csv",
        "ef020af15cb8b99fe1d85516fbd1b6b92ef95186581fdccb60368710dab395a1",
    ),
    (
        ("evolve-discrete", "--n", "16", "--start", "mono", "--steps", "8"),
        "evolved_discrete.csv",
        "7abf779da66e863b841ff358f7ae19bc81c337fa0a05fabea475ac6d0e378da7",
    ),
    (
        ("evolve-continuous", "--n", "12", "--start", "mono", "--t", "0.5"),
        "evolved_continuous.csv",
        "6ac5a3fc82d3079e97a74150ea564fdf0cd215982b2a7c220ed5a7f45ad3a1c1",
    ),
]


@pytest.mark.parametrize(
    "args,name,digest",
    SEEDED_OUTPUT_SHA256,
    ids=[
        "martingale-direct", "martingale-direct-chunks", "martingale-cascade",
        "w-tail-cascade", "w-tail-limit",
        "fragmentation", "lowerbound-continuous", "spinal-check",
        "collide-n14", "evolve-discrete-n16", "evolve-continuous-n12",
    ],
)
def test_seeded_output_bytes_are_pinned(tmp_path, capsys, args, name, digest):
    assert cli.main([*args, "--out-dir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_lowerbound_manifest_names_the_tree_sampler(tmp_path, capsys):
    args = ("lowerbound-continuous", "--n", "400", "--t", "1.0", "--trees", "5", "--seed", "1")
    assert cli.main([*args, "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "lowerbound_continuous_manifest.json").read_text())
    assert manifest["resolved"] == {
        "tree_sampler_version": yule.TREE_SAMPLER_VERSION,
        "sign_sampler_version": profiles.SIGN_SAMPLER_VERSION,
    }
    assert (yule.TREE_SAMPLER_VERSION, profiles.SIGN_SAMPLER_VERSION) == (3, 2)
    # five trees at t = 1 fit in one group: 17 distinct biases, each
    # evaluated once; the nodes and the widest wave are the wave sampler's
    nodes, widest = yule._wave_batch(1.0, 5, rng_substream(1, 0), lambda *wave: None)
    assert (nodes, widest) == (35, 10)
    assert manifest["counters"] == {
        "nodes_grown": nodes,
        "widest_wave": widest,
        "distinct_biases": 17,
        "tail_evaluations": 17,
        "block_count_tv_overshoot": 0.0,
    }


def test_spinal_manifest_counts_the_nodes_grown(tmp_path, capsys):
    args = ("spinal-check", "--t", "1.0", "--samples", "500", "--seed", "3")
    assert cli.main([*args, "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "spinal_check_manifest.json").read_text())
    assert manifest["resolved"] == {"tree_sampler_version": yule.TREE_SAMPLER_VERSION}
    nodes, widest = yule._wave_batch(1.0, 500, rng_substream(3, 0), lambda *wave: None)
    assert manifest["counters"] == {"nodes_grown": nodes, "widest_wave": widest}


def test_fragmentation_manifest_names_the_sampler(tmp_path, capsys):
    args = ("fragmentation", "--n", "8", "--trials", "5", "--seed", "1")
    assert cli.main([*args, "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "fragmentation_manifest.json").read_text())
    assert manifest["resolved"] == {
        "fragmentation_sampler_version": discrete.FRAGMENTATION_SAMPLER_VERSION
    }


def test_fragmentation_chunks_keep_every_byte(tmp_path, monkeypatch):
    args = ["fragmentation", "--n", "64", "--trials", "300", "--seed", "3"]
    assert cli.main([*args, "--out-dir", str(tmp_path / "whole")]) == 0
    monkeypatch.setattr(discrete, "_FRAGMENTATION_CHUNK_WORDS", 1)
    assert cli.main([*args, "--out-dir", str(tmp_path / "rows")]) == 0
    assert (tmp_path / "whole" / "fragmentation.csv").read_bytes() == (
        tmp_path / "rows" / "fragmentation.csv"
    ).read_bytes()


def test_manifest_records_checksums_and_parameters(tmp_path):
    out = tmp_path / "run"
    r = run_cli(
        ["profile-discrete", "--n", "64", "--lambda", "-2..2", "--out-dir", str(out)],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    manifest = json.loads((out / "profile_discrete_manifest.json").read_text())
    assert manifest["command"] == "profile-discrete"
    assert manifest["stream_algorithm"] == "pcg64:seedseq-spawnkey-v1"
    assert manifest["exit_status"] == 0
    assert manifest["parameters"]["n"] == 64
    assert manifest["parameters"]["lambda_grid"] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert manifest["wall_seconds"] >= 0
    assert manifest["peak_rss_kb"] > 0
    # an exact command resolves no sampler and counts no pool; it counts
    # the log-cells of its five step counts t = 4..8
    assert manifest["resolved"] == {}
    cells = sum(discrete.mixture_window(64, t).cells for t in range(4, 9))
    assert manifest["counters"] == {"mixture_cells": cells}
    (entry,) = manifest["outputs"]
    blob = (out / entry["file"]).read_bytes()
    assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
    assert entry["bytes"] == len(blob)
    header = blob.decode().splitlines()[0]
    assert header == "lambda,s,tv_exact,phi_s,upper_bound"


def test_profile_continuous_csv_shape(tmp_path):
    out = tmp_path / "pc"
    r = run_cli(
        [
            "profile-continuous",
            "--lambda",
            "-1..1",
            "--samples",
            "500",
            "--seed",
            "3",
            "--out-dir",
            str(out),
        ],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    with open(out / "profile_continuous.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "scale", "tv"]
    assert all(cell for row in rows for cell in row)
    windows, scales, tvs = zip(*[map(float, row) for row in rows[1:]])
    assert windows == (-1.0, 0.0, 1.0)
    assert scales == tuple(math.exp(-w / 2.0) for w in windows)
    assert tvs[0] > tvs[1] > tvs[2]


def test_profile_discrete_counts_the_mixture_cells(tmp_path):
    # at n = 8 each certified window holds every cell: the 9 occupation
    # counts times the 2^t - 1 interior leaf counts, at t = 2, 3, 4
    args = ["profile-discrete", "--n", "8", "--lambda", "-1..1", "--out-dir", str(tmp_path)]
    assert cli.main(args) == 0
    manifest = json.loads((tmp_path / "profile_discrete_manifest.json").read_text())
    assert manifest["counters"] == {"mixture_cells": 9 * (3 + 7 + 15)}


def test_profile_discrete_rows(tmp_path, capsys):
    args = ["profile-discrete", "--n", "256", "--lambda", "-2,0,2"]
    assert cli.main([*args, "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "profile_discrete.csv", newline="") as fh:
        rows = [[float(cell) for cell in row] for row in list(csv.reader(fh))[1:]]
    assert [row[0] for row in rows] == [-2.0, 0.0, 2.0]
    for w, s, tv, _, upper in rows:
        # the base step count defaults to round(log2 n) = 8
        assert tv == discrete.mono_mixture_tv(256, 8 + int(w))
        assert upper == min(1.0, s)
    # a comma list of negative windows needs no `=`
    args = ["profile-discrete", "--n", "64", "--lambda", "-3,-1"]
    assert cli.main([*args, "--out-dir", str(tmp_path / "negative")]) == 0
    with open(tmp_path / "negative" / "profile_discrete.csv", newline="") as fh:
        assert [row[0] for row in list(csv.reader(fh))[1:]] == ["-3.0", "-1.0"]
    # a window that puts the step count below zero is a configuration error
    args = ["profile-discrete", "--n", "8", "--lambda", "-5"]
    assert cli.main([*args, "--out-dir", str(tmp_path)]) == 2
    assert "below zero" in capsys.readouterr().err


def test_config_file_fills_missing_flags(tmp_path, capsys):
    # the one file that fills a flag is a start measure: its row count is the
    # missing --n, so three steps from a three-step output are six steps from
    # mono. A settings file fills none: --config is not an option
    out1, out2, out3 = tmp_path / "c1", tmp_path / "c2", tmp_path / "c3"
    mono = ["evolve-discrete", "--n", "4", "--start", "mono", "--steps"]
    assert cli.main([*mono, "3", "--out-dir", str(out1)]) == 0
    start = str(out1 / "evolved_discrete.csv")
    assert cli.main(["evolve-discrete", "--start", start, "--steps", "3", "--out-dir", str(out2)]) == 0
    assert cli.main([*mono, "6", "--out-dir", str(out3)]) == 0
    assert (out2 / "evolved_discrete.csv").read_bytes() == (
        out3 / "evolved_discrete.csv"
    ).read_bytes()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# settings\nn = 4\nstart = mono\nsteps = 3\n")
    with pytest.raises(SystemExit) as stop:
        cli.main(["evolve-discrete", "--config", str(cfg), "--out-dir", str(tmp_path / "cfg")])
    assert stop.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith("the following arguments are required: --start, --steps")
    assert not (tmp_path / "cfg").exists()


def test_config_keys_are_dests_and_flags_win(tmp_path):
    # the manifest keys each setting by its dest (`--lambda` stores to
    # lambda_grid); a flag given twice keeps its last value, and neither the
    # removed config nor t_base appears
    twice = ["--n", "32", "--lambda", "-2..2", "--n", "64", "--out-dir", str(tmp_path / "twice")]
    once = ["--n", "64", "--lambda", "-2..2", "--out-dir", str(tmp_path / "once")]
    assert cli.main(["profile-discrete", *twice]) == 0
    assert cli.main(["profile-discrete", *once]) == 0
    csv_bytes = [(tmp_path / run / "profile_discrete.csv").read_bytes() for run in ("twice", "once")]
    assert csv_bytes[0] == csv_bytes[1]
    params = [
        json.loads((tmp_path / run / "profile_discrete_manifest.json").read_text())["parameters"]
        for run in ("twice", "once")
    ]
    assert params[0]["n"] == 64
    assert params[0]["lambda_grid"] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert "config" not in params[0] and "t_base" not in params[0]
    for p in params:
        del p["out_dir"]
    assert params[0] == params[1]


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    # flags are the only keys: an unknown one, or the removed --config,
    # --t-base and --inner, exits 2 through argparse and names itself before
    # any run starts
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 4\nbogus = 1\n")
    base = ["evolve-discrete", "--n", "4", "--start", "mono", "--steps", "1"]
    cases = [
        (base, ["--bogus", "1"]),
        (base, ["--config", str(cfg)]),
        (["profile-discrete", "--n", "64", "--lambda", "0"], ["--t-base", "6"]),
        (["lowerbound-continuous", *CLOCK_ARGS["lowerbound-continuous"]], ["--inner", "16"]),
    ]
    for args, extra in cases:
        with pytest.raises(SystemExit) as stop:
            cli.main([*args, *extra, "--out-dir", str(tmp_path / "run")])
        assert stop.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.endswith(f"unrecognized arguments: {' '.join(extra)}")
        assert not (tmp_path / "run").exists()


# (command, an abbreviated long option and its value); every run directory
# is `run` under the working directory
ABBREVIATED_OPTIONS = [
    (("martingale", "--t", "1", "--seed", "1", "--out-dir", "run"), ("--sa", "10")),
    (("martingale", "--t", "1", "--seed", "1", "--out-dir", "run"), ("--se", "2")),
    (("martingale", "--t", "1", "--seed", "1", "--out-dir", "run"), ("--meth", "direct")),
    (("martingale", "--t", "1", "--seed", "1"), ("--out-d", "run")),
    (("profile-discrete", "--n", "8", "--lambda", "0", "--out-dir", "run"), ("--lam", "1")),
    ((), ("--vers",)),
]


@pytest.mark.parametrize(
    "args,abbreviated", ABBREVIATED_OPTIONS, ids=[a[0][2:] for _, a in ABBREVIATED_OPTIONS]
)
def test_abbreviated_option_exits_2_before_the_manifest(
    tmp_path, capsys, monkeypatch, args, abbreviated
):
    # a long option is taken only as spelled in full: a prefix would silently
    # pick whichever flag it abbreviates
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as stop:
        cli.main([*args, *abbreviated])
    assert stop.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith(f"unrecognized arguments: {' '.join(abbreviated)}")
    assert list(tmp_path.iterdir()) == []


def test_env_var_sets_output_dir(tmp_path):
    target = tmp_path / "envout"
    r = run_cli(
        ["collide", "--n", "2", "--a", "mono", "--b", "uniform"],
        tmp_path,
        env_extra={"RECOMBLAB_OUT_DIR": str(target)},
    )
    assert r.returncode == 0, r.stderr
    assert (target / "collide.csv").exists()


def test_flag_overrides_env_var(tmp_path):
    flag_dir = tmp_path / "flagged"
    r = run_cli(
        ["collide", "--n", "2", "--a", "mono", "--b", "mono", "--out-dir", str(flag_dir)],
        tmp_path,
        env_extra={"RECOMBLAB_OUT_DIR": str(tmp_path / "ignored")},
    )
    assert r.returncode == 0, r.stderr
    assert (flag_dir / "collide.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_manifest_names_the_collision_kernel(tmp_path):
    assert discrete.resolve_collision_method(10) == "pairs"
    assert discrete.resolve_collision_method(11) == "ranked"
    assert discrete.resolve_collision_method(11, "pairs") == "pairs"
    # ring_columns: n+1 popcount classes when every ranked operand is
    # exchangeable (mono, uniform), 2^n masks otherwise
    runs = [
        (["collide", "--n", "10", "--a", "mono", "--b", "uniform"], "pairs", 1024),
        (["collide", "--n", "11", "--a", "mono", "--b", "uniform"], "ranked", 12),
        (["collide", "--n", "11", "--a", "mono", "--b", "point:1"], "ranked", 2048),
        (["evolve-discrete", "--n", "11", "--start", "mono", "--steps", "1"], "ranked", 12),
        (["evolve-discrete", "--n", "11", "--start", "point:1", "--steps", "1"], "ranked", 2048),
        (["evolve-continuous", "--n", "10", "--start", "mono", "--t", "0.02"], "pairs", 1024),
    ]
    for k, (args, kernel, columns) in enumerate(runs):
        out = tmp_path / f"{k}-{args[0]}"
        assert cli.main([*args, "--out-dir", str(out)]) == 0
        name = args[0].replace("-", "_")
        manifest = json.loads((out / f"{name}_manifest.json").read_text())
        assert manifest["resolved"] == {"collision_kernel": kernel}
        assert manifest["counters"]["ring_columns"] == columns


@pytest.mark.parametrize("n", ["3", "11"])
def test_evolve_continuous_manifest_records_the_worst_coefficient(tmp_path, n):
    # the box check's largest |coeff| over the steps: the empty-set
    # coefficient holds it at 1 at least, and the check at 1 + tol at most
    args = ["evolve-continuous", "--n", n, "--start", "mono", "--t", "0.05"]
    assert cli.main([*args, "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "evolve_continuous_manifest.json").read_text())
    worst = manifest["counters"]["rk4_worst_coeff"]
    # the pairs kernel's 2^3 masks; the mono start's 12 popcount classes
    columns = {"3": 8, "11": 12}[n]
    assert manifest["counters"] == {"rk4_worst_coeff": worst, "ring_columns": columns}
    assert 1.0 <= worst <= 1.0 + yule.COEFF_BOX_TOL
    counters = {}
    yule.evolve_continuous(cube.monochromatic_pmf(int(n)), 0.05, counters=counters)
    assert counters == {"rk4_worst_coeff": worst, "ring_columns": columns}


# -----------------------------------------------------------------------
# exit codes
# -----------------------------------------------------------------------


def test_missing_required_flag_exits_2(tmp_path):
    r = run_cli(["martingale", "--t", "1.0", "--samples", "10"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.splitlines()[-1].endswith("the following arguments are required: --seed")


# the flags each command cannot run without
REQUIRED_FLAGS = {
    "collide": ("--a", "--b"),
    "evolve-discrete": ("--start", "--steps"),
    "evolve-continuous": ("--start", "--t"),
    "profile-discrete": ("--n", "--lambda"),
    "profile-continuous": ("--lambda", "--seed"),
    "fragmentation": ("--n", "--seed"),
    "martingale": ("--t", "--seed"),
    "w-tail": ("--eps", "--seed"),
    "lowerbound-discrete": ("--n", "--t"),
    "lowerbound-continuous": ("--n", "--t", "--seed"),
    "spinal-check": ("--t", "--seed"),
    "selftest": (),
}


@pytest.mark.parametrize("case", sorted(REQUIRED_FLAGS))
def test_every_missing_required_flag_exits_2_before_the_manifest(tmp_path, capsys, case):
    # argparse names the missing flag, and no run directory is made
    sub = _subparsers(cli.build_parser())[case]
    required = [a.option_strings[0] for a in sub._actions if a.required]
    assert sorted(required) == sorted(REQUIRED_FLAGS[case])
    args = CLOCK_ARGS[case]
    for flag in REQUIRED_FLAGS[case]:
        at = args.index(flag)
        with pytest.raises(SystemExit) as stop:
            cli.main([case, *args[:at], *args[at + 2 :], "--out-dir", str(tmp_path / "run")])
        assert stop.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.endswith(f"the following arguments are required: {flag}")
        assert not (tmp_path / "run").exists()


SEEDED_COMMANDS = sorted(
    name
    for name, sub in _subparsers(cli.build_parser()).items()
    if "--seed" in sub._option_string_actions
)


@pytest.mark.parametrize("case", SEEDED_COMMANDS)
def test_negative_seed_exits_2_before_the_manifest(tmp_path, capsys, case):
    # a seed is an integer >= 0 on every command, the unused and the
    # defaulted one included; a flag given twice keeps its last value
    args = [case, *CLOCK_ARGS[case], "--seed", "-1", "--out-dir", str(tmp_path / "run")]
    with pytest.raises(SystemExit) as stop:
        cli.main(args)
    assert stop.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith("argument --seed: expected an integer >= 0, got -1")
    assert not (tmp_path / "run").exists()


def test_readme_names_exactly_the_parser_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser = cli.build_parser()
    flags = {
        option
        for p in (parser, *_subparsers(parser).values())
        for action in p._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    assert named == flags


def test_capacity_violation_exits_3_and_is_recorded(tmp_path):
    out = tmp_path / "cap"
    r = run_cli(
        ["collide", "--n", "30", "--a", "mono", "--b", "mono", "--out-dir", str(out)],
        tmp_path,
    )
    assert r.returncode == 3, r.stderr
    manifest = json.loads((out / "collide_manifest.json").read_text())
    assert manifest["exit_status"] == 3
    assert len(manifest["capacity_events"]) == 1


# an output that cannot be written: the command's arguments, and what is in
# the working directory before the run
UNWRITABLE_OUTPUTS = {
    "out-in-missing-directory": (["--out", "nodir/x.csv", "--out-dir", "run"], []),
    "out-dir-is-a-file": (["--out-dir", "run"], ["run"]),
    "manifest-is-a-directory": (["--out-dir", "run"], ["run/", "run/collide_manifest.json/"]),
    "csv-is-a-directory": (["--out-dir", "run"], ["run/", "run/collide.csv/"]),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, case):
    # one line on stderr, and a manifest of the failed run where one fits
    args, made = UNWRITABLE_OUTPUTS[case]
    monkeypatch.chdir(tmp_path)
    for name in made:
        if name.endswith("/"):
            Path(name).mkdir()
        else:
            Path(name).touch()
    assert cli.main(["collide", "--n", "3", "--a", "mono", "--b", "uniform", *args]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("output error: ")
    manifest = tmp_path / "run" / "collide_manifest.json"
    if case in ("out-in-missing-directory", "csv-is-a-directory"):
        assert json.loads(manifest.read_text())["exit_status"] == 2
    else:
        assert not manifest.is_file()
    # a file that could not be moved into place leaves no staging file
    assert not list(tmp_path.glob("run/*.tmp"))


def test_manifest_names_an_output_as_out_gives_it(tmp_path, capsys):
    # joined with --out-dir, the recorded name finds the file it describes
    (tmp_path / "sub").mkdir()
    args = ["collide", "--n", "3", "--a", "mono", "--b", "uniform", "--out", "sub/x.csv"]
    assert cli.main([*args, "--out-dir", str(tmp_path)]) == 0
    (entry,) = json.loads((tmp_path / "collide_manifest.json").read_text())["outputs"]
    assert entry["file"] == "sub/x.csv"
    blob = (tmp_path / entry["file"]).read_bytes()
    assert hashlib.sha256(blob).hexdigest() == entry["sha256"]


def test_recorded_checksum_and_size_are_the_written_bytes(tmp_path):
    # a non-ASCII cell takes more bytes than characters: the manifest
    # records the bytes on disk, as encoded once for both
    ctx = cli.RunContext(command="collide", out_dir=tmp_path, parameters={})
    ctx.write_rows("t.csv", ["name", "value"], [("\u00b5\u2218\u00b5", 1.0), ("plain", 2)])
    ctx.finish(0)
    (entry,) = json.loads((tmp_path / "collide_manifest.json").read_text())["outputs"]
    blob = (tmp_path / "t.csv").read_bytes()
    assert len(blob) > len(blob.decode())
    digest = hashlib.sha256(blob).hexdigest()
    assert entry == {"file": "t.csv", "sha256": digest, "bytes": len(blob)}


def _csv_writer_text(header, rows):
    expect = io.StringIO(newline="")
    writer = csv.writer(expect, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return expect.getvalue()


@pytest.mark.parametrize("case", ["signed-zeros", "all-distinct"])
def test_pmf_rows_are_the_csv_writer_bytes(case):
    if case == "signed-zeros":
        # three distinct weights in eight: each is formatted once, and -0.0
        # keeps its sign
        pmf = cube.Pmf(3, np.array([0.25, 0.0, -0.0, 0.25, 0.0, -0.0, 0.25, 0.25]))
        shared = True
    else:
        pmf = cube.random_pmf(12, rng_substream(11, 61))
        shared = False
    rows = list(cli._pmf_rows(pmf))
    assert all(isinstance(value, str) == shared for _, value in rows)
    header = ["index", "value"]
    expect = _csv_writer_text(header, enumerate(pmf.weights.tolist()))
    assert "".join(cli._csv_blocks(header, rows)) == expect
    if shared:
        assert "\n2,-0.0\n" in expect


@pytest.mark.parametrize(
    "header, rows",
    [
        (["name", "value"], [("plain", 1.0), ("a,b", 2), ("plain", -0.0)]),
        (["name", "value"], [("say \"hi\"", 1), ("line\nbreak", 2)]),
        # a lone empty cell is quoted, though it is not in a wider row
        (["name"], [("x",), ("",)]),
    ],
)
def test_str_cells_that_need_quoting_go_through_csv_writer(header, rows):
    assert "".join(cli._csv_blocks(header, rows)) == _csv_writer_text(header, rows)


# 20 rows: with blocks of 7 rows, the header and rows 0-5 make the first
# block, and only the second (rows 6-12) holds cells that csv.writer quotes
# or empties
MIXED_ROWS = [
    *[(i, 0.1 * i, True) for i in range(3)],
    (np.float64(0.5), np.int64(-7), False),
    (float("nan"), float("inf"), -np.inf),
    (-0.0, "\u00b5\u2218\u00b5", 5e-324),
    (6, "a,b", 1.5),
    (7, 'say "hi"', 2),
    (8, "cr\rhere", 3),
    (9, "line\nbreak", 4),
    (10, None, 5),
    (11, "plain", np.float64(-0.0)),
    (12, "", 7),
    *[(i, 1.0 / i, "x") for i in range(13, 20)],
]


@pytest.mark.parametrize("chunk", [1, 7, 10**6])
@pytest.mark.parametrize(
    "header, rows",
    [(["i", "value", "extra"], MIXED_ROWS), (["name"], [("x",), ("",), ("y",)])],
    ids=["three-blocks", "width-1"],
)
def test_written_bytes_are_the_csv_writer_bytes_at_any_block_size(
    tmp_path, monkeypatch, chunk, header, rows
):
    monkeypatch.setattr(cli, "CHUNK_SIZE", chunk)
    expect = _csv_writer_text(header, rows).encode()
    blocks = list(cli._csv_blocks(header, rows))
    assert len(blocks) == -(-(len(rows) + 1) // chunk)
    ctx = cli.RunContext(command="collide", out_dir=tmp_path, parameters={})
    assert ctx.write_rows("t.csv", header, iter(rows)).read_bytes() == expect
    digest = hashlib.sha256(expect).hexdigest()
    assert ctx.outputs == [{"file": "t.csv", "sha256": digest, "bytes": len(expect)}]


@pytest.mark.parametrize("name", ["collide_manifest.json", "collide_manifest.json.tmp"])
def test_output_named_like_the_manifest_exits_2(tmp_path, capsys, name):
    # the manifest, or its temporary file, would overwrite the table, so the
    # table is refused and the manifest records the failed run
    args = ["collide", "--n", "3", "--a", "mono", "--b", "uniform", "--out-dir", str(tmp_path)]
    assert cli.main([*args, "--out", name]) == 2
    assert f"output {name} is where" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "collide_manifest.json").read_text())
    assert manifest["exit_status"] == 2
    assert manifest["outputs"] == []


OUT_OF_RANGE_RUNS = [
    (("martingale", "--t", "60", "--samples", "3", "--seed", "1"), "2^53"),
    (("martingale", "--t", "800", "--samples", "3", "--seed", "1"), "overflows"),
    (
        ("martingale", "--t", "800", "--samples", "3", "--seed", "1", "--method", "direct"),
        "overflows",
    ),
    # three direct trees at t = 30 expect about 6e13 nodes: refused from
    # their leaf counts, before any split
    (
        ("martingale", "--t", "30", "--samples", "3", "--seed", "1", "--method", "direct"),
        "over the node budget",
    ),
    (("w-tail", "--horizon", "800", "--samples", "3", "--seed", "1", "--eps", "0.5"), "overflows"),
    (
        ("profile-continuous", "--horizon", "800", "--samples", "3", "--seed", "1", "--lambda", "0"),
        "overflows",
    ),
    (("spinal-check", "--t", "2000", "--samples", "10", "--seed", "1"), "overflows"),
    (("evolve-continuous", "--n", "3", "--start", "mono", "--t", "1e300"), "integrator steps"),
    (
        ("evolve-continuous", "--n", "3", "--start", "mono", "--t", "10", "--step", "1e-300"),
        "integrator steps",
    ),
    (("collide", "--n", "19", "--a", "mono", "--b", "mono"), "capped at n=18"),
    # zero steps or t = 0 return before the collision kernel checks its cap
    (("evolve-discrete", "--n", "19", "--start", "mono", "--steps", "1"), "capped at n=18"),
    (("evolve-continuous", "--n", "19", "--start", "mono", "--t", "1"), "capped at n=18"),
    # blocks of 80 x 2^30 and about 6e8 sites; the cap stops both before the
    # binomial law allocates a sieve of that many bytes
    (("lowerbound-discrete", "--n", "1000000000000", "--t", "30"), "block size"),
    (
        ("lowerbound-continuous", "--n", "1000000000000000", "--t", "3", "--seed", "1"),
        "block size",
    ),
    # about 1.6e9 and 4e7 blocks: the count cap stops both before a sieve of
    # that many bytes, or a mixture grid of 32 floats per block
    (("lowerbound-discrete", "--n", "1000000000000", "--t", "3"), "block count"),
    (
        ("lowerbound-continuous", "--n", "200000000000000", "--t", "1e-300", "--seed", "1"),
        "block count",
    ),
    # 64 trees at t = log n: a group's sign keys (about 15 GiB expected) at
    # n = 10^6, and the run's leaves (about 19 GiB) at n = 10^7, are refused
    # before a tree is grown
    (
        ("lowerbound-continuous", "--n", "1000000", "--t", repr(math.log(1e6)),
         "--trees", "64", "--seed", "1"),
        "a group's sign keys would take",
    ),
    (
        ("lowerbound-continuous", "--n", "10000000", "--t", repr(math.log(1e7)),
         "--trees", "64", "--seed", "1"),
        "the run's leaves would take",
    ),
]


@pytest.mark.parametrize(
    "args,reason",
    OUT_OF_RANGE_RUNS,
    ids=[
        "martingale-t60", "martingale-t800", "martingale-t800-direct", "martingale-t30-direct",
        "w-tail-t800",
        "profile-continuous-t800", "spinal-check-t2000", "evolve-continuous-t1e300",
        "evolve-continuous-step1e-300", "collide-n19", "evolve-discrete-n19",
        "evolve-continuous-n19", "lowerbound-discrete-t30", "lowerbound-continuous-n1e15",
        "lowerbound-discrete-n1e12", "lowerbound-continuous-n2e14",
        "lowerbound-continuous-n1e6-group", "lowerbound-continuous-n1e7-run",
    ],
)
def test_out_of_range_run_exits_3_and_is_recorded(tmp_path, capsys, monkeypatch, args, reason):
    # leaf counts pass 2^53 at t = 60 whatever the pool size, so a small
    # cascade pool reaches the cap in a fraction of the time
    monkeypatch.setattr(yule, "CASCADE_MIN_POOL", 1 << 12)
    assert cli.main([*args, "--out-dir", str(tmp_path)]) == 3
    (path,) = tmp_path.glob("*_manifest.json")
    manifest = json.loads(path.read_text())
    assert manifest["exit_status"] == 3
    (event,) = manifest["capacity_events"]
    assert reason in event["message"]


def test_leaves_past_the_budget_while_growing_exit_3(tmp_path, capsys, monkeypatch):
    # 1000 trees at t = 1 expect 2718.3 leaves, and substream 1 grows 2753.
    # With the budget at 32 B a leaf of the expected count, both checks
    # before growth pass and growth stops once the leaves kept pass 2718
    args = ["lowerbound-continuous", "--n", "1000", "--t", "1", "--trees", "1000", "--seed", "1"]
    assert yule.sample_leaf_weights(1.0, 1000, rng_substream(1, 0))[0].size == 2753
    monkeypatch.setattr(profiles, "_LEAF_BYTES_BUDGET", math.ceil(32 * 1000 * math.e))
    assert cli.main([*args, "--out-dir", str(tmp_path)]) == 3
    manifest = json.loads((tmp_path / "lowerbound_continuous_manifest.json").read_text())
    (event,) = manifest["capacity_events"]
    assert "leaves kept by depth" in event["message"]
    assert event["leaf_cap"] == 2718 < event["leaves"] <= 2753
    assert manifest["outputs"] == []


def test_nan_integrator_state_exits_4(tmp_path, capsys):
    args = ["evolve-continuous", "--n", "4", "--start", "mono", "--t", "1e100", "--step", "1e100"]
    with np.errstate(all="ignore"):
        assert cli.main([*args, "--out-dir", str(tmp_path)]) == 4
    assert "coefficient magnitude nan left the unit box" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "evolve_continuous_manifest.json").read_text())
    assert manifest["exit_status"] == 4


@pytest.mark.parametrize("n", ["4", "12"])
def test_overflowing_integrator_prints_only_the_violation(tmp_path, n):
    # the unit-box check reports an overflowed state; numpy's overflow and
    # invalid-value warnings from the kernel and the integrator stay silent
    args = ["evolve-continuous", "--n", n, "--start", "mono", "--t", "1e100", "--step", "1e100"]
    r = run_cli([*args, "--out-dir", str(tmp_path)], tmp_path)
    assert r.returncode == 4
    assert r.stderr.splitlines() == [
        "numerical invariant violated: coefficient magnitude nan left the unit box; "
        "reduce the step (h=1e+100)"
    ]


def test_numerical_violation_exits_4(tmp_path, monkeypatch):
    # inject a command body that raises and confirm the dispatcher's mapping
    # and manifest for a command whose stock inputs never trip a check
    def boom(ns, ctx):
        raise NumericalInvariantError("synthetic breach")

    real_build = cli.build_parser

    def patched_build():
        parser = real_build()
        for sub in _subparsers(parser).values():
            sub.set_defaults(fn=boom)
        return parser

    monkeypatch.setattr(cli, "build_parser", patched_build)
    status = cli.main(
        ["evolve-discrete", "--n", "2", "--start", "mono", "--steps", "1",
         "--out-dir", str(tmp_path)]
    )
    assert status == 4
    manifest = json.loads((tmp_path / "evolve_discrete_manifest.json").read_text())
    assert manifest["exit_status"] == 4


def test_bad_value_exits_2(tmp_path):
    r = run_cli(["evolve-discrete", "--n", "x", "--start", "mono", "--steps", "1"], tmp_path)
    assert r.returncode == 2, r.stderr


def test_malformed_start_csv_exits_2(tmp_path, capsys):
    start = tmp_path / "start.csv"
    start.write_text("index,value\n0,abc\n1,0.5\n")
    status = cli.main(["collide", "--a", str(start), "--b", str(start), "--out-dir", str(tmp_path)])
    assert status == 2
    assert "bad row" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,reason",
    [
        ("idx,value\n0,0.5\n1,0.5\n", "expected header"),
        ("", "expected header"),
        ("index,value\n0,0.25\n1,0.25\n2,0.5\n", "row count 3 is not 2^n"),
        ("index,value\n", "row count 0 is not 2^n"),
        # unreadable files: not UTF-8, a field over csv's size limit, a directory
        ("index,value\n0,\udcff\n", "cannot read start file"),
        ("index,value\n0," + "1" * 200_000 + "\n", "cannot read start file"),
        (None, "cannot read start file"),
    ],
    ids=["header", "empty", "three-rows", "no-rows", "not-utf8", "huge-field", "directory"],
)
def test_malformed_start_file_exits_2(tmp_path, capsys, text, reason):
    start = tmp_path / "start.csv"
    if text is None:
        start.mkdir()
    else:
        start.write_bytes(text.encode(errors="surrogateescape"))
    status = cli.main(["collide", "--a", str(start), "--b", str(start), "--out-dir", str(tmp_path)])
    assert status == 2
    assert reason in capsys.readouterr().err


BAD_COUNTS = [
    (("martingale", "--t", "1", "--seed", "1"), "samples", "0"),
    # not free text: a bad sampler name is a configuration error
    (("martingale", "--t", "1", "--samples", "10", "--seed", "1"), "method", "bogus"),
    # the t = inf limit has one sampler: a tree sampler needs --horizon
    (("w-tail", "--eps", "0.5", "--samples", "5", "--seed", "1"), "method", "cascade"),
    (("w-tail", "--eps", "0.5", "--samples", "5", "--seed", "1"), "method", "direct"),
    (("profile-continuous", "--lambda", "0", "--samples", "5", "--seed", "1"), "method", "cascade"),
    (("w-tail", "--eps", "0.5", "--seed", "1"), "samples", "-3"),
    (("profile-continuous", "--lambda", "0", "--seed", "1"), "samples", "0"),
    (("spinal-check", "--t", "1", "--seed", "1"), "samples", "-4"),
    # counts that feed a sample standard deviation take at least 2
    (("spinal-check", "--t", "1", "--seed", "1"), "samples", "1"),
    (("lowerbound-continuous", "--n", "400", "--t", "0.5", "--seed", "1"), "trees", "1"),
    (("evolve-discrete", "--n", "3", "--start", "mono"), "steps", "-1"),
    (("lowerbound-continuous", "--n", "100", "--t", "1", "--seed", "1"), "trees", "-1"),
    (("fragmentation", "--n", "8", "--seed", "1"), "trials", "-2"),
    (("martingale", "--t", "1", "--seed", "1"), "workers", "0"),
    (("profile-discrete", "--lambda", "0"), "n", "0"),
    (("lowerbound-continuous", "--t", "1", "--trees", "2", "--seed", "1"), "n", "-1"),
    # a step count, not a horizon
    (("lowerbound-discrete", "--n", "400"), "t", "2.5"),
    # removed options exit 2 whatever their value: each tree takes 2048 sign draws
    (("lowerbound-continuous", "--n", "400", "--t", "0.5", "--trees", "5", "--seed", "1"),
     "inner", "1"),
]


def _assert_bad_value_exits_2(tmp_path, capsys, args, key, value):
    try:
        status = cli.main([*args, f"--{key}", value, "--out-dir", str(tmp_path)])
    except SystemExit as stop:  # argparse rejects a bad flag value
        status = stop.code
    assert status == 2
    # the error line names the key as a whole word; argparse's usage line
    # names every flag, and the temporary path names the test
    last = capsys.readouterr().err.replace(str(tmp_path), "").splitlines()[-1]
    assert re.search(rf"(?<![\w-])(--)?{re.escape(key)}(?![\w-])", last), last


def _ids(rows):
    # `-flag`: the bad value comes as a flag, the CLI's only input
    return [f"{a[0]}-{k}{v}-flag" for a, k, v in rows]


@pytest.mark.parametrize("args,key,value", BAD_COUNTS, ids=_ids(BAD_COUNTS))
def test_bad_count_exits_2(tmp_path, capsys, args, key, value):
    _assert_bad_value_exits_2(tmp_path, capsys, args, key, value)


BAD_REALS = [
    (("martingale", "--samples", "5", "--seed", "1"), "t", "-1"),
    (("martingale", "--samples", "5", "--seed", "1"), "t", "inf"),
    (("spinal-check", "--samples", "5", "--seed", "1"), "t", "-1"),
    (("spinal-check", "--samples", "5", "--seed", "1"), "t", "0"),
    (("evolve-continuous", "--n", "2", "--start", "mono"), "t", "-1"),
    (("evolve-continuous", "--n", "2", "--start", "mono", "--t", "1"), "step", "0"),
    (("evolve-continuous", "--n", "2", "--start", "mono", "--t", "1"), "step", "nan"),
    (("profile-continuous", "--lambda", "0", "--samples", "5", "--seed", "1"), "horizon", "-1"),
    (("w-tail", "--eps", "0.5", "--samples", "5", "--seed", "1"), "horizon", "-2"),
    (("w-tail", "--eps", "0.5", "--samples", "5", "--seed", "1"), "horizon", "1e999"),
    (("lowerbound-discrete", "--n", "400"), "t", "-1"),
    (("lowerbound-continuous", "--n", "100", "--seed", "1"), "t", "0"),
    # window grids: finite points only, and e^(-lambda/2) must not overflow
    (("profile-continuous", "--samples", "5", "--horizon", "1", "--seed", "1"), "lambda", "nan"),
    (("profile-continuous", "--samples", "5", "--horizon", "1", "--seed", "1"), "lambda", "inf"),
    (("profile-continuous", "--samples", "5", "--horizon", "1", "--seed", "1"), "lambda", "-1500"),
    (("profile-discrete", "--n", "64"), "lambda", "nan"),
    (("profile-discrete", "--n", "64"), "lambda", "inf"),
    # removed options exit 2 whatever their value
    (("profile-continuous", "--lambda", "0", "--samples", "5", "--seed", "1"), "z-step", "0"),
    (("profile-continuous", "--lambda", "0", "--samples", "5", "--seed", "1"), "z-step", "0.01"),
    (("w-tail", "--eps", "0.5", "--samples", "5", "--seed", "1"), "t", "1e999"),
    (("w-tail", "--eps", "0.5", "--samples", "5", "--seed", "1"), "t", "3"),
    # the exact block bound draws nothing
    (("lowerbound-discrete", "--n", "400", "--t", "1"), "mc-samples", "20"),
    (("lowerbound-discrete", "--n", "400", "--t", "1"), "seed", "1"),
    # flags are the only input, and the base step count is round(log2 n)
    (("evolve-discrete", "--n", "3", "--start", "mono", "--steps", "1"), "config", "run.cfg"),
    (("profile-discrete", "--n", "64", "--lambda", "0"), "t-base", "6"),
]


@pytest.mark.parametrize("args,key,value", BAD_REALS, ids=_ids(BAD_REALS))
def test_bad_real_exits_2(tmp_path, capsys, args, key, value):
    _assert_bad_value_exits_2(tmp_path, capsys, args, key, value)


def test_selftest_exit_reflects_registry(tmp_path, monkeypatch):
    # the real registry runs in the acceptance tests; here only the wiring:
    # nonzero exit when any criterion fails, zero when all pass
    from recomblab import acceptance
    from recomblab.acceptance import CriterionResult

    def fake_run_all(seed, printer=print):
        results = [
            CriterionResult(1, "alpha", True, "ok", 0.0),
            CriterionResult(2, "beta", False, 'broken, "twice"\nover', 0.25),
        ]
        for r in results:
            printer(r.line)
        return results

    monkeypatch.setattr(acceptance, "run_all", fake_run_all)
    status = cli.main(["selftest", "--out-dir", str(tmp_path)])
    assert status == 1
    # a summary with a comma, a quote and a line break is quoted as csv quotes it
    expect = io.StringIO(newline="")
    writer = csv.writer(expect, lineterminator="\n")
    writer.writerow(["criterion", "slug", "passed", "summary"])
    writer.writerows([(1, "alpha", 1, "ok"), (2, "beta", 0, 'broken, "twice"\nover')])
    assert (tmp_path / "selftest.csv").read_bytes() == expect.getvalue().encode()

    monkeypatch.setattr(
        acceptance,
        "run_all",
        lambda seed, printer=print: [CriterionResult(1, "alpha", True, "ok", 0.0)],
    )
    assert cli.main(["selftest", "--out-dir", str(tmp_path)]) == 0


def test_a_raising_criterion_fails_and_the_registry_goes_on(tmp_path, monkeypatch, capsys):
    # criterion 10 raises ValueError, as it does when every limit draw is 1
    # (the log of an empty tail); the other criteria are stubbed to pass, so
    # only the registry's wiring runs
    from recomblab import acceptance

    ran = []

    def stub(number):
        def fn(seed):
            ran.append(number)
            if number == 10:
                raise ValueError("math domain error")
            return True, "ok"

        return fn

    criteria = [dataclasses.replace(c, fn=stub(c.number)) for c in acceptance.CRITERIA]
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    results = acceptance.run_all()
    assert [r.number for r in results] == list(range(1, 15))
    assert ran[-4:] == [11, 12, 13, 14]
    assert [r.number for r in results if not r.passed] == [10]
    assert results[9].summary == "raised ValueError: math domain error"

    assert cli.main(["selftest", "--out-dir", str(tmp_path)]) == 1
    rows = list(csv.reader(io.StringIO((tmp_path / "selftest.csv").read_text())))
    assert len(rows) == 15
    assert rows[10] == ["10", "limit-tail", "0", "raised ValueError: math domain error"]
    assert "[FAIL] criterion 10 limit-tail: raised ValueError" in capsys.readouterr().out


def test_selftest_csv_does_not_depend_on_timing(tmp_path, monkeypatch):
    # the same verdicts at two different timings give the same csv bytes;
    # each criterion's seconds go to the manifest instead
    from recomblab import acceptance
    from recomblab.acceptance import CriterionResult

    tables, timings = [], []
    for k, seconds in enumerate((0.125, 17.5)):
        results = [
            CriterionResult(1, "alpha", True, "ok", seconds),
            CriterionResult(2, "beta", False, "off", 2 * seconds),
        ]
        monkeypatch.setattr(acceptance, "run_all", lambda seed, printer=print, rs=results: rs)
        out = tmp_path / str(k)
        assert cli.main(["selftest", "--out-dir", str(out)]) == 1
        tables.append((out / "selftest.csv").read_bytes())
        timings.append(json.loads((out / "selftest_manifest.json").read_text())["phases"])
    assert tables[0] == tables[1]
    assert timings == [
        {"criterion_1": 0.125, "criterion_2": 0.25},
        {"criterion_1": 17.5, "criterion_2": 35.0},
    ]
