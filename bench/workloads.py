"""The benchmark's workloads: which CLI commands each one runs, in order.

A workload is a closed loop with one client: its commands run one after
another, each in a fresh interpreter, exactly as a user would type them.
Every command's `--seed` is derived from the workload seed, and workload
seed 0 reproduces the seeds used in the README examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# seeds are offset per workload seed so that neighbouring seeds never share
# a command seed
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `label` names it in metrics and in the checks."""

    label: str
    argv: Tuple[str, ...]
    base_seed: Optional[int] = None  # None: the command takes no seed
    kind: str = "exact"  # "exact" or "monte-carlo"

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    def seed_for(self, workload_seed: int) -> Optional[int]:
        if self.base_seed is None:
            return None
        return self.base_seed + SEED_STRIDE * workload_seed

    def argv_for(self, workload_seed: int) -> List[str]:
        seed = self.seed_for(workload_seed)
        return list(self.argv) + ([] if seed is None else ["--seed", str(seed)])

    @property
    def metric(self) -> str:
        return f"{self.label}_s"


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Tuple[Command, ...]
    dominant_layers: Tuple[str, ...]  # the trace should find one of these on top


EXACT = Workload(
    name="exact",
    commands=(
        Command("collide", ("collide", "--n", "14", "--a", "mono", "--b", "uniform")),
        Command(
            "evolve-discrete",
            ("evolve-discrete", "--n", "16", "--start", "mono", "--steps", "8"),
        ),
        Command(
            "evolve-continuous.n12",
            ("evolve-continuous", "--n", "12", "--start", "mono", "--t", "0.5"),
        ),
        Command(
            "evolve-continuous.n4",
            (
                "evolve-continuous", "--n", "4", "--start", "mono",
                "--t", "10", "--step", "0.001",
            ),
        ),
        Command(
            "profile-discrete",
            ("profile-discrete", "--n", "4096", "--lambda", "-4..4"),
            base_seed=0,
        ),
    ),
    dominant_layers=("discrete", "cube"),
)

TREES = Workload(
    name="trees",
    commands=(
        Command(
            "martingale",
            ("martingale", "--t", "6.0", "--samples", "50000", "--workers", "2"),
            base_seed=2,
            kind="monte-carlo",
        ),
        Command(
            "lowerbound-continuous",
            ("lowerbound-continuous", "--n", "1000", "--t", "3.0", "--trees", "400"),
            base_seed=4,
            kind="monte-carlo",
        ),
        Command(
            "fragmentation",
            ("fragmentation", "--n", "64", "--trials", "2500"),
            base_seed=1,
            kind="monte-carlo",
        ),
    ),
    dominant_layers=("yule",),
)

LIMIT = Workload(
    name="limit",
    commands=(
        Command(
            "w-tail",
            (
                "w-tail", "--eps", "0.5,0.25,0.125", "--samples", "20000",
                "--horizon", "3", "--method", "cascade",
            ),
            base_seed=3,
            kind="monte-carlo",
        ),
        Command(
            "profile-continuous",
            (
                "profile-continuous", "--lambda", "-4..4", "--samples", "1000",
                "--horizon", "6",
            ),
            base_seed=7,
            kind="monte-carlo",
        ),
    ),
    dominant_layers=("yule", "profiles"),
)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (EXACT, TREES, LIMIT)}


def workload_seed(raw: int) -> int:
    """Fold any integer into the non-negative range the CLI accepts."""
    return raw % (1 << 31)
