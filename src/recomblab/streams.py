"""Deterministic random-stream derivation.

Every stochastic entry point takes a master seed and derives independent
substreams keyed by a task id, so results are reproducible bit for bit; each
of the CLI's martingale chunks takes its own task id, fixed by the chunk plan.

numpy 2 loads `numpy.random` on first attribute access, so importing this
module loads no generator code; `cli.PRECLOCK_IMPORTS` names the commands
that draw, and the CLI imports `numpy.random` for them before the manifest
clock starts.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# recorded in run manifests so an archived run names its generator scheme
STREAM_ALGORITHM = "pcg64:seedseq-spawnkey-v1"

# the master seed of the acceptance registry and of `recomblab selftest`
DEFAULT_SEED = 20260816


def rng_substream(master_seed: int, task_id: int) -> np.random.Generator:
    """Generator for one task, independent across task ids.

    Spawning by key (rather than drawing child seeds sequentially) makes the
    substream a pure function of (master_seed, task_id).
    """
    if not isinstance(master_seed, (int, np.integer)) or master_seed < 0:
        raise ConfigError(f"master seed must be a non-negative integer, got {master_seed!r}")
    if not isinstance(task_id, (int, np.integer)) or task_id < 0:
        raise ConfigError(f"task id must be a non-negative integer, got {task_id!r}")
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(task_id),))
    return np.random.Generator(np.random.PCG64(seq))
