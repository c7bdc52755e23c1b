"""Continuous-time recombination dynamics driven by binary branching trees.

The continuous semigroup solves d/dt mu_t = mu_t∘mu_t - mu_t.  Its stochastic
representation grows a binary branching tree (every leaf splits after an
independent mean-one exponential time), puts an independent copy of the
initial state on each leaf, and collides children pairwise up to the root:
averaging the root measure over trees gives mu_t exactly.

Every tree here comes from one generator, the generation-wave kernel
`_wave_batch`, which grows many trees at once and reports what each consumer
needs: leaf counts per depth for the martingale samplers, the leaf-weight
estimators and the spinal check, and each wave's death times and survival
mask for the consumers that need parent links (`sample_yule` and the
tree-average estimator).  The module also holds a fixed-step order-4
integrator for the character-space ODE, Monte Carlo drivers for both
representations, the additive leaf-weight martingale

    value = e^{t/2} * sum over leaves x of 4^{-depth(x)}

with direct and time-chunked samplers, exact draws of its limit, tail
estimation, and a check of the size-biased (spinal) identity on grown trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .cube import FourierTable, Pmf, _product_coeff_rows, wht_forward, wht_inverse
from .errors import CapacityError, InvalidDistributionError, NumericalInvariantError
from .discrete import _collision_kernel, _draw_spins, collide_coeffs

# leaves one sample_yule tree may reach before it raises a capacity error
MAX_LEAVES = 1 << 22
_TREE_MEASURE_CELL_CAP = 1 << 26
_BATCH_NODE_BUDGET = 250_000_000
# lineages the widest generation wave of one tree chunk is sized to reach: a
# 1 MiB array of death times, so a wave's arrays fit a 2 MiB L2 cache.  On a
# 2-core Xeon (2 MiB L2 per core), 10 000 direct trees at t = 6, widths
# alternated in one process over 11 rounds:
#
#     width   chunks  widest wave  traced peak  median s
#     2^15        29       33 384      0.8 MiB     0.164
#     2^16        15       68 412      1.5 MiB     0.154
#     2^17         8      125 988      2.7 MiB     0.146
#     2^18         4      255 220      5.3 MiB     0.149
#     2^19         2      497 532     10.2 MiB     0.157
#     2e7          1      881 302     17.9 MiB     0.158
WAVE_WIDTH = 1 << 17
# version of the wave kernel's draw order, for every tree it grows (the
# martingale samplers, sample_yule, the block lower bound, both
# representation estimators, the spinal check); bumped whenever a seeded
# output of theirs changes bytes
TREE_SAMPLER_VERSION = 3
# cascade sampler: stage length, smallest bootstrap pool, and the version of
# its draw order, bumped whenever seeded cascade output changes bytes
CASCADE_STAGE = 2.0
CASCADE_MIN_POOL = 1 << 20
CASCADE_SAMPLER_VERSION = 4
# dense cells (per-sample measure entries) one estimator batch may hold
_ESTIMATOR_BATCH_CELLS = 1 << 20
# spinal_identity_check passes while every one-sample |z| stays within this
_SPINAL_Z_LIMIT = 4.0


def _check_horizon(t: float, *, positive: bool = False) -> None:
    """ValueError unless 0 <= t < inf, or 0 < t < inf where `positive`."""
    bound = ">" if positive else ">="
    if not (t < math.inf and (t > 0.0 if positive else t >= 0.0)):
        raise ValueError(f"horizon must be finite and {bound} 0, got {t}")


def _exp(x: float) -> float:
    """e^x, or CapacityError where that overflows: no tree sampler reaches it."""
    try:
        return math.exp(x)
    except OverflowError:
        raise CapacityError(f"e^{x:g} overflows a float", exponent=x) from None


# ---------------------------------------------------------------------------
# tree sampling
# ---------------------------------------------------------------------------


def _wave_peak(t: float) -> float:
    """Expected lineages in the widest generation wave of one tree at horizon t.

    Wave d holds every lineage born at depth d, 2^d P(Poisson(t) >= d) in
    expectation, and the maximum over d is about 2 e^t / sqrt(4 pi t) =
    e^t / sqrt(pi t); it is floored at the one root lineage.
    """
    return max(1.0, _exp(t) / math.sqrt(math.pi * max(t, 0.25)))


def _wave_chunk(t: float, m: int) -> int:
    """Trees per chunk, so that a chunk's widest wave expects `WAVE_WIDTH` lineages."""
    return max(1, min(m, int(WAVE_WIDTH / _wave_peak(t))))


def _wave_batch(
    t: float,
    m: int,
    rng: np.random.Generator,
    on_frozen: Callable[[np.ndarray, np.ndarray, int], None],
    node_budget: int = 4 * _BATCH_NODE_BUDGET,
    on_wave: Optional[Callable[[int, np.ndarray, np.ndarray], None]] = None,
) -> Tuple[int, int]:
    """Drive m independent trees to horizon t without materializing them.

    Lineages are processed in generation waves, so a wave's index is the
    depth of its lineages.  A wave holds only their death times, in tree
    order, and a lineage count for each tree still growing; the lineages
    that outlive t are reported per tree as `on_frozen(trees, counts,
    depth)`.  Trees are grown in chunks of `_wave_chunk(t, m)`, so a chunk's
    widest wave expects `WAVE_WIDTH` lineages (2^17, a 1 MiB array of death
    times) and the kernel's working set stays in cache.  A consumer that
    needs parent links passes `on_wave(depth, death, alive)`, called once
    per wave with the wave's death times and survival mask: the children of
    the k-th surviving lineage sit at positions 2k and 2k+1 of the next
    wave, and depth 0 starts a new chunk whose lineages are its trees in
    order.  Every lineage splits after an independent mean-one exponential
    time, so each tree has the branching law.  Returns the number of
    lineages (tree nodes) grown and the widest wave grown, in lineages.
    Every tree sampler comes through here, so here a horizon outside
    [0, inf) raises.
    """
    _check_horizon(t)
    chunk = _wave_chunk(t, m)
    processed = widest = 0
    for start in range(0, m, chunk):
        width = min(chunk, m - start)
        trees = np.arange(start, start + width)
        # lineages per growing tree: a wave passes the node budget check
        # (1e9 by default), so the next one has at most 2e9 < 2^31
        counts = np.ones(width, dtype=np.int32)
        lineages, depth = width, 0
        while lineages:
            processed += lineages
            widest = max(widest, lineages)
            if processed > node_budget:
                raise CapacityError(
                    "node budget exhausted while growing batch",
                    horizon=t,
                    nodes=processed,
                )
            if depth == 0:
                # one root lineage per tree: no per-tree sum to take
                death = rng.standard_exponential(width)
                alive = death <= t
                live = alive.astype(np.int32)
            else:
                # two children per surviving parent, in tree order
                parents = death.compress(alive)
                kids = rng.standard_exponential((parents.size, 2))
                kids[:, 0] += parents
                kids[:, 1] += parents
                death = kids.ravel()
                alive = death <= t
                starts = np.cumsum(counts) - counts
                live = np.add.reduceat(alive, starts, dtype=np.int32)
            if on_wave is not None:
                on_wave(depth, death, alive)
            frozen = counts - live
            hit = frozen > 0
            if hit.any():
                on_frozen(trees[hit], frozen[hit], depth)
            growing = live > 0
            trees = trees[growing]
            counts = 2 * live[growing]
            lineages = int(counts.sum())
            depth += 1
    return processed, widest


def sample_leaf_weights(
    t: float, m: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Owner tree and weight 2^-depth of every leaf of m trees at horizon t.

    Leaves come in wave order (by depth, then by tree), so the leaves of one
    tree are in depth order and a stable sort by owner keeps it.  The tree
    nodes grown and the widest wave grown, as `_wave_batch` counts them,
    come after the two arrays.
    """
    owners: List[np.ndarray] = []
    weights: List[np.ndarray] = []

    def on_frozen(trees: np.ndarray, frozen: np.ndarray, depth: int) -> None:
        owners.append(np.repeat(trees, frozen))
        weights.append(np.full(owners[-1].size, math.ldexp(1.0, -depth)))

    nodes, widest = _wave_batch(t, m, rng, on_frozen)
    return np.concatenate(owners), np.concatenate(weights), nodes, widest


@dataclass(frozen=True)
class YuleTree:
    """One realization of the branching tree, as flat node arrays.

    Node 0 is the root (birth time 0).  Children are always allocated after
    their parent, so node ids increase along every root-to-leaf path; bottom-up
    passes can simply walk ids in reverse.  `children` rows are (-1, -1) for
    leaves.  All leaves are alive at the horizon.
    """

    horizon: float
    parent: np.ndarray
    children: np.ndarray
    birth_time: np.ndarray
    depth: np.ndarray
    leaves: np.ndarray

    def __post_init__(self):
        for name in ("parent", "children", "birth_time", "depth", "leaves"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def num_nodes(self) -> int:
        return self.parent.size


def sample_yule(t: float, rng: np.random.Generator) -> YuleTree:
    """Grow one tree to horizon t and lay out its nodes wave by wave.

    Node ids run through the waves in order, so every child comes after its
    parent.  A tree with more than MAX_LEAVES leaves has more than
    2 MAX_LEAVES - 1 nodes, which is the node budget the wave kernel is
    given: exceeding it raises a capacity error carrying the nodes grown.
    """
    waves: List[Tuple[np.ndarray, np.ndarray]] = []
    _wave_batch(
        t,
        1,
        rng,
        lambda trees, frozen, depth: None,
        node_budget=2 * MAX_LEAVES - 1,
        on_wave=lambda depth, death, alive: waves.append((death, alive)),
    )
    sizes = [death.size for death, _ in waves]
    offsets = np.cumsum([0] + sizes)
    parent = np.full(offsets[-1], -1, dtype=np.int32)
    children = np.full((offsets[-1], 2), -1, dtype=np.int32)
    birth = np.zeros(offsets[-1])
    for d, (death, alive) in enumerate(waves[:-1]):
        splitters = offsets[d] + np.flatnonzero(alive)
        kids = slice(offsets[d + 1], offsets[d + 2])
        children[splitters] = np.arange(kids.start, kids.stop).reshape(-1, 2)
        parent[kids] = np.repeat(splitters, 2)
        birth[kids] = np.repeat(death[alive], 2)
    return YuleTree(
        horizon=float(t),
        parent=parent,
        children=children,
        birth_time=birth,
        depth=np.repeat(np.arange(len(waves), dtype=np.int32), sizes),
        leaves=np.flatnonzero(children[:, 0] < 0).astype(np.int32),
    )


# ---------------------------------------------------------------------------
# character-space ODE
# ---------------------------------------------------------------------------

COEFF_BOX_TOL = 1e-9
# integrator steps one evolve_continuous call may take
RK4_STEP_CAP = 1_000_000


def evolve_continuous(mu: Pmf, t: float, step: float = 0.01) -> Pmf:
    """Integrate the character-space ODE with fixed-step classical order 4.

    The horizon is split into equal steps no longer than `step`.  The run
    lifts the coefficients into the collision kernel's ring once and takes
    every stage of every step there (see `discrete.collide_coeffs`), in four
    buffers allocated once: the state, the stage input, the weighted sum of
    the stages and the current stage.  After each step the state's rank-0
    row, the lift of the empty-set coefficient, is held at exactly 1, and a
    read-out copy of the state must keep every coefficient inside
    [-1-tol, 1+tol]; leaving that box, or turning NaN, aborts the run, since
    it means the trajectory is no longer a probability measure.  More than
    RK4_STEP_CAP steps raise CapacityError before any is taken.
    """
    _check_horizon(t)
    if step <= 0:
        raise ValueError("step must be > 0")
    if t / step > RK4_STEP_CAP + 0.5:
        raise CapacityError(
            f"t={t} at step {step} takes over {RK4_STEP_CAP} integrator steps", horizon=t, step=step
        )
    if t == 0:
        return mu
    n = mu.n
    nsteps = max(1, round(t / step))
    h = t / nsteps
    # 0-d arrays: numpy scales by them faster than by Python floats
    half, full, sixth = (np.array(x) for x in (0.5 * h, h, h / 6.0))
    lift, product, readout = _collision_kernel(n)
    y = lift(wht_forward(mu).coeffs.copy(), n)
    stage, total, k = (np.empty_like(y) for _ in range(3))

    def field(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        # x∘x - x into out; a ring product may overwrite its first operand,
        # so it squares out
        out[...] = x
        return np.subtract(product(out, out, n), x, out=out)

    # y + (h/6)(k1 + 2 k2 + 2 k3 + k4), summed in that order; doubling is exact.
    # A state that overflows turns inf or NaN, and the box check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(nsteps):
            field(y, total)
            np.multiply(total, half, out=stage)
            stage += y
            field(stage, k)
            np.multiply(k, half, out=stage)
            stage += y
            k += k
            total += k
            field(stage, k)
            np.multiply(k, full, out=stage)
            stage += y
            k += k
            total += k
            total += field(stage, k)
            total *= sixth
            y += total
            y[0] = 1.0
            c = readout(y.copy(), n)
            worst = float(np.abs(c).max())
            if not worst <= 1.0 + COEFF_BOX_TOL:
                raise NumericalInvariantError(
                    f"coefficient magnitude {worst} left the unit box; "
                    f"reduce the step (h={h})"
                )
    return wht_inverse(FourierTable(n, c))


# ---------------------------------------------------------------------------
# Monte Carlo drivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloMeasure:
    """Sample mean and standard error of an estimator's character coefficients.

    A deterministic coefficient (the empty set, always 1) is detectable by
    its exactly-zero standard error.
    """

    coeff_mean: np.ndarray
    coeff_stderr: np.ndarray


def _accumulate_measures(batches: Iterable[np.ndarray], m: int) -> MonteCarloMeasure:
    """Mean and spread of batches of per-sample coefficient rows.

    Sums are taken of each entry's offset from the first sample, so an entry
    that never varies sums exact zeros: its mean is that common value and
    its standard error exactly zero, which is how deterministic
    coefficients are recognized.
    """
    if m < 2:
        raise ValueError("need at least 2 samples")
    shift = total = squares = None
    for rows in batches:
        if shift is None:
            shift = rows[0].copy()
            total, squares = np.zeros_like(shift), np.zeros_like(shift)
        rows = rows - shift
        total += rows.sum(axis=0)
        squares += np.square(rows).sum(axis=0)
    return MonteCarloMeasure(
        coeff_mean=shift + total / m,
        coeff_stderr=np.sqrt(np.maximum(squares - total * total / m, 0.0) / ((m - 1.0) * m)),
    )


def _batch_sizes(m: int, per_sample_cells: float) -> List[int]:
    """Split m samples into batches of about `_ESTIMATOR_BATCH_CELLS` cells."""
    batch = max(1, int(_ESTIMATOR_BATCH_CELLS / per_sample_cells))
    return [min(batch, m - start) for start in range(0, m, batch)]


def _collide_waves(alive: Sequence[np.ndarray], base: np.ndarray, n: int) -> np.ndarray:
    """Root coefficients of one tree chunk, children collided bottom-up.

    `alive` holds each wave's survival mask.  Every lineage of the last wave
    is a leaf and carries `base`; going up, a surviving lineage takes the
    collision of its children, which sit at positions 2k and 2k+1 of the
    wave below.
    """
    values = np.broadcast_to(base, (alive[-1].size, base.size))
    for mask in reversed(alive[:-1]):
        up = np.empty((mask.size, base.size))
        up[:] = base
        up[mask] = collide_coeffs(values[0::2], values[1::2], n)
        values = up
    return values


def wild_mc_estimate(
    mu: Pmf, t: float, m: int, rng: np.random.Generator
) -> MonteCarloMeasure:
    """Average the tree root measure over m independent trees.

    Trees are grown in batches by the wave kernel and collided bottom-up,
    one row-wise collision per wave.  Coefficient statistics come from the
    root coefficients directly, so a coefficient the collision keeps fixed
    (every group of sites whose value agrees across all leaves, in
    particular singletons) has exactly zero spread.
    """
    _check_horizon(t)
    base = wht_forward(mu).coeffs
    cells = 1 << mu.n

    def batches():
        # a tree has 2 e^t - 1 nodes on average, each one row while collided
        for size in _batch_sizes(m, cells * 2.0 * _exp(t)):
            leaves = np.zeros(size, dtype=np.int64)
            chunks: List[List[np.ndarray]] = []

            def on_frozen(trees: np.ndarray, frozen: np.ndarray, depth: int) -> None:
                leaves[trees] += frozen

            def on_wave(depth: int, death: np.ndarray, alive: np.ndarray) -> None:
                if depth == 0:
                    chunks.append([])
                chunks[-1].append(alive)

            _wave_batch(t, size, rng, on_frozen, on_wave=on_wave)
            widest = int(leaves.max())
            if widest * cells > _TREE_MEASURE_CELL_CAP:
                raise CapacityError(
                    "tree too large for dense per-node measures",
                    leaves=widest,
                    sites=mu.n,
                )
            yield np.concatenate([_collide_waves(c, base, mu.n) for c in chunks])

    return _accumulate_measures(batches(), m)


def double_quenched_estimate(
    mu: Pmf, t: float, m: int, rng: np.random.Generator
) -> MonteCarloMeasure:
    """Average the quenched product measure over both tree and leaf samples.

    Each batch grows its trees, then draws one independent sample of mu per
    leaf; a tree's site biases are its leaves' spins weighted by 2^-depth.
    """

    def batches():
        for size in _batch_sizes(m, 2.0 * (1 << mu.n)):
            owner, weight, _, _ = sample_leaf_weights(t, size, rng)
            spins = _draw_spins(mu, owner.size, rng)
            biases = np.stack(
                [
                    np.bincount(owner, weights=weight * spins[:, i], minlength=size)
                    for i in range(mu.n)
                ],
                axis=1,
            )
            yield _product_coeff_rows(biases)

    return _accumulate_measures(batches(), m)


# ---------------------------------------------------------------------------
# additive leaf-weight martingale
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MartingaleBatch:
    """One sampler call's martingale values with the leaf count of each tree.

    `nodes_grown` counts the tree nodes the wave kernel simulated for the
    batch and `widest_wave` the lineages of the widest wave it grew.  A
    cascade batch also reports its bootstrap: the pool size, the pool
    entries its final stage drew, the entries of the last pool it grew (one
    per distinct draw), and the expected number of repeated draws
    draws^2 / (2 pool_size).  A direct batch, and a cascade pool, leave them
    at zero.
    """

    values: np.ndarray
    leaf_counts: np.ndarray
    nodes_grown: int
    widest_wave: int
    pool_size: int = 0
    pool_draws: int = 0
    pool_grown: int = 0
    expected_repeat_draws: float = 0.0


def _direct_martingale_batch(t: float, m: int, rng: np.random.Generator) -> MartingaleBatch:
    raw = np.zeros(m)
    counts = np.zeros(m, dtype=np.int64)

    def on_frozen(trees: np.ndarray, frozen: np.ndarray, depth: int) -> None:
        # a count times 4^-depth is exactly the sum of that many 4^-depth
        raw[trees] += frozen * math.ldexp(1.0, -2 * depth)
        counts[trees] += frozen

    nodes, widest = _wave_batch(t, m, rng, on_frozen)
    return MartingaleBatch(math.exp(t / 2.0) * raw, counts, nodes, widest)


def _add_leaves(
    new_w: np.ndarray,
    new_l: np.ndarray,
    trees: np.ndarray,
    frozen: np.ndarray,
    depth: int,
    pool: MartingaleBatch,
    pick: np.ndarray,
) -> None:
    """Add one wave's leaves to their trees, leaf i rooting pool entry pick[i].

    Leaf i belongs to the tree at position owner[i] of `trees`; bincount
    sums each tree's leaves in leaf order.  A leaf count that reaches 2^53,
    where float sums stop being exact, raises CapacityError.
    """
    owner = np.repeat(np.arange(trees.size), frozen)
    w = math.ldexp(1.0, -2 * depth) * pool.values[pick]
    new_w[trees] += np.bincount(owner, weights=w, minlength=trees.size)
    counts = new_l[trees] + np.bincount(
        owner, weights=pool.leaf_counts[pick].astype(np.float64), minlength=trees.size
    )
    if counts.max() >= 2.0**53:
        raise CapacityError("a leaf count reached 2^53, past exact float sums", leaves=counts.max())
    new_l[trees] = counts.astype(np.int64)


def _cascade_pool(
    first: float,
    pool: Optional[MartingaleBatch],
    width: int,
    rng: np.random.Generator,
) -> MartingaleBatch:
    """`width` i.i.d. (value, leaf count) entries of the next cascade pool.

    With no previous pool an entry is a direct tree of horizon `first`;
    otherwise it is a stage tree whose leaves draw their subtrees from
    `pool` uniformly with replacement.
    """
    if pool is None:
        return _direct_martingale_batch(first, width, rng)
    new_w = np.zeros(width)
    new_l = np.zeros(width, dtype=np.int64)

    def on_frozen(trees: np.ndarray, frozen: np.ndarray, depth: int) -> None:
        pick = rng.integers(0, pool.values.size, size=int(frozen.sum()))
        _add_leaves(new_w, new_l, trees, frozen, depth, pool, pick)

    nodes, widest = _wave_batch(CASCADE_STAGE, width, rng, on_frozen)
    return MartingaleBatch(math.exp(CASCADE_STAGE / 2.0) * new_w, new_l, nodes, widest)


def _cascade_martingale_batch(
    t: float, m: int, rng: np.random.Generator
) -> MartingaleBatch:
    """Time-chunked sampler built on the branching composition identity.

    A tree of horizon a+d is a tree of horizon d whose leaves root
    independent trees of horizon a, so

        value(a+d) = e^{d/2} * sum over leaves x of 4^-depth(x) * value_x(a),

    and leaf counts compose additively.  The horizon splits into K stages
    of `CASCADE_STAGE` time units, the first one taking the remainder.
    Pool 1 holds P = `max(m, CASCADE_MIN_POOL)` (value, leaf count) samples
    grown directly over the first stage, and pool k+1 holds P stage trees
    whose leaves draw their subtrees from pool k with replacement.  The
    final stage grows only the m trees that are kept, and its leaves pick
    indices into pool K-1 uniformly from [0, P).  Pool K-1 is then grown
    only at the distinct picked indices, in index order, and each pick
    reads the entry at its rank among the distinct picks; no P-sized array
    is allocated for it.  Pool
    entries are i.i.d. and independent of the picks, so this has exactly
    the law of growing all P entries and P final-stage trees and keeping m;
    only the order of the random draws differs.  With a single stage there
    is no pool, and the sampler is the direct one on m trees.

    The bootstrap reuse is the only approximation: with pool size P and a
    handful of leaves per stage tree, the chance that one output reuses a
    pool entry twice is O(leaves^2 / P), and sample means stay exactly
    unbiased.  The batch reports P, the final stage's draws D, the entries
    of pool K-1 it grew (the distinct draws) and the expected number of
    repeated draws D^2 / (2P), and the nodes and widest wave of every
    `_wave_batch` call it made.
    """
    nstages = max(1, math.ceil(t / CASCADE_STAGE))
    first = t - (nstages - 1) * CASCADE_STAGE
    if nstages == 1:
        return _direct_martingale_batch(first, m, rng)
    pool_size = max(m, CASCADE_MIN_POOL)
    pool, nodes, widest = None, 0, 0
    for _ in range(nstages - 2):
        pool = _cascade_pool(first, pool, pool_size, rng)
        nodes, widest = nodes + pool.nodes_grown, max(widest, pool.widest_wave)
    # the final stage keeps each wave's frozen trees and their leaves' picks,
    # as int32 since m <= P < 2^31
    waves = []

    def on_frozen(trees: np.ndarray, frozen: np.ndarray, depth: int) -> None:
        pick = rng.integers(0, pool_size, size=int(frozen.sum()), dtype=np.int32)
        waves.append((trees.astype(np.int32), frozen, depth, pick))

    stage_nodes, stage_widest = _wave_batch(CASCADE_STAGE, m, rng, on_frozen)
    # the k-th grown entry is the k-th smallest drawn index
    drawn, entry = np.unique(np.concatenate([wave[3] for wave in waves]), return_inverse=True)
    last = _cascade_pool(first, pool, drawn.size, rng)
    values = np.zeros(m)
    counts = np.zeros(m, dtype=np.int64)
    draws = 0
    for trees, frozen, depth, pick in waves:
        _add_leaves(values, counts, trees, frozen, depth, last, entry[draws : draws + pick.size])
        draws += pick.size
    return MartingaleBatch(
        math.exp(CASCADE_STAGE / 2.0) * values,
        counts,
        nodes + stage_nodes + last.nodes_grown,
        max(widest, stage_widest, last.widest_wave),
        pool_size=pool_size,
        pool_draws=draws,
        pool_grown=drawn.size,
        expected_repeat_draws=draws * draws / (2.0 * pool_size),
    )


def _direct_fits(t: float, m: int) -> bool:
    """Whether m trees grown in full to horizon t, 2 m e^t nodes expected, fit the budget."""
    return 2.0 * m * _exp(t) <= _BATCH_NODE_BUDGET


def resolve_martingale_method(t: float, m: int, method: str = "auto") -> str:
    """The sampler that `method` names for m samples at horizon t.

    `auto` simulates every tree in full while the expected node count
    2 m e^t stays within budget and otherwise picks the cascade sampler.
    """
    if method != "auto":
        return method
    return "direct" if _direct_fits(t, m) else "cascade"


def martingale_samples(
    t: float,
    m: int,
    rng: np.random.Generator,
    method: str = "auto",
) -> MartingaleBatch:
    """Sample m martingale values at horizon t.

    The horizon is checked before `resolve_martingale_method` resolves
    `auto`; the cascade's per-sample law is exact up to pool-bootstrap reuse.
    """
    _check_horizon(t)
    if m < 1:
        raise ValueError("need at least one sample")
    method = resolve_martingale_method(t, m, method)
    if method == "direct":
        return _direct_martingale_batch(t, m, rng)
    if method == "cascade":
        return _cascade_martingale_batch(t, m, rng)
    raise ValueError(f"unknown sampling method {method!r}")


def martingale_limit_samples(m: int, rng: np.random.Generator) -> np.ndarray:
    """m independent exact draws of the martingale's almost-sure limit W.

    W = 1/X with X chi-squared on 3 degrees of freedom (inverse gamma, shape
    3/2, scale 1/2; Laplace transform (1 + sqrt(2 lam)) e^(-sqrt(2 lam))).
    The root splits after an Exp(1) time tau and both subtrees' weights are
    quartered, so W solves the smoothing transform W = A (W1 + W2) with
    A = e^(tau/2) / 4 and W1, W2 independent copies of W; this law is its
    unique fixed point of mean one (Durrett and Liggett 1983; Liu 1998).
    """
    return 1.0 / rng.chisquare(3, m)


@dataclass(frozen=True)
class TailEstimate:
    probability: float
    stderr: float
    ci_low: float
    ci_high: float
    samples: int


def tail_probability_from_samples(values: np.ndarray, eps: float) -> TailEstimate:
    if not 0.0 < eps < 1.0:
        raise InvalidDistributionError(f"threshold must be in (0,1), got {eps}")
    values = np.asarray(values)
    m = values.size
    p = float(np.count_nonzero(values <= eps)) / m
    se = math.sqrt(max(p * (1.0 - p), 0.0) / m)
    return TailEstimate(
        probability=p,
        stderr=se,
        ci_low=max(0.0, p - 1.96 * se),
        ci_high=min(1.0, p + 1.96 * se),
        samples=m,
    )


# ---------------------------------------------------------------------------
# spinal identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpinalFunctionalResult:
    name: str
    weighted_mean: float
    analytic: float
    z: float


@dataclass(frozen=True)
class SpinalCheckReport:
    results: Tuple[SpinalFunctionalResult, ...]
    passed: bool
    nodes_grown: int
    widest_wave: int


def spinal_identity_check(t: float, m: int, rng: np.random.Generator) -> SpinalCheckReport:
    """Check the many-to-one (spinal) identity on m trees grown to horizon t.

    A tree at horizon t has on average 2^d P(Poisson(t) = d) leaves at depth
    d, so for any function G of the depth

        E[e^{t/2} * sum over leaves x of 4^{-depth(x)} G(depth(x))] = E[G(Poisson(t/2))],

    the depth of the size-biased tree's spine, which splits at rate 1/2.
    Each tree gives one such sum for G = 1, d, d^2 and e^{-d}, and each mean
    is compared with its closed form by a one-sample z statistic.  Trees
    are grown in full, so more than the martingale samplers' expected node
    budget 2 m e^t raises CapacityError before any is grown.
    """
    _check_horizon(t, positive=True)
    if m < 2:
        raise ValueError("need at least 2 samples")
    if not _direct_fits(t, m):
        raise CapacityError("spinal check trees exceed the node budget", horizon=t, samples=m)
    h = t / 2.0
    names = ("unit", "depth", "depth_squared", "exp_minus_depth")
    analytic = np.array([1.0, h, h + h * h, math.exp(h * math.expm1(-1.0))])
    sums = np.zeros((len(names), m))

    def on_frozen(trees: np.ndarray, frozen: np.ndarray, depth: int) -> None:
        g = np.array([1.0, depth, depth * depth, math.exp(-depth)])
        sums[:, trees] += np.outer(math.ldexp(1.0, -2 * depth) * g, frozen)

    nodes, widest = _wave_batch(t, m, rng, on_frozen)
    values = math.exp(h) * sums
    means = values.mean(axis=1)
    # a sample without spread gets an infinite or undefined z, and fails
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (means - analytic) / (values.std(axis=1, ddof=1) / math.sqrt(m))
    results = tuple(
        map(SpinalFunctionalResult, names, means.tolist(), analytic.tolist(), z.tolist())
    )
    passed = all(abs(r.z) <= _SPINAL_Z_LIMIT for r in results)
    return SpinalCheckReport(results, passed, nodes, widest)
