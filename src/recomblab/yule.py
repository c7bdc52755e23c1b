"""Continuous-time recombination dynamics driven by binary branching trees.

The continuous semigroup solves d/dt mu_t = mu_t∘mu_t - mu_t.  Its stochastic
representation grows a binary branching tree (every leaf splits after an
independent mean-one exponential time), puts an independent copy of the
initial state on each leaf, and collides children pairwise up to the root:
averaging the root measure over trees gives mu_t exactly.

Every tree here comes from one generator, the generation-wave kernel
`_wave_batch`, which grows many trees at once and reports what each consumer
needs: leaf counts per depth for the cascade's stages, the leaf-weight
estimators and the spinal check, and each wave's death times and survival
mask for the consumers that need parent links (`sample_yule` and the
tree-average estimator).  The direct martingale sampler grows no tree: it
draws each tree's leaf count and splits it by the Yule-Harding shape law.
The module also holds a fixed-step order-4 integrator for the
character-space ODE, Monte Carlo drivers for both representations, the
additive leaf-weight martingale

    value = e^{t/2} * sum over leaves x of 4^{-depth(x)}

with direct and time-chunked samplers, exact draws of its limit, tail
estimation, and a check of the size-biased (spinal) identity on grown trees.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .cube import FourierTable, Pmf, _product_coeff_rows, wht_forward, wht_inverse
from .errors import CapacityError, InvalidDistributionError, NumericalInvariantError
from .discrete import _collision_kernel, _draw_spins, _product_scratch, collide_coeffs

# leaves one sample_yule tree may reach before it raises a capacity error
MAX_LEAVES = 1 << 22
_TREE_MEASURE_CELL_CAP = 1 << 26
_BATCH_NODE_BUDGET = 250_000_000
# nodes one `_wave_batch` call may grow, and the nodes the direct
# martingale sampler's trees may have
_TREE_NODE_BUDGET = 4 * _BATCH_NODE_BUDGET
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
# cascade's stages, sample_yule, the block lower bound, both representation
# estimators, the spinal check); bumped whenever a seeded output of theirs
# changes bytes
TREE_SAMPLER_VERSION = 3
# direct martingale sampler: the largest subtree, in leaves, whose sum of
# 4^-depth is drawn from its exact table instead of split further, and the
# version of its draw order, bumped whenever its seeded output changes
# bytes.  Medians of 11 rounds alternated in one process on a 2-core Xeon,
# each building the tables once and drawing 10 000 trees at t = 6:
#
#     leaves   columns   build ms   draw ms
#          8        38       0.47      26.8
#         12       364       0.86      20.2
#         16     3 709       1.75      16.0
#         20    38 151       6.77      13.0
#         24   392 286      91.3       13.2
#
# Every process that draws pays the build once: a run of 1 000 trees at
# t = 6 draws in about 1.6 ms, so 20 leaves would cost it more than it saves.
SHAPE_TABLE_LEAVES = 16
MARTINGALE_SAMPLER_VERSION = 1
# pieces the widest round of one direct-sampler chunk is sized to reach.  A
# round's arrays take about 70 bytes a piece, against about 20 a lineage in
# a wave, so the wave width would triple the memory of the wave kernel it
# replaced.  Medians of 9 rounds alternated in one process on a 2-core Xeon,
# with the traced peak of one call:
#
#     width   t = 6, 10 000 trees   t = 1, 70 000 trees   t = 2, 2^18 trees
#     2^13     22.4 ms  0.7 MiB      3.6 ms  1.7 MiB       18.7 ms   6.1 MiB
#     2^14     18.4 ms  1.2 MiB      3.6 ms  2.3 MiB       16.8 ms   6.1 MiB
#     2^15     17.8 ms  2.2 MiB      3.7 ms  3.6 MiB       15.8 ms   6.4 MiB
#     2^16     19.1 ms  4.2 MiB      4.6 ms  6.1 MiB       17.0 ms   8.7 MiB
#     2^17     19.4 ms  6.8 MiB      4.3 ms  6.5 MiB       19.8 ms  13.5 MiB
#
# The wave kernel took 2.7 and 4.5 MiB for the first two.
SPLIT_WIDTH = 1 << 14
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
    node_budget: int = _TREE_NODE_BUDGET,
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
    Every grown tree comes through here, so here a horizon outside
    [0, inf) raises; `martingale_samples` checks it before the direct
    sampler, which grows none.
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
    t: float, m: int, rng: np.random.Generator, leaf_cap: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Owner tree and weight 2^-depth of every leaf of m trees at horizon t.

    Leaves come in wave order (by depth, then by tree), so the leaves of one
    tree are in depth order and a stable sort by owner keeps it.  The tree
    nodes grown and the widest wave grown, as `_wave_batch` counts them,
    come after the two arrays.  Once the leaves kept pass `leaf_cap`, growth
    stops with CapacityError: leaf counts have a heavy tail, so an unlucky
    draw can far exceed the m e^t expected.
    """
    owners: List[np.ndarray] = []
    weights: List[np.ndarray] = []
    kept = 0

    def on_frozen(trees: np.ndarray, frozen: np.ndarray, depth: int) -> None:
        nonlocal kept
        owners.append(np.repeat(trees, frozen))
        kept += owners[-1].size
        if leaf_cap is not None and kept > leaf_cap:
            raise CapacityError(
                f"{kept} leaves kept by depth {depth}, over the cap of {leaf_cap}",
                leaves=kept,
                leaf_cap=leaf_cap,
            )
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


def evolve_continuous(
    mu: Pmf, t: float, step: float = 0.01, counters: Optional[Dict[str, float]] = None
) -> Pmf:
    """Integrate the character-space ODE with fixed-step classical order 4.

    The horizon is split into equal steps no longer than `step`.  The run
    lifts the coefficients into the collision kernel's ring once and takes
    every stage of every step there (see `discrete.collide_coeffs`), in four
    buffers allocated once: the state, the stage input, the weighted sum of
    the stages and the current stage; the ring product's scratch rows and
    the box check's copy are allocated once too.  After each step the
    state's rank-0 row, the lift of the empty-set coefficient, is held at
    exactly 1, and a read-out copy of the state must keep every coefficient
    inside [-1-tol, 1+tol]; leaving that box, or turning NaN, aborts the
    run, since it means the trajectory is no longer a probability measure.
    An exchangeable start, whose coefficients depend on |S| alone bit for
    bit (`mono`, `uniform`), is lifted by popcount class (see
    `discrete._rank_slices`): the lift's and readout's butterflies update a
    mask once per set bit from the mask one bit below, so masks of one
    popcount meet the same operations, and every stage, the rank-0 hold and
    the box check act column by column, so the run takes n+1 columns in
    place of 2^n and gives the same bytes and the same worst coefficient.
    A given `counters` receives `rk4_worst_coeff`, the largest |coeff| the
    box check saw, and `ring_columns`, the columns the ring ran on.  More
    than RK4_STEP_CAP steps raise CapacityError before any is taken.
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
    stage, total, k, box = (np.empty_like(y) for _ in range(4))
    scratch = _product_scratch(y)
    most = 0.0

    def field(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        # x∘x - x into out; a ring product may overwrite its first operand,
        # so it squares out
        out[...] = x
        return np.subtract(product(out, out, n, scratch), x, out=out)

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
            box[...] = y
            c = readout(box, n)
            worst = float(np.abs(c).max())
            if not worst <= 1.0 + COEFF_BOX_TOL:
                raise NumericalInvariantError(
                    f"coefficient magnitude {worst} left the unit box; "
                    f"reduce the step (h={h})"
                )
            most = max(most, worst)
    if counters is not None:
        counters.update(rk4_worst_coeff=most, ring_columns=y.shape[-1])
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

    `nodes_grown` counts the nodes of the batch's trees, 2 N - 1 for a tree
    of N leaves, whether grown by the wave kernel or not, and `widest_wave`
    the items of its widest working array: the lineages of a wave, or the
    pieces of a direct sampler's round; a cascade of two or more stages
    counts only its waves.  `split_draws` and `table_draws` count the direct
    sampler's uniform splits and table draws.  A cascade batch also reports
    its bootstrap: the pool size, the pool entries its final stage drew, the
    entries of the last pool it grew (one per distinct draw), and the
    expected number of repeated draws draws^2 / (2 pool_size).  A direct
    batch, and a cascade pool, leave them at zero.
    """

    values: np.ndarray
    leaf_counts: np.ndarray
    nodes_grown: int
    widest_wave: int
    split_draws: int = 0
    table_draws: int = 0
    pool_size: int = 0
    pool_draws: int = 0
    pool_grown: int = 0
    expected_repeat_draws: float = 0.0


def _shape_laws(leaves: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Exact law of S = sum over leaves of 4^-depth for trees of 1 .. `leaves` leaves.

    Entry k - 1 holds the sorted atoms of S for a tree of k leaves and their
    probabilities.  Given its leaf count k, a Yule tree's shape is the
    Yule-Harding tree: the root splits the leaves into U and k - U with U
    uniform on {1, ..., k - 1}, independently of the split times (Harding
    1971; Aldous 1996), so S(1) = 1 and S(k) = (S(U) + S'(k - U)) / 4 with
    S' an independent copy.  Every atom is a sum of at most k powers 4^-d
    with d < k, exact in a float for k <= 26, so equal atoms merge exactly;
    the probabilities are rounded sums of products.
    """
    laws = [(np.ones(1), np.ones(1))]
    for k in range(2, leaves + 1):
        pairs = [(laws[u - 1], laws[k - u - 1]) for u in range(1, k)]
        sums = np.concatenate([np.add.outer(a[0], b[0]).ravel() for a, b in pairs])
        weights = np.concatenate([np.outer(a[1], b[1]).ravel() for a, b in pairs])
        atoms, merged = np.unique(sums, return_inverse=True)
        laws.append((atoms / 4.0, np.bincount(merged, weights=weights) / (k - 1)))
    return laws


def _alias_table(p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Walker's alias table of the law p: column i keeps i with probability
    coin[i] and otherwise returns alias[i].

    Columns of scaled mass q = n p below 1 ("small") take the rest of their
    column from the columns of mass at least 1 ("large"), in order: lay the
    small deficits 1 - q end to end and the large excesses q - 1 end to
    end, and a small column's alias is the large whose excess holds the
    start of its deficit.  A small deficit that runs past the end of that
    excess is overdrawn: the large column keeps 1 minus the overdraft and
    takes the rest from the next large (Vose 1991 in one pass of cumulative
    sums).  The last large keeps its whole column.
    """
    q = p * p.size
    small = q < 1.0
    coin, alias = np.ones(p.size), np.arange(p.size)
    lows, highs = np.flatnonzero(small), np.flatnonzero(~small)
    if lows.size == 0:
        return coin, alias
    deficit_end = np.cumsum(1.0 - q[lows])
    deficit_start = deficit_end - (1.0 - q[lows])
    excess_end = np.cumsum(q[highs] - 1.0)
    coin[lows] = q[lows]
    holder = np.searchsorted(excess_end, deficit_start, side="right")
    alias[lows] = highs[np.minimum(holder, highs.size - 1)]
    # the end of the last deficit that starts before each large's excess ends
    last = np.searchsorted(deficit_start, excess_end, side="left") - 1
    overdraft = np.where(last >= 0, deficit_end[np.maximum(last, 0)], 0.0) - excess_end
    coin[highs[:-1]] = 1.0 - np.clip(overdraft[:-1], 0.0, 1.0)
    alias[highs[:-1]] = highs[1:]
    return coin, alias


@functools.lru_cache(maxsize=4)
def _shape_tables(leaves: int) -> Tuple[np.ndarray, ...]:
    """`_shape_laws(leaves)` as one read-only alias table for O(1) draws.

    Returns (atoms, coin, hop, sizes, offsets): the law of k leaves owns
    the columns offsets[k] .. offsets[k] + sizes[k] - 1, and column c's
    alias is column c + hop[c], inside the same law.  For 16 leaves that
    is 3 709 columns, built in about 2 ms.
    """
    laws = _shape_laws(leaves)
    sizes = np.array([0] + [atoms.size for atoms, _ in laws])
    coins, aliases = zip(*(_alias_table(p) for _, p in laws))
    tables = (
        np.concatenate([atoms for atoms, _ in laws]),
        np.concatenate(coins),
        np.concatenate([alias - np.arange(alias.size) for alias in aliases]),
        sizes.astype(np.float64),
        np.cumsum(sizes) - sizes,
    )
    for array in tables:
        array.flags.writeable = False
    return tables


def _split_chunk(t: float, m: int) -> int:
    """Trees per direct-sampler chunk, so that its widest round expects `SPLIT_WIDTH` pieces.

    A round holds the pieces of one depth, and a tree's widest round holds
    about 2 / (SHAPE_TABLE_LEAVES + 1) of the lineages of its widest wave
    (0.117-0.129 of `_wave_peak(t)` measured at t = 4 .. 9, against 2/17 =
    0.118), but at least its root.
    """
    per_tree = max(1.0, 2.0 * _wave_peak(t) / (SHAPE_TABLE_LEAVES + 1))
    return max(1, min(m, int(SPLIT_WIDTH / per_tree)))


def _direct_martingale_batch(t: float, m: int, rng: np.random.Generator) -> MartingaleBatch:
    """m exact draws of the martingale at horizon t, with no tree grown.

    A rate-1 Yule tree at horizon t has Geometric(e^-t) leaves, and its
    shape given N leaves is the Yule-Harding tree (`_shape_laws`), so the
    sum over leaves of 4^-depth needs neither split times nor nodes.  Every
    tree's leaf count is drawn first; more than the node budget of trees
    with 2 N - 1 nodes raises CapacityError before any split.  Trees then
    go in chunks of `_split_chunk(t, m)`, one round per depth: a piece
    (a subtree, by its leaf count) of at most `SHAPE_TABLE_LEAVES` leaves
    draws its sum from the exact table of its leaf count in O(1), one
    uniform giving the alias column and, from its at least 42 bits below
    the column, the coin; a larger piece splits
    into U and k - U leaves, U = `rng.integers(1, k)`, one depth down.
    Each round draws its table pieces, then its splits, in piece order.
    The batch reports the nodes the trees would have (the sum of 2 N - 1),
    the widest round in pieces as `widest_wave`, and the split and table
    draws.
    """
    leaves = rng.geometric(1.0 / _exp(t), m)
    nodes = 2.0 * leaves.sum(dtype=np.float64) - m
    if nodes > _TREE_NODE_BUDGET:
        raise CapacityError(
            f"direct trees would have {nodes:.3g} nodes, over the node budget of "
            f"{_TREE_NODE_BUDGET:.3g}",
            horizon=t,
            nodes=nodes,
        )
    atoms, coin, hop, sizes, offsets = _shape_tables(SHAPE_TABLE_LEAVES)
    raw = np.empty(m)
    chunk = _split_chunk(t, m)
    splits = draws = widest = 0
    for start in range(0, m, chunk):
        pieces = leaves[start : start + chunk]
        owner = np.arange(pieces.size)
        total = np.zeros(pieces.size)
        depth = 0
        while pieces.size:
            widest = max(widest, pieces.size)
            # index arrays and take, not boolean masks: about 1.3 against
            # 6 ns a piece on pieces that split about half and half
            small = pieces <= SHAPE_TABLE_LEAVES
            tabled = np.flatnonzero(small)
            if tabled.size:
                k = pieces.take(tabled)
                x = rng.random(k.size) * sizes[k]
                column = x.astype(np.int64)
                cell = offsets[k] + column
                # the coin keeps the column's atom or hops to its alias
                cell += (x - column >= coin[cell]) * hop[cell]
                # 4^-depth times a sum of atoms is exact scaling
                total += math.ldexp(1.0, -2 * depth) * np.bincount(
                    owner.take(tabled), weights=atoms[cell], minlength=total.size
                )
                draws += k.size
            split = np.flatnonzero(~small)
            k, parent = pieces.take(split), owner.take(split)
            if k.size:
                u = rng.integers(1, k)
                pieces = np.concatenate([u, k - u])
                owner = np.concatenate([parent, parent])
                splits += k.size
            else:
                pieces = k
            depth += 1
        raw[start : start + chunk] = total
    return MartingaleBatch(
        math.exp(t / 2.0) * raw,
        leaves,
        int(nodes),
        widest,
        split_draws=splits,
        table_draws=draws,
    )


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

    With no previous pool an entry is a direct draw at horizon `first`;
    otherwise it is a stage tree whose leaves draw their subtrees from
    `pool` uniformly with replacement.
    """
    if pool is None:
        # a direct pool grows no tree: its work shows in its split and table draws
        return replace(_direct_martingale_batch(first, width, rng), nodes_grown=0, widest_wave=0)
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
    repeated draws D^2 / (2P), the nodes and the widest wave of every
    stage pool and final stage it grew, and the split and table draws of
    its direct pool.
    """
    nstages = max(1, math.ceil(t / CASCADE_STAGE))
    first = t - (nstages - 1) * CASCADE_STAGE
    if nstages == 1:
        return _direct_martingale_batch(first, m, rng)
    pool_size = max(m, CASCADE_MIN_POOL)
    pool, nodes, widest, splits, tables = None, 0, 0, 0, 0
    for _ in range(nstages - 2):
        pool = _cascade_pool(first, pool, pool_size, rng)
        nodes, widest = nodes + pool.nodes_grown, max(widest, pool.widest_wave)
        splits, tables = splits + pool.split_draws, tables + pool.table_draws
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
        split_draws=splits + last.split_draws,
        table_draws=tables + last.table_draws,
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
