"""Continuous-time recombination dynamics driven by binary branching trees.

The continuous semigroup solves d/dt mu_t = mu_t∘mu_t - mu_t.  Its stochastic
representation grows a binary branching tree (every leaf splits after an
independent mean-one exponential time), puts an independent copy of the
initial state on each leaf, and collides children pairwise up to the root:
averaging the root measure over trees gives mu_t exactly.  This module holds
the tree sampler, the root-measure evaluator, a fixed-step order-4 integrator
for the character-space ODE, Monte Carlo drivers for both representations,
the additive leaf-weight martingale

    value = e^{t/2} * sum over leaves x of 4^{-depth(x)}

with direct and time-chunked samplers, tail estimation for its limit, and an
importance-reweighting check of the size-biased (spinal) identity.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .cube import (
    FourierTable,
    Pmf,
    _butterfly,
    product_fourier,
    product_pmf,
    wht_forward,
    wht_inverse,
)
from .errors import (
    CapacityError,
    DimensionMismatchError,
    InvalidDistributionError,
    NumericalInvariantError,
)
from .discrete import collide_coeffs

MAX_LEAVES_DEFAULT = 1 << 22
_TREE_MEASURE_CELL_CAP = 1 << 26
_BATCH_NODE_BUDGET = 250_000_000
# lineages the widest generation wave of one tree chunk may reach
WAVE_WIDTH = 2e7
# cascade sampler: stage length, smallest bootstrap pool, and the version of
# its draw order, bumped whenever seeded cascade output changes bytes
CASCADE_STAGE = 2.0
CASCADE_MIN_POOL = 1 << 20
CASCADE_SAMPLER_VERSION = 2


# ---------------------------------------------------------------------------
# tree sampling
# ---------------------------------------------------------------------------


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

    @property
    def num_leaves(self) -> int:
        return self.leaves.size

    @property
    def leaf_depths(self) -> np.ndarray:
        return self.depth[self.leaves]

    def leaf_weight_sum(self, radix: int = 2) -> float:
        """sum over leaves of radix^-depth, compensated."""
        scale = {2: 1, 4: 2}[radix]
        return math.fsum(
            math.ldexp(1.0, -scale * int(d)) for d in self.leaf_depths
        )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["node", "parent", "birth_time"])
            for node in range(self.num_nodes):
                writer.writerow(
                    [node, int(self.parent[node]), repr(float(self.birth_time[node]))]
                )


def sample_yule(
    t: float, rng: np.random.Generator, max_leaves: int = MAX_LEAVES_DEFAULT
) -> YuleTree:
    """Grow one tree to horizon t, event by event.

    Every leaf carries an exponential mean-one split clock; a priority queue
    pops the next ring.  Rings after the horizon freeze the leaf.  Exceeding
    `max_leaves` raises a capacity error carrying the progress made so far.
    """
    if t < 0:
        raise ValueError("horizon must be >= 0")
    parent = [-1]
    birth = [0.0]
    depth = [0]
    children = [(-1, -1)]
    heap = [(rng.exponential(), 0)]
    leaf_total = 1
    while heap and heap[0][0] <= t:
        ring, node = heapq.heappop(heap)
        leaf_total += 1
        if leaf_total > max_leaves:
            raise CapacityError(
                f"leaf cap {max_leaves} hit while growing to horizon {t}",
                time_reached=ring,
                leaves=leaf_total - 1,
                nodes=len(parent),
            )
        kids = []
        for _ in range(2):
            cid = len(parent)
            parent.append(node)
            birth.append(ring)
            depth.append(depth[node] + 1)
            children.append((-1, -1))
            heapq.heappush(heap, (ring + rng.exponential(), cid))
            kids.append(cid)
        children[node] = (kids[0], kids[1])
    child_arr = np.asarray(children, dtype=np.int32)
    return YuleTree(
        horizon=float(t),
        parent=np.asarray(parent, dtype=np.int32),
        children=child_arr,
        birth_time=np.asarray(birth, dtype=np.float64),
        depth=np.asarray(depth, dtype=np.int32),
        leaves=np.flatnonzero(child_arr[:, 0] < 0).astype(np.int32),
    )


def _tree_root_coeffs(tree: YuleTree, base: np.ndarray, n: int) -> np.ndarray:
    """Character coefficients at the root, children collided bottom-up.

    Node ids increase from parent to child, so a reverse-id sweep sees both
    children before their parent.
    """
    values: dict[int, np.ndarray] = {}
    for node in range(tree.num_nodes - 1, -1, -1):
        left, right = tree.children[node]
        if left < 0:
            values[node] = base
        else:
            values[node] = collide_coeffs(
                values.pop(int(left)), values.pop(int(right)), n
            )
    return values.pop(0)


def tree_measure(tree: YuleTree, mu: Pmf) -> Pmf:
    """Root measure of the tree: leaves carry mu, parents collide children."""
    if tree.num_leaves * (1 << mu.n) > _TREE_MEASURE_CELL_CAP:
        raise CapacityError(
            "tree too large for dense per-node measures",
            leaves=tree.num_leaves,
            sites=mu.n,
        )
    base = wht_forward(mu).coeffs
    return wht_inverse(FourierTable(mu.n, _tree_root_coeffs(tree, base, mu.n)))


# ---------------------------------------------------------------------------
# character-space ODE
# ---------------------------------------------------------------------------

COEFF_BOX_TOL = 1e-9


def _collision_field(coeffs: np.ndarray, n: int) -> np.ndarray:
    return collide_coeffs(coeffs, coeffs, n) - coeffs


def evolve_continuous(mu: Pmf, t: float, step: float = 0.01) -> Pmf:
    """Integrate the character-space ODE with fixed-step classical order 4.

    The horizon is split into equal steps no longer than `step`.  The
    empty-set coefficient is held at exactly 1 and every coefficient must
    stay inside [-1-tol, 1+tol]; leaving that box aborts the run, since it
    means the trajectory is no longer a probability measure.
    """
    if t < 0:
        raise ValueError("horizon must be >= 0")
    if step <= 0:
        raise ValueError("step must be > 0")
    if t == 0:
        return mu
    n = mu.n
    nsteps = max(1, round(t / step))
    h = t / nsteps
    c = wht_forward(mu).coeffs.copy()
    for _ in range(nsteps):
        k1 = _collision_field(c, n)
        k2 = _collision_field(c + (0.5 * h) * k1, n)
        k3 = _collision_field(c + (0.5 * h) * k2, n)
        k4 = _collision_field(c + h * k3, n)
        c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        c[0] = 1.0
        worst = float(np.abs(c).max())
        if worst > 1.0 + COEFF_BOX_TOL:
            raise NumericalInvariantError(
                f"coefficient magnitude {worst} left the unit box; "
                f"reduce the step (h={h})"
            )
    return wht_inverse(FourierTable(n, c))


def continuous_trajectory(
    mu: Pmf, times: Sequence[float], step: float = 0.01
) -> list[Pmf]:
    """States at an increasing grid of times, integrated piecewise."""
    out = []
    prev_t = 0.0
    state = mu
    for t in times:
        if t < prev_t:
            raise ValueError("times must be non-decreasing")
        state = evolve_continuous(state, t - prev_t, step)
        out.append(state)
        prev_t = t
    return out


# ---------------------------------------------------------------------------
# Monte Carlo drivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloMeasure:
    """Sample mean of a measure-valued estimator with per-entry spread.

    Spread is tracked both for the weights and for the character
    coefficients; the latter makes deterministic coefficients (the empty
    set, always 1) detectable by their exactly-zero standard error.
    """

    mean: Pmf
    stderr: np.ndarray
    coeff_mean: np.ndarray
    coeff_stderr: np.ndarray
    samples: int
    horizon: float


def _accumulate_measures(
    one_sample: Callable[[], Tuple[np.ndarray, np.ndarray]],
    n: int,
    m: int,
    t: float,
) -> MonteCarloMeasure:
    if m < 2:
        raise ValueError("need at least 2 samples")
    # Welford updates: a coefficient that never varies accumulates an
    # exactly-zero second moment, so deterministic coefficients are
    # recognizable by stderr == 0 rather than by a rounding-scale blur.
    mean = np.zeros(1 << n)
    m2 = np.zeros(1 << n)
    cmean = np.zeros(1 << n)
    cm2 = np.zeros(1 << n)
    for k in range(1, m + 1):
        w, c = one_sample()
        delta = w - mean
        mean += delta / k
        m2 += delta * (w - mean)
        cdelta = c - cmean
        cmean += cdelta / k
        cm2 += cdelta * (c - cmean)
    var = np.maximum(m2, 0.0) / (m - 1.0)
    cvar = np.maximum(cm2, 0.0) / (m - 1.0)
    # guard the 1e-12 sum invariant against accumulated round-off
    mean = mean / mean.sum()
    return MonteCarloMeasure(
        mean=Pmf(n, mean),
        stderr=np.sqrt(var / m),
        coeff_mean=cmean,
        coeff_stderr=np.sqrt(cvar / m),
        samples=m,
        horizon=t,
    )


def wild_mc_estimate(
    mu: Pmf,
    t: float,
    m: int,
    rng: np.random.Generator,
    max_leaves: int = MAX_LEAVES_DEFAULT,
) -> MonteCarloMeasure:
    """Average the tree root measure over m independent trees.

    Coefficient statistics come from the root coefficients directly, so a
    coefficient the collision keeps fixed (every group of sites whose value
    agrees across all leaves, in particular singletons) accumulates exactly
    zero spread.
    """
    base = wht_forward(mu).coeffs
    cells = 1 << mu.n

    def one_sample() -> Tuple[np.ndarray, np.ndarray]:
        tree = sample_yule(t, rng, max_leaves)
        if tree.num_leaves * cells > _TREE_MEASURE_CELL_CAP:
            raise CapacityError(
                "tree too large for dense per-node measures",
                leaves=tree.num_leaves,
                sites=mu.n,
            )
        coeffs = _tree_root_coeffs(tree, base, mu.n)
        return _butterfly(coeffs, -1) / cells, coeffs

    return _accumulate_measures(one_sample, mu.n, m, t)


def sample_leaf_spins(
    tree: YuleTree, mu: Pmf, rng: np.random.Generator
) -> np.ndarray:
    """One i.i.d. draw from mu per leaf, as a (num_leaves, n) array of +-1."""
    cdf = np.cumsum(mu.weights)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(tree.num_leaves), side="right")
    return (((idx[:, None] >> np.arange(mu.n)) & 1) * 2 - 1).astype(np.int8)


def quenched_measure_on_tree(tree: YuleTree, leaf_spins: np.ndarray) -> Pmf:
    """Product measure with biases sum_x 2^-depth(x) * spin_i(x).

    Conditionally on the tree and the leaf samples, every site independently
    follows a fair root-to-leaf walk, which lands on leaf x with probability
    2^-depth(x); the site's spin is then copied from that leaf.
    """
    spins = np.asarray(leaf_spins)
    if spins.ndim != 2 or spins.shape[0] != tree.num_leaves:
        raise DimensionMismatchError(
            f"leaf_spins shape {spins.shape} does not match {tree.num_leaves} leaves"
        )
    weights = np.ldexp(1.0, -tree.leaf_depths.astype(np.int32))
    return product_pmf(weights @ spins)


def double_quenched_estimate(
    mu: Pmf,
    t: float,
    m: int,
    rng: np.random.Generator,
    max_leaves: int = MAX_LEAVES_DEFAULT,
) -> MonteCarloMeasure:
    """Average the quenched product measure over both tree and leaf samples."""

    def one_sample() -> Tuple[np.ndarray, np.ndarray]:
        tree = sample_yule(t, rng, max_leaves)
        spins = sample_leaf_spins(tree, mu, rng)
        weights = np.ldexp(1.0, -tree.leaf_depths.astype(np.int32))
        biases = weights @ spins
        return product_pmf(biases).weights, product_fourier(biases).coeffs

    return _accumulate_measures(one_sample, mu.n, m, t)


def sample_partition_on_tree(
    tree: YuleTree, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Leaf landed on by each site's independent fair root-to-leaf walk."""
    if n < 1:
        raise DimensionMismatchError(f"need at least one site, got n={n}")
    pos = np.zeros(n, dtype=np.int32)
    while True:
        kids = tree.children[pos]
        moving = kids[:, 0] >= 0
        if not moving.any():
            return pos
        active = kids[moving]
        pick = rng.integers(0, 2, size=active.shape[0])
        pos[moving] = active[np.arange(active.shape[0]), pick]


# ---------------------------------------------------------------------------
# additive leaf-weight martingale
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MartingaleSample:
    time: float
    value: float
    leaf_count: int


def leaf_weight_martingale(tree: YuleTree) -> MartingaleSample:
    """Evaluate e^{t/2} * sum over leaves of 4^-depth on one tree."""
    return MartingaleSample(
        time=tree.horizon,
        value=math.exp(tree.horizon / 2.0) * tree.leaf_weight_sum(radix=4),
        leaf_count=tree.num_leaves,
    )


@dataclass(frozen=True)
class MartingaleBatch:
    """Batch of martingale values with the leaf count of each tree.

    `nodes_grown` counts the tree nodes the wave kernel simulated for the
    batch.  A cascade batch also reports its bootstrap: the pool size, the
    pool entries its final stage drew, and the expected number of repeated
    draws draws^2 / (2 pool_size).  A direct batch leaves them at zero.
    """

    horizon: float
    values: np.ndarray
    leaf_counts: np.ndarray
    method: str
    pool_size: int = 0
    pool_draws: int = 0
    expected_repeat_draws: float = 0.0
    nodes_grown: int = 0

    def to_csv(self, path) -> None:
        t = repr(float(self.horizon))
        rows = zip(self.values.tolist(), self.leaf_counts.tolist())
        text = "sample,t,W,leaves\n" + "".join(
            [f"{i},{t},{v!r},{c}\n" for i, (v, c) in enumerate(rows)]
        )
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _wave_batch(
    t: float,
    m: int,
    rng: np.random.Generator,
    on_frozen: Callable[[np.ndarray, np.ndarray, int], None],
    node_budget: int = 4 * _BATCH_NODE_BUDGET,
) -> int:
    """Drive m independent trees to horizon t without materializing them.

    Lineages are processed in generation waves, so a wave's index is the
    depth of its lineages.  A wave holds only their death times, in tree
    order, and a lineage count for each tree still growing; the lineages
    that outlive t are reported per tree as `on_frozen(trees, counts,
    depth)`.  Trees are chunked so the widest wave stays near `WAVE_WIDTH`
    lineages.  The per-lineage law is exactly that of the event-driven
    sampler; only the draw order differs.  Returns the number of lineages
    (tree nodes) grown.
    """
    peak = max(1.0, math.exp(t) / math.sqrt(4.0 * math.pi * max(t, 0.25)))
    chunk = max(1, min(m, int(WAVE_WIDTH / peak)))
    processed = 0
    for start in range(0, m, chunk):
        width = min(chunk, m - start)
        trees = np.arange(start, start + width)
        # lineages per growing tree: a wave passes the node budget check
        # (1e9 by default), so the next one has at most 2e9 < 2^31
        counts = np.ones(width, dtype=np.int32)
        lineages, depth = width, 0
        while lineages:
            processed += lineages
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
            frozen = counts - live
            hit = frozen > 0
            if hit.any():
                on_frozen(trees[hit], frozen[hit], depth)
            growing = live > 0
            trees = trees[growing]
            counts = 2 * live[growing]
            lineages = int(counts.sum())
            depth += 1
    return processed


def _direct_martingale_batch(
    t: float, m: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, int]:
    raw = np.zeros(m)
    counts = np.zeros(m, dtype=np.int64)

    def on_frozen(trees: np.ndarray, frozen: np.ndarray, depth: int) -> None:
        # a count times 4^-depth is exactly the sum of that many 4^-depth
        raw[trees] += frozen * math.ldexp(1.0, -2 * depth)
        counts[trees] += frozen

    nodes = _wave_batch(t, m, rng, on_frozen)
    return math.exp(t / 2.0) * raw, counts, nodes


def _cascade_martingale_batch(
    t: float, m: int, rng: np.random.Generator
) -> MartingaleBatch:
    """Time-chunked sampler built on the branching composition identity.

    A tree of horizon a+d is a tree of horizon d whose leaves root
    independent trees of horizon a, so

        value(a+d) = e^{d/2} * sum over leaves x of 4^-depth(x) * value_x(a),

    and leaf counts compose additively.  The horizon splits into stages of
    `CASCADE_STAGE` time units, the first one taking the remainder.  A pool
    of `max(m, CASCADE_MIN_POOL)` (value, leaf count) samples is grown
    directly over the first stage and extended by every later stage but the
    last, each drawing its subtree samples from the previous pool with
    replacement.  The final stage grows only the m trees that are kept.
    Given the previous pool, the first m of P final-stage trees are m
    independent stage trees whose leaves pick pool entries uniformly, so
    growing just those m has exactly the law of growing P and keeping m;
    only the order of the random draws differs.  With a single stage there
    is no pool, and the sampler is the direct one on m trees.

    The bootstrap reuse is the only approximation: with pool size P and a
    handful of leaves per stage tree, the chance that one output reuses a
    pool entry twice is O(leaves^2 / P), and sample means stay exactly
    unbiased.  The batch reports P, the final stage's draws D and the
    expected number of repeated draws D^2 / (2P).
    """
    nstages = max(1, math.ceil(t / CASCADE_STAGE))
    first = t - (nstages - 1) * CASCADE_STAGE
    if nstages == 1:
        values, counts, nodes = _direct_martingale_batch(first, m, rng)
        return MartingaleBatch(float(t), values, counts, "cascade", nodes_grown=nodes)
    pool_size = max(m, CASCADE_MIN_POOL)
    pool_w, pool_l, nodes = _direct_martingale_batch(first, pool_size, rng)
    grow = math.exp(CASCADE_STAGE / 2.0)
    for stage in range(1, nstages):
        width = m if stage == nstages - 1 else pool_size
        new_w = np.zeros(width)
        new_l = np.zeros(width, dtype=np.int64)
        draws = 0

        def on_frozen(trees: np.ndarray, frozen: np.ndarray, depth: int) -> None:
            nonlocal draws
            # leaf i belongs to the tree at position owner[i] of `trees`;
            # bincount sums each tree's leaves in leaf order
            owner = np.repeat(np.arange(trees.size), frozen)
            draws += owner.size
            pick = rng.integers(0, pool_size, size=owner.size)
            w = math.ldexp(1.0, -2 * depth) * pool_w[pick]
            new_w[trees] += np.bincount(owner, weights=w, minlength=trees.size)
            new_l[trees] += np.bincount(
                owner, weights=pool_l[pick].astype(np.float64), minlength=trees.size
            ).astype(np.int64)

        nodes += _wave_batch(CASCADE_STAGE, width, rng, on_frozen)
        pool_w, pool_l = grow * new_w, new_l
    return MartingaleBatch(
        float(t),
        pool_w,
        pool_l,
        "cascade",
        pool_size=pool_size,
        pool_draws=draws,
        expected_repeat_draws=draws * draws / (2.0 * pool_size),
        nodes_grown=nodes,
    )


def resolve_martingale_method(
    t: float, m: int, method: str = "auto", node_budget: int = _BATCH_NODE_BUDGET
) -> str:
    """The sampler that `method` names for m samples at horizon t.

    `auto` simulates every tree in full while the expected node count
    2 m e^t stays within budget and otherwise picks the cascade sampler.
    """
    if method != "auto":
        return method
    return "direct" if 2.0 * m * math.exp(t) <= node_budget else "cascade"


def martingale_samples(
    t: float,
    m: int,
    rng: np.random.Generator,
    method: str = "auto",
    node_budget: int = _BATCH_NODE_BUDGET,
) -> MartingaleBatch:
    """Sample m martingale values at horizon t.

    `auto` is resolved by `resolve_martingale_method`; the cascade
    sampler's per-sample law is exact up to pool-bootstrap reuse.
    """
    if t < 0:
        raise ValueError("horizon must be >= 0")
    if m < 1:
        raise ValueError("need at least one sample")
    method = resolve_martingale_method(t, m, method, node_budget)
    if method == "direct":
        values, counts, nodes = _direct_martingale_batch(t, m, rng)
        return MartingaleBatch(float(t), values, counts, method, nodes_grown=nodes)
    if method == "cascade":
        return _cascade_martingale_batch(t, m, rng)
    raise ValueError(f"unknown sampling method {method!r}")


def martingale_limit_samples(
    m: int, rng: np.random.Generator, horizon: float = 30.0
) -> MartingaleBatch:
    """Late-horizon martingale values standing in for the almost-sure limit.

    No convergence rate is asserted: the horizon is a surrogate, and callers
    should treat horizon sensitivity (see the acceptance checks) as the
    convergence diagnostic.
    """
    return martingale_samples(horizon, m, rng)


@dataclass(frozen=True)
class TailEstimate:
    threshold: float
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
        threshold=eps,
        probability=p,
        stderr=se,
        ci_low=max(0.0, p - 1.96 * se),
        ci_high=min(1.0, p + 1.96 * se),
        samples=m,
    )


def martingale_tail_probability(
    t: float, eps: float, m: int, rng: np.random.Generator, method: str = "auto"
) -> TailEstimate:
    """Empirical P(value at horizon t <= eps) with a normal-theory interval."""
    batch = martingale_samples(t, m, rng, method=method)
    return tail_probability_from_samples(batch.values, eps)


# ---------------------------------------------------------------------------
# spinal identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpinalFunctionalResult:
    name: str
    weighted_mean: float
    plain_mean: float
    z: float
    analytic: float
    z_analytic: float


@dataclass(frozen=True)
class SpinalCheckReport:
    t: float
    samples: int
    results: Tuple[SpinalFunctionalResult, ...]
    passed: bool


def spinal_identity_check(
    t: float, m: int, rng: np.random.Generator, z_limit: float = 4.0
) -> SpinalCheckReport:
    """Compare reweighted full-rate paths against half-rate paths.

    Size-biasing the tree law slows the splits along one distinguished
    root-to-leaf path to rate 1/2.  Equivalently, for any functional G of a
    unit-rate Poisson path X on [0, t],

        E[e^{t/2} 2^{-X_t} G(X)] = E[G(Y)],   Y a rate-1/2 Poisson path.

    Both sides are estimated on a fixed library of path functionals (counts
    at the half and full horizon, a void indicator, an exponential moment)
    and compared by a two-sample z statistic, with the closed-form value of
    the right-hand side reported alongside.
    """
    if t <= 0:
        raise ValueError("horizon must be > 0")
    if m < 2:
        raise ValueError("need at least 2 samples")
    x_half = rng.poisson(t / 2.0, m)
    x_end = x_half + rng.poisson(t / 2.0, m)
    weights = math.exp(t / 2.0) * np.ldexp(1.0, -x_end.astype(np.int32))
    y_half = rng.poisson(t / 4.0, m)
    y_end = y_half + rng.poisson(t / 4.0, m)

    library = [
        ("unit", lambda h, e: np.ones_like(e, dtype=np.float64), 1.0),
        ("count_at_horizon", lambda h, e: e.astype(np.float64), t / 2.0),
        ("count_at_half_horizon", lambda h, e: h.astype(np.float64), t / 4.0),
        (
            "void_at_half_horizon",
            lambda h, e: (h == 0).astype(np.float64),
            math.exp(-t / 4.0),
        ),
        (
            "exp_decay_at_horizon",
            lambda h, e: np.exp(-e.astype(np.float64)),
            math.exp((t / 2.0) * (math.exp(-1.0) - 1.0)),
        ),
    ]
    results = []
    for name, fn, analytic in library:
        a = weights * fn(x_half, x_end)
        b = fn(y_half, y_end)
        mean_a, mean_b = float(a.mean()), float(b.mean())
        se_a = float(a.std(ddof=1)) / math.sqrt(m)
        se_b = float(b.std(ddof=1)) / math.sqrt(m)
        denom = math.hypot(se_a, se_b)
        z = 0.0 if denom == 0.0 else (mean_a - mean_b) / denom
        z_ref = 0.0 if se_a == 0.0 else (mean_a - analytic) / se_a
        results.append(
            SpinalFunctionalResult(
                name=name,
                weighted_mean=mean_a,
                plain_mean=mean_b,
                z=z,
                analytic=analytic,
                z_analytic=z_ref,
            )
        )
    passed = all(abs(r.z) <= z_limit for r in results)
    return SpinalCheckReport(t=t, samples=m, results=tuple(results), passed=passed)
