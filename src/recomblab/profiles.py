"""Cutoff profiles, closed-form bounds, and block lower-bound experiments.

The discrete-time distance profile converges to the total variation distance
between a standard normal and a centered normal with variance 1+s, written
`gaussian_tv(s)` here; its continuous-time analogue replaces s by a random
multiple of the limiting leaf-weight martingale, and `mixture_profile_tv`
evaluates it for a batch of martingale samples exactly, at the single
crossing of the two densities.  The module also carries the exact
n-to-infinity fixed-step limit, asymptotic ratio diagnostics, the L1-from-L2
bound for densities on finite spaces, and the two block-magnetization
experiments that certify distance lower bounds.  The command-line profile
tables are built in `cli` straight from `gaussian_tv`, `mixture_profile_tv`
and `discrete.mono_mixture_tv`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from . import binomial
from .errors import (
    CapacityError,
    ConfigError,
    DimensionMismatchError,
    InvalidDistributionError,
)
from .yule import _check_horizon, sample_leaf_weights

# check_l1_l2_bound's slack on the unit masses of probs and density
_DENSITY_TOL = 1e-9
# gaussian_tv_asymptotics: the two scales it probes and each ratio's gate
_ASYMPTOTIC_SMALL_S = 1e-3
_ASYMPTOTIC_LARGE_S = 1e6
_ASYMPTOTIC_SMALL_TOL = 0.02
_ASYMPTOTIC_LARGE_TOL = 0.05
# lowerbound_experiment_continuous: sign rows per sampled tree, and the
# trees whose integer bias keys (2^16 of them, 512 KiB) are drawn as one
# block of packed sign bits and deduplicated in one pass
_INNER_SAMPLES = 2048
_GROUP_TREES = (1 << 16) // _INNER_SAMPLES
# the version of its sign draws: 2 since each sign is one bit of a packed
# random byte, 1 when each was an int64 draw
SIGN_SAMPLER_VERSION = 2
# the deepest leaf an int64 bias key holds: |K| <= 2^D
_KEY_DEPTH_CAP = 62
# the deepest lattice whose keys are deduplicated by a presence table over
# [-2^D, 2^D] (2 MiB of flags and an 8 MiB int32 rank table at the cap),
# not by a sort
_KEY_TABLE_DEPTH = 20
# int64 cells one gather of lattice weights makes (8 MiB)
_KEY_CELLS = 1 << 20
# (256, 8): the sign 2b - 1 of each bit b of each byte value, least
# significant bit first
_BYTE_SIGNS = 2 * ((np.arange(256)[:, None] >> np.arange(8)) & 1) - 1
# the largest block either block experiment takes, t = 16 for the discrete
# one: the binomial law allocates a sieve of p + 1 bytes and makes O(sqrt p)
# passes per tail
_BLOCK_SIZE_CAP = 80 << 16
# the most blocks either takes: the law of the block count allocates an
# alpha + 1 byte sieve, and the continuous one evaluates it on a grid of
# (alpha + 1) x 32 cells at about 190 bytes of temporaries a cell (a 64-tree
# run peaks at 63 MB resident at the cap, 392 MB at 2^16 blocks)
_BLOCK_COUNT_CAP = 1 << 12
# the bytes the continuous one may expect to hold in the leaf arrays of its
# run, or in the sign keys of one group, before it grows a tree: 2 GiB admits
# the largest run measured to finish (n = 10^6, t = 11.6, 64 trees: 1.8 GB
# for a group of 32 trees), not a run at t = log n from n = 10^6 on
_LEAF_BYTES_BUDGET = 2 << 30


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gaussian_tv(s: float) -> float:
    """Distance between N(0,1) and N(0,1+s): crossing-point closed form.

    The densities cross at z* with z*^2 = (1+s)log(1+s)/s, and the distance
    is the mass each density wins between the crossings.
    """
    if not 0 <= s < math.inf:
        raise InvalidDistributionError(f"variance excess must be finite and >= 0, got {s}")
    if s == 0:
        return 0.0
    z_star = math.sqrt((1.0 + s) * math.log1p(s) / s)
    return 2.0 * (_norm_cdf(z_star) - _norm_cdf(z_star / math.sqrt(1.0 + s)))


def _gaussian_tv_complement(s: float) -> float:
    """1 - gaussian_tv(s), in a form free of large-s cancellation."""
    if not 0 <= s < math.inf:
        raise InvalidDistributionError(f"variance excess must be finite and >= 0, got {s}")
    if s == 0:
        return 1.0
    z_star = math.sqrt((1.0 + s) * math.log1p(s) / s)
    root2 = math.sqrt(2.0)
    return math.erfc(z_star / root2) + math.erf(
        z_star / (root2 * math.sqrt(1.0 + s))
    )


@dataclass(frozen=True)
class AsymptoticsReport:
    """Ratio diagnostics of gaussian_tv against its small/large-s shapes.

    `small_scale_ratio` divides the distance at s=1e-3 by s/sqrt(2 e pi).
    `large_scale_ratio` multiplies the complement at s=1e6 by
    sqrt(2 pi s / log s).  Since P(|N(0,1)| <= x) ~ 2x/sqrt(2 pi), the
    complement actually behaves like twice that reference shape, with a
    further O(1/log s) term from the outer tail; the halved ratio is
    reported alongside as a diagnostic.
    """

    small_scale_ratio: float
    large_scale_ratio: float
    large_scale_ratio_halved: float
    passed_small: bool
    passed_large: bool


def gaussian_tv_asymptotics() -> AsymptoticsReport:
    small_s, large_s = _ASYMPTOTIC_SMALL_S, _ASYMPTOTIC_LARGE_S
    ratio_small = gaussian_tv(small_s) / (small_s / math.sqrt(2.0 * math.e * math.pi))
    complement = _gaussian_tv_complement(large_s)
    ratio_large = complement * math.sqrt(2.0 * math.pi * large_s / math.log(large_s))
    return AsymptoticsReport(
        small_scale_ratio=ratio_small,
        large_scale_ratio=ratio_large,
        large_scale_ratio_halved=ratio_large / 2.0,
        passed_small=abs(ratio_small - 1.0) <= _ASYMPTOTIC_SMALL_TOL,
        passed_large=abs(ratio_large - 1.0) <= _ASYMPTOTIC_LARGE_TOL,
    )


def mono_tv_large_n_limit(t: int) -> float:
    """Large-n limit of the distance after t steps from the two-point start.

    Equals 1 - C(2^t, 2^{t-1}) 2^{-2^t}, one minus the central term of
    Binomial(2^t, 1/2) from `binomial.pmf`; the t=0 limit is 1.  The central
    term's cost grows with 2^t, so t is capped at 20.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t > 20:
        raise CapacityError(f"limit evaluation is capped at t <= 20, got {t}")
    if t == 0:
        return 1.0
    return 1.0 - binomial.pmf(1 << (t - 1), 1 << t, 0.5)


# ---------------------------------------------------------------------------
# mixture profile
# ---------------------------------------------------------------------------


def mixture_profile_tv(window: float, martingale_values: Sequence[float]) -> float:
    """Distance between N(0,1) and the mixture of N(0, 1+a) over the samples.

    Here a = exp(-window/2) times each martingale sample.  With u = z^2 the
    mixture's density ratio to N(0,1) is r(u) = mean (1+a)^(-1/2)
    exp(u a / (2(1+a))): increasing and convex in u with r(0) < 1, so it
    crosses 1 exactly once, at u*.  The distance is the mass the mixture
    wins beyond |z| = sqrt(u*), mean erfc(sqrt(u*/(2(1+a)))) -
    erfc(sqrt(u*/2)).  Each sample's term alone crosses 1 at gaussian_tv's
    (1+a)log(1+a)/a, so Newton started at the largest of these decreases
    monotonically to u*; it stops at the first iterate that does not
    decrease.  A sample whose a underflows to 0 has ratio 1 everywhere: it
    counts in the mean but sets no starting point.
    """
    values = np.asarray(martingale_values, dtype=np.float64)
    if values.size == 0:
        raise InvalidDistributionError("need at least one martingale sample")
    if not np.isfinite(values).all() or values.min() <= 0.0:
        raise InvalidDistributionError("martingale samples must be finite and > 0")
    try:
        excess = math.exp(-window / 2.0) * values
    except OverflowError:
        raise ConfigError(f"window lambda = {window}: e^(-lambda/2) overflows") from None
    if not np.isfinite(excess).all():
        raise ConfigError(f"window lambda = {window}: e^(-lambda/2) W overflows")
    live = excess[excess > 0.0]
    if live.size == 0:
        return 0.0
    coeff = excess / (2.0 * (1.0 + excess))
    log_scale = 0.5 * np.log1p(excess)
    u = float((np.log1p(live) / live * (1.0 + live)).max())
    while True:
        term = np.exp(u * coeff - log_scale)
        gap = float(term.mean()) - 1.0
        # at the crossing up to rounding; this also stops before a zero slope
        if gap <= 0.0:
            break
        step = gap * values.size / float(coeff @ term)
        if not u - step < u:
            break
        u -= step
    # the exact sum of erfc(tail) - erfc(sqrt(u/2)) over the samples: each
    # difference is >= 0, so the distance cannot round below 0
    tails = np.sqrt(u / (2.0 * (1.0 + excess)))
    reference = math.erfc(math.sqrt(u / 2.0))
    return math.fsum(
        itertools.chain(
            map(math.erfc, tails.tolist()), itertools.repeat(-reference, values.size)
        )
    ) / values.size


# ---------------------------------------------------------------------------
# L1-from-L2 bound for finite densities
# ---------------------------------------------------------------------------


def l1_from_l2_bound(x):
    """Best bound on half the L1 deviation given the L2 deviation x.

    Elementwise for an array of deviations; a float in, a float out.
    """
    x = np.asarray(x, dtype=np.float64)
    if (x < 0).any():
        raise InvalidDistributionError(f"L2 deviation must be >= 0, got {x.min()}")
    bound = np.where(x <= 1.0, x / 2.0, x * x / (1.0 + x * x))
    return bound if bound.ndim else float(bound)


@dataclass(frozen=True)
class DensityBoundCheck:
    l1_half: float
    bound: float


def check_l1_l2_bound(probs: Sequence[float], density: Sequence[float]) -> DensityBoundCheck:
    """Half the L1 deviation of a density and its bound from the L2 deviation.

    `probs` are the weights of a finite probability space and `density` a
    non-negative function with unit mean under them; the bound holds when
    `l1_half <= bound` up to round-off.
    """
    p = np.asarray(probs, dtype=np.float64)
    f = np.asarray(density, dtype=np.float64)
    if p.shape != f.shape or p.ndim != 1 or p.size == 0:
        raise DimensionMismatchError("probs and density must be equal-length vectors")
    if p.min() < 0 or abs(p.sum() - 1.0) > _DENSITY_TOL:
        raise InvalidDistributionError("probs is not a probability vector")
    if f.min() < 0 or abs(float(p @ f) - 1.0) > _DENSITY_TOL:
        raise InvalidDistributionError("density must be >= 0 with unit mean")
    dev = f - 1.0
    l1_half = 0.5 * float(p @ np.abs(dev))
    l2 = math.sqrt(float(p @ (dev * dev)))
    return DensityBoundCheck(l1_half=l1_half, bound=l1_from_l2_bound(l2))


def two_valued_extremal_density(weight_a: float, deviation_a: float):
    """Two-valued density saturating the L1-from-L2 bound.

    Takes value 1 + deviation_a on a part of weight `weight_a` and the
    mean-one complement value elsewhere.  Returns (probs, density) as
    two-entry vectors.
    """
    if not 0.0 < weight_a < 1.0:
        raise InvalidDistributionError("weight_a must be inside (0,1)")
    other = -deviation_a * weight_a / (1.0 - weight_a)
    if 1.0 + other < 0 or 1.0 + deviation_a < 0:
        raise InvalidDistributionError("deviation leaves the density cone")
    probs = np.array([weight_a, 1.0 - weight_a])
    density = np.array([1.0 + deviation_a, 1.0 + other])
    return probs, density


# ---------------------------------------------------------------------------
# block lower-bound experiments
# ---------------------------------------------------------------------------


def _square_tail_given_bias(block_size: int, up_prob, threshold: int):
    """P(squared block magnetization >= threshold) for i.i.d. +-1 sites.

    `up_prob` is the per-site probability of +1 (scalar or array); the
    magnetization of B up-sites out of p is 2B - p.  The threshold is
    resolved exactly in integers, respecting the parity of p.  A scalar in
    gives a float out.
    """
    p = block_size
    up = np.asarray(up_prob, dtype=np.float64)
    if threshold <= 0:
        out = np.ones_like(up)
        return out if out.ndim else 1.0
    s = math.isqrt(threshold)
    if s * s < threshold:
        s += 1
    if (s - p) % 2 != 0:
        s += 1
    # P(B >= (p+s)/2) + P(B <= (p-s)/2); both are 0 when s > p
    return binomial.upper_tail((p + s) // 2, p, up) + binomial.lower_tail((p - s) // 2, p, up)


def _second_moment_coeffs(p: int):
    p2 = p * (p - 1)
    p3 = p2 * (p - 2)
    p4 = p3 * (p - 3)
    return p2, p3, p4


def _fourth_moment_given_bias(p: int, q: np.ndarray) -> np.ndarray:
    """E[(sum of p i.i.d. +-1 with mean q)^4], exact."""
    v = 1.0 - q * q
    a = p * q
    central2 = p * v
    central3 = -2.0 * p * q * v
    central4 = 3.0 * p * p * v * v + p * (1.0 + 2.0 * q * q - 3.0 * q**4 - 3.0 * v * v)
    return a**4 + 6.0 * a * a * central2 + 4.0 * a * central3 + central4


def _block_event(n: int, p: int):
    """The event both block experiments test, for blocks of p sites.

    The n sites hold alpha = n // p blocks; the event is that at least
    k_min = ceil(alpha / 15) of them have squared magnetization >= 20 p.
    Returns alpha, that threshold, k_min, the per-block tail q_pi under the
    uniform stationary law, and the event's stationary mass pi_a.  A block
    over _BLOCK_SIZE_CAP sites raises CapacityError before either experiment
    grows or allocates anything, and so does a count of over
    _BLOCK_COUNT_CAP blocks.
    """
    if p > n:
        raise ConfigError(f"block size {p} exceeds n={n}; no block fits")
    if p > _BLOCK_SIZE_CAP:
        raise CapacityError(
            f"block size {p} is over the cap of {_BLOCK_SIZE_CAP} sites", block_size=p
        )
    alpha = n // p
    if alpha > _BLOCK_COUNT_CAP:
        raise CapacityError(
            f"block count {alpha} is over the cap of {_BLOCK_COUNT_CAP} blocks",
            block_count=alpha,
        )
    threshold = 20 * p
    k_min = -(-alpha // 15)
    q_pi = _square_tail_given_bias(p, 0.5, threshold)
    return alpha, threshold, k_min, q_pi, binomial.upper_tail(k_min, alpha, q_pi)


@dataclass(frozen=True)
class DiscreteBlockReport:
    """Exact block-event computation certifying a distance lower bound.

    The event counts blocks whose squared magnetization reaches 20x the
    block size; it is rare at stationarity and typical after t steps, so
    1 - stationary_event - evolved_complement lower-bounds the distance.
    """

    n: int
    t: int
    block_size: int
    block_count: int
    leftover: int
    event_threshold: int
    stationary_block_tail: float
    stationary_event: float
    evolved_block_tail: float
    evolved_complement: float
    tv_lower_bound: float
    first_moment_formula: float
    first_moment_exact: float
    second_moment_formula: float
    second_moment_exact: float
    paley_zygmund_bound: float


def lowerbound_experiment_discrete(n: int, t: int) -> DiscreteBlockReport:
    """Exact discrete-time block experiment.

    Blocks of size 80 * 2^t start all-equal and evolve independently; the
    per-block law of the squared magnetization after t steps is the exact
    binomial mixture over the common leaf bias.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    p = 80 << t
    alpha, threshold, k_min, q_pi, pi_a = _block_event(n, p)
    leaves = 1 << t
    counts = np.arange(leaves + 1)
    leaf_weights = binomial.pmf(counts, leaves, 0.5)
    up = counts / leaves
    bias = 2.0 * up - 1.0
    q_mu = float(leaf_weights @ _square_tail_given_bias(p, up, threshold))
    mu_ac = binomial.lower_tail(k_min - 1, alpha, q_mu)

    # moments of the squared magnetization under the evolved block law,
    # both from the closed-form leaf-bias moments and from the mixture
    first_formula = p * (p - 1) * 2.0 ** (-t) + p
    second_given = 4.0 * p * up * (1.0 - up) + (p * bias) ** 2
    first_exact = float(leaf_weights @ second_given)
    p2, p3, p4 = _second_moment_coeffs(p)
    bias4 = 3.0 * 4.0 ** (-t) - 2.0 * 8.0 ** (-t)
    second_formula = (
        p4 * bias4 + (6.0 * p3 + 4.0 * p2) * 2.0 ** (-t) + 3.0 * p2 + p
    )
    second_exact = float(leaf_weights @ _fourth_moment_given_bias(p, bias))

    ratio = 1.0 - threshold / first_exact
    pz = 0.0 if ratio <= 0 else ratio * ratio * first_exact**2 / second_exact

    return DiscreteBlockReport(
        n=n,
        t=t,
        block_size=p,
        block_count=alpha,
        leftover=n - alpha * p,
        event_threshold=threshold,
        stationary_block_tail=q_pi,
        stationary_event=pi_a,
        evolved_block_tail=q_mu,
        evolved_complement=mu_ac,
        tv_lower_bound=1.0 - pi_a - mu_ac,
        first_moment_formula=first_formula,
        first_moment_exact=first_exact,
        second_moment_formula=second_formula,
        second_moment_exact=second_exact,
        paley_zygmund_bound=pz,
    )


@dataclass(frozen=True)
class ContinuousBlockReport:
    """Monte Carlo block experiment for the continuous-time dynamics.

    Per sampled tree, the block law is the exact binomial mixture over the
    tree's leaf-weight bias; the distance lower bound and its cross-check
    against the distance between the block-count laws are reported together
    with per-tree moment diagnostics.
    """

    n: int
    t: float
    block_size: int
    block_count: int
    leftover: int
    event_threshold: int
    trees: int
    inner_samples: int
    stationary_event: float
    evolved_complement: float
    evolved_complement_stderr: float
    tv_lower_bound: float
    block_count_tv: float
    first_moment_max_abs_z: float
    second_moment_bound_ok: bool


def _sign_keys(rng: np.random.Generator, lattice: np.ndarray, leaves: np.ndarray, rows: int):
    """Draw `rows` rows of signs for a run of trees; each row's bias key per tree.

    `leaves` counts each tree's leaves, and `lattice` holds 2^(D - d) for a
    leaf of depth d, tree by tree.  A row gives each tree whole random
    bytes, one bit b per leaf in the tree's leaf order (least significant
    bit first, padded to a byte), and b is the sign 2b - 1.  The key
    K = sum of sign * 2^(D - d) of a row and a tree is an exact integer, and
    its bias is K 2^-D.  One integer product gives each byte value's part of
    a key at each byte column, so a row's bytes become parts in one gather
    and `reduceat` sums the parts of each tree.  Returns (trees, rows) keys.
    """
    nbytes = (leaves + 7) // 8
    starts = np.cumsum(nbytes) - nbytes
    width = int(nbytes.sum())
    # leaf i of a tree sits at bit i % 8 of the tree's byte i // 8
    leaf = np.arange(lattice.size) - np.repeat(np.cumsum(leaves) - leaves, leaves)
    weight = np.zeros(8 * width, dtype=np.int64)
    weight[8 * np.repeat(starts, leaves) + leaf] = lattice
    table = weight.reshape(width, 8) @ _BYTE_SIGNS.T
    packed = rng.integers(0, 256, size=(rows, width), dtype=np.uint8)
    keys = np.empty((leaves.size, rows), dtype=np.int64)
    columns = np.arange(width)[:, None]
    # in row blocks of at most _KEY_CELLS gathered parts
    step = max(1, _KEY_CELLS // width)
    for row in range(0, rows, step):
        block = slice(row, row + step)
        np.add.reduceat(table[columns, packed[block].T], starts, out=keys[:, block])
    return keys


def _distinct_keys(keys: np.ndarray, depth: int):
    """The sorted distinct keys in [-2^depth, 2^depth], and each key's index among them.

    Up to depth _KEY_TABLE_DEPTH a presence table over that range finds
    them in linear time; deeper lattices are sorted by `np.unique`.
    """
    if depth > _KEY_TABLE_DEPTH:
        distinct, index = np.unique(keys, return_inverse=True)
        return distinct, index.reshape(keys.shape)
    offset = keys + (1 << depth)
    present = np.zeros((2 << depth) + 1, dtype=bool)
    present[offset] = True
    distinct = np.flatnonzero(present)
    rank = np.empty(present.size, dtype=np.int32)
    rank[distinct] = np.arange(distinct.size, dtype=np.int32)
    return distinct - (1 << depth), rank[offset]


class _LatticeTails:
    """The block tail at each bias key K, at bias K 2^-D, once per distinct key per run.

    Each call takes a group's keys and returns the tail at every one.  The
    tails evaluated so far are kept sorted by key, so a key that recurs in a
    later group is looked up, not evaluated again; a tail depends on its own
    bias alone, so no value moves.  `distinct` sums each call's distinct
    keys, and `keys.size` counts the tails evaluated.
    """

    def __init__(self, block_size: int, threshold: int, depth: int):
        self.block_size, self.threshold, self.depth = block_size, threshold, depth
        self.scale = math.ldexp(1.0, -depth)
        self.keys = np.empty(0, dtype=np.int64)
        self.tails = np.empty(0)
        self.distinct = 0

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        distinct, index = _distinct_keys(keys, self.depth)
        self.distinct += distinct.size
        fresh = np.setdiff1d(distinct, self.keys, assume_unique=True)
        if fresh.size:
            up = (1.0 + fresh * self.scale) / 2.0
            tails = _square_tail_given_bias(self.block_size, up, self.threshold)
            at = np.searchsorted(self.keys, fresh)
            self.keys = np.insert(self.keys, at, fresh)
            self.tails = np.insert(self.tails, at, tails)
        return self.tails[np.searchsorted(self.keys, distinct)][index]


def _check_leaf_bytes(what: str, need: float) -> None:
    """Raise CapacityError when `what` would take over _LEAF_BYTES_BUDGET bytes."""
    if need > _LEAF_BYTES_BUDGET:
        raise CapacityError(
            f"{what} would take {need / 2**30:.3g} GiB, over the budget of "
            f"{_LEAF_BYTES_BUDGET / 2**30:g} GiB",
            bytes=int(need),
        )


def lowerbound_experiment_continuous(
    n: int,
    t: float,
    m: int,
    rng: np.random.Generator,
    counters: Optional[Dict[str, int]] = None,
) -> ContinuousBlockReport:
    """Continuous-time block experiment over m sampled trees.

    Each tree's block tail is averaged over `_INNER_SAMPLES` rows of leaf
    signs, drawn as packed bits after all the trees are grown.  A given
    `counters` receives the tree nodes grown, the widest wave, the distinct
    biases of each group of trees summed over groups, and the tails
    evaluated, one per distinct bias of the run.  Leaf arrays or a group's
    sign keys over _LEAF_BYTES_BUDGET bytes, as expected before growth or as
    grown, raise CapacityError before a sign is drawn.
    """
    _check_horizon(t, positive=True)
    if m < 2:
        raise ValueError(f"need at least 2 trees, got {m}")
    damp = max(1.0, math.log(1.0 / t))
    p = int(math.sqrt(80.0 * n) * math.exp(t / 4.0) / math.sqrt(damp))
    if p < 2:
        raise ConfigError(f"block size {p} too small at n={n}, t={t}")
    alpha, threshold, k_min, q_pi, pi_a = _block_event(n, p)
    # a tree has e^t leaves expected.  The run keeps four 8-byte arrays a leaf
    # (owner, weight, lattice and sort order), and a group's keys take, per
    # byte column of 8 leaves, 256 int64 parts of the byte table and one
    # packed draw per sign row
    expected = math.exp(t)
    column_bytes = 256 * 8 + _INNER_SAMPLES
    _check_leaf_bytes("the run's leaves", 32 * m * expected)
    _check_leaf_bytes("a group's sign keys", min(m, _GROUP_TREES) * expected / 8 * column_bytes)
    p2, p3, p4 = _second_moment_coeffs(p)
    r_scale = n * math.exp(-t / 2.0)
    # every tree's leaf weights 2^-depth, grown in one batch; the sign draws
    # below come after all of them
    owner, leaf_weights, nodes, widest = sample_leaf_weights(t, m, rng)
    leaves = np.bincount(owner, minlength=m)
    # the grown groups, whose leaf counts have a heavy tail, before a key is drawn
    columns = np.add.reduceat((leaves + 7) // 8, np.arange(0, m, _GROUP_TREES))
    _check_leaf_bytes("a grown group's sign keys", int(columns.max()) * column_bytes)
    # every bias is a multiple of 2^-depth for the run's deepest leaf
    depth = 1 - math.frexp(float(leaf_weights.min()))[1]
    if depth > _KEY_DEPTH_CAP:
        raise CapacityError(
            f"a leaf at depth {depth} is over the bias key cap of depth {_KEY_DEPTH_CAP}",
            depth=depth,
        )
    lattice = np.ldexp(leaf_weights[np.argsort(owner, kind="stable")], depth).astype(np.int64)
    edges = np.concatenate(([0], np.cumsum(leaves)))
    # per-tree leaf moments; m2, a sum of 4^-depth, is exact in any order
    m2 = np.bincount(owner, weights=leaf_weights**2, minlength=m)
    m4 = np.bincount(owner, weights=leaf_weights**4, minlength=m)
    second_formula = (
        p4 * (3.0 * m2 * m2 - 2.0 * m4) + (6.0 * p3 + 4.0 * p2) * m2 + 3.0 * p2 + p
    )
    second_cap = 3.0 * ((p - 1) * (r_scale / alpha) * (math.exp(t / 2.0) * m2) + p) ** 2

    block_tails = np.empty(m)
    moment_zs = np.zeros(m)
    counts_grid = np.arange(alpha + 1)
    mix_pmf = np.zeros(alpha + 1)
    tails_at = _LatticeTails(p, threshold, depth)
    for start in range(0, m, _GROUP_TREES):
        group = slice(start, min(start + _GROUP_TREES, m))
        span = lattice[edges[group.start] : edges[group.stop]]
        keys = _sign_keys(rng, span, leaves[group], _INNER_SAMPLES)
        block_tails[group] = tails_at(keys).mean(axis=1)
        mix_pmf += binomial.pmf(counts_grid[:, None], alpha, block_tails[group]).sum(axis=1)

        # first-moment check: formula vs the same trees' sign-mixture
        q = keys * tails_at.scale
        per_draw = p + p2 * q * q
        se = per_draw.std(axis=1, ddof=1) / math.sqrt(_INNER_SAMPLES)
        gap = per_draw.mean(axis=1) - (p + p2 * m2[group])
        np.divide(gap, se, out=moment_zs[group], where=se != 0.0)
    mix_pmf /= m
    pi_pmf = binomial.pmf(counts_grid, alpha, q_pi)
    block_count_tv = 0.5 * float(np.abs(mix_pmf - pi_pmf).sum())
    if counters is not None:
        counters.update(
            nodes_grown=nodes,
            widest_wave=widest,
            distinct_biases=tails_at.distinct,
            tail_evaluations=tails_at.keys.size,
        )

    below = binomial.lower_tail(k_min - 1, alpha, block_tails)
    mu_ac = float(below.mean())
    mu_se = float(below.std(ddof=1)) / math.sqrt(m)
    return ContinuousBlockReport(
        n=n,
        t=t,
        block_size=p,
        block_count=alpha,
        leftover=n - alpha * p,
        event_threshold=threshold,
        trees=m,
        inner_samples=_INNER_SAMPLES,
        stationary_event=pi_a,
        evolved_complement=mu_ac,
        evolved_complement_stderr=mu_se,
        tv_lower_bound=1.0 - pi_a - mu_ac,
        block_count_tv=block_count_tv,
        first_moment_max_abs_z=float(np.abs(moment_zs).max()),
        second_moment_bound_ok=not (second_formula > second_cap * (1.0 + 1e-12)).any(),
    )
