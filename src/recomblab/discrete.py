"""Discrete-time recombination dynamics.

One step replaces the state mu by the self-collision mu∘mu, where the
collision of two measures picks a uniform random subset A of sites, draws one
parent from each measure, and splices the A-coordinates of the first onto the
complement-coordinates of the second.  In character coordinates the collision
is a subset convolution,

    (mu∘nu)^(S) = 2^{-|S|} * sum over T ⊆ S of mu^(T) * nu^(S\\T),

which is what the fast paths below compute.  Each collision kernel comes in
three parts, and a collision is readout(product(lift mu, lift nu)).  The
pairs kernel sums the disjoint submask pairs, with lift and readout the
identity.  The ranked kernel (the fast subset convolution of Bjorklund,
Husfeldt, Kaski and Koivisto) lifts by rank split and zeta transform,
multiplies the rank polynomials of each mask, and reads out by Moebius
transform; both transforms run on the butterfly that `cube` shares with
the Walsh transform.  The readout maps ring products to collisions, so
`evolve_discrete` lifts once, squares in the ring and reads out once, and
the integrator in `yule` lifts once per run and takes every stage in the
ring.  The module also carries the fragmentation process that tracks which
sites still share ancestry, the exact mixture formula for the distance to
stationarity from the two-point (monochromatic) start, and the closed-form
upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .cube import (
    FourierTable,
    Pmf,
    _butterfly,
    popcount_table,
    wht_forward,
    wht_inverse,
)
from .errors import (
    CapacityError,
    DimensionMismatchError,
)

# Submask-pair tables are cached dense up to PAIR_TABLE_SITE_CAP for an
# explicit method="pairs"; `auto` takes them only up to PAIRS_AUTO_SITE_MAX.
# From n = 12 the ranked transform path is at least as fast with the table warm;
# at n = 11 it is slower per call but spares the table build (about 30 calls).
# Beyond COLLIDE_SITE_CAP the state itself is too large to hold.
PAIR_TABLE_SITE_CAP = 14
PAIRS_AUTO_SITE_MAX = 10
COLLIDE_SITE_CAP = 18
DIRECT_SITE_CAP = 10

# products one block of a stacked collision may hold
_ROW_TERMS_CAP = 1 << 20

# Mass that each truncation in mono_mixture_tv may drop (leaf counts K, then
# occupation counts m); each bounds its own share of the error on the result.
_TRUNCATED_MASS = 1e-15

# log-cells mono_mixture_tv may evaluate in total, and per block.  Its two
# float64 blocks of 2^17 cells take 1 MiB each, so together they fit a 2 MiB
# L2 cache while each is built, shifted, exponentiated and summed in place;
# on a Xeon with 2 MiB of L2 per core, 2^16-cell blocks ran no faster,
# 2^18-cell ones about 8% slower and 2^20-cell ones about 45% slower.
_MIXTURE_CELL_BUDGET = 1 << 31
_MIXTURE_CHUNK_CELLS = 1 << 17


@lru_cache(maxsize=3)
def _disjoint_pair_tables(n: int):
    """All unordered pairs {A,B} of disjoint submasks, grouped by union.

    Returns (starts, pairs, scale, doubled): the pairs of union S are
    pairs[0, k], pairs[1, k] for k from starts[S] up to starts[S+1], with
    a|b = S, a&b = 0 and a < b, apart from the one pair A = B = 0 of S = 0.
    Each pair's term f[a]g[b] + f[b]g[a] counts both ordered pairs, so scale
    is 2^-|S|, except scale[0] = 1/2: the single term of S = 0 is f0 g0 +
    f0 g0, exactly 2 f0 g0.  `doubled` is 2 * scale, which scales the
    undoubled terms of a square.
    """
    m = 3**n
    codes = np.arange(m, dtype=np.int32)
    a = np.zeros(m, dtype=np.int32)
    b = np.zeros(m, dtype=np.int32)
    for i in range(n):
        codes, trit = np.divmod(codes, 3)
        a |= (trit == 1).astype(np.int32) << i
        b |= (trit == 2).astype(np.int32) << i
    keep = a < b
    keep[0] = True  # the pair A = B = 0
    a, b = a[keep], b[keep]
    union = a | b
    order = np.argsort(union, kind="stable")
    pairs = np.stack((a[order], b[order]))
    scale = _subset_scale(n).copy()
    scale[0] = 0.5
    return np.searchsorted(union[order], np.arange(1 << n)), pairs, scale, 2.0 * scale


@lru_cache(maxsize=32)
def _subset_scale(n: int) -> np.ndarray:
    """2^-|S| for every subset S of n sites (read-only)."""
    scale = np.ldexp(1.0, -popcount_table(n).astype(np.int32))
    scale.flags.writeable = False
    return scale


@lru_cache(maxsize=32)
def _rank_positions(n: int) -> np.ndarray:
    """Flat index of cell (|S|, S) in an (n+1) x 2^n rank-split array."""
    positions = popcount_table(n).astype(np.int64) << n
    positions += np.arange(1 << n)
    positions.flags.writeable = False
    return positions


def _collide_pairs(f: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    starts, pairs, scale, doubled = _disjoint_pair_tables(n)
    # f[a]*g[b] + f[b]*g[a] is symmetric under swapping f and g term by term,
    # so the whole path is exactly commutative in floating point.  In a
    # self-collision both products are the same number x, and since doubling
    # is exact, (sum of x) * 2 scale is (sum of 2x) * scale bit for bit.
    if g is f:
        both = f.take(pairs, axis=-1)
        terms = np.multiply(both[..., 0, :], both[..., 1, :])
        scale = doubled
    else:
        a, b = pairs
        terms = f.take(a, axis=-1)
        terms *= g.take(b, axis=-1)
        terms += f.take(b, axis=-1) * g.take(a, axis=-1)
    out = np.add.reduceat(terms, starts, axis=-1)
    out *= scale
    return out


def _rank_slices(values: np.ndarray, n: int) -> np.ndarray:
    """Lift: split by popcount rank and apply the sum-over-submasks transform."""
    sliced = np.zeros(values.shape[:-1] + ((n + 1) << n,))
    sliced[..., _rank_positions(n)] = values
    _butterfly(sliced, n, np.add)
    return sliced.reshape(values.shape[:-1] + (n + 1, 1 << n))


def _ranked_product(fz: np.ndarray, gz: np.ndarray, n: int) -> np.ndarray:
    """Ring product of two lifts; overwrites and returns fz.

    Per mask, the rank polynomials are multiplied, truncated at degree n, and
    degree r is scaled by 2^-r.  The rank products are accumulated
    symmetrically, fz[i]*gz[j] + fz[j]*gz[i], so the product is exactly
    commutative; ``gz is fz`` squares.
    """
    # rank r of the product reads ranks 0..r only, so going from the top
    # rank down it can overwrite fz[r].  A square sums each cross product
    # once and doubles the sum, which is exactly the sum of the doubled
    # products.
    square = gz is fz
    acc = np.empty(fz.shape[:-2] + fz.shape[-1:])
    term = np.empty(acc.shape)
    other = np.empty(acc.shape)
    for r in range(n, -1, -1):
        acc.fill(0.0)
        for i in range((r + 1) // 2):
            np.multiply(fz[..., i, :], gz[..., r - i, :], out=term)
            if not square:
                np.multiply(fz[..., r - i, :], gz[..., i, :], out=other)
                term += other
            acc += term
        if square:
            acc += acc
        if r % 2 == 0:
            np.multiply(fz[..., r // 2, :], gz[..., r // 2, :], out=term)
            acc += term
        np.multiply(acc, 0.5**r, out=fz[..., r, :])
    return fz


def _rank_readout(z: np.ndarray, n: int) -> np.ndarray:
    """Readout: the inverse transform, in place on z, then the rank-|S|
    entry of every mask S."""
    _butterfly(z, n, np.subtract)
    return z.reshape(z.shape[:-2] + (-1,))[..., _rank_positions(n)]


def _unchanged(values: np.ndarray, n: int) -> np.ndarray:
    return values


# (lift, product, readout) of each kernel; a product may overwrite its first
# operand and a readout its operand.  A ranked lift has no Moebius mass below
# rank |S| at mask S, ring products keep that, and the mass above rank |S|
# never reaches the readout, so the readout maps ring products to collisions:
# a run of products can stay lifted between one lift and one readout.  The
# 2^-r scale of rank r is a power of two, so it changes no rounding.
_KERNELS = {
    "pairs": (_unchanged, _collide_pairs, _unchanged),
    "ranked": (_rank_slices, _ranked_product, _rank_readout),
}


def resolve_collision_method(n: int, method: str = "auto") -> str:
    """The collision kernel that `method` names on n sites.

    `auto` takes the pair tables up to n = PAIRS_AUTO_SITE_MAX and the
    ranked transforms above.
    """
    if method != "auto":
        return method
    return "pairs" if n <= PAIRS_AUTO_SITE_MAX else "ranked"


def _collision_kernel(n: int, method: str = "auto"):
    """The (lift, product, readout) parts of the kernel `method` names on n
    sites, after its site cap is checked."""
    method = resolve_collision_method(n, method)
    if method not in _KERNELS:
        raise ValueError(f"unknown collision method {method!r}")
    cap = PAIR_TABLE_SITE_CAP if method == "pairs" else COLLIDE_SITE_CAP
    if n > cap:
        raise CapacityError(f"{method} collisions are capped at n={cap}, got n={n}")
    return _KERNELS[method]


def collide_coeffs(
    f: np.ndarray, g: np.ndarray, n: int, method: str = "auto"
) -> np.ndarray:
    """Collision product on raw coefficient vectors (no validation).

    A collision is readout(product(lift f, lift g)) with the parts of the
    kernel: identity, disjoint-pair sums and identity for `pairs`; rank
    split plus zeta transform, truncated product of the rank polynomials
    with degree r scaled by 2^-r, and Moebius transform plus the
    popcount-|S| entry of each mask S for `ranked`.

    The operands are vectors or (k, 2^n) stacks of rows.  A stack is collided
    in blocks of about _ROW_TERMS_CAP products, and each row equals the call
    on that row's operands bit for bit.  Passing the same array twice
    (``g is f``) marks a self-collision, which both kernels compute with
    fewer products and bit-identical results.  `auto` is resolved by
    `resolve_collision_method`.  Milliseconds per vector call, two operands /
    self, best of 30 on a 2-core Xeon (Python 3.11, numpy 2.4):

        n    pairs, table warm   ranked        pair table build
        10   0.32 / 0.17         0.80 / 0.54      6 ms
        11   0.96 / 0.54         1.34 / 0.94     38 ms
        12   3.4  / 1.8          2.7  / 1.8     142 ms
        14   43   / 23           13   / 8.7    1019 ms
    """
    method = resolve_collision_method(n, method)
    lift, product, readout = _collision_kernel(n, method)

    def kernel(a, b):
        lifted = lift(a, n)
        return readout(product(lifted, lifted if b is a else lift(b, n), n), n)

    if f.ndim == 1:
        return kernel(f, g)
    # a row takes about 3^n pair products, or (n+1) 2^n rank-split entries
    step = max(1, _ROW_TERMS_CAP // (3**n if method == "pairs" else (n + 1) << n))
    out = np.empty(f.shape)
    for lo in range(0, f.shape[0], step):
        rows = f[lo : lo + step]
        out[lo : lo + step] = kernel(rows, rows if g is f else g[lo : lo + step])
    return out


def collide_pmf(mu: Pmf, nu: Pmf) -> Pmf:
    """Collision product in the weight representation (transform round trip).

    Exactly commutative: collide_pmf(mu, nu) and collide_pmf(nu, mu) agree
    bit for bit.
    """
    if mu.n != nu.n:
        raise DimensionMismatchError("operands live on different cubes")
    coeffs = collide_coeffs(wht_forward(mu).coeffs, wht_forward(nu).coeffs, mu.n)
    return wht_inverse(FourierTable(mu.n, coeffs))


def collide_direct(mu: Pmf, nu: Pmf) -> Pmf:
    """Definitional oracle: average of marginal splices over all 2^n subsets.

    Costs about 4^n, so it is capped at small n; it exists to cross-check the
    transform-space implementation, not to be fast.
    """
    if mu.n != nu.n:
        raise DimensionMismatchError("operands live on different cubes")
    n = mu.n
    if n > DIRECT_SITE_CAP:
        raise CapacityError(
            f"direct collision is capped at n={DIRECT_SITE_CAP}, got n={n}"
        )
    shape = (2,) * n
    mu_t = mu.weights.reshape(shape)
    nu_t = nu.weights.reshape(shape)
    acc = np.zeros(shape)
    for subset in range(1 << n):
        # site k+1 lives on axis n-1-k of the reshaped tensor
        in_a = tuple(n - 1 - k for k in range(n) if (subset >> k) & 1)
        out_a = tuple(ax for ax in range(n) if ax not in in_a)
        mu_marg = mu_t.sum(axis=out_a, keepdims=True) if out_a else mu_t
        nu_marg = nu_t.sum(axis=in_a, keepdims=True) if in_a else nu_t
        acc += mu_marg * nu_marg
    return Pmf(n, (acc / (1 << n)).reshape(-1))


def evolve_discrete(mu: Pmf, steps: int) -> Pmf:
    """State after `steps` rounds of self-collision.

    The state stays in the collision kernel's lifted domain: one lift,
    `steps` ring squares and one readout.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    n = mu.n
    coeffs = wht_forward(mu).coeffs
    if steps:
        lift, product, readout = _collision_kernel(n)
        state = lift(coeffs, n)
        for _ in range(steps):
            state = product(state, state, n)
        coeffs = readout(state, n)
    return wht_inverse(FourierTable(n, coeffs))


def _draw_spins(mu: Pmf, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` i.i.d. draws from mu by inverse CDF, as a (count, n) array of +-1."""
    cdf = np.cumsum(mu.weights)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(count), side="right")
    return (((idx[:, None] >> np.arange(mu.n)) & 1) * 2 - 1).astype(np.int8)


# ---------------------------------------------------------------------------
# fragmentation process
# ---------------------------------------------------------------------------

FRAGMENTATION_STEP_CAP = 62
# version of the draw order behind `fragmentation_times`: 2 since every trial
# draws all its rounds up front as one word per site (1 drew a bit per site
# per round)
FRAGMENTATION_SAMPLER_VERSION = 2
# words drawn per chunk of trials: bounds the working set for any trial count.
# A word of FRAGMENTATION_STEP_CAP fair bits consumes exactly one raw 64-bit
# draw, so the chunking never changes the stream.
_FRAGMENTATION_CHUNK_WORDS = 1 << 20


def fragmentation_times(n: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    """First round after which every site sits in its own block, per trial.

    Each round splits every block by one uniform random subset: every site
    appends one fair bit to its label, and sites with equal labels share a
    block.  A trial draws all FRAGMENTATION_STEP_CAP rounds at once as one word
    per site, round k at bit FRAGMENTATION_STEP_CAP - k, so the label after t
    rounds is the word's top t bits.  The last pair to separate shares the
    longest common prefix, so it sits adjacent in sorted order, and it
    separates in the round of its first differing bit.
    """
    if n < 1:
        raise DimensionMismatchError("labels must be a non-empty vector")
    if trials < 0:
        raise DimensionMismatchError("trial count must be non-negative")
    times = np.zeros(trials, dtype=np.int64)
    if n == 1:
        return times
    cap = FRAGMENTATION_STEP_CAP
    # bit length by exact integer comparison: searchsorted counts the powers
    # of two at or below each value
    powers = np.left_shift(np.uint64(1), np.arange(cap + 1, dtype=np.uint64))
    rows = max(1, _FRAGMENTATION_CHUNK_WORDS // n)
    for lo in range(0, trials, rows):
        words = rng.integers(0, 1 << cap, size=(min(rows, trials - lo), n), dtype=np.uint64)
        words.sort(axis=1)
        closest = np.bitwise_xor(words[:, 1:], words[:, :-1]).min(axis=1)
        if not closest.all():
            raise CapacityError(
                f"label words are capped at {cap} splitting rounds", t=cap
            )
        times[lo : lo + closest.size] = cap + 1 - np.searchsorted(powers, closest, "right")
    return times


def fragmentation_time(n: int, rng: np.random.Generator) -> int:
    """One trial of `fragmentation_times`."""
    return int(fragmentation_times(n, 1, rng)[0])


# ---------------------------------------------------------------------------
# exact distance from the two-point start
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixtureWindow:
    """The certified (K, m) window that `mono_mixture_tv(n, t)` evaluates.

    Leaf counts K run over klo..khi and occupation counts m over mlo..mhi,
    plus m = 0 and m = n, where the K = 0 and K = N leaves sit.  `cells`, the
    log-cells evaluated, is counts x kept terms.
    """

    klo: int
    khi: int
    mlo: int
    mhi: int

    @property
    def kept(self) -> int:
        return max(0, self.khi - self.klo + 1)

    @property
    def counts(self) -> int:
        return 2 + max(0, self.mhi - self.mlo + 1)

    @property
    def cells(self) -> int:
        return self.counts * self.kept


def mixture_window(n: int, t: int) -> MixtureWindow:
    """The (K, m) window of `mono_mixture_tv(n, t)`; see its docstring."""
    if n < 1:
        raise DimensionMismatchError(f"need at least one site, got n={n}")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t > 60:
        raise CapacityError(f"leaf count 2^{t} is out of budget")
    leaves = 1 << t
    log_tail = math.log(2.0 / _TRUNCATED_MASS)
    half_width = math.sqrt(0.5 * leaves * log_tail)
    klo = max(1, math.ceil(leaves / 2 - half_width))
    khi = min(leaves - 1, math.floor(leaves / 2 + half_width))
    drift = max(abs(klo - leaves / 2), abs(khi - leaves / 2)) / leaves if khi >= klo else 0.0
    reach = n * drift + math.sqrt(0.5 * n * log_tail)
    mlo = max(1, math.floor(n / 2 - reach))
    mhi = min(n - 1, math.ceil(n / 2 + reach))
    return MixtureWindow(klo, khi, mlo, mhi)


def mono_mixture_tv(n: int, t: int) -> float:
    """Exact distance to stationarity after t steps from the two-point start.

    From the all-equal two-point initial state, the t-step state is a mixture
    over K ~ Binomial(2^t, 1/2) of product measures with common site bias
    (2K - 2^t)/2^t, and its stationary product is uniform.  The distance is

        1/2 * sum_m C(n,m) | E_K[(K/N)^m ((N-K)/N)^(n-m)] - 2^-n |,  N = 2^t,

    evaluated in log space over a window of (K, m) that drops certified mass
    (`mixture_window`).  With delta = _TRUNCATED_MASS and L = ln(2/delta):

    * leaf counts 1 <= K <= N-1 outside N/2 +- sqrt(N L / 2) carry binomial
      mass <= delta and are dropped; K = 0 and K = N are kept exactly;
    * the kept K put p = K/N within d of 1/2.  By Hoeffding, for each such p,
      and for the uniform law (p = 1/2), the occupation count m falls outside
      n/2 +- (n d + r) with probability <= 2 exp(-2 r^2 / n) = delta, where
      r = sqrt(n L / 2).  Only the m in that window, plus m = 0 and m = n
      where the K = 0 and K = N leaves sit, are summed, so the dropped terms
      add at most (delta + delta) / 2 = delta to the distance.

    The window holds O(n d + sqrt(n)) counts, where the full sum has n + 1;
    more than _MIXTURE_CELL_BUDGET cells in all raise CapacityError.  Its
    rows go through two float64 blocks of about _MIXTURE_CHUNK_CELLS cells,
    allocated once per call, so the working set stays in cache: each block
    of rows is built in place and reduced in place, shifted by its row max,
    exponentiated and summed.  Each term is then C(n, m) times
    |mean - 2^-n| = hi (1 - exp(-|log mean + n ln 2|)), hi the larger of the
    two, formed in log space and summed by math.fsum.
    """
    window = mixture_window(n, t)
    # imported here, not with the package: commands that never evaluate a
    # special function start without scipy (the CLI preloads it for the rest)
    from scipy.special import gammaln

    leaves = 1 << t
    kept = window.kept
    m = np.concatenate(([0], np.arange(window.mlo, window.mhi + 1), [n])).astype(np.float64)
    if window.cells > _MIXTURE_CELL_BUDGET:
        raise CapacityError(
            f"mixture evaluation needs {window.cells:.2e} cells, over budget",
            sites=n,
            kept_terms=kept,
            counts=m.size,
        )
    log_half = math.log(2.0)
    target = -n * log_half

    log_mean = np.full(m.size, -np.inf)
    if kept > 0:
        k = np.arange(window.klo, window.khi + 1, dtype=np.float64)
        log_weight = (
            gammaln(leaves + 1)
            - gammaln(k + 1)
            - gammaln(leaves - k + 1)
            - leaves * log_half
        )
        log_up = np.log(k / leaves)
        log_down = np.log((leaves - k) / leaves)
        chunk = max(1, _MIXTURE_CHUNK_CELLS // kept)
        block = np.empty((min(chunk, m.size), kept))
        spare = np.empty_like(block)
        for start in range(0, m.size, chunk):
            rows = m[start : start + chunk]
            a, b = block[: rows.size], spare[: rows.size]
            # log_weight + m log_up + (n - m) log_down, added in that order
            np.multiply(rows[:, None], log_up, out=a)
            a += log_weight
            np.multiply((n - rows)[:, None], log_down, out=b)
            a += b
            top = a.max(axis=1)
            a -= top[:, None]
            np.exp(a, out=a)
            log_mean[start : start + rows.size] = np.log(a.sum(axis=1)) + top

    # the all-minus (k=0) and all-plus (k=N) leaves contribute only to the
    # extreme occupation counts m=0 and m=n
    log_mean[0] = np.logaddexp(log_mean[0], -leaves * log_half)
    log_mean[-1] = np.logaddexp(log_mean[-1], -leaves * log_half)

    log_choose = gammaln(n + 1) - gammaln(m + 1.0) - gammaln(n - m + 1.0)
    hi = np.maximum(log_mean, target)
    # a mean equal to 2^-n gives log(0) = -inf, a zero term
    with np.errstate(divide="ignore"):
        terms = np.exp(log_choose + hi + np.log(-np.expm1(-np.abs(log_mean - target))))
    return 0.5 * math.fsum(terms.tolist())


# ---------------------------------------------------------------------------
# closed-form upper bounds
# ---------------------------------------------------------------------------

PLATEAU_SCALE_MIN = math.log(2.0) / 2.0


@dataclass(frozen=True)
class DiscreteUpperBounds:
    """Upper bounds on the distance to stationarity after t steps.

    `scale` is the cutoff-window coordinate s = n * 2^-t.  The site union
    bound min(1, s) holds for every balanced initial state.  `plateau_bound`
    is the near-saturation bound 1 - exp(-2s)/2, which is only valid for
    s >= ln(2)/2 and is None below that threshold.
    """

    scale: float
    site_union_bound: float
    plateau_bound: Optional[float]


def discrete_upper_bounds(n: int, t: int) -> DiscreteUpperBounds:
    if n < 1:
        raise DimensionMismatchError(f"need at least one site, got n={n}")
    if t < 0:
        raise ValueError("t must be >= 0")
    scale = n * 2.0 ** (-t)
    plateau = 1.0 - math.exp(-2.0 * scale) / 2.0 if scale >= PLATEAU_SCALE_MIN else None
    return DiscreteUpperBounds(
        scale=scale, site_union_bound=min(1.0, scale), plateau_bound=plateau
    )
