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
from typing import Sequence

import numpy as np

# scipy.special is imported inside the functions that call it, so commands
# that never evaluate a special function start without it

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
# lowerbound_experiment_continuous: sign draws per sampled tree
_INNER_SAMPLES = 2048


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


def gaussian_tv_complement(s: float) -> float:
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
    complement = gaussian_tv_complement(large_s)
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

    Equals 1 - C(2^t, 2^{t-1}) 2^{-2^t}; the t=0 limit is 1.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t > 30:
        raise CapacityError(f"limit evaluation is capped at t <= 30, got {t}")
    if t == 0:
        return 1.0
    from scipy.special import gammaln

    leaves = 1 << t
    log_central = (
        gammaln(leaves + 1)
        - 2.0 * gammaln(leaves // 2 + 1)
        - leaves * math.log(2.0)
    )
    return -math.expm1(log_central)


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
    l2: float
    bound: float
    holds: bool


def check_l1_l2_bound(probs: Sequence[float], density: Sequence[float]) -> DensityBoundCheck:
    """Verify half the L1 deviation of a density against the L2 bound.

    `probs` are the weights of a finite probability space and `density` a
    non-negative function with unit mean under them.
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
    bound = l1_from_l2_bound(l2)
    return DensityBoundCheck(
        l1_half=l1_half, l2=l2, bound=bound, holds=l1_half <= bound + 1e-12
    )


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


def _binom_pmf(k, n: int, p):
    """Binomial(n, p) pmf at k, in log space: no difference of cdf values."""
    from scipy.special import gammaln, xlog1py, xlogy

    return np.exp(
        gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1) + xlogy(k, p) + xlog1py(n - k, -p)
    )


def _square_tail_given_bias(block_size: int, up_prob, threshold: int):
    """P(squared block magnetization >= threshold) for i.i.d. +-1 sites.

    `up_prob` is the per-site probability of +1 (scalar or vector); the
    magnetization of B up-sites out of p is 2B - p.  The threshold is
    resolved exactly in integers, respecting the parity of p.
    """
    p = block_size
    if threshold <= 0:
        return np.ones_like(np.asarray(up_prob, dtype=np.float64))
    s = math.isqrt(threshold)
    if s * s < threshold:
        s += 1
    if (s - p) % 2 != 0:
        s += 1
    up = np.asarray(up_prob, dtype=np.float64)
    if s > p:
        out = np.zeros_like(up)
        return float(out) if out.ndim == 0 else out
    from scipy.special import betainc

    b_hi = (p + s) // 2
    b_lo = (p - s) // 2
    # P(B >= b_hi) + P(B <= b_lo), where for 0 <= k < n a Bin(n, q) count has
    # P(B > k) = I_q(k+1, n-k) and P(B <= k) = I_(1-q)(n-k, k+1)
    out = betainc(b_hi, p - b_hi + 1, up) + betainc(p - b_lo, b_lo + 1, 1.0 - up)
    return float(out) if out.ndim == 0 else out


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
    uniform stationary law, and the event's stationary mass pi_a.
    """
    if p > n:
        raise ConfigError(f"block size {p} exceeds n={n}; no block fits")
    from scipy.special import betainc

    alpha = n // p
    threshold = 20 * p
    k_min = -(-alpha // 15)
    q_pi = float(_square_tail_given_bias(p, 0.5, threshold))
    return alpha, threshold, k_min, q_pi, float(betainc(k_min, alpha - k_min + 1, q_pi))


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
    from scipy.special import betainc

    leaves = 1 << t
    counts = np.arange(leaves + 1)
    leaf_weights = _binom_pmf(counts, leaves, 0.5)
    up = counts / leaves
    bias = 2.0 * up - 1.0
    q_mu = float(leaf_weights @ _square_tail_given_bias(p, up, threshold))
    mu_ac = float(betainc(alpha - k_min + 1, k_min, 1.0 - q_mu))

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


def lowerbound_experiment_continuous(
    n: int,
    t: float,
    m: int,
    rng: np.random.Generator,
) -> ContinuousBlockReport:
    _check_horizon(t, positive=True)
    if m < 2:
        raise ValueError(f"need at least 2 trees, got {m}")
    damp = max(1.0, math.log(1.0 / t))
    p = int(math.sqrt(80.0 * n) * math.exp(t / 4.0) / math.sqrt(damp))
    if p < 2:
        raise ConfigError(f"block size {p} too small at n={n}, t={t}")
    alpha, threshold, k_min, q_pi, pi_a = _block_event(n, p)
    from scipy.special import betainc

    p2, p3, p4 = _second_moment_coeffs(p)
    decay = math.exp(-t / 2.0)
    r_scale = n * decay
    block_tails = np.empty(m)
    moment_zs = np.empty(m)
    second_ok = True
    counts_grid = np.arange(alpha + 1)
    mix_pmf = np.zeros(alpha + 1)
    # every tree's leaf weights 2^-depth, grown in one batch; the sign draws
    # below come after all of them
    owner, leaf_weights = sample_leaf_weights(t, m, rng)
    per_tree = np.split(
        leaf_weights[np.argsort(owner, kind="stable")],
        np.cumsum(np.bincount(owner, minlength=m))[:-1],
    )
    for i, w in enumerate(per_tree):
        m2 = float((w * w).sum())
        m4 = float((w**4).sum())
        martingale = math.exp(t / 2.0) * m2
        signs = rng.integers(0, 2, size=(_INNER_SAMPLES, w.size)) * 2 - 1
        q_draw = signs @ w
        # a tree has few leaves, so its 2^leaves sign patterns repeat: the
        # tail is evaluated once per distinct bias
        q_seen, q_index = np.unique(q_draw, return_inverse=True)
        tails = _square_tail_given_bias(p, (1.0 + q_seen) / 2.0, threshold)[q_index]
        block_tails[i] = tails.mean()
        mix_pmf += _binom_pmf(counts_grid, alpha, block_tails[i])

        # first-moment check: formula vs the same trees' sign-mixture
        formula = p + p2 * m2
        per_draw = p + p2 * q_draw * q_draw
        se = float(per_draw.std(ddof=1)) / math.sqrt(_INNER_SAMPLES)
        moment_zs[i] = 0.0 if se == 0.0 else (float(per_draw.mean()) - formula) / se
        second_formula = (
            p4 * (3.0 * m2 * m2 - 2.0 * m4) + (6.0 * p3 + 4.0 * p2) * m2
            + 3.0 * p2 + p
        )
        second_cap = 3.0 * ((p - 1) * (r_scale / alpha) * martingale + p) ** 2
        if second_formula > second_cap * (1.0 + 1e-12):
            second_ok = False
    mix_pmf /= m
    pi_pmf = _binom_pmf(counts_grid, alpha, q_pi)
    block_count_tv = 0.5 * float(np.abs(mix_pmf - pi_pmf).sum())

    below = betainc(alpha - k_min + 1, k_min, 1.0 - block_tails)
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
        second_moment_bound_ok=second_ok,
    )
