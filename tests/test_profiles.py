"""Profile shapes, density bounds, and block-event lower bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.optimize import brentq
from scipy.special import erfc
from scipy.stats import binom

from recomblab import (
    check_l1_l2_bound,
    gaussian_tv,
    gaussian_tv_asymptotics,
    l1_from_l2_bound,
    lowerbound_experiment_continuous,
    lowerbound_experiment_discrete,
    martingale_samples,
    mixture_profile_tv,
    mono_mixture_tv,
    mono_tv_large_n_limit,
    two_valued_extremal_density,
)
from recomblab import binomial, profiles, yule
from recomblab.errors import CapacityError, ConfigError, InvalidDistributionError
from recomblab.streams import rng_substream
from recomblab.yule import sample_leaf_weights


# -----------------------------------------------------------------------
# the Gaussian scale profile
# -----------------------------------------------------------------------


def gaussian_tv_quadrature(s: float) -> float:
    """Same distance by direct quadrature of the two densities.

    Integrates |pdf of N(0,1+s) - pdf of N(0,1)| without using the cdf
    formula; the crossing point only splits the domain so the integrand is
    smooth on each piece.  Serves as the independent oracle for gaussian_tv.
    """
    sd2 = math.sqrt(1.0 + s)
    root_2pi = math.sqrt(2.0 * math.pi)

    def gap(z: float) -> float:
        wide = math.exp(-z * z / (2.0 * (1.0 + s))) / (root_2pi * sd2)
        narrow = math.exp(-z * z / 2.0) / root_2pi
        return abs(wide - narrow)

    z_star = math.sqrt((1.0 + s) * math.log1p(s) / s)
    inner, _ = quad(gap, 0.0, z_star, limit=200)
    outer, _ = quad(gap, z_star, np.inf, limit=200)
    return inner + outer


def test_gaussian_tv_against_quadrature_grid():
    for s in np.logspace(-3, 6, 19):
        closed = gaussian_tv(s)
        quadrature = gaussian_tv_quadrature(s)
        assert closed == pytest.approx(quadrature, abs=1e-8), s


def test_gaussian_tv_fixed_values():
    assert gaussian_tv(1.0) == pytest.approx(0.16606407498351294, abs=1e-12)
    assert gaussian_tv(0.0) == 0.0
    # monotone increasing in the scale
    grid = np.logspace(-2, 4, 25)
    vals = [gaussian_tv(s) for s in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.0


def test_gaussian_tv_complement_identity():
    for s in (1e-3, 0.5, 1.0, 20.0, 1e5):
        assert gaussian_tv(s) + profiles._gaussian_tv_complement(s) == pytest.approx(
            1.0, abs=1e-12
        )


@pytest.mark.parametrize("s", [-1.0, math.nan, math.inf, -math.inf])
def test_gaussian_tv_rejects_a_scale_that_is_not_finite_and_nonnegative(s):
    for profile in (gaussian_tv, profiles._gaussian_tv_complement):
        with pytest.raises(InvalidDistributionError, match="finite and >= 0"):
            profile(s)


def test_small_scale_asymptote():
    report = gaussian_tv_asymptotics()
    assert report.passed_small
    assert report.small_scale_ratio == pytest.approx(1.0, abs=0.02)
    assert gaussian_tv(1.0) == pytest.approx(0.16606407498351294, abs=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "requested large-scale gate does not hold for this distance: the "
        "measured ratio against sqrt(log(s) / (2 pi s)) is 2.136 at s = 10^6 "
        "(1.068 after halving), not within 5 percent of one, because the "
        "distance keeps an additional tail term of relative size "
        "O(1/log s). Recorded in the acceptance registry as the red "
        "criterion; see the README Tests section and the ROADMAP Open items."
    ),
)
def test_large_scale_asymptote_gate():
    report = gaussian_tv_asymptotics()
    assert report.passed_large


# -----------------------------------------------------------------------
# large-n mixture limits
# -----------------------------------------------------------------------


def test_mono_tv_large_n_limit_fixed_values():
    assert mono_tv_large_n_limit(0) == 1.0
    # 1/2, 5/8 and 93/128 at t = 1, 2 and 3
    for t in range(1, 17):
        exact = 1 - Fraction(math.comb(2**t, 2 ** (t - 1)), 2 ** (2**t))
        assert abs(Fraction(mono_tv_large_n_limit(t)) / exact - 1) <= 1e-15, t


def test_mono_tv_large_n_limit_is_capped_at_t_20():
    assert 0.999 < mono_tv_large_n_limit(20) < 1.0
    with pytest.raises(CapacityError):
        mono_tv_large_n_limit(21)


def test_mono_tv_approaches_its_large_n_limit():
    for t in (1, 2, 3):
        lim = mono_tv_large_n_limit(t)
        assert mono_mixture_tv(2000, t) == pytest.approx(lim, abs=1e-6)


# -----------------------------------------------------------------------
# mixture profile
# -----------------------------------------------------------------------


def test_mixture_profile_reduces_to_gaussian_for_unit_weights():
    ones = np.ones(64)
    for lam in (-10.0, -6.0, 0.0, 6.0, 10.0, 20.0, 40.0):
        s = math.exp(-lam / 2.0)
        assert mixture_profile_tv(lam, ones) == pytest.approx(gaussian_tv(s), abs=1e-14)


def test_one_sample_mixture_is_the_gaussian_profile():
    for s in 10.0 ** np.arange(-8, 9):
        assert mixture_profile_tv(0.0, [s]) == pytest.approx(gaussian_tv(s), abs=1e-14)


def test_mixture_profile_monotone_in_window():
    rng = rng_substream(21, 0)
    w = rng.exponential(size=500)
    grid = [-4.0, -2.0, 0.0, 2.0, 4.0]
    vals = [mixture_profile_tv(lam, w) for lam in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def _mixture_profile_tv_full_grid(window, martingale_values, z_max=12.0, dz=1e-3):
    """The mixture profile by Simpson's rule on the grid [-z_max, z_max].

    The integrand is half |mixture density ratio - 1| against N(0,1); the
    tails beyond z_max, where every ratio exceeds 1, are added exactly.
    """
    values = np.asarray(martingale_values, dtype=np.float64)
    excess = math.exp(-window / 2.0) * values
    half_pts = int(math.ceil(z_max / dz))
    grid = np.linspace(-z_max, z_max, 2 * half_pts + 1)
    h = z_max / half_pts
    coeff = excess / (2.0 * (excess + 1.0))
    scale = 1.0 / np.sqrt(1.0 + excess)
    mix = np.empty(grid.size)
    chunk = max(1, int(8e6) // values.size)
    for start in range(0, grid.size, chunk):
        zz = grid[start : start + chunk]
        block = np.exp(np.outer(zz * zz, coeff))
        block *= scale
        mix[start : start + zz.size] = block.mean(axis=1)
    integrand = np.abs(mix - 1.0) * np.exp(-grid * grid / 2.0) / math.sqrt(2.0 * math.pi)
    interior = simpson(integrand, dx=h)
    root2 = math.sqrt(2.0)
    outside_mixture = float(np.mean(erfc(z_max / (root2 * np.sqrt(1.0 + excess)))))
    outside_reference = math.erfc(z_max / root2)
    return 0.5 * interior + 0.5 * (outside_mixture - outside_reference)


def _mixture_profile_tv_split_quad(window, martingale_values):
    """The mixture profile by adaptive quadrature split at the crossing.

    The densities cross once on the half-line, where |difference| has its
    kink; brentq finds that point and quad integrates each smooth side.
    """
    values = np.asarray(martingale_values, dtype=np.float64)
    variance = 1.0 + math.exp(-window / 2.0) * values
    scale = 1.0 / np.sqrt(variance)

    def difference(z):
        return float(np.mean(scale * np.exp(-z * z / (2.0 * variance)))) - math.exp(-z * z / 2.0)

    crossing = brentq(difference, 0.0, 40.0, xtol=1e-15)
    inner = quad(difference, 0.0, crossing, epsabs=1e-15, limit=200)[0]
    outer = quad(difference, crossing, np.inf, epsabs=1e-15, limit=200)[0]
    # half of the two-sided L1 norm is the one-sided one
    return (outer - inner) / math.sqrt(2.0 * math.pi)


def test_mixture_profile_matches_quadrature_oracles():
    values = martingale_samples(6.0, 1000, rng_substream(21, 6)).values
    for lam in (-4.0, 0.0, 4.0):
        tv = mixture_profile_tv(lam, values)
        assert abs(tv - _mixture_profile_tv_split_quad(lam, values)) <= 1e-12, lam
        # Simpson's rule loses accuracy at the kink of |difference|
        assert abs(tv - _mixture_profile_tv_full_grid(lam, values)) <= 1e-7, lam


def test_mixture_profile_extreme_windows(recwarn):
    values = martingale_samples(6.0, 1000, rng_substream(21, 6)).values
    for lam in (-1400.0, 1400.0, 1500.0):
        assert 0.0 <= mixture_profile_tv(lam, values) <= 1.0
    # every sample's excess underflows to 0 at lam = 1500
    assert mixture_profile_tv(1500.0, values) == 0.0
    assert len(recwarn) == 0
    with pytest.raises(ConfigError, match="-1500"):
        mixture_profile_tv(-1500.0, values)
    with pytest.raises(ConfigError, match="-1400"):
        mixture_profile_tv(-1400.0, [1e300])


def test_mixture_profile_rejects_empty_batch():
    with pytest.raises(InvalidDistributionError):
        mixture_profile_tv(0.0, np.array([]))


# -----------------------------------------------------------------------
# L1 / L2 density bound
# -----------------------------------------------------------------------


def test_l1_from_l2_bound_shape():
    # linear branch below one, saturating branch above, continuous at one
    assert l1_from_l2_bound(0.4) == pytest.approx(0.2)
    assert l1_from_l2_bound(2.0) == pytest.approx(4.0 / 5.0)
    assert l1_from_l2_bound(1.0) == pytest.approx(0.5)
    grid = np.linspace(0.0, 5.0, 200)
    vals = [l1_from_l2_bound(x) for x in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(v < 1.0 for v in vals)


def test_l1_from_l2_bound_array_is_the_scalar_bound_bit_for_bit():
    rng = rng_substream(21, 5)
    grid = np.concatenate(([0.0, 1.0, np.nextafter(1.0, 2.0)], rng.exponential(size=200)))
    bounds = l1_from_l2_bound(grid)
    np.testing.assert_array_equal(bounds, [l1_from_l2_bound(float(x)) for x in grid])
    assert isinstance(l1_from_l2_bound(0.5), float)
    for bad in (-0.1, np.array([0.5, -1e-300])):
        with pytest.raises(InvalidDistributionError):
            l1_from_l2_bound(bad)


def test_l1_l2_bound_on_random_densities():
    rng = rng_substream(21, 1)
    for n in (3, 5, 8):
        probs = np.full(2 ** n, 2.0 ** (-n))
        density = rng.exponential(size=2 ** n)
        density /= probs @ density
        check = check_l1_l2_bound(probs, density)
        assert check.l1_half <= check.bound + 1e-12


def test_l1_l2_bound_equality_families():
    # half-mass two-valued densities meet the linear branch exactly
    for dev in (0.25, 0.7, 1.0):
        probs, density = two_valued_extremal_density(0.5, dev)
        check = check_l1_l2_bound(probs, density)
        assert check.l1_half == pytest.approx(check.bound, abs=1e-12)
    # a vanishing-density cell of weight v >= 1/2 meets the other branch
    probs = np.array([0.75, 0.25])
    density = np.array([0.0, 4.0])
    check = check_l1_l2_bound(probs, density)
    assert check.l1_half == pytest.approx(check.bound, abs=1e-12)


def test_l1_l2_bound_input_validation():
    with pytest.raises(InvalidDistributionError):
        check_l1_l2_bound(np.array([0.6, 0.6]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidDistributionError):
        check_l1_l2_bound(np.array([0.5, 0.5]), np.array([2.0, 2.0]))


# -----------------------------------------------------------------------
# block experiments
# -----------------------------------------------------------------------


# block sizes and block counts the experiments reach: 80 * 2^t in the
# discrete experiment, sqrt(80 n) e^(t/4) / sqrt(damp) in the continuous one
# (229, 363 and 598 for the test, README and benchmark runs), n // block size
# for the block counts, 2^t for the leaf counts
_BINOM_SIZES = [1, 2, 4, 5, 8, 64, 80, 160, 229, 363, 598, 640, 1280]


def _binom_probs():
    rng = rng_substream(21, 6)
    edges = np.array([0.0, 1.0, 0.5, 1e-12, 1.0 - 1e-12])
    return np.concatenate([edges, rng.uniform(size=200)])


def _event_tail(p, probs, threshold):
    """P((2B - p)^2 >= threshold), B ~ Binomial(p, q): a sum of scipy.stats pmfs."""
    support = np.arange(p + 1)
    event = (2 * support - p) ** 2 >= threshold
    return binom.pmf(support[event, None], p, np.atleast_1d(probs)[None, :]).sum(axis=0)


def _assert_close(value, oracle, rel, floor=0.0):
    value, oracle = np.asarray(value), np.asarray(oracle)
    assert value.shape == oracle.shape
    gap = np.abs(value - oracle)
    assert (gap <= rel * np.abs(oracle) + floor).all(), float((gap / np.abs(oracle)).max())


@pytest.mark.parametrize("p", _BINOM_SIZES)
def test_binomial_law_matches_scipy_stats(p):
    # the numpy binomial law against scipy.stats.binom; the gates were fixed
    # before the first run
    probs = _binom_probs()
    support = np.arange(p + 1)[:, None]
    _assert_close(
        binomial.pmf(support, p, probs), binom.pmf(support, p, probs), 1e-10, 1e-100
    )
    for threshold in (0, 1, p, 20 * p, p * p):
        oracle = _event_tail(p, probs, threshold)
        tails = profiles._square_tail_given_bias(p, probs, threshold)
        _assert_close(tails, oracle, 1e-10, 1e-100)
        # the experiments call with a Python float too
        for q, expect in zip(probs[:5].tolist(), oracle[:5]):
            tail = profiles._square_tail_given_bias(p, q, threshold)
            _assert_close(tail, expect, 1e-10, 1e-100)


def test_discrete_block_laws_match_scipy_stats():
    report = lowerbound_experiment_discrete(5120, 3)
    p, alpha, leaves = 640, 8, 8
    threshold, k_min = 20 * p, 1
    assert (report.block_size, report.block_count, report.event_threshold) == (
        p, alpha, threshold,
    )
    q_pi = _event_tail(p, 0.5, threshold)[0]
    up = np.arange(leaves + 1) / leaves
    q_mu = binom.pmf(np.arange(leaves + 1), leaves, 0.5) @ _event_tail(p, up, threshold)
    _assert_close(report.stationary_event, binom.sf(k_min - 1, alpha, q_pi), 1e-10)
    _assert_close(report.evolved_block_tail, q_mu, 1e-10)
    _assert_close(report.evolved_complement, binom.cdf(k_min - 1, alpha, q_mu), 1e-10)


def _exact_binomial_sum(n, q, counts):
    """Sum of C(n, B) q^B (1 - q)^(n - B) over B in counts, as an exact rational."""
    q = Fraction(q)
    a, d = q.numerator, q.denominator
    return Fraction(sum(math.comb(n, b) * a**b * (d - a) ** (n - b) for b in counts), d**n)


def _relative_gap(value, exact):
    return float(abs(Fraction(float(value)) - exact) / exact)


def test_block_laws_match_exact_rational_sums():
    # gate, fixed before the first run: 1e-14 relative.  The tails are the
    # ones the discrete experiment evaluates for t = 0..4, among them the
    # README block tail at p = 640, q = 1/2 (5.6e-13 off through bdtr/bdtrc)
    for t in range(5):
        p, leaves = 80 << t, 1 << t
        up = np.arange(leaves + 1) / leaves
        event = [b for b in range(p + 1) if (2 * b - p) ** 2 >= 20 * p]
        tails = profiles._square_tail_given_bias(p, up, 20 * p)
        for q, tail in zip(up.tolist(), tails.tolist()):
            assert _relative_gap(tail, _exact_binomial_sum(p, q, event)) <= 1e-14, (p, q)
    report = lowerbound_experiment_discrete(5120, 3)
    alpha, k_min = report.block_count, 1
    stationary = _exact_binomial_sum(alpha, report.stationary_block_tail, range(k_min, alpha + 1))
    complement = _exact_binomial_sum(alpha, report.evolved_block_tail, range(k_min))
    assert _relative_gap(report.stationary_event, stationary) <= 1e-14
    assert _relative_gap(report.evolved_complement, complement) <= 1e-14


def test_block_spec_partition():
    # equal blocks plus a leftover smaller than one block cover the n sites
    reports = [
        lowerbound_experiment_discrete(5120 + 7, 3),
        lowerbound_experiment_continuous(400, 1.0, 2, rng_substream(23, 1)),
    ]
    for report in reports:
        assert report.block_count >= 1
        assert 0 <= report.leftover < report.block_size
        assert report.block_size * report.block_count + report.leftover == report.n


@pytest.mark.parametrize("trees", [1, 0])
def test_continuous_block_experiment_needs_two_trees(trees):
    # the tree count feeds a sample standard deviation
    with pytest.raises(ValueError, match="at least 2 trees"):
        lowerbound_experiment_continuous(400, 1.0, trees, rng_substream(23, 1))


def test_discrete_block_moments_match_formulas():
    report = lowerbound_experiment_discrete(5120, 3)
    assert report.first_moment_exact == pytest.approx(
        report.first_moment_formula, rel=1e-12
    )
    assert report.second_moment_exact == pytest.approx(
        report.second_moment_formula, rel=1e-12
    )
    # the event is rare at stationarity and typical after evolution
    assert report.stationary_event <= 1.0 / 20.0
    assert report.paley_zygmund_bound >= 1.0 / 12.0
    assert report.tv_lower_bound > 0.9


def test_continuous_block_bound_is_dominated_by_z_law():
    rng = rng_substream(21, 3)
    report = lowerbound_experiment_continuous(400, 1.0, 120, rng)
    assert 0.0 < report.tv_lower_bound <= report.block_count_tv + 1e-12
    assert report.second_moment_bound_ok
    assert abs(report.first_moment_max_abs_z) < 5.0


class _EveryDrawTails(profiles._LatticeTails):
    """The block tails evaluated at every key of every group: no dedup, no cache."""

    def __call__(self, keys):
        up = (1.0 + keys * self.scale) / 2.0
        return profiles._square_tail_given_bias(self.block_size, up, self.threshold)


def test_continuous_block_report_equals_per_draw_evaluation(monkeypatch):
    # the tail is evaluated once per distinct bias of the run; evaluating it
    # once per sign draw, as the oracle does, must give the same report exactly
    def run(counters=None):
        return lowerbound_experiment_continuous(400, 1.0, 120, rng_substream(21, 3), counters)

    evaluated = []
    tail = profiles._square_tail_given_bias

    def counting_tail(p, up, threshold):
        evaluated.append(np.size(up))
        return tail(p, up, threshold)

    monkeypatch.setattr(profiles, "_square_tail_given_bias", counting_tail)
    counters = {}
    report = run(counters)
    # the stationary tail, then each group's biases that no earlier group had
    draws = 120 * profiles._INNER_SAMPLES
    assert sum(evaluated[1:]) == counters["tail_evaluations"]
    assert counters["tail_evaluations"] <= counters["distinct_biases"] < draws
    evaluated.clear()
    monkeypatch.setattr(profiles, "_LatticeTails", _EveryDrawTails)
    assert report == run()
    assert sum(evaluated[1:]) == draws


def _per_tree_report(n, t, m, rng, p):
    """The continuous experiment as one loop over trees: each group's packed
    sign bytes drawn as the experiment draws them, then each tree's bits
    unpacked and its biases 2 (d @ w) - sum(w) taken in floats on their own.
    Returns the report's fields and, per group, the up-probabilities of the
    biases that no earlier group had."""
    alpha, threshold, k_min, q_pi, pi_a = profiles._block_event(n, p)
    p2, p3, p4 = profiles._second_moment_coeffs(p)
    owner, weights, _, _ = sample_leaf_weights(t, m, rng)
    per_tree = [weights[owner == i] for i in range(m)]
    starts = range(0, m, profiles._GROUP_TREES)
    q_draws, group_biases, seen = [], [], np.empty(0)
    for start in starts:
        group = per_tree[start : start + profiles._GROUP_TREES]
        nbytes = [-(-w.size // 8) for w in group]
        packed = rng.integers(
            0, 256, size=(profiles._INNER_SAMPLES, sum(nbytes)), dtype=np.uint8
        )
        for w, own in zip(group, np.split(packed, np.cumsum(nbytes)[:-1], axis=1)):
            bits = np.unpackbits(own, axis=1, bitorder="little")[:, : w.size]
            q_draws.append(2.0 * (bits @ w) - w.sum())
        fresh = np.setdiff1d(np.unique(q_draws[start:]), seen)
        if fresh.size:
            group_biases.append((1.0 + fresh) / 2.0)
        seen = np.union1d(seen, fresh)
    block_tails, moment_zs, second_ok = [], [], True
    for w, q_draw in zip(per_tree, q_draws):
        m2, m4 = float((w * w).sum()), float((w**4).sum())
        q_seen, q_index = np.unique(q_draw, return_inverse=True)
        tails = profiles._square_tail_given_bias(p, (1.0 + q_seen) / 2.0, threshold)
        block_tails.append(tails[q_index].mean())
        per_draw = p + p2 * q_draw * q_draw
        se = float(per_draw.std(ddof=1)) / math.sqrt(profiles._INNER_SAMPLES)
        moment_zs.append(0.0 if se == 0.0 else (float(per_draw.mean()) - (p + p2 * m2)) / se)
        second = p4 * (3.0 * m2 * m2 - 2.0 * m4) + (6.0 * p3 + 4.0 * p2) * m2 + 3.0 * p2 + p
        martingale = math.exp(t / 2.0) * m2
        cap = 3.0 * ((p - 1) * (n * math.exp(-t / 2.0) / alpha) * martingale + p) ** 2
        second_ok = second_ok and not second > cap * (1.0 + 1e-12)
    block_tails = np.array(block_tails)
    # the mixture pmf is summed group by group, as the experiment sums it
    grid = np.arange(alpha + 1)
    mix_pmf = np.zeros(alpha + 1)
    for start in starts:
        group = block_tails[start : start + profiles._GROUP_TREES]
        mix_pmf += binomial.pmf(grid[:, None], alpha, group).sum(axis=1)
    mix_pmf /= m
    below = binomial.lower_tail(k_min - 1, alpha, block_tails)
    fields = dict(
        stationary_event=pi_a,
        evolved_complement=float(below.mean()),
        evolved_complement_stderr=float(below.std(ddof=1)) / math.sqrt(m),
        tv_lower_bound=1.0 - pi_a - float(below.mean()),
        block_count_tv=0.5 * float(np.abs(mix_pmf - binomial.pmf(grid, alpha, q_pi)).sum()),
        first_moment_max_abs_z=float(np.abs(moment_zs).max()),
        second_moment_bound_ok=second_ok,
    )
    return fields, group_biases


def test_count_law_distance_is_clipped_at_one():
    # two laws on ten cells each, their only overlap 1e-300: each sums to 1
    # only up to rounding, and the half-sum of |p - q| reads 1 + 2^-52
    p = np.concatenate([np.full(10, 0.1), np.zeros(10)])
    q = p[::-1].copy()
    q[0] = 1e-300
    assert 0.5 * float(np.abs(p - q).sum()) == 1.0 + 2.0**-52
    assert profiles._count_law_tv(p, q) == (1.0, 2.0**-52)
    # inside [0, 1] nothing is clipped
    assert profiles._count_law_tv(p, p) == (0.0, 0.0)
    half = np.full(20, 0.05)
    tv, clipped = profiles._count_law_tv(p, half)
    assert tv == 0.5 * float(np.abs(p - half).sum()) and clipped == 0.0


def test_grouped_continuous_experiment_equals_the_per_tree_loop(monkeypatch):
    # three groups, the last one partial: each group's biases that no
    # earlier group had reach the tails, and every field of the report is
    # equal; at t = 1 the lattice is small and later groups bring few
    n, m = 400, 2 * profiles._GROUP_TREES + 6
    tail = profiles._square_tail_given_bias
    for t in (1.0, 3.0):
        seen = []

        def recording_tail(p, up, threshold):
            seen.append(np.array(up, dtype=np.float64))
            return tail(p, up, threshold)

        with monkeypatch.context() as patch:
            patch.setattr(profiles, "_square_tail_given_bias", recording_tail)
            report = lowerbound_experiment_continuous(n, t, m, rng_substream(21, 5))
        fields, group_biases = _per_tree_report(n, t, m, rng_substream(21, 5), report.block_size)
        assert len(seen) == 1 + len(group_biases)
        for recorded, oracle in zip(seen[1:], group_biases):
            assert np.array_equal(recorded, oracle)
        assert {key: getattr(report, key) for key in fields} == fields


def _leaf_set(*trees):
    """Owner and weight 2^-depth of every leaf of the given depth lists, in
    wave order, as `sample_leaf_weights` returns them (no nodes counted)."""
    for depths in trees:
        assert sum(Fraction(1, 2**d) for d in depths) == 1
    leaves = sorted((d, i) for i, depths in enumerate(trees) for d in depths)
    owner = np.array([i for _, i in leaves])
    weights = np.array([math.ldexp(1.0, -d) for d, _ in leaves])
    return owner, weights, 0, 0


# full binary trees as leaf depth lists: 1 leaf, 5 leaves in one byte, 13
# across a byte boundary, and 66 reaching depth 62 (a caterpillar to depth
# 62 with three more splits near the root)
_KEY_TREES = (
    [0],
    [1, 2, 3, 4, 4],
    [3] * 3 + [4] * 10,
    sorted([2, 3, 3, 4, 6, 6] + [d for d in range(3, 62) if d != 5] + [62, 62]),
)


@pytest.mark.parametrize("cells", [profiles._KEY_CELLS, 40])
def test_sign_keys_equal_the_unpacked_bits_exactly(monkeypatch, cells):
    # K 2^-62 = 2 (d @ w) - sum(w) for the bits d of the same bytes, as exact
    # integers K = sum of (2d - 1) 2^(62 - depth); 40 cells gathers three rows
    # at a time, the last block partial
    monkeypatch.setattr(profiles, "_KEY_CELLS", cells)
    assert len(_KEY_TREES[3]) == 66 and max(_KEY_TREES[3]) == profiles._KEY_DEPTH_CAP
    leaves = np.array([len(depths) for depths in _KEY_TREES])
    lattice = np.array([1 << (62 - d) for depths in _KEY_TREES for d in depths], dtype=np.int64)
    rows = 512
    keys = profiles._sign_keys(np.random.default_rng(5), lattice, leaves, rows)
    assert keys.shape == (leaves.size, rows) and keys.dtype == np.int64
    nbytes = -(-leaves // 8)
    packed = np.random.default_rng(5).integers(0, 256, size=(rows, nbytes.sum()), dtype=np.uint8)
    for depths, key, own in zip(_KEY_TREES, keys, np.split(packed, np.cumsum(nbytes)[:-1], axis=1)):
        bits = np.unpackbits(own, axis=1, bitorder="little")[:, : len(depths)]
        exact = [sum((2 * int(b) - 1) << (62 - d) for b, d in zip(row, depths)) for row in bits]
        assert key.tolist() == exact


def test_sign_key_law_matches_the_exact_bias_law():
    # registered gate: 2^16 rows of one fixed tree of 11 leaves (two bytes);
    # the exact law of K is the convolution over depths d of
    # 2^(6 - d) (2 Bin(c_d, 1/2) - c_d); every lattice point within 5 binomial
    # standard deviations of its expected count, and Pearson's chi-squared
    # below df + 5 sqrt(2 df)
    depths = [2, 2, 3, 3, 4, 4, 5, 5, 5, 6, 6]
    owner, weights, _, _ = _leaf_set(depths)
    lattice = np.ldexp(weights, 6).astype(np.int64)
    rows = 1 << 16
    keys = profiles._sign_keys(rng_substream(30, 1), lattice, np.array([len(depths)]), rows)[0]
    law = {0: Fraction(1)}
    for d in sorted(set(depths)):
        c, step = depths.count(d), 1 << (6 - d)
        part = {(2 * j - c) * step: Fraction(math.comb(c, j), 2**c) for j in range(c + 1)}
        new = {}
        for a, pa in law.items():
            for b, pb in part.items():
                new[a + b] = new.get(a + b, 0) + pa * pb
        law = new
    values, counts = np.unique(keys, return_counts=True)
    observed = dict(zip(values.tolist(), counts.tolist()))
    assert set(observed) <= set(law)
    chi2 = 0.0
    for k, prob in law.items():
        expected = rows * float(prob)
        gap = observed.get(k, 0) - expected
        assert abs(gap) <= 5.0 * math.sqrt(expected * (1.0 - float(prob))), k
        chi2 += gap * gap / expected
    df = len(law) - 1
    assert chi2 <= df + 5.0 * math.sqrt(2.0 * df)


def test_key_dedup_by_table_and_by_sort_agree(monkeypatch):
    # at the cap depth and at both ends of the lattice
    depth = profiles._KEY_TABLE_DEPTH
    rng = np.random.default_rng(8)
    keys = rng.integers(-(1 << depth), (1 << depth) + 1, size=(7, 300))
    keys[0, :2] = [-(1 << depth), 1 << depth]
    distinct, index = profiles._distinct_keys(keys, depth)
    assert np.array_equal(distinct, np.unique(keys)) and np.array_equal(distinct[index], keys)
    # the same run through the table (depth about 15) and through np.unique
    def run():
        counters = {}
        report = lowerbound_experiment_continuous(400, 3.0, 70, rng_substream(21, 6), counters)
        return report, counters

    table_run = run()
    monkeypatch.setattr(profiles, "_KEY_TABLE_DEPTH", 0)
    assert run() == table_run


def test_leaf_past_the_key_depth_cap_raises_before_any_sign_is_drawn(monkeypatch):
    # caterpillars to depth 62 and 63 next to a two-leaf tree: 62 runs, while a
    # key at 63 would need 2^63, past int64
    for deepest in (62, 63):
        caterpillar = list(range(1, deepest + 1)) + [deepest]
        monkeypatch.setattr(
            yule, "sample_leaf_weights", lambda t, m, rng, leaf_cap: _leaf_set([1, 1], caterpillar)
        )
        rng = np.random.default_rng(3)
        if deepest == 62:
            assert lowerbound_experiment_continuous(400, 1.0, 2, rng).trees == 2
            continue
        state = rng.bit_generator.state
        with pytest.raises(CapacityError, match="depth 63"):
            lowerbound_experiment_continuous(400, 1.0, 2, rng)
        assert rng.bit_generator.state == state


def test_grown_group_over_the_byte_budget_raises_before_any_sign_is_drawn(monkeypatch):
    # two trees at t = 1 expect about 2.8 kB of sign keys, under a budget of
    # 10 kB, but a grown caterpillar's 63 leaves take 8 byte columns: with
    # the two-leaf tree's one, 37 kB
    caterpillar = list(range(1, 63)) + [62]
    monkeypatch.setattr(
        yule, "sample_leaf_weights", lambda t, m, rng, leaf_cap: _leaf_set([1, 1], caterpillar)
    )
    monkeypatch.setattr(profiles, "_LEAF_BYTES_BUDGET", 10_000)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(CapacityError, match="a grown group's sign keys"):
        lowerbound_experiment_continuous(400, 1.0, 2, rng)
    assert rng.bit_generator.state == state


def test_leaf_cap_stops_growth_and_a_cap_above_changes_nothing():
    # 40 trees at t = 2 grow 275 leaves on this substream
    def grow(cap):
        rng = rng_substream(5, 2)
        return sample_leaf_weights(2.0, 40, rng, leaf_cap=cap), rng.bit_generator.state

    (owner, weight, nodes, widest), state = grow(None)
    assert owner.size == 275
    for cap in (275, 10**6):
        (o, w, n_, wd), s = grow(cap)
        assert np.array_equal(o, owner) and np.array_equal(w, weight)
        assert (n_, wd, s) == (nodes, widest, state)
    with pytest.raises(CapacityError, match="over the cap of 274") as err:
        grow(274)
    assert 274 < err.value.stats["leaves"] <= 275
    with pytest.raises(CapacityError, match="over the cap of 10") as err:
        grow(10)
    assert err.value.stats["leaves"] < 275


def test_block_count_is_capped():
    # alpha = n // p blocks of 80 sites: the cap itself runs, one more raises
    cap = profiles._BLOCK_COUNT_CAP
    assert profiles._block_event(80 * cap, 80)[0] == cap
    with pytest.raises(CapacityError, match=f"block count {cap + 1} "):
        profiles._block_event(80 * (cap + 1), 80)


# -----------------------------------------------------------------------
# the continuous profile rows
# -----------------------------------------------------------------------


def test_continuous_profile_rows():
    # profile-continuous writes mixture_profile_tv at each window of one batch
    rng = rng_substream(21, 4)
    w = rng.exponential(size=400)
    tvs = [mixture_profile_tv(lam, w) for lam in (-1.0, 1.0)]
    assert tvs[0] > tvs[1]
    with pytest.raises(ConfigError, match="-1500"):
        mixture_profile_tv(-1500.0, w)
