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
    gaussian_tv_complement,
    l1_from_l2_bound,
    lowerbound_experiment_continuous,
    lowerbound_experiment_discrete,
    martingale_samples,
    mixture_profile_tv,
    mono_mixture_tv,
    mono_tv_large_n_limit,
    two_valued_extremal_density,
)
from recomblab import profiles
from recomblab.errors import ConfigError, InvalidDistributionError
from recomblab.streams import rng_substream


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
        assert gaussian_tv(s) + gaussian_tv_complement(s) == pytest.approx(
            1.0, abs=1e-12
        )


@pytest.mark.parametrize("s", [-1.0, math.nan, math.inf, -math.inf])
def test_gaussian_tv_rejects_a_scale_that_is_not_finite_and_nonnegative(s):
    for profile in (gaussian_tv, gaussian_tv_complement):
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
    assert mono_tv_large_n_limit(0) == pytest.approx(1.0)
    assert mono_tv_large_n_limit(1) == pytest.approx(0.5)
    assert mono_tv_large_n_limit(2) == pytest.approx(0.625)
    assert mono_tv_large_n_limit(3) == pytest.approx(0.7265625)


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
        assert check.holds
        assert check.l1_half <= check.bound + 1e-12


def test_l1_l2_bound_equality_families():
    # half-mass two-valued densities meet the linear branch exactly
    for dev in (0.25, 0.7, 1.0):
        probs, density = two_valued_extremal_density(0.5, dev)
        check = check_l1_l2_bound(probs, density)
        assert check.holds
        assert check.l1_half == pytest.approx(check.bound, abs=1e-12)
    # a vanishing-density cell of weight v >= 1/2 meets the other branch
    probs = np.array([0.75, 0.25])
    density = np.array([0.0, 4.0])
    check = check_l1_l2_bound(probs, density)
    assert check.holds
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
    # the public scipy.special law against scipy.stats.binom; the gates were
    # fixed before the first run
    probs = _binom_probs()
    support = np.arange(p + 1)[:, None]
    _assert_close(
        profiles._binom_pmf(support, p, probs), binom.pmf(support, p, probs), 1e-10, 1e-100
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


class _NumpyWithoutDedup:
    """numpy, except that `unique` keeps every draw in place."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def unique(values, return_inverse=False):
        assert return_inverse
        return values, np.arange(values.size)


def test_continuous_block_report_equals_per_draw_evaluation(monkeypatch):
    # the tail is evaluated once per distinct bias; evaluating it once per
    # sign draw, as the oracle does, must give the same report exactly
    def run():
        return lowerbound_experiment_continuous(400, 1.0, 120, rng_substream(21, 3))

    evaluated = []
    tail = profiles._square_tail_given_bias

    def counting_tail(p, up, threshold):
        evaluated.append(np.size(up))
        return tail(p, up, threshold)

    monkeypatch.setattr(profiles, "_square_tail_given_bias", counting_tail)
    report = run()
    per_tree = evaluated[1:]
    assert len(per_tree) == 120 and sum(per_tree) < 120 * 2048
    monkeypatch.setattr(profiles, "np", _NumpyWithoutDedup())
    assert report == run()


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
