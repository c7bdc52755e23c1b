"""The numpy binomial law: exact rationals, scipy.stats, batch invariance, types."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from recomblab import binomial, profiles
from recomblab.streams import rng_substream


def _exact_terms(n, q):
    """Numerators of C(n, B) q^B (1 - q)^(n - B), B = 0..n, over their common denominator.

    q = a/d exactly; each numerator follows from the last by an exact integer
    ratio (n - B) a / ((B + 1) (d - a)).
    """
    q = Fraction(q)
    a, d = q.numerator, q.denominator
    c = d - a
    if c == 0:
        return [0] * n + [1], 1
    terms = [c**n]
    for b in range(n):
        terms.append(terms[-1] * (n - b) * a // ((b + 1) * c))
    return terms, d**n


def _event_boundaries(p):
    """(p + s)/2 and (p - s)/2 for the threshold 20p, as the block experiments use."""
    s = math.isqrt(20 * p)
    s += s * s < 20 * p
    s += (s - p) % 2
    return (p + s) // 2, (p - s) // 2


@pytest.mark.parametrize("p", [598, 640, 1280])
def test_tails_match_exact_rational_sums(p):
    # gate, fixed before the first run: 1e-14 relative
    b_hi, b_lo = _event_boundaries(p)
    rng = rng_substream(28, p)
    near = [k / p + e / p for k in (b_hi, b_lo) for e in (-0.5, 0.0, 0.5)]
    probs = np.concatenate([rng.uniform(size=10), rng.normal(0.5, 0.05, size=10), near])
    ks = (b_hi, b_lo, p // 3, 2 * p // 3)
    upper = [binomial.upper_tail(k, p, probs).tolist() for k in ks]
    lower = [binomial.lower_tail(k, p, probs).tolist() for k in ks]
    for i, q in enumerate(probs.tolist()):
        terms, denominator = _exact_terms(p, q)
        for k, up, low in zip(ks, upper, lower):
            for value, exact in ((up[i], sum(terms[k:])), (low[i], sum(terms[: k + 1]))):
                if exact / denominator >= 1e-290:
                    # |value - exact| / exact in integers: no gcd of huge numbers
                    num, den = value.as_integer_ratio()
                    gap = abs(num * denominator - exact * den) / (exact * den)
                    assert gap <= 1e-14, (p, k, q, gap)


def _assert_close(value, oracle):
    # the gates of test_profiles.py::test_binomial_law_matches_scipy_stats
    gap = np.abs(value - oracle)
    assert (gap <= 1e-10 * np.abs(oracle) + 1e-100).all(), float((gap / np.abs(oracle)).max())


def test_large_n_and_edge_biases_match_scipy_stats():
    # C(2000, 1000) ~ 2e600 overflows a float; the law must not
    p = 2000
    probs = np.concatenate([[0.0, 1.0, 0.5, 1e-12, 1.0 - 1e-12], rng_substream(28, 1).uniform(size=40)])
    support = np.arange(p + 1)[:, None]
    _assert_close(binomial.pmf(support, p, probs), binom.pmf(support, p, probs))
    for k in (-1, 0, 1, 700, 1000, 1300, 1999, 2000, 2001):
        _assert_close(binomial.upper_tail(k, p, probs), binom.sf(k - 1, p, probs))
        _assert_close(binomial.lower_tail(k, p, probs), binom.cdf(k, p, probs))


@pytest.mark.parametrize("p", [5, 598, 1280])
def test_each_value_is_the_same_alone_and_in_a_batch(p):
    # a value depends on its own bias alone, so deduplicating or grouping
    # biases cannot move a bit
    probs = np.concatenate([[0.0, 1.0, 0.5], rng_substream(28, 2).uniform(size=197)])
    b_hi, b_lo = _event_boundaries(p) if p > 20 else (4, 1)
    laws = [
        lambda q, k=k, law=law: law(k, p, q)
        for k in (b_hi, b_lo)
        for law in (binomial.upper_tail, binomial.lower_tail)
    ] + [lambda q: binomial.pmf(b_hi, p, q)]
    for law in laws:
        batch = law(probs)
        assert np.array_equal(law(probs[::-1])[::-1], batch)
        alone = [law(q) for q in probs.tolist()]
        assert all(type(value) is float for value in alone)
        assert np.array_equal(np.array(alone), batch)


@pytest.mark.parametrize("law", [binomial.upper_tail, binomial.lower_tail, binomial.pmf])
@pytest.mark.parametrize("k", [-1, 0, 3, 10, 11])
@pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
def test_scalar_in_float_out(law, k, q):
    # every branch: outside the support, at its ends, inside, and the edge biases
    assert type(law(k, 10, q)) is float


@pytest.mark.parametrize("threshold", [0, 598 * 598 + 1])
def test_square_tail_of_a_scalar_is_a_float(threshold):
    # threshold 0 is the sure event, and above p^2 the empty one
    tail = profiles._square_tail_given_bias(598, 0.5, threshold)
    assert type(tail) is float and tail == (1.0 if threshold == 0 else 0.0)
