"""The binomial law on numpy and `math` alone: pmf and both tails.

Every value is built from a boundary term C(n, k) u^k (1-u)^(n-k): the
binomial coefficient comes from its prime factorization, to 128 bits, and the powers from
`np.power` on `np.frexp` mantissas, with every exponent carried as an
integer, so no factor under- or overflows at any n.  The rounded 1 - u is
corrected by its exact residual, so (1 - u)^(n-k) keeps full relative
accuracy for large n - k.

A tail is summed away from the mode, where its terms only decrease, by
Horner's rule from its far end; where the mode lies inside the tail, one
minus the other side is returned instead, which is then at least about 1/2.
The number of terms summed depends on n alone (see `_terms`), so each value
depends only on its own bias: alone or inside a batch, the bits agree.

Scalar in, float out; an array of biases in, an array of the same shape out.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# np.power pieces: 0.5^1000 is still a normal float, so the power of a
# mantissa in [1/2, 1) to at most this exponent cannot underflow
_POWER_PIECE = 1000
# prime powers multiplied exactly before each truncation to 128 bits
_ANCHOR_CHUNK = 32


def _terms(n: int) -> int:
    """Terms an outward sum keeps: the ones it drops total below 2^-64 of the first.

    From the mode m on, T(m+i)/T(m) <= (n+1) exp(-2 (i-1)^2 / n), by
    Hoeffding's inequality and T(m) >= 1/(n+1); log-concavity carries that
    bound to every boundary beyond the mode, and n such terms stay below
    2^-64 once 2 (i-1)^2 / n >= 64 ln 2 + 2 ln(n+1).
    """
    return 2 + math.isqrt(math.ceil(n * (32.0 * math.log(2.0) + math.log(n + 1.0))))


def _complement(u: np.ndarray):
    """1 - u as v (1 + rel): v the rounded difference, rel its exact residual over v.

    1 - v and (1 - v) - u are exact (Fast2Sum), and the residual is nonzero
    only where v > 1/2.
    """
    v = 1.0 - u
    return v, ((1.0 - v) - u) / np.maximum(v, 0.5)


def _power(base: np.ndarray, k):
    """base^k as a mantissa in [1/2, 1) (or 0) and an integer exponent.

    With m the mantissa of base, m^k = m^(k mod P) (m^P)^(k div P) for
    P = `_POWER_PIECE`, the second factor by the same rule.
    """
    mant, exp = np.frexp(base)
    k = np.asarray(k, dtype=np.int64)
    whole, rest = np.divmod(k, _POWER_PIECE)
    out, total = np.frexp(np.power(mant, rest))
    total = total + exp.astype(np.int64) * k
    if np.any(whole):
        pieces, shift = _power(np.power(mant, _POWER_PIECE), whole)
        out, e = np.frexp(out * pieces)
        total = total + shift + e
    return out, total


@functools.lru_cache(maxsize=4)
def _primes(n: int) -> np.ndarray:
    """The primes up to n, read-only: one sieve per n, whatever the k of C(n, k)."""
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    primes = np.flatnonzero(sieve)
    primes.flags.writeable = False
    return primes


@functools.lru_cache(maxsize=64)
def _comb_anchor(n: int, k: int):
    """C(n, k) as an integer mant < 2^128 and a shift: C = mant 2^shift (1 + O(n 2^-127)).

    The product of its prime powers (Legendre's formula), truncated to 128
    bits after each chunk of factors: math.comb's time grows with the square
    of n (3.4 s at n = 2^19).
    """
    primes = _primes(n)
    exps = np.zeros_like(primes)
    power = primes.copy()
    live = power <= n
    while live.any():
        pw = power[live]
        exps[live] += n // pw - k // pw - (n - k) // pw
        power[live] *= primes[live]
        live = power <= n
    factors = [p**e for p, e in zip(primes[exps > 0].tolist(), exps[exps > 0].tolist())]
    mant, shift = 1, 0
    for i in range(0, len(factors), _ANCHOR_CHUNK):
        mant *= math.prod(factors[i : i + _ANCHOR_CHUNK])
        extra = max(mant.bit_length() - 128, 0)
        mant, shift = mant >> extra, shift + extra
    return mant, shift


def _comb(n: int, k):
    """C(n, k) for each k (0 outside 0..n), as mantissas and exponents.

    The first k inside 0..n comes from `_comb_anchor`, and each later one by
    C(n, j+1) = C(n, j) (n-j)/(j+1) in integers, truncated to 128 bits.
    """
    k = np.asarray(k, dtype=np.int64)
    distinct, index = np.unique(k, return_inverse=True)
    mant, exp = np.zeros(distinct.size), np.zeros(distinct.size, dtype=np.int64)
    inside = np.flatnonzero((distinct >= 0) & (distinct <= n)).tolist()
    if inside:
        j = int(distinct[inside[0]])
        big, shift = _comb_anchor(n, j)
        for i in inside:
            while j < distinct[i]:
                big = (big * (n - j) << 64) // (j + 1)
                extra = max(big.bit_length() - 128, 0)
                big, shift, j = big >> extra, shift + extra - 64, j + 1
            extra = max(big.bit_length() - 64, 0)
            mant[i], e = math.frexp(float(big >> extra))
            exp[i] = e + shift + extra
    return mant[index].reshape(k.shape), exp[index].reshape(k.shape)


def _term(k, n: int, u: np.ndarray, v: np.ndarray, rel: np.ndarray):
    """C(n, k) u^k (1-u)^(n-k) as a mantissa and an exponent, 1 - u = v (1 + rel)."""
    cm, ce = _comb(n, k)
    # outside 0..n the coefficient is 0, whatever the clipped powers are
    k = np.clip(k, 0, n)
    um, ue = _power(u, k)
    vm, ve = _power(v, n - k)
    return cm * um * vm * np.exp((n - k) * rel), ce + ue + ve


def _outward_sum(b: int, n: int, u: np.ndarray, up: bool) -> np.ndarray:
    """The sum of the terms from b on, away from the mode: up to n, or down to 0.

    Horner's rule from the far end, over the first `_terms(n)` terms.
    """
    v, rel = _complement(u)
    h = np.ones_like(u)
    count = min(n - b if up else b, _terms(n) - 1)
    if count:
        if up:
            # T(j+1) / T(j) = (n-j)/(j+1) * u/(1-u)
            x = u / v
            x -= x * rel
            ratios = range(b + count - 1, b - 1, -1)
        else:
            # T(j-1) / T(j) = j/(n-j+1) * (1-u)/u
            x = v / u
            x += x * rel
            ratios = range(b - count + 1, b + 1)
        for j in ratios:
            h *= x
            h *= (n - j) / (j + 1) if up else j / (n - j + 1)
            h += 1.0
    mant, exp = _term(b, n, u, v, rel)
    return np.ldexp(mant * h, exp)


def _tail(k: int, n: int, q, upper: bool):
    u = np.asarray(q, dtype=np.float64)
    flat = u.reshape(-1)
    if upper and k <= 0 or not upper and k >= n:
        out = np.ones_like(flat)
    elif upper and k > n or not upper and k < 0:
        out = np.zeros_like(flat)
    else:
        out = np.empty_like(flat)
        # the mode lies outside {B >= k} where k > n u, and outside {B <= k}
        # where k < n u
        direct = k > n * flat if upper else k < n * flat
        if direct.any():
            out[direct] = _outward_sum(k, n, flat[direct], upper)
        if not direct.all():
            other = k - 1 if upper else k + 1
            out[~direct] = 1.0 - _outward_sum(other, n, flat[~direct], not upper)
    return out.reshape(u.shape) if u.ndim else float(out[0])


def upper_tail(k: int, n: int, q):
    """P(B >= k) for B ~ Binomial(n, q), at each bias q."""
    return _tail(k, n, q, upper=True)


def lower_tail(k: int, n: int, q):
    """P(B <= k) for B ~ Binomial(n, q), at each bias q."""
    return _tail(k, n, q, upper=False)


def pmf(k, n: int, q):
    """P(B = k) for B ~ Binomial(n, q), 0 outside 0..n; k and q broadcast."""
    k, u = np.broadcast_arrays(np.asarray(k, dtype=np.int64), np.asarray(q, dtype=np.float64))
    flat_u = u.reshape(-1)
    v, rel = _complement(flat_u)
    mant, exp = _term(k.reshape(-1), n, flat_u, v, rel)
    out = np.ldexp(mant, exp)
    return out.reshape(u.shape) if u.ndim else float(out[0])
