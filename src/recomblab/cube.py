"""Dense probability measures on the spin cube {-1,+1}^n and their Walsh transform.

Configurations are encoded as integers: bit i of the index is set exactly when
site i+1 carries spin +1.  A measure is a length-2^n weight vector (`Pmf`);
its character expansion is a length-2^n coefficient vector (`FourierTable`)
indexed by subsets of sites, also as bitmasks.  With chi_S(sigma) equal to the
product of the spins on S, the two are linked by

    coeffs[S] = sum_sigma weights[sigma] * chi_S(sigma)
    weights[sigma] = 2^-n * sum_S coeffs[S] * chi_S(sigma)

Both directions are computed with an in-place butterfly in O(n 2^n).  The
same butterfly, with another update per pair of entries, gives the zeta and
Moebius transforms of the ranked collision kernel in `discrete`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CapacityError,
    DimensionMismatchError,
    InvalidDistributionError,
)

DENSE_SITE_CAP = 24
WEIGHT_SUM_TOL = 1e-12
NEGATIVE_WEIGHT_TOL = -1e-9
# the empty-set coefficient of a table, and the sum of the weights rebuilt
# from one, must lie within this of 1
EMPTY_COEFF_TOL = 1e-9


def _check_sites(n: int) -> None:
    if not isinstance(n, (int, np.integer)):
        raise DimensionMismatchError(f"site count must be an integer, got {n!r}")
    if n < 1:
        raise DimensionMismatchError(f"need at least one site, got n={n}")
    if n > DENSE_SITE_CAP:
        raise CapacityError(
            f"dense mode is capped at n={DENSE_SITE_CAP} sites, got n={n}"
        )


def _as_vector(values, n: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != (1 << n):
        raise DimensionMismatchError(
            f"expected a vector of length 2^{n}={1 << n}, got shape {arr.shape}"
        )
    return arr


@dataclass(frozen=True)
class Pmf:
    """Probability weights over all 2^n configurations (immutable)."""

    n: int
    weights: np.ndarray

    def __post_init__(self):
        _check_sites(self.n)
        arr = _as_vector(self.weights, self.n)
        if not np.isfinite(arr).all():
            raise InvalidDistributionError("non-finite weight")
        lo = arr.min()
        if lo < NEGATIVE_WEIGHT_TOL:
            raise InvalidDistributionError(
                f"negative weight {lo:.3e} below tolerance {NEGATIVE_WEIGHT_TOL}"
            )
        if lo < 0.0:
            # round-off from a transform; clip, the mass involved is <= 1e-9
            arr = np.where(arr < 0.0, 0.0, arr)
        total = float(arr.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidDistributionError(
                f"weights sum to {total!r}, outside 1 +/- {WEIGHT_SUM_TOL}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "weights", arr)


@dataclass(frozen=True)
class FourierTable:
    """Character coefficients of a signed measure, indexed by subset bitmask."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        _check_sites(self.n)
        arr = _as_vector(self.coeffs, self.n).copy()
        if not np.isfinite(arr).all():
            raise InvalidDistributionError("non-finite coefficient")
        if abs(arr[0] - 1.0) > EMPTY_COEFF_TOL:
            raise InvalidDistributionError(
                f"empty-set coefficient must be 1, got {arr[0]!r}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)


def _butterfly(values: np.ndarray, n: int, hi_op, lo_op=None) -> None:
    """Per site, in place on every 2^n-long block of the C-contiguous `values`:
    hi <- hi_op(hi, lo) and, given `lo_op`, lo <- lo_op(lo, hi), both from
    the old pair.

    (np.subtract, np.add) is the forward Walsh transform, (w_minus, w_plus)
    -> (w_minus + w_plus, w_plus - w_minus), and (np.add, np.subtract) its
    inverse without the final 2^-n scaling; np.add alone is the sum over
    submasks (zeta transform) and np.subtract alone its inverse (Moebius).
    The ops are ufuncs, so no product is formed.  Half-widths 2 and 4 run as
    that many strided 1-D updates: the blocked (rows, 2, h) view would make
    numpy loop over h innermost, several times slower at those widths.  Each
    entry gets the same single update either way, so a stack of blocks gets
    exactly the operations each block would alone.
    """
    flat = values.reshape(-1)
    for i in range(n):
        h = 1 << i
        if h in (2, 4):
            halves = [(flat[k :: 2 * h], flat[k + h :: 2 * h]) for k in range(h)]
        else:
            blk = flat.reshape(-1, 2, h)
            halves = [(blk[:, 0, :], blk[:, 1, :])]
        for lo, hi in halves:
            if lo_op is None:
                hi_op(hi, lo, out=hi)
            else:
                old = lo.copy()
                lo_op(lo, hi, out=lo)
                hi_op(hi, old, out=hi)


def wht_forward(pmf: Pmf) -> FourierTable:
    """Character coefficients of a pmf.

    The empty-set coefficient is the total mass, identically 1 for any pmf,
    and is pinned to exactly 1.0 so it never carries the round-off of the
    weight sum into downstream products.
    """
    coeffs = pmf.weights.copy()
    _butterfly(coeffs, pmf.n, np.subtract, np.add)
    coeffs[0] = 1.0
    return FourierTable(pmf.n, coeffs)


def wht_inverse(table: FourierTable) -> Pmf:
    """Reconstruct the weight vector from character coefficients.

    The weights sum to the empty-set coefficient up to round-off, so the
    vector is renormalized by its computed sum as long as that sum stays
    within EMPTY_COEFF_TOL; a larger deviation raises.  Round-off
    may also leave weights slightly negative; anything below -1e-9 is a
    genuine invalidity and raises, smaller dips are clipped by `Pmf`.
    """
    raw = table.coeffs.copy()
    _butterfly(raw, table.n, np.add, np.subtract)
    raw /= float(1 << table.n)
    total = float(raw.sum())
    if not abs(total - 1.0) <= EMPTY_COEFF_TOL:
        raise InvalidDistributionError(
            f"reconstructed weights sum to {total!r}, outside 1 +/- {EMPTY_COEFF_TOL}"
        )
    return Pmf(table.n, raw / total)


def tv_distance(a: Pmf, b: Pmf) -> float:
    """Total variation distance, half the L1 distance between weight vectors."""
    if a.n != b.n:
        raise DimensionMismatchError("measures live on different cubes")
    return 0.5 * float(np.abs(a.weights - b.weights).sum())


def _biases(pmf: Pmf) -> np.ndarray:
    """Expected spin at each site, site i+1 at entry i."""
    blocks = (pmf.weights.reshape(-1, 2, 1 << i) for i in range(pmf.n))
    return np.array([blk[:, 1, :].sum() - blk[:, 0, :].sum() for blk in blocks])


def product_pmf(biases) -> Pmf:
    """Product measure with the given per-site biases (site i drawn with
    mean ``biases[i-1]``, independently)."""
    b = np.asarray(biases, dtype=np.float64)
    if b.ndim != 1 or b.size < 1:
        raise DimensionMismatchError("biases must be a non-empty vector")
    if np.abs(b).max() > 1.0 + 1e-12:
        raise InvalidDistributionError("biases must lie in [-1, 1]")
    b = np.clip(b, -1.0, 1.0)
    _check_sites(b.size)
    return Pmf(b.size, _product_weight_rows(b[None, :])[0])


def product_fourier(biases) -> FourierTable:
    """Character table of the product measure: coeffs[S] = prod of biases on S."""
    b = np.asarray(biases, dtype=np.float64)
    _check_sites(b.size)
    return FourierTable(b.size, _product_coeff_rows(b[None, :])[0])


def _product_weight_rows(biases: np.ndarray) -> np.ndarray:
    """Weights of the product measure of each row of a (k, n) bias array."""
    weights = np.ones((biases.shape[0], 1))
    for b in biases.T[:, :, None]:
        weights = np.concatenate(((1.0 - b) / 2.0 * weights, (1.0 + b) / 2.0 * weights), axis=1)
    return weights


def _product_coeff_rows(biases: np.ndarray) -> np.ndarray:
    """Character coefficients of the product measure of each row of biases.

    Built by doubling from the highest site down, so every product runs from
    the highest site to the lowest and singletons reproduce the biases exactly.
    """
    coeffs = np.ones((biases.shape[0], 1))
    for b in biases.T[::-1, :, None]:
        coeffs = np.stack((coeffs, coeffs * b), axis=2).reshape(biases.shape[0], -1)
    return coeffs


def stationary_product(pmf: Pmf) -> Pmf:
    """Product measure sharing the pmf's site biases (its dynamics fixed point)."""
    return product_pmf(_biases(pmf))


def uniform_pmf(n: int) -> Pmf:
    _check_sites(n)
    return Pmf(n, np.full(1 << n, 1.0 / (1 << n)))


def point_mass(n: int, bits: int) -> Pmf:
    _check_sites(n)
    if not 0 <= bits < (1 << n):
        raise DimensionMismatchError(f"bits={bits} out of range for n={n}")
    w = np.zeros(1 << n)
    w[bits] = 1.0
    return Pmf(n, w)


def monochromatic_pmf(n: int) -> Pmf:
    """Equal mixture of the all-plus and all-minus configurations."""
    _check_sites(n)
    w = np.zeros(1 << n)
    w[0] = 0.5
    w[(1 << n) - 1] = 0.5
    return Pmf(n, w)


def random_pmf(n: int, rng: np.random.Generator) -> Pmf:
    """Random strictly positive measure (normalized exponential weights)."""
    _check_sites(n)
    raw = rng.exponential(size=1 << n) + 1e-3
    return Pmf(n, raw / raw.sum())


def random_balanced_pmf(n: int, rng: np.random.Generator) -> Pmf:
    """Random strictly positive measure symmetrised under the global spin flip,
    hence with every site bias equal to zero."""
    _check_sites(n)
    raw = rng.exponential(size=1 << n) + 1e-3
    raw /= raw.sum()
    flipped = raw[::-1]  # index -> complement is exactly the reversal
    return Pmf(n, (raw + flipped) / 2.0)


@lru_cache(maxsize=32)
def popcount_table(n: int) -> np.ndarray:
    """Number of set bits for every index below 2^n (read-only)."""
    idx = np.arange(1 << n, dtype=np.int64)
    counts = np.zeros(1 << n, dtype=np.int8)
    while idx.any():
        counts += (idx & 1).astype(np.int8)
        idx >>= 1
    counts.flags.writeable = False
    return counts

