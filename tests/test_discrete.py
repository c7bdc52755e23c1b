"""Discrete-time dynamics: collision operator, quenched oracle, fragmentation."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln

from recomblab import (
    CapacityError,
    collide_coeffs,
    collide_direct,
    collide_pmf,
    discrete_upper_bounds,
    evolve_discrete,
    fragmentation_time,
    fragmentation_times,
    mono_mixture_tv,
    monochromatic_pmf,
    point_mass,
    product_pmf,
    random_pmf,
    stationary_product,
    tv_distance,
    uniform_pmf,
    wht_forward,
)
from recomblab import discrete
from recomblab.cube import FourierTable, _biases, wht_inverse
from recomblab.discrete import PAIRS_AUTO_SITE_MAX, _disjoint_pair_tables
from recomblab.errors import DimensionMismatchError
from recomblab.streams import rng_substream


def test_collide_matches_direct_oracle():
    rng = np.random.default_rng(3)
    for n in (1, 2, 4, 7):
        a, b = random_pmf(n, rng), random_pmf(n, rng)
        fast = collide_pmf(a, b)
        slow = collide_direct(a, b)
        np.testing.assert_allclose(fast.weights, slow.weights, atol=1e-13)


def test_collide_is_symmetric_and_commutative_bitwise():
    rng = np.random.default_rng(4)
    a, b = random_pmf(5, rng), random_pmf(5, rng)
    ab = collide_pmf(a, b)
    ba = collide_pmf(b, a)
    np.testing.assert_array_equal(ab.weights, ba.weights)


@pytest.mark.parametrize("n", [6, 10, 12, 14])
def test_collide_ranked_path_agrees_with_pairs_path(n):
    # the whole range where both kernels run; the definitional oracle
    # joins where it is affordable
    rng = np.random.default_rng(5)
    a, b = random_pmf(n, rng), random_pmf(n, rng)
    fa, fb = wht_forward(a).coeffs, wht_forward(b).coeffs
    pairs = collide_coeffs(fa, fb, n, method="pairs")
    ranked = collide_coeffs(fa, fb, n, method="ranked")
    np.testing.assert_allclose(pairs, ranked, atol=1e-13)
    if n <= 10:
        direct = wht_forward(collide_direct(a, b)).coeffs
        np.testing.assert_allclose(pairs, direct, atol=1e-13)


def test_auto_collision_crossover_is_pinned():
    # pairs through n = 10, ranked from n = 11; the pair table of an
    # n = 11..14 collision is never built unless asked for
    assert PAIRS_AUTO_SITE_MAX == 10
    rng = np.random.default_rng(11)
    _disjoint_pair_tables.cache_clear()
    for n, kernel in ((10, "pairs"), (11, "ranked"), (12, "ranked")):
        f = wht_forward(random_pmf(n, rng)).coeffs
        g = wht_forward(random_pmf(n, rng)).coeffs
        np.testing.assert_array_equal(
            collide_coeffs(f, g, n), collide_coeffs(f, g, n, method=kernel)
        )
    _disjoint_pair_tables.cache_clear()
    for n in (11, 12):
        f = wht_forward(random_pmf(n, rng)).coeffs
        collide_coeffs(f, f, n)
    assert _disjoint_pair_tables.cache_info().misses == 0
    f = wht_forward(random_pmf(10, rng)).coeffs
    collide_coeffs(f, f, 10)
    assert _disjoint_pair_tables.cache_info().misses == 1


@pytest.mark.parametrize(
    "n, kernel",
    [(n, "pairs") for n in (4, 10, 12)] + [(n, "ranked") for n in (4, 10, 12, 16)],
)
def test_self_collision_shortcut_is_the_two_operand_path(n, kernel):
    # passing one array twice takes the shortcut; a copy takes the general path
    f = wht_forward(random_pmf(n, np.random.default_rng(n))).coeffs
    for start in (f, wht_forward(monochromatic_pmf(n)).coeffs):
        np.testing.assert_array_equal(
            collide_coeffs(start, start, n, kernel),
            collide_coeffs(start, start.copy(), n, kernel),
        )


@pytest.mark.parametrize("n", [1, 4, 10, 11, 12])
def test_row_collisions_are_the_per_row_calls(monkeypatch, n):
    # a cap of two rows' products collides five rows in blocks of 2, 2 and 1;
    # the last row pair is equal, which the per-row call takes as a
    # self-collision, and swapping the stacks changes no bit
    rng = np.random.default_rng(40 + n)
    f = np.array([wht_forward(random_pmf(n, rng)).coeffs for _ in range(5)])
    g = np.array([wht_forward(random_pmf(n, rng)).coeffs for _ in range(5)])
    g[-1] = f[-1]
    for kernel, row_terms in (("pairs", 3**n), ("ranked", (n + 1) << n)):
        monkeypatch.setattr(discrete, "_ROW_TERMS_CAP", 2 * row_terms)
        rows = collide_coeffs(f, g, n, kernel)
        selfs = collide_coeffs(f, f, n, kernel)
        for i in range(4):
            np.testing.assert_array_equal(rows[i], collide_coeffs(f[i], g[i], n, kernel))
        for i in range(5):
            np.testing.assert_array_equal(selfs[i], collide_coeffs(f[i], f[i], n, kernel))
        np.testing.assert_array_equal(rows[4], selfs[4])
        np.testing.assert_array_equal(collide_coeffs(g, f, n, kernel), rows)


def test_collide_halves_singletons_against_uniform():
    rng = np.random.default_rng(6)
    pmf = random_pmf(4, rng)
    out = collide_pmf(pmf, uniform_pmf(4))
    np.testing.assert_allclose(_biases(out), _biases(pmf) / 2.0, rtol=0, atol=1e-12)


def test_product_measures_are_fixed_points():
    rng = np.random.default_rng(8)
    biases = rng.uniform(-0.9, 0.9, size=4)
    prod = product_pmf(biases)
    once = collide_pmf(prod, prod)
    assert tv_distance(once, prod) < 1e-12


def test_self_collision_preserves_biases_exactly():
    rng = np.random.default_rng(9)
    pmf = random_pmf(5, rng)
    table = wht_forward(pmf)
    evolved = collide_coeffs(table.coeffs, table.coeffs, 5)
    for site in range(5):
        mask = 1 << site
        assert evolved[mask] == table.coeffs[mask]


def test_evolution_converges_to_bias_matched_product():
    rng = np.random.default_rng(10)
    pmf = random_pmf(4, rng)
    target = stationary_product(pmf)
    final = evolve_discrete(pmf, 40)
    assert tv_distance(final, target) < 1e-10


def _evolve_by_collisions(mu, checkpoints):
    """The weights after each checkpoint round of one collide_coeffs call per
    round: the oracle for evolve_discrete, which stays lifted between rounds."""
    coeffs = wht_forward(mu).coeffs
    states = {}
    for step in range(1, max(checkpoints) + 1):
        coeffs = collide_coeffs(coeffs, coeffs, mu.n)
        if step in checkpoints:
            states[step] = wht_inverse(FourierTable(mu.n, coeffs)).weights
    return states


@pytest.mark.parametrize("n", [11, 12, 16])
def test_evolve_discrete_from_mono_is_the_collision_loop_bit_for_bit(n):
    mono = monochromatic_pmf(n)
    for steps, oracle in _evolve_by_collisions(mono, (1, 8, 16, 30)).items():
        assert evolve_discrete(mono, steps).weights.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("n", [11, 12, 13, 14])
def test_evolve_discrete_from_random_start_matches_the_collision_loop(n):
    mu = random_pmf(n, np.random.default_rng(70 + n))
    oracle = _evolve_by_collisions(mu, (8,))[8]
    np.testing.assert_allclose(evolve_discrete(mu, 8).weights, oracle, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [4, 9, 10])
def test_evolve_discrete_with_pairs_is_the_collision_loop_bit_for_bit(n):
    # the pairs kernel has no lift, so nothing may change a bit
    for mu in (monochromatic_pmf(n), random_pmf(n, np.random.default_rng(80 + n))):
        for steps, oracle in _evolve_by_collisions(mu, (1, 8)).items():
            assert evolve_discrete(mu, steps).weights.tobytes() == oracle.tobytes()


def _full_ring(fn, *args):
    """`fn(*args)` with every ranked lift taken over all 2^n mask columns:
    the reference for the popcount-class path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discrete, "_class_values", lambda values, n: None)
        return fn(*args)


EXCHANGEABLE_STARTS = {"mono": monochromatic_pmf, "uniform": uniform_pmf}


@pytest.mark.parametrize("start", sorted(EXCHANGEABLE_STARTS))
@pytest.mark.parametrize("n", range(11, 17))
def test_evolve_discrete_on_popcount_classes_is_the_full_ring_bit_for_bit(n, start):
    mu = EXCHANGEABLE_STARTS[start](n)
    for steps in range(9):
        classes, full = {}, {}
        state = evolve_discrete(mu, steps, classes)
        reference = _full_ring(evolve_discrete, mu, steps, full)
        assert state.weights.tobytes() == reference.weights.tobytes()
        if steps:
            assert (classes, full) == ({"ring_columns": n + 1}, {"ring_columns": 1 << n})


@pytest.mark.parametrize("start", sorted(EXCHANGEABLE_STARTS))
@pytest.mark.parametrize("n", [11, 12])
def test_evolve_continuous_on_popcount_classes_is_the_full_ring_bit_for_bit(n, start):
    from recomblab import yule

    mu = EXCHANGEABLE_STARTS[start](n)
    classes, full = {}, {}
    state = yule.evolve_continuous(mu, 0.5, 0.01, classes)
    reference = _full_ring(yule.evolve_continuous, mu, 0.5, 0.01, full)
    assert state.weights.tobytes() == reference.weights.tobytes()
    assert classes["rk4_worst_coeff"] == full["rk4_worst_coeff"]
    assert (classes["ring_columns"], full["ring_columns"]) == (n + 1, 1 << n)


@pytest.mark.parametrize("n", [11, 12, 14])
def test_collide_pmf_on_popcount_classes_is_the_full_ring_bit_for_bit(n):
    # mono x uniform runs on n+1 columns; against a random pmf, mono's class
    # lift is expanded to the 2^n masks, and either order gives the same bits
    mono, other = monochromatic_pmf(n), random_pmf(n, np.random.default_rng(90 + n))
    for b, columns in ((uniform_pmf(n), n + 1), (other, 1 << n)):
        for pair in ((mono, b), (b, mono)):
            counters = {}
            out = collide_pmf(*pair, counters).weights.tobytes()
            assert out == _full_ring(collide_pmf, *pair).weights.tobytes()
            assert counters == {"ring_columns": columns}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ranked_collide_coeffs_on_popcount_classes_is_the_full_ring(n):
    # at n = 1 the two classes are the two masks, so both lifts are one array;
    # g is f takes the self-collision
    rng = np.random.default_rng(95 + n)
    starts = [
        wht_forward(pmf).coeffs
        for pmf in (monochromatic_pmf(n), uniform_pmf(n), random_pmf(n, rng))
    ]
    for f in starts:
        for g in starts:
            ring = collide_coeffs(f, g, n, "ranked")
            assert ring.tobytes() == _full_ring(collide_coeffs, f, g, n, "ranked").tobytes()


@pytest.mark.parametrize("nudge", ["one ulp", "negative zero"])
def test_a_start_off_its_popcount_classes_by_one_bit_takes_the_full_ring(nudge):
    n = 12
    coeffs = wht_forward(monochromatic_pmf(n)).coeffs.copy()
    # mask 0b101 has class representative 0b11, and mask 0b100 has 0b1; a
    # test by value would take -0.0 for 0.0
    assert (coeffs[0b11], coeffs[0b1]) == (1.0, 0.0) and not np.signbit(coeffs[0b1])
    if nudge == "one ulp":
        coeffs[0b101] = np.nextafter(1.0, 0.0)
    else:
        coeffs[0b100] = -0.0
    counters = {}
    out = collide_coeffs(coeffs, coeffs, n, counters=counters)
    assert counters == {"ring_columns": 1 << n}
    assert out.tobytes() == _full_ring(collide_coeffs, coeffs, coeffs, n).tobytes()


def test_trajectory_distances_decrease_eventually():
    pmf = monochromatic_pmf(6)
    target = stationary_product(pmf)
    dists = [tv_distance(evolve_discrete(pmf, t), target) for t in range(13)]
    assert dists[0] == pytest.approx(1.0 - 2.0 ** (1 - 6))
    assert dists[-1] < 1e-3
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))


def test_collide_capacity_cap():
    with pytest.raises(CapacityError):
        collide_coeffs(np.ones(2 ** 19), np.ones(2 ** 19), 19)


def _quenched_measures(mu, t, m, rng):
    """m draws of the t-step quenched representation, one weight row each.

    Each row is the product measure whose site biases are the averages of
    2^t i.i.d. leaf draws from mu; averaged over rows it is evolve_discrete.
    """
    leaves = discrete._draw_spins(mu, m << t, rng).reshape(m, 1 << t, mu.n)
    biases = leaves.mean(axis=1)
    spins = 2 * ((np.arange(1 << mu.n)[:, None] >> np.arange(mu.n)) & 1) - 1
    return np.prod((1.0 + biases[:, None, :] * spins) / 2.0, axis=2)


def test_quenched_environment_mean_is_evolved_measure():
    # E over environments of the quenched product equals t-step evolution
    n, t, m = 3, 2, 40_000
    rng = rng_substream(99, 1)
    mu = monochromatic_pmf(n)
    acc = _quenched_measures(mu, t, m, rng).mean(axis=0)
    exact = evolve_discrete(mu, t).weights
    # binomial-ish spread per cell; 4 sigma with a conservative variance cap
    sigma = 1.0 / math.sqrt(4.0 * m)
    assert np.abs(acc - exact).max() < 4.0 * sigma


# the per-round label loop that `fragmentation_times` replaces, kept as its
# oracle: every round appends one fair bit per site to the site's label
def _oracle_round(labels, t, rng):
    cap = discrete.FRAGMENTATION_STEP_CAP
    if t >= cap:
        raise CapacityError(f"label words are capped at {cap} splitting rounds", t=t)
    return (labels << np.uint64(1)) | rng.integers(0, 2, size=labels.size, dtype=np.uint64)


def _oracle_fragmentation_time(n, rng):
    if n < 1:
        raise DimensionMismatchError("labels must be a non-empty vector")
    labels, t = np.zeros(n, dtype=np.uint64), 0
    while np.unique(labels).size < n:
        labels, t = _oracle_round(labels, t, rng), t + 1
    return t


def _birthday_cdf(n, t):
    # P(T <= t): n sites carry distinct labels among 2^t equally likely ones
    return max(0.0, math.prod(1.0 - k * 2.0 ** (-t) for k in range(n)))


def _assert_birthday_law(times, n):
    # gates fixed before the first run: the mean within 4 standard errors,
    # and every cell with expected count >= 5 within 5 binomial SD
    trials = times.size
    cdf = np.array([_birthday_cdf(n, t) for t in range(200)])
    pmf = np.diff(cdf, prepend=0.0)
    ts = np.arange(cdf.size)
    mean = float((1.0 - cdf).sum())
    var = float(((2 * ts + 1) * (1.0 - cdf)).sum()) - mean**2
    assert abs(times.mean() - mean) <= 4.0 * math.sqrt(var / trials)
    counts = np.bincount(times, minlength=cdf.size)
    for t in np.flatnonzero(trials * pmf >= 5):
        sd = math.sqrt(trials * pmf[t] * (1.0 - pmf[t]))
        assert abs(counts[t] - trials * pmf[t]) <= 5.0 * sd, (n, t)


def test_fragmentation_labels_and_time():
    rng = rng_substream(99, 3)
    labels = _oracle_round(np.zeros(5, dtype=np.uint64), 0, rng)
    assert labels.max() <= 1
    assert fragmentation_time(5, rng) >= math.ceil(math.log2(5))
    assert fragmentation_times(1, 7, rng).tolist() == [0] * 7
    assert fragmentation_times(9, 0, rng).size == 0
    # the sorted-neighbour read equals the first round whose labels (the
    # words' top t bits) are all distinct
    cap = discrete.FRAGMENTATION_STEP_CAP
    words = rng_substream(99, 7).integers(0, 1 << cap, size=(300, 6), dtype=np.uint64)
    times = fragmentation_times(6, 300, rng_substream(99, 7))
    for row, time in zip(words, times.tolist()):
        first = next(
            t for t in range(cap + 1)
            if np.unique(row >> np.uint64(cap - t)).size == row.size
        )
        assert time == first


@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_fragmentation_times_follow_the_birthday_law(n):
    _assert_birthday_law(fragmentation_times(n, 20_000, rng_substream(99, 5)), n)


@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_fragmentation_oracle_follows_the_birthday_law(n):
    rng = rng_substream(99, 8)
    times = np.array([_oracle_fragmentation_time(n, rng) for _ in range(4000)])
    _assert_birthday_law(times, n)


def test_fragmentation_time_errors_match_the_state_loop(monkeypatch):
    monkeypatch.setattr(discrete, "FRAGMENTATION_STEP_CAP", 3)
    with pytest.raises(CapacityError) as err:
        fragmentation_time(64, rng_substream(99, 6))
    with pytest.raises(CapacityError) as batch_err:
        fragmentation_times(64, 10, rng_substream(99, 6))
    with pytest.raises(CapacityError) as oracle_err:
        _oracle_fragmentation_time(64, rng_substream(99, 6))
    assert err.value.stats == batch_err.value.stats == oracle_err.value.stats == {"t": 3}
    assert str(err.value) == str(batch_err.value) == str(oracle_err.value)
    with pytest.raises(DimensionMismatchError):
        fragmentation_time(0, rng_substream(99, 6))
    with pytest.raises(DimensionMismatchError):
        fragmentation_times(8, -1, rng_substream(99, 6))
    with pytest.raises(DimensionMismatchError):
        _oracle_fragmentation_time(0, rng_substream(99, 6))


def test_pair_separation_probability():
    # two fixed sites stay together with chance exactly 2^-t
    trials, t, hits = 20_000, 3, 0
    rng = rng_substream(99, 4)
    for _ in range(trials):
        labels = np.zeros(2, dtype=np.uint64)
        for step in range(t):
            labels = _oracle_round(labels, step, rng)
        hits += int(labels[0] == labels[1])
    p = 2.0 ** (-t)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert hits / trials == pytest.approx(p, abs=4 * sigma)


def test_mono_mixture_tv_matches_dense_evolution():
    for n, t in [(3, 0), (3, 2), (6, 3), (8, 5)]:
        mono = monochromatic_pmf(n)
        exact = tv_distance(evolve_discrete(mono, t), uniform_pmf(n))
        assert mono_mixture_tv(n, t) == pytest.approx(exact, abs=1e-12)


def _mono_mixture_tv_all_m(n: int, t: int) -> float:
    """Oracle: the mixture distance summed over every occupation count m.

    Same leaf-count truncation and log-space terms as `mono_mixture_tv`, but
    no occupation-count window; rows go in small chunks, which changes no
    row's value.
    """
    leaves = 1 << t
    half_width = math.sqrt(0.5 * leaves * math.log(2.0 / discrete._TRUNCATED_MASS))
    klo = max(1, math.ceil(leaves / 2 - half_width))
    khi = min(leaves - 1, math.floor(leaves / 2 + half_width))
    kept = max(0, khi - klo + 1)
    log_half = math.log(2.0)
    target = -n * log_half
    log_mean = np.full(n + 1, -np.inf)
    if kept > 0:
        k = np.arange(klo, khi + 1, dtype=np.float64)
        log_weight = (
            gammaln(leaves + 1)
            - gammaln(k + 1)
            - gammaln(leaves - k + 1)
            - leaves * log_half
        )
        log_up = np.log(k / leaves)
        log_down = np.log((leaves - k) / leaves)
        chunk = max(1, (1 << 20) // kept)
        for start in range(0, n + 1, chunk):
            m = np.arange(start, min(start + chunk, n + 1), dtype=np.float64)
            mat = log_weight[None, :] + m[:, None] * log_up[None, :]
            mat += (n - m)[:, None] * log_down[None, :]
            top = mat.max(axis=1)
            log_mean[start : start + m.size] = np.log(np.exp(mat - top[:, None]).sum(axis=1)) + top
    log_mean[0] = np.logaddexp(log_mean[0], -leaves * log_half)
    log_mean[n] = np.logaddexp(log_mean[n], -leaves * log_half)
    log_choose = (
        gammaln(n + 1)
        - gammaln(np.arange(n + 1) + 1.0)
        - gammaln(n - np.arange(n + 1) + 1.0)
    )
    hi = np.maximum(log_mean, target)
    with np.errstate(divide="ignore"):
        terms = np.exp(log_choose + hi + np.log(-np.expm1(-np.abs(log_mean - target))))
    return 0.5 * math.fsum(terms.tolist())


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 257, 1000, 4096, 10_000])
def test_mono_mixture_window_drops_at_most_the_certified_mass(n):
    for t in range(19):
        windowed = mono_mixture_tv(n, t)
        full = _mono_mixture_tv_all_m(n, t)
        assert abs(windowed - full) <= discrete._TRUNCATED_MASS, (n, t)
        if n == 4096 and 8 <= t <= 16:
            # the windows of `profile-discrete --n 4096` keep their bytes
            assert windowed == full, t


def test_mono_mixture_budget_counts_the_evaluated_cells(monkeypatch):
    with pytest.raises(CapacityError):
        mono_mixture_tv(5, 61)
    # the whole m-range of n = 10^6 would be 10^6 + 1 rows; the window that
    # is over budget at t = 30 is far narrower
    with pytest.raises(CapacityError) as big:
        mono_mixture_tv(10**6, 30)
    assert big.value.stats["counts"] < 10**5
    monkeypatch.setattr(discrete, "_MIXTURE_CELL_BUDGET", 0)
    with pytest.raises(CapacityError) as small:
        mono_mixture_tv(4096, 12)
    stats = small.value.stats
    cells = stats["counts"] * stats["kept_terms"]
    assert stats["counts"] < 4096 + 1
    monkeypatch.setattr(discrete, "_MIXTURE_CELL_BUDGET", cells - 1)
    with pytest.raises(CapacityError):
        mono_mixture_tv(4096, 12)
    monkeypatch.setattr(discrete, "_MIXTURE_CELL_BUDGET", cells)
    assert mono_mixture_tv(4096, 12) == _mono_mixture_tv_all_m(4096, 12)


# block sizes in cells, from the (K, m) window: one row per block, a last
# block of a single row, and one block for the whole window
BLOCK_CELLS = {
    "one-cell": lambda window: 1,
    "one-row-left-over": lambda window: window.kept * (window.counts - 1),
    "whole-window": lambda window: window.cells,
}


@pytest.mark.parametrize("blocks", sorted(BLOCK_CELLS))
def test_mono_mixture_blocks_change_no_bit(monkeypatch, blocks):
    cases = (
        [(4096, t) for t in range(12, 17)]
        + [(17, t) for t in range(3, 16)]
        + [(257, t) for t in range(19)]
    )
    default = {case: mono_mixture_tv(*case) for case in cases}
    for n, t in cases:
        window = discrete.mixture_window(n, t)
        cells = max(1, BLOCK_CELLS[blocks](window))
        monkeypatch.setattr(discrete, "_MIXTURE_CHUNK_CELLS", cells)
        assert mono_mixture_tv(n, t) == default[n, t], (n, t)


def test_mono_mixture_working_set_is_two_blocks():
    # two float64 blocks of 2^17 cells trace about 2.2 MB; logsumexp's
    # broadcast temporaries and copies traced 49 MB
    mono_mixture_tv(4096, 16)
    tracemalloc.start()
    try:
        mono_mixture_tv(4096, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8_000_000, peak


def test_mono_mixture_tv_edges():
    assert mono_mixture_tv(5, 0) == pytest.approx(1.0 - 2.0 ** (1 - 5))
    assert mono_mixture_tv(1, 4) == pytest.approx(0.0, abs=1e-14)
    big = mono_mixture_tv(10_000, 10)
    assert 0.0 < big < 1.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the log leaf weights gammaln(N+1) - gammaln(k+1) - gammaln(N-k+1) "
        "cancel terms of size N ln N, whose ulp is about 3.8e-6 at N = 2^30: "
        "mono_mixture_tv(2, 30) returns 6.66e-7 against 4.66e-10, and every "
        "case here is off by a factor of 950 or more"
    ),
)
def test_mono_mixture_tv_at_large_t_matches_closed_forms():
    # after t steps the distance is 2^-(t+1) for two sites, 3 2^-(t+2) for three
    cases = [
        (n, t, exact)
        for t in (30, 36)
        for n, exact in ((2, 2.0 ** -(t + 1)), (3, 3 * 2.0 ** -(t + 2)))
    ]
    rel = [abs(mono_mixture_tv(n, t) / exact - 1.0) for n, t, exact in cases]
    assert max(rel) <= 1e-6, rel


def test_discrete_upper_bounds_scaling():
    b = discrete_upper_bounds(1024, 10)
    assert b.scale == pytest.approx(1.0)
    assert b.site_union_bound == pytest.approx(1.0)
    # above scale 1 the site bound is capped at the largest distance
    assert discrete_upper_bounds(1024, 8).site_union_bound == 1.0
    assert b.plateau_bound == pytest.approx(1.0 - math.exp(-2.0) / 2.0)
    # below the plateau validity threshold the bound is withheld
    small = discrete_upper_bounds(1024, 12)
    assert small.scale == pytest.approx(0.25)
    assert small.plateau_bound is None


def test_point_mass_start_is_monochromatic_shift():
    # a point start keeps each site bias fixed at +-1 forever
    start = point_mass(3, 0b101)
    out = evolve_discrete(start, 6)
    np.testing.assert_allclose(
        _biases(out), [1.0, -1.0, 1.0], atol=1e-12
    )
