"""Continuous-time dynamics: branching trees, martingale samplers, spinal law."""

import csv
import io
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps

from recomblab import (
    CapacityError,
    NumericalInvariantError,
    Pmf,
    collide_coeffs,
    double_quenched_estimate,
    evolve_continuous,
    lowerbound_experiment_continuous,
    martingale_limit_samples,
    martingale_samples,
    monochromatic_pmf,
    product_pmf,
    random_pmf,
    sample_yule,
    spinal_identity_check,
    stationary_product,
    tail_probability_from_samples,
    tv_distance,
    wht_forward,
    wild_mc_estimate,
)
from recomblab import cli, yule
from recomblab.cube import FourierTable, _biases, wht_inverse
from recomblab.streams import rng_substream


# -----------------------------------------------------------------------
# trees
# -----------------------------------------------------------------------


def test_tree_structure_invariants():
    rng = rng_substream(11, 0)
    for _ in range(50):
        tree = sample_yule(2.0, rng)
        ids = np.arange(tree.num_nodes)
        interior = tree.children[:, 0] >= 0
        # children always come after their parent
        assert (tree.children[interior] > ids[interior, None]).all()
        assert (tree.parent[1:] < ids[1:]).all()
        assert tree.parent[0] == -1
        assert (tree.birth_time >= 0).all()
        assert (tree.birth_time <= 2.0).all()
        # halving weights over leaves always telescope to exactly one
        assert math.fsum(np.ldexp(1.0, -tree.depth[tree.leaves])) == 1.0
        # wave layout: depths never decrease along the node ids
        assert (np.diff(tree.depth) >= 0).all()
        assert (tree.depth[1:] == tree.depth[tree.parent[1:]] + 1).all()


def test_tree_leaf_count_is_geometric():
    # leaf count at horizon t is geometric with mean e^t
    rng = rng_substream(11, 1)
    t, m = 1.5, 4000
    counts = np.array([sample_yule(t, rng).leaves.size for _ in range(m)])
    p = math.exp(-t)
    mean, var = 1.0 / p, (1.0 - p) / p ** 2
    z = (counts.mean() - mean) / math.sqrt(var / m)
    assert abs(z) < 4.0
    # geometric tail: P(N > k) = (1-p)^k
    k = 5
    emp = (counts > k).mean()
    expect = (1 - p) ** k
    sigma = math.sqrt(expect * (1 - expect) / m)
    assert emp == pytest.approx(expect, abs=4 * sigma)


def test_tree_capacity_cap(monkeypatch):
    monkeypatch.setattr(yule, "MAX_LEAVES", 64)
    rng = rng_substream(11, 2)
    with pytest.raises(CapacityError):
        for _ in range(50):
            sample_yule(12.0, rng)


def test_two_leaf_wave_collides_to_one_self_collision():
    # a root that split once: two leaf lineages in the wave below it
    rng = rng_substream(11, 3)
    base = wht_forward(random_pmf(3, rng)).coeffs
    root = yule._collide_waves([np.array([True]), np.array([False, False])], base, 3)
    assert np.array_equal(root, collide_coeffs(base, base, 3)[None, :])


# -----------------------------------------------------------------------
# deterministic continuous evolution
# -----------------------------------------------------------------------


def test_continuous_product_fixed_point():
    rng = rng_substream(11, 6)
    prod = product_pmf(rng.uniform(-0.8, 0.8, size=3))
    out = evolve_continuous(prod, 2.0)
    assert tv_distance(out, prod) < 1e-12


def test_continuous_two_site_closed_form():
    # with both site biases zero the only live coefficient is the full pair,
    # and it decays exactly like exp(-t/2)
    mono = monochromatic_pmf(2)
    for t in (0.5, 1.0, 3.0):
        out = evolve_continuous(mono, t, step=1e-3)
        assert wht_forward(out).coeffs[3] == pytest.approx(
            math.exp(-t / 2.0), abs=1e-10
        )


def test_continuous_preserves_biases():
    rng = rng_substream(11, 7)
    mu = random_pmf(4, rng)
    out = evolve_continuous(mu, 1.7)
    np.testing.assert_allclose(_biases(out), _biases(mu), rtol=0, atol=1e-9)


def test_continuous_trajectory_monotone_times():
    mu = monochromatic_pmf(3)
    target = stationary_product(mu)
    d = [tv_distance(evolve_continuous(mu, t), target) for t in (0.5, 1.0, 2.0)]
    assert d[0] > d[1] > d[2]


def _rk4_by_collisions(mu, t, step):
    """evolve_continuous with one collide_coeffs call per stage: the oracle
    for the integrator, which lifts once per step."""
    n = mu.n
    nsteps = max(1, round(t / step))
    h = t / nsteps

    def field(c):
        return collide_coeffs(c, c, n) - c

    c = wht_forward(mu).coeffs
    for _ in range(nsteps):
        k1 = field(c)
        k2 = field(c + (0.5 * h) * k1)
        k3 = field(c + (0.5 * h) * k2)
        k4 = field(c + h * k3)
        c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        c[0] = 1.0
    return wht_inverse(FourierTable(n, c)).weights


@pytest.mark.parametrize("n", [4, 10, 11, 12])
def test_continuous_steps_match_the_per_collision_integrator(n):
    # the pairs kernel (n <= 10) has no lift and keeps every bit; the ranked
    # kernel takes all four stages of a step in its ring
    for mu in (monochromatic_pmf(n), random_pmf(n, rng_substream(11, 40 + n))):
        out = evolve_continuous(mu, 0.5, step=0.01).weights
        oracle = _rk4_by_collisions(mu, 0.5, 0.01)
        if n <= 10:
            assert out.tobytes() == oracle.tobytes()
        else:
            np.testing.assert_allclose(out, oracle, rtol=0, atol=1e-14)


def test_in_ring_steps_stay_near_the_oracle_over_500_steps():
    # the ranked state never leaves the ring, so its rounding could drift
    # from the per-collision oracle's as steps accumulate
    n = 11
    for mu in (monochromatic_pmf(n), random_pmf(n, rng_substream(11, 60))):
        out = evolve_continuous(mu, 5.0, step=0.01).weights
        np.testing.assert_allclose(out, _rk4_by_collisions(mu, 5.0, 0.01), rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [4, 10])
def test_unnormalised_start_keeps_the_oracle_bytes(n):
    # weights that sum to 1 - 2^-52, within Pmf's tolerance; wht_forward pins
    # the empty-set coefficient to 1, and nothing else of the start is reset
    # before the first step
    weights = monochromatic_pmf(n).weights.copy()
    weights[-1] -= 2.0**-52
    mu = Pmf(n, weights)
    assert mu.weights.sum() == 1.0 - 2.0**-52
    out = evolve_continuous(mu, 0.5, step=0.01).weights
    assert out.tobytes() == _rk4_by_collisions(mu, 0.5, 0.01).tobytes()


@pytest.mark.parametrize("n", [4, 12])
def test_nan_coefficients_leave_the_unit_box(n):
    # one step of 1e100 overflows into NaN, which no bound compares above;
    # the check reports it, and numpy warns of nothing on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalInvariantError, match="magnitude nan"):
            evolve_continuous(monochromatic_pmf(n), 1e100, step=1e100)


@pytest.mark.parametrize(
    "n, step, magnitude", [(11, 3.0, "1.23"), (4, 4.0, "2.06")]
)
def test_too_long_steps_leave_the_unit_box(n, step, magnitude):
    with pytest.raises(NumericalInvariantError, match=f"magnitude {magnitude}"):
        evolve_continuous(monochromatic_pmf(n), 24.0, step=step)


# -----------------------------------------------------------------------
# Monte Carlo representations
# -----------------------------------------------------------------------


def _within_4_se(est, mu, t):
    exact = wht_forward(evolve_continuous(mu, t, step=1e-3)).coeffs
    return np.abs(est.coeff_mean - exact) <= 4.0 * est.coeff_stderr + 1e-9


def test_wild_average_matches_exact_evolution():
    n, t, m = 3, 1.0, 3000
    rng = rng_substream(11, 8)
    mu = monochromatic_pmf(n)
    est = wild_mc_estimate(mu, t, m, rng)
    assert _within_4_se(est, mu, t).all()
    # singleton coefficients never fluctuate across trees
    assert est.coeff_stderr[0b001] == 0.0
    assert est.coeff_stderr[0b010] == 0.0


def test_double_quenched_average_matches_exact_evolution():
    n, t, m = 3, 1.0, 20_000
    rng = rng_substream(11, 9)
    mu = monochromatic_pmf(n)
    est = double_quenched_estimate(mu, t, m, rng)
    assert _within_4_se(est, mu, t).all()


def test_wild_estimate_at_horizon_zero_is_mu():
    # no tree splits before t = 0, so every sample is mu itself
    rng = rng_substream(11, 10)
    mu = random_pmf(3, rng)
    est = wild_mc_estimate(mu, 0.0, 50, rng)
    assert np.array_equal(est.coeff_mean, wht_forward(mu).coeffs)
    assert not est.coeff_stderr.any()


# -----------------------------------------------------------------------
# leaf-weight martingale
# -----------------------------------------------------------------------


def test_martingale_at_horizon_zero_is_one():
    batch = martingale_samples(0.0, 20, rng_substream(11, 11))
    assert (batch.values == 1.0).all()
    assert (batch.leaf_counts == 1).all()


def test_martingale_batch_mean_and_bound():
    t, m = 4.0, 20_000
    rng = rng_substream(11, 13)
    batch = martingale_samples(t, m, rng)
    assert (batch.values > 0).all()
    assert batch.values.max() <= math.exp(t / 2.0) + 1e-12
    z = (batch.values.mean() - 1.0) / (batch.values.std(ddof=1) / math.sqrt(m))
    assert abs(z) < 4.0


def test_auto_method_rule_is_the_node_budget():
    # direct while the expected node count 2 m e^t fits the budget
    budget = yule._BATCH_NODE_BUDGET
    m = 10_000
    t_edge = math.log(budget / (2.0 * m))
    assert yule.resolve_martingale_method(t_edge - 1e-9, m) == "direct"
    assert yule.resolve_martingale_method(t_edge + 1e-9, m) == "cascade"
    assert yule.resolve_martingale_method(t_edge + 1e-9, m, "direct") == "direct"
    assert yule.resolve_martingale_method(0.0, m, "cascade") == "cascade"


def test_martingale_below_one_probability():
    # P(value < 1) equals 1 - e^-t while 2^-1 e^{t/2} <= ... the identity
    # window; checked inside it
    m = 40_000
    for t in (0.5, 1.0):
        rng = rng_substream(11, 14)
        batch = martingale_samples(t, m, rng)
        emp = (batch.values < 1.0).mean()
        p = 1.0 - math.exp(-t)
        sigma = math.sqrt(p * (1 - p) / m)
        assert emp == pytest.approx(p, abs=4 * sigma)


def test_cascade_agrees_with_direct_at_equal_horizon():
    t, m = 6.0, 4000
    direct = martingale_samples(t, m, rng_substream(11, 15), method="direct")
    cascade = martingale_samples(t, m, rng_substream(11, 16), method="cascade")
    stat = sps.ks_2samp(direct.values, cascade.values).statistic
    # 99th percentile of the two-sample KS null at these sizes
    assert stat < 1.628 * math.sqrt(2.0 / m)


def test_cascade_agrees_with_direct_at_horizon_3():
    # two stages: the m kept final-stage trees pick indices into a 2^20
    # pool, which is grown to horizon 1 only at the picked entries
    t, m = 3.0, 4000
    direct = martingale_samples(t, m, rng_substream(11, 23), method="direct")
    cascade = martingale_samples(t, m, rng_substream(11, 24), method="cascade")
    stat = sps.ks_2samp(direct.values, cascade.values).statistic
    # 99th percentile of the two-sample KS null at these sizes
    assert stat < 1.628 * math.sqrt(2.0 / m)


@pytest.mark.parametrize("t", [0.0, 0.7, 2.0])
def test_single_stage_cascade_is_the_direct_sampler(t):
    cascade = martingale_samples(t, 3000, rng_substream(11, 25), method="cascade")
    direct = martingale_samples(t, 3000, rng_substream(11, 25), method="direct")
    assert np.array_equal(cascade.values, direct.values)
    assert np.array_equal(cascade.leaf_counts, direct.leaf_counts)
    assert (cascade.pool_size, cascade.pool_draws, cascade.pool_grown) == (0, 0, 0)
    assert cascade.expected_repeat_draws == 0.0


def test_cascade_batch_reports_its_pool():
    m = 50
    batch = martingale_samples(3.0, m, rng_substream(11, 26), method="cascade")
    assert batch.values.shape == batch.leaf_counts.shape == (m,)
    assert batch.pool_size == yule.CASCADE_MIN_POOL == 1 << 20
    # every kept tree draws at least one pool entry, and each draw brings
    # at least one leaf
    assert m <= batch.pool_draws <= int(batch.leaf_counts.sum())
    # only the drawn entries of the last pool are grown
    assert 0 < batch.pool_grown <= min(batch.pool_draws, batch.pool_size)
    expected = batch.pool_draws**2 / (2.0 * batch.pool_size)
    assert batch.expected_repeat_draws == expected
    direct = martingale_samples(3.0, m, rng_substream(11, 26), method="direct")
    assert (direct.pool_size, direct.pool_draws, direct.pool_grown) == (0, 0, 0)


# -----------------------------------------------------------------------
# wave kernel against the per-lineage oracle
# -----------------------------------------------------------------------
#
# The oracle is the earlier kernel: every lineage carries its tree id, depth
# and birth time, and each wave reports its frozen lineages one by one.  The
# lineage-count kernel must reproduce its draws, float sums, nodes grown and
# widest wave exactly.


def _oracle_wave_batch(t, m, rng, on_frozen, node_budget=4 * yule._BATCH_NODE_BUDGET):
    chunk = yule._wave_chunk(t, m)
    processed = widest = 0
    for start in range(0, m, chunk):
        width = min(chunk, m - start)
        tree_id = np.arange(start, start + width, dtype=np.int64)
        depth = np.zeros(width, dtype=np.int32)
        birth = np.zeros(width)
        while tree_id.size:
            processed += tree_id.size
            widest = max(widest, tree_id.size)
            if processed > node_budget:
                raise CapacityError(
                    "node budget exhausted while growing batch",
                    horizon=t,
                    nodes=processed,
                )
            death = birth + rng.exponential(size=tree_id.size)
            frozen = death > t
            if frozen.any():
                on_frozen(tree_id[frozen], depth[frozen])
            alive = ~frozen
            tree_id = np.repeat(tree_id[alive], 2)
            depth = np.repeat(depth[alive] + 1, 2)
            birth = np.repeat(death[alive], 2)
    return processed, widest


def _oracle_direct(t, m, rng):
    raw = np.zeros(m)
    counts = np.zeros(m, dtype=np.int64)

    def on_frozen(ids, depths):
        w = np.ldexp(1.0, -2 * depths.astype(np.int32))
        raw[:] += np.bincount(ids, weights=w, minlength=m)
        counts[:] += np.bincount(ids, minlength=m)

    work = _oracle_wave_batch(t, m, rng, on_frozen)
    return math.exp(t / 2.0) * raw, counts, work


def _oracle_stage(width, pool_size, rng, dtype=np.int64):
    """Grow `width` stage trees; each wave's leaves pick pool indices."""
    leaves = []

    def on_frozen(ids, depths):
        leaves.append((ids, depths, rng.integers(0, pool_size, size=ids.size, dtype=dtype)))

    nodes, _ = _oracle_wave_batch(yule.CASCADE_STAGE, width, rng, on_frozen)
    return leaves, nodes


def _oracle_sums(width, leaves, pool_w, pool_l):
    """Stage values and leaf counts, each wave's leaves rooting pool entries."""
    new_w = np.zeros(width)
    new_l = np.zeros(width, dtype=np.int64)
    for ids, depths, entry in leaves:
        w = np.ldexp(1.0, -2 * depths.astype(np.int32)) * pool_w[entry]
        new_w[:] += np.bincount(ids, weights=w, minlength=width)
        new_l[:] += np.bincount(
            ids, weights=pool_l[entry].astype(np.float64), minlength=width
        ).astype(np.int64)
    return math.exp(yule.CASCADE_STAGE / 2.0) * new_w, new_l


def _oracle_cascade(t, m, rng):
    # the law oracle: every pool grown in full, the final stage on m trees
    nstages = max(1, math.ceil(t / yule.CASCADE_STAGE))
    first = t - (nstages - 1) * yule.CASCADE_STAGE
    pool_size = max(m, yule.CASCADE_MIN_POOL)
    pool_w, pool_l, (nodes, _) = _oracle_direct(first, pool_size, rng)
    for stage in range(1, nstages):
        width = m if stage == nstages - 1 else pool_size
        leaves, grown = _oracle_stage(width, pool_size, rng)
        pool_w, pool_l = _oracle_sums(width, leaves, pool_w, pool_l)
        nodes += grown
    return pool_w, pool_l, sum(pick.size for *_, pick in leaves), nodes


def _oracle_picked_cascade(t, m, rng):
    """The sampler's draw order, per lineage, for two or more stages.

    Pools 1 .. K-2 in full, then the m final-stage trees with int32 picks,
    then pool K-1 only at the distinct picks in index order.  A drawn-index
    mask finds them, the grown entries are scattered into a pool-sized
    array at those indices, and each pick gathers its entry from it: a
    second route to the sampler's rank of each pick among the distinct
    picks.  Returns values, leaf counts, draws, distinct picks and nodes
    grown.
    """
    nstages = math.ceil(t / yule.CASCADE_STAGE)
    first = t - (nstages - 1) * yule.CASCADE_STAGE
    pool_size = max(m, yule.CASCADE_MIN_POOL)
    pool, nodes = None, 0

    def entries(width):
        nonlocal nodes
        if pool is None:
            w, l, (grown, _) = _oracle_direct(first, width, rng)
        else:
            leaves, grown = _oracle_stage(width, pool_size, rng)
            w, l = _oracle_sums(width, leaves, *pool)
        nodes += grown
        return w, l

    for _ in range(nstages - 2):
        pool = entries(pool_size)
    leaves, grown = _oracle_stage(m, pool_size, rng, dtype=np.int32)
    nodes += grown
    drawn = np.zeros(pool_size, dtype=bool)
    for *_, pick in leaves:
        drawn[pick] = True
    distinct = int(np.count_nonzero(drawn))
    last_w = np.zeros(pool_size)
    last_l = np.zeros(pool_size, dtype=np.int64)
    last_w[drawn], last_l[drawn] = entries(distinct)
    values, counts = _oracle_sums(m, leaves, last_w, last_l)
    return values, counts, sum(pick.size for *_, pick in leaves), distinct, nodes


@pytest.mark.parametrize(
    "t,m",
    [(0.0, 1), (0.0, 777), (0.5, 1), (0.5, 1001), (2.0, 1), (2.0, 999), (6.0, 1), (6.0, 123)],
)
def test_direct_sampler_matches_per_lineage_oracle(t, m):
    batch = martingale_samples(t, m, rng_substream(11, 30), method="direct")
    values, counts, (nodes, widest) = _oracle_direct(t, m, rng_substream(11, 30))
    assert np.array_equal(batch.values, values)
    assert np.array_equal(batch.leaf_counts, counts)
    assert batch.nodes_grown == nodes == int((2 * counts - 1).sum())
    assert batch.widest_wave == widest


@pytest.mark.parametrize("t", [0.5, 2.0, 6.0])
def test_direct_sampler_matches_oracle_across_chunks(monkeypatch, t):
    # a narrow wave forces many tree chunks, the last one short
    monkeypatch.setattr(yule, "WAVE_WIDTH", 300)
    chunk = yule._wave_chunk(t, 1 << 30)
    m = 5 * chunk + 3
    assert chunk >= 2
    batch = martingale_samples(t, m, rng_substream(11, 31), method="direct")
    values, counts, (nodes, widest) = _oracle_direct(t, m, rng_substream(11, 31))
    assert np.array_equal(batch.values, values)
    assert np.array_equal(batch.leaf_counts, counts)
    assert (batch.nodes_grown, batch.widest_wave) == (nodes, widest)


@pytest.mark.parametrize("t", [1.0, 3.0, 6.0])
def test_widest_wave_of_a_full_chunk_fits_the_wave_width(t):
    # one tree's widest wave expects max over d of 2^d P(Poisson(t) >= d)
    # lineages, about e^t / sqrt(pi t); a full chunk's widest wave measured
    # 0.82-0.97 of chunk x that estimate at this seed, within WAVE_WIDTH
    chunk = yule._wave_chunk(t, 1 << 30)
    widest = []

    def on_wave(depth, death, alive):
        if depth == 0:
            widest.append(0)
        widest[-1] = max(widest[-1], death.size)

    _, reported = yule._wave_batch(
        t, 2 * chunk + 1, rng_substream(11, 38), lambda *wave: None, on_wave=on_wave
    )
    assert len(widest) == 3 and reported == max(widest)
    for lineages in widest[:2]:
        assert lineages <= yule.WAVE_WIDTH
        assert 0.75 <= lineages / (chunk * yule._wave_peak(t)) <= 1.0


def test_wave_kernel_reports_the_oracle_leaves_in_order():
    # np.repeat(trees, counts) is the oracle's per-leaf tree id, element by
    # element, so per-leaf draws keep their owners
    got, want = [], []

    def on_counts(trees, counts, depth):
        got.append((np.repeat(trees, counts), np.full(int(counts.sum()), depth)))

    def on_leaves(ids, depths):
        want.append((ids, depths))

    work = yule._wave_batch(3.0, 400, rng_substream(11, 32), on_counts)
    assert work == _oracle_wave_batch(3.0, 400, rng_substream(11, 32), on_leaves)
    assert len(got) == len(want)
    for (ids, depths), (oracle_ids, oracle_depths) in zip(got, want):
        assert np.array_equal(ids, oracle_ids)
        assert np.array_equal(depths, oracle_depths)


@pytest.mark.parametrize(
    "t,pool", [(3.0, 1 << 6), (3.0, 1 << 12), (5.0, 1 << 6), (5.0, 1 << 12), (3.0, 1 << 20)]
)
def test_cascade_matches_per_lineage_oracle(monkeypatch, t, pool):
    monkeypatch.setattr(yule, "CASCADE_MIN_POOL", pool)
    m = 300 if pool > 300 else 50
    batch = martingale_samples(t, m, rng_substream(11, 33), method="cascade")
    values, counts, draws, distinct, nodes = _oracle_picked_cascade(
        t, m, rng_substream(11, 33)
    )
    assert np.array_equal(batch.values, values)
    assert np.array_equal(batch.leaf_counts, counts)
    assert batch.pool_size == pool
    assert batch.pool_draws == draws
    # one last-pool entry per distinct pick, and no more than either bound
    assert batch.pool_grown == distinct <= min(draws, pool)
    assert batch.nodes_grown == nodes


def test_two_stage_cascade_chunk_allocates_no_pool_sized_array():
    # one 2^20 float64 array is 8 MiB; the final stage reads each pick's
    # entry by its rank among the distinct picks, about 70 000 of them here
    rng = rng_substream(11, 39)
    tracemalloc.start()
    try:
        martingale_samples(3.0, 10_000, rng, method="cascade")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _batch_stats(t, values, leaves, draws):
    # Per-batch statistics.  Each of the D final-stage leaves roots one
    # last-pool entry with e^(t-2) expected leaves, so the batch's leaf
    # total T has E[T | D] = D e^(t-2).  With two stages the entries are
    # independent, and Var(T | picks) is Var(entry leaves) times the sum
    # over entries of their squared pick counts, so (T - D e^(t-2))^2 / D
    # measures how the picks share entries.
    excess = float(leaves.sum()) - draws * math.exp(t - yule.CASCADE_STAGE)
    return [
        values.mean(),
        (values**2).mean(),
        (values <= 0.5).mean(),
        (values.sum() - values.size) ** 2 / values.size,
        excess**2 / draws,
    ]


def _welch_z(a, b):
    a, b = np.asarray(a), np.asarray(b)
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    return (a.mean() - b.mean()) / se


@pytest.mark.parametrize("t", [3.0, 5.0])
def test_cascade_law_matches_full_pool_oracle_at_a_tiny_pool(monkeypatch, t):
    # Gate: 1000 independent batches of 32 outputs per side at pool 2^6,
    # where 32 trees draw about 240 picks from 64 entries.  Batches, not
    # outputs, are the independent units.  For each statistic of
    # _batch_stats, |Welch z| <= 4.  Growing one entry per draw instead of
    # per distinct pick, or letting two distinct picks share one entry,
    # moves the last statistic by more than 5 standard errors.
    monkeypatch.setattr(yule, "CASCADE_MIN_POOL", 1 << 6)
    batches, m = 1000, 32
    ours, oracle = [], []
    for r in range(batches):
        batch = martingale_samples(t, m, rng_substream(11, 4000 + r), method="cascade")
        ours.append(_batch_stats(t, batch.values, batch.leaf_counts, batch.pool_draws))
        values, counts, draws, _ = _oracle_cascade(t, m, rng_substream(11, 5000 + r))
        oracle.append(_batch_stats(t, values, counts, draws))
    ours, oracle = np.array(ours), np.array(oracle)
    for k in range(ours.shape[1]):
        assert abs(_welch_z(ours[:, k], oracle[:, k])) <= 4.0, k


def test_cascade_law_matches_full_pool_oracle_at_the_default_pool():
    # Gate, fixed before the first run: 20 000 outputs per side at t = 3
    # and pool 2^20, where reuse is rare enough to treat outputs as
    # independent.  |two-sample z| <= 4 on the mean, on E W^2 and on
    # P(W <= 0.5, 0.25, 0.125); KS below its 99.9% point 1.949 sqrt(2/m).
    t, m = 3.0, 20_000
    ours = martingale_samples(t, m, rng_substream(11, 36), method="cascade").values
    oracle = _oracle_cascade(t, m, rng_substream(11, 37))[0]
    assert abs(_welch_z(ours, oracle)) <= 4.0
    assert abs(_welch_z(ours**2, oracle**2)) <= 4.0
    for eps in (0.5, 0.25, 0.125):
        assert abs(_welch_z(ours <= eps, oracle <= eps)) <= 4.0, eps
    assert sps.ks_2samp(ours, oracle).statistic < 1.949 * math.sqrt(2.0 / m)


def test_node_budget_error_matches_oracle():
    def ignore(*args):
        pass

    with pytest.raises(CapacityError) as err:
        yule._wave_batch(4.0, 200, rng_substream(11, 34), ignore, node_budget=5000)
    with pytest.raises(CapacityError) as oracle_err:
        _oracle_wave_batch(4.0, 200, rng_substream(11, 34), ignore, node_budget=5000)
    assert err.value.stats == oracle_err.value.stats
    assert err.value.stats["nodes"] > 5000


# -----------------------------------------------------------------------
# the t = inf limit W = 1 / chi-squared(3)
# -----------------------------------------------------------------------

LIMIT_LAW = sps.invgamma(1.5, scale=0.5)


def _limit_laplace(lam):
    # E e^(-lam W) for W = 1 / chi-squared(3)
    root = math.sqrt(2.0 * lam)
    return (1.0 + root) * math.exp(-root)


def _limit_cdf(eps):
    # P(W <= eps) = P(chi-squared(3) >= 1 / eps)
    return math.erfc(1.0 / math.sqrt(2.0 * eps)) + math.sqrt(
        2.0 / (math.pi * eps)
    ) * math.exp(-1.0 / (2.0 * eps))


@pytest.mark.parametrize("lam", [0.01, 0.25, 1.0, 4.0, 25.0])
def test_limit_laplace_transform_is_the_smoothing_fixed_point(lam):
    # W = A (W1 + W2) with A = e^(tau/2) / 4, tau ~ Exp(1), gives
    # L(lam) = E[L(A lam)^2], an integral over u = e^(-tau) uniform on (0, 1);
    # and L is the transform of the sampled law
    fixed, _ = integrate.quad(
        lambda u: _limit_laplace(lam / (4.0 * math.sqrt(u))) ** 2,
        0.0,
        1.0,
        epsabs=1e-15,
        epsrel=1e-13,
        limit=200,
    )
    assert abs(fixed - _limit_laplace(lam)) <= 1e-12
    transform, _ = integrate.quad(
        lambda x: math.exp(-lam * x) * LIMIT_LAW.pdf(x), 0.0, math.inf, epsabs=1e-14, limit=200
    )
    assert abs(transform - _limit_laplace(lam)) <= 1e-10


def test_limit_samples_follow_the_inverse_chi_squared_law():
    m = 100_000
    values = martingale_limit_samples(m, rng_substream(11, 50))
    # 99.9% point of the one-sample KS null
    assert sps.kstest(values, LIMIT_LAW.cdf).statistic < 1.949 / math.sqrt(m)


def test_one_smoothing_step_keeps_the_limit_law():
    m = 100_000
    rng = rng_substream(11, 51)
    w1 = martingale_limit_samples(m, rng)
    w2 = martingale_limit_samples(m, rng)
    scale = np.exp(rng.standard_exponential(m) / 2.0) / 4.0
    stat = sps.kstest(scale * (w1 + w2), LIMIT_LAW.cdf).statistic
    assert stat < 1.949 / math.sqrt(m)


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.125])
def test_limit_small_value_tail_matches_its_closed_form(eps):
    exact = _limit_cdf(eps)
    assert abs(exact - LIMIT_LAW.cdf(eps)) <= 1e-12 * exact
    m = 1_000_000
    values = martingale_limit_samples(m, rng_substream(11, 52))
    phat = np.count_nonzero(values <= eps) / m
    assert abs(phat - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / m)


# every tree sampler rejects a horizon outside [0, inf) before growing a tree
BAD_HORIZON_CALLS = {
    "wild-negative": lambda rng: wild_mc_estimate(monochromatic_pmf(2), -1.0, 4, rng),
    "quenched-nan": lambda rng: double_quenched_estimate(monochromatic_pmf(2), math.nan, 4, rng),
    "leaf-weights-nan": lambda rng: yule.sample_leaf_weights(math.nan, 3, rng),
    "yule-negative": lambda rng: sample_yule(-1.0, rng),
    "yule-nan": lambda rng: sample_yule(math.nan, rng),
    "martingale-nan": lambda rng: martingale_samples(math.nan, 3, rng),
    "martingale-negative-cascade": lambda rng: martingale_samples(-1.0, 3, rng, "cascade"),
    "martingale-inf": lambda rng: martingale_samples(math.inf, 3, rng),
    "martingale-inf-cascade": lambda rng: martingale_samples(math.inf, 3, rng, "cascade"),
    # before the check these two grew a tree toward the 10^9-node budget
    "martingale-inf-direct": lambda rng: martingale_samples(math.inf, 3, rng, "direct"),
    "wild-inf": lambda rng: wild_mc_estimate(monochromatic_pmf(2), math.inf, 4, rng),
}


@pytest.mark.parametrize("case", sorted(BAD_HORIZON_CALLS))
def test_tree_samplers_reject_a_horizon_outside_zero_to_inf(case):
    with pytest.raises(ValueError, match="horizon must be finite and >= 0"):
        BAD_HORIZON_CALLS[case](rng_substream(11, 53))


# entry points that once failed deep inside on a NaN or infinite horizon:
# converting NaN to an integer, numpy's Poisson sampler, log(1/t), or the
# integrator's step cap
HORIZON_ENTRY_POINTS = {
    "evolve-continuous": lambda t, rng: evolve_continuous(monochromatic_pmf(2), t),
    "wild-mc": lambda t, rng: wild_mc_estimate(monochromatic_pmf(2), t, 4, rng),
    "spinal-check": lambda t, rng: spinal_identity_check(t, 10, rng),
    "lowerbound-continuous": lambda t, rng: lowerbound_experiment_continuous(400, t, 2, rng),
}


@pytest.mark.parametrize("horizon", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", sorted(HORIZON_ENTRY_POINTS))
def test_entry_points_reject_a_horizon_that_is_not_finite(entry, horizon):
    with pytest.raises(ValueError, match=f"horizon must be finite and >=? 0, got {horizon}"):
        HORIZON_ENTRY_POINTS[entry](horizon, rng_substream(11, 54))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "requested example is false as stated: the value distribution at "
        "horizon 30 measurably differs from horizon 10 (KS about 0.08 vs a "
        "0.023 null at 10^4 samples; P(value < 0.5) moves 0.453 -> 0.489 -> "
        "0.554 across horizons 8, 10, 30, while same-horizon samplers agree "
        "to KS 0.013). Convergence to the limit law is real but slower than "
        "the example assumes; see the README Tests section and the ROADMAP "
        "Open items."
    ),
)
def test_horizon_10_vs_30_within_ks_noise():
    m = 10_000
    a = martingale_samples(10.0, m, rng_substream(11, 17)).values
    b = martingale_samples(30.0, m, rng_substream(11, 18)).values
    stat = sps.ks_2samp(a, b).statistic
    assert stat < 1.628 * math.sqrt(2.0 / m)


def test_limit_samples_positive_and_tail_estimator():
    # the limit is one draw per sample: 1 / chi-squared(3), grown from no tree
    values = martingale_limit_samples(3000, rng_substream(11, 19))
    assert values.shape == (3000,)
    assert (values > 0).all()
    assert np.array_equal(values, 1.0 / rng_substream(11, 19).chisquare(3, 3000))

    est = tail_probability_from_samples(np.array([0.1, 0.6, 2.0]), 0.5)
    assert est.probability == pytest.approx(1.0 / 3.0)
    assert est.samples == 3
    assert est.ci_low <= est.probability <= est.ci_high

    rng2 = rng_substream(11, 20)
    e2 = tail_probability_from_samples(martingale_samples(1.0, 5000, rng2).values, 0.9)
    assert 0.0 < e2.probability < 1.0


def test_batch_csv_bytes_match_csv_writer(tmp_path):
    # `martingale` writes the one chunk of a 50-sample batch as csv.writer would
    args = ["martingale", "--t", "2.0", "--samples", "50", "--seed", "11", "--method", "cascade"]
    assert cli.main([*args, "--out-dir", str(tmp_path)]) == 0
    batch = martingale_samples(
        2.0, 50, rng_substream(11, cli.CHUNK_TASK_BASE), method="cascade"
    )
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["sample", "t", "W", "leaves"])
    for i, (v, c) in enumerate(zip(batch.values, batch.leaf_counts)):
        writer.writerow([i, repr(2.0), repr(float(v)), int(c)])
    assert (tmp_path / "martingale.csv").read_bytes() == expected.getvalue().encode()


# -----------------------------------------------------------------------
# spinal identity
# -----------------------------------------------------------------------


def test_spinal_identity_holds():
    rng = rng_substream(11, 22)
    report = spinal_identity_check(1.0, 30_000, rng)
    assert report.passed
    names = {r.name for r in report.results}
    assert "unit" in names
    for r in report.results:
        assert abs(r.z) <= 4.0


class _FastSplits:
    """A generator whose exponential clocks run 1.1 times too fast."""

    def __init__(self, rng):
        self._rng = rng

    def standard_exponential(self, size):
        return self._rng.standard_exponential(size) / 1.1


def test_spinal_identity_fails_on_a_wrong_split_rate():
    # the check grows its trees, so a wave sampler splitting at rate 1.1
    # moves every weighted mean off its closed form
    report = spinal_identity_check(1.0, 20_000, _FastSplits(rng_substream(11, 60)))
    assert not report.passed


# the functionals of the depth d that the check sums over leaves
SPINAL_FUNCTIONALS = {
    "unit": lambda d: np.ones_like(d, dtype=float),
    "depth": lambda d: d,
    "depth_squared": lambda d: d * d,
    "exp_minus_depth": lambda d: np.exp(-d),
}


@pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
def test_spinal_closed_forms_are_half_rate_poisson_means(t):
    report = spinal_identity_check(t, 100, rng_substream(11, 61))
    assert [r.name for r in report.results] == list(SPINAL_FUNCTIONALS)
    for r in report.results:
        expected = sps.poisson(t / 2.0).expect(SPINAL_FUNCTIONALS[r.name])
        assert r.analytic == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_spinal_check_over_the_node_budget_raises_before_growing():
    # 2 m e^t = 8.8e9 expected nodes against a budget of 2.5e8
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="node budget"):
        spinal_identity_check(10.0, 200_000, rng_substream(11, 62))
    assert time.perf_counter() - start < 1.0
