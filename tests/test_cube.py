"""Dense cube representations: pmf/Fourier tables and their invariants."""

import csv
import hashlib
import io

import numpy as np
import pytest

from recomblab import (
    CapacityError,
    InvalidDistributionError,
    Pmf,
    evolve_discrete,
    monochromatic_pmf,
    point_mass,
    product_fourier,
    product_pmf,
    random_balanced_pmf,
    random_pmf,
    stationary_product,
    tv_distance,
    uniform_pmf,
    wht_forward,
)
from recomblab import cli
from recomblab.cube import (
    FourierTable,
    _biases,
    _butterfly,
    _product_coeff_rows,
    _product_weight_rows,
    wht_inverse,
)
from recomblab.errors import DimensionMismatchError

RNG = np.random.default_rng(7)


def test_pmf_validates_shape_and_mass():
    with pytest.raises(DimensionMismatchError):
        Pmf(2, np.ones(3) / 3.0)
    with pytest.raises(InvalidDistributionError):
        Pmf(2, np.array([0.5, 0.5, 0.1, 0.0]))
    with pytest.raises(InvalidDistributionError):
        Pmf(1, np.array([1.5, -0.5]))
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidDistributionError):
            Pmf(1, np.array([bad, 1.0]))
    # tiny negative round-off is clipped, not rejected
    w = np.array([0.5, 0.5 + 1e-13, -1e-13, 0.0])
    pmf = Pmf(2, w)
    assert pmf.weights.min() == 0.0


def test_pmf_capacity_cap():
    with pytest.raises(CapacityError):
        uniform_pmf(25)


def test_wht_roundtrip_random():
    for n in (1, 3, 6, 10):
        pmf = random_pmf(n, RNG)
        back = wht_inverse(wht_forward(pmf))
        np.testing.assert_allclose(back.weights, pmf.weights, atol=1e-12)


def _butterfly_forward(values):
    """Oracle: the forward butterfly as its own pass."""
    out = values.astype(np.float64).copy()
    h = 1
    while h < out.shape[0]:
        blk = out.reshape(-1, 2, h)
        lo = blk[:, 0, :].copy()
        blk[:, 0, :] += blk[:, 1, :]
        blk[:, 1, :] -= lo
        h *= 2
    return out


def _butterfly_inverse(values):
    """Oracle: the unscaled inverse butterfly as its own pass."""
    out = values.astype(np.float64).copy()
    h = 1
    while h < out.shape[0]:
        blk = out.reshape(-1, 2, h)
        lo = blk[:, 0, :].copy()
        blk[:, 0, :] -= blk[:, 1, :]
        blk[:, 1, :] += lo
        h *= 2
    return out


def _subset_sums(values, op):
    """Oracle: the zeta (op=np.add) or Moebius (np.subtract) transform as its
    own pass."""
    out = values.astype(np.float64).copy()
    h = 1
    while h < out.shape[0]:
        blk = out.reshape(-1, 2, h)
        blk[:, 1, :] = op(blk[:, 1, :], blk[:, 0, :])
        h *= 2
    return out


def _in_place(values, n, *ops):
    out = values.copy()
    _butterfly(out, n, *ops)
    return out


# the update of each transform, and its oracle
BUTTERFLY_OPS = [
    ((np.subtract, np.add), _butterfly_forward),
    ((np.add, np.subtract), _butterfly_inverse),
    ((np.add,), lambda v: _subset_sums(v, np.add)),
    ((np.subtract,), lambda v: _subset_sums(v, np.subtract)),
]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_signed_butterfly_is_both_directions_bit_for_bit(n):
    rng = np.random.default_rng(n)
    values = rng.normal(size=1 << n)
    stack = rng.normal(size=(3, 1 << n))
    for ops, oracle in BUTTERFLY_OPS:
        np.testing.assert_array_equal(_in_place(values, n, *ops), oracle(values))
        # a stack of rows gets exactly the operations of each row alone
        rows = _in_place(stack, n, *ops)
        for row, start in zip(rows, stack):
            np.testing.assert_array_equal(row, oracle(start))
    # and the transforms built on it keep the old transforms' bits
    pmf = random_pmf(n, rng)
    table = wht_forward(pmf)
    expect = _butterfly_forward(pmf.weights)
    expect[0] = 1.0
    np.testing.assert_array_equal(table.coeffs, expect)
    raw = _butterfly_inverse(table.coeffs) / float(1 << n)
    np.testing.assert_array_equal(wht_inverse(table).weights, Pmf(n, raw / raw.sum()).weights)


def test_wht_forward_pins_empty_set_coefficient():
    for _ in range(20):
        pmf = random_pmf(5, RNG)
        assert wht_forward(pmf).coeffs[0] == 1.0


def test_wht_singletons_are_biases():
    pmf = random_pmf(4, RNG)
    table = wht_forward(pmf)
    for site in range(1, 5):
        assert table.coeffs[1 << (site - 1)] == pytest.approx(
            _biases(pmf)[site - 1], abs=1e-12
        )


def test_wht_inverse_renormalizes_small_drift():
    # a constant coefficient of 1 - 1e-10 passes the table gate; the inverse
    # transform renormalizes the resulting 1e-10 mass deficit away
    coeffs = wht_forward(random_pmf(3, RNG)).coeffs.copy()
    coeffs *= 1.0 - 1e-10
    drifted = FourierTable(3, coeffs)
    weights = wht_inverse(drifted).weights
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_fourier_table_rejects_bad_constant_term():
    coeffs = np.zeros(4)
    coeffs[0] = 0.5
    with pytest.raises(InvalidDistributionError):
        FourierTable(2, coeffs)


def test_tv_distance_basics():
    a = point_mass(3, 0)
    b = point_mass(3, 7)
    assert tv_distance(a, b) == pytest.approx(1.0)
    assert tv_distance(a, a) == 0.0
    u = uniform_pmf(3)
    assert tv_distance(a, u) == pytest.approx(1.0 - 1.0 / 8.0)


def test_tv_distance_dimension_check():
    with pytest.raises(DimensionMismatchError):
        tv_distance(uniform_pmf(2), uniform_pmf(3))


def test_monochromatic_structure():
    mono = monochromatic_pmf(4)
    assert mono.weights[0] == pytest.approx(0.5)
    assert mono.weights[-1] == pytest.approx(0.5)
    assert mono.weights[1:-1].max() == 0.0
    assert np.abs(_biases(mono)).max() < 1e-15
    # every even-size group has coefficient 1, every odd-size group 0
    coeffs = wht_forward(mono).coeffs
    sizes = np.array([bin(m).count("1") for m in range(16)])
    np.testing.assert_allclose(coeffs[sizes % 2 == 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(coeffs[sizes % 2 == 1], 0.0, atol=1e-12)


def test_product_pmf_matches_kron_oracle():
    biases = np.array([0.3, -0.7, 0.1])
    pmf = product_pmf(biases)
    expect = np.array([1.0])
    for b in biases:
        site = np.array([(1.0 - b) / 2.0, (1.0 + b) / 2.0])
        expect = np.kron(site, expect)
    np.testing.assert_allclose(pmf.weights, expect, atol=1e-15)
    for site, b in enumerate(biases, start=1):
        assert _biases(pmf)[site - 1] == pytest.approx(b, abs=1e-12)


def test_product_fourier_is_subset_product():
    biases = np.array([0.4, -0.2])
    table = product_fourier(biases)
    np.testing.assert_allclose(
        table.coeffs, [1.0, 0.4, -0.2, -0.08], atol=1e-15
    )
    roundtrip = wht_forward(product_pmf(biases))
    np.testing.assert_allclose(table.coeffs, roundtrip.coeffs, atol=1e-12)


def _product_fourier_lowest_bit(biases):
    """Oracle: coeffs[S] = coeffs[S minus its lowest site] * bias of that site."""
    n = biases.size
    coeffs = np.empty(1 << n)
    coeffs[0] = 1.0
    for s in range(1, 1 << n):
        low = s & (-s)
        coeffs[s] = coeffs[s ^ low] * biases[low.bit_length() - 1]
    return coeffs


@pytest.mark.parametrize("n", [1, 5, 12, 16])
def test_product_fourier_doubling_is_the_lowest_bit_dp_bit_for_bit(n):
    biases = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    table = product_fourier(biases)
    np.testing.assert_array_equal(table.coeffs, _product_fourier_lowest_bit(biases))
    singletons = table.coeffs[1 << np.arange(n)]
    np.testing.assert_array_equal(singletons, biases)


def test_product_rows_are_the_product_builders():
    # each row is built bit for bit as the Kronecker product of its sites and
    # as the lowest-bit recursion of its subset products
    biases = np.random.default_rng(36).uniform(-1.0, 1.0, size=(6, 4))
    weights = _product_weight_rows(biases)
    coeffs = _product_coeff_rows(biases)
    for row, w, c in zip(biases, weights, coeffs):
        expect = np.array([1.0])
        for b in row:
            expect = np.kron(np.array([(1.0 - b) / 2.0, (1.0 + b) / 2.0]), expect)
        np.testing.assert_array_equal(w, expect)
        np.testing.assert_array_equal(c, _product_fourier_lowest_bit(row))
        np.testing.assert_array_equal(w, product_pmf(row).weights)
        np.testing.assert_array_equal(c, product_fourier(row).coeffs)


def test_stationary_product_keeps_biases_only():
    pmf = random_pmf(4, RNG)
    stat = stationary_product(pmf)
    np.testing.assert_allclose(_biases(stat), _biases(pmf), atol=1e-12)
    coeffs = wht_forward(stat).coeffs
    b = _biases(pmf)
    for mask in range(16):
        expect = np.prod([b[s] for s in range(4) if mask >> s & 1])
        assert coeffs[mask] == pytest.approx(expect, abs=1e-12)


def test_balanced_checks():
    assert np.abs(_biases(monochromatic_pmf(3))).max() <= 1e-12
    assert np.abs(_biases(uniform_pmf(5))).max() <= 1e-12
    assert np.abs(_biases(point_mass(2, 3))).max() > 1e-12
    bal = random_balanced_pmf(4, RNG)
    assert np.abs(_biases(bal)).max() < 1e-12


def test_values_csv_bytes_are_the_csv_writer_bytes(tmp_path):
    values = np.concatenate(
        [
            RNG.standard_normal(60),
            [0.0, -0.0, 1.0, -1.0, 1e-300, 5e-324, 1e300, np.inf, -np.inf, np.nan],
        ]
    )
    expect = io.StringIO(newline="")
    writer = csv.writer(expect, lineterminator="\n")
    writer.writerow(["index", "value"])
    for i, v in enumerate(values):
        writer.writerow([i, repr(float(v))])
    ctx = cli.RunContext(command="write-rows", out_dir=tmp_path, parameters={})
    # plain floats and ints, as the pmf outputs pass them, and numpy scalars
    for name, rows in [("plain.csv", enumerate(values.tolist())), ("numpy.csv", enumerate(values))]:
        path = ctx.write_rows(name, ["index", "value"], rows)
        assert path.read_bytes() == expect.getvalue().encode()
    assert ctx.outputs[0]["sha256"] == hashlib.sha256(expect.getvalue().encode()).hexdigest()


def test_csv_roundtrips(tmp_path):
    # an evolved measure written by the CLI reloads as its start bit for bit
    args = ["evolve-discrete", "--n", "5", "--start", "mono", "--steps", "3"]
    assert cli.main([*args, "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "evolved_discrete.csv"
    assert path.read_text().splitlines()[0] == "index,value"
    back = cli._load_start(str(path), None)
    assert back.n == 5
    np.testing.assert_array_equal(back.weights, evolve_discrete(monochromatic_pmf(5), 3).weights)
    again = tmp_path / "again"
    assert cli.main(["evolve-discrete", "--start", str(path), "--steps", "0",
                     "--out-dir", str(again)]) == 0
    assert (again / "evolved_discrete.csv").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("row", ["0,abc", "x,0.5", "0", "1,0.5", "0,0.5,1"])
def test_malformed_csv_row_is_invalid_distribution(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"index,value\n{row}\n1,0.5\n")
    with pytest.raises(InvalidDistributionError, match="bad row"):
        cli._load_start(str(path), None)


def test_non_finite_csv_weight_is_invalid_distribution(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("index,value\n0,nan\n1,1.0\n")
    with pytest.raises(InvalidDistributionError, match="non-finite"):
        cli._load_start(str(path), None)
