import math

import numpy as np
import pytest
from scipy import special

from maxboot import datagen
from maxboot.datagen import (
    _EDGE,
    _INTERVALS,
    _PIECE,
    _STACK,
    _STEP,
    CopulaSpec,
    DataMatrix,
    Dependence,
    _correlate,
    _exact_transform,
    _normal_to_gamma,
    _raw_normals,
    _sample_block,
    _transform_table,
    gamma_quantile,
    sample_gaussian_copula,
)
from maxboot.rng import SeedSpec

from conftest import rejection_table, seed


def latent_normals(data: DataMatrix, shape_alpha: float) -> np.ndarray:
    """Invert the copula transform to recover the latent Gaussian matrix."""
    return special.ndtri(special.gammainc(shape_alpha, data.values))


# ---------------------------------------------------------------------------
# gamma quantile
# ---------------------------------------------------------------------------


def test_gamma_quantile_exponential_closed_forms():
    # shape 1 is Exp(1): quantile(u) = -log(1 - u)
    assert gamma_quantile(1.0 - math.exp(-1.0), 1.0) == pytest.approx(1.0, abs=1e-10)
    assert gamma_quantile(0.5, 1.0) == pytest.approx(math.log(2.0), abs=1e-12)


def test_gamma_quantile_round_trip():
    for u in (0.01, 0.5, 0.99):
        assert special.gammainc(3.0, gamma_quantile(u, 3.0)) == pytest.approx(u, abs=1e-9)


def test_gamma_quantile_matches_scipy_inverse():
    # independent inverse-CDF oracle; the stopping rule targets CDF accuracy,
    # so quantile-space agreement loosens slightly as u -> 1
    for u in (0.001, 0.05, 0.3, 0.5, 0.9, 0.999):
        for a in (0.2, 1.0, 2.5, 17.5, 80.0):
            ref = special.gammaincinv(a, u)
            assert gamma_quantile(u, a) == pytest.approx(ref, rel=2e-8, abs=1e-12)


def test_gamma_quantile_cdf_contract_in_tails():
    for u in (1e-12, 1e-6, 1.0 - 1e-6, 1.0 - 1e-12):
        for a in (0.3, 1.0, 7.0):
            x = gamma_quantile(u, a)
            assert abs(special.gammainc(a, x) - u) <= 1e-10 * u + 1e-15


def test_gamma_quantile_vectorized_shape():
    u = np.array([[0.2, 0.4], [0.6, 0.8]])
    out = gamma_quantile(u, 2.0)
    assert out.shape == (2, 2)
    assert np.all(np.diff(out.ravel()[np.argsort(u.ravel())]) > 0)


# ---------------------------------------------------------------------------
# normal -> gamma transform table
# ---------------------------------------------------------------------------

TABLE_SHAPES = (0.05, 0.25, 0.5, 1.0, 2.5, 10.0, 1e4)
KNOTS = -_EDGE + _STEP * np.arange(_INTERVALS + 1)


def exact_transform(y: np.ndarray, a: float) -> np.ndarray:
    """F_a^{-1}(Phi(y)) from scipy, inverting the tail probability ndtr keeps exact."""
    lower = special.gammaincinv(a, special.ndtr(y))
    return np.where(y <= 0.0, lower, special.gammainccinv(a, special.ndtr(-y)))


@pytest.mark.parametrize("a", TABLE_SHAPES)
def test_transform_table_matches_exact_inverse(a):
    # knots, interval midpoints (where the cubic Hermite error peaks) and normals
    normals = np.random.default_rng(20250808).standard_normal(200_000)
    y = np.concatenate([KNOTS, KNOTS[:-1] + 0.5 * _STEP, normals])
    exact = exact_transform(y, a)
    got = _normal_to_gamma(y, a)
    normal = exact >= np.finfo(np.float64).tiny
    assert np.max(np.abs(got[normal] - exact[normal]) / exact[normal]) <= 1e-12
    # where x is not a normal double the exact path answers; shape 0.05 gets there
    np.testing.assert_array_equal(got[~normal], exact[~normal])
    assert (~normal).any() == (a == 0.05)


def test_transform_exponential_tail_closed_form():
    # shape 1 is Exp(1): x = -log(1 - Phi(y)); y > 9 is past the table's edge
    y = np.linspace(0.0, 37.0, 37_001)
    np.testing.assert_allclose(_normal_to_gamma(y, 1.0), -special.log_ndtr(-y), rtol=1e-12)


@pytest.mark.parametrize("a", TABLE_SHAPES)
def test_transform_far_upper_tail_is_finite(a):
    # ndtr(y) rounds to 1 here, so no path through u = Phi(y) can answer
    x = _normal_to_gamma(np.linspace(8.3, 37.0, 2_871), a)
    assert np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)


@pytest.mark.parametrize("a", TABLE_SHAPES)
def test_transform_monotone_across_knots_and_edges(a):
    # each knot, ±9 included, with a neighbour on either side
    y = (KNOTS[:, None] + np.array([-1e-9, 0.0, 1e-9])).ravel()
    x = _normal_to_gamma(y, a)
    assert np.all(np.diff(x) >= 0.0)
    normal = x[:-1] >= np.finfo(np.float64).tiny
    assert np.all(np.diff(x)[normal] > 0.0)


# ---------------------------------------------------------------------------
# copula sampling
# ---------------------------------------------------------------------------


def test_ar1_rho_zero_decouples_columns():
    n = 100_000
    data = sample_gaussian_copula(CopulaSpec(Dependence.AR1, 0.0, 1.0), n, 3, seed(1))
    y = latent_normals(data, 1.0)
    for j in (0, 1):
        corr = np.corrcoef(y[:, j], y[:, j + 1])[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(n)


def test_ar1_adjacent_latent_correlation():
    n = 100_000
    rho = 0.8
    data = sample_gaussian_copula(CopulaSpec(Dependence.AR1, rho, 1.0), n, 4, seed(2))
    y = latent_normals(data, 1.0)
    for j in range(3):
        corr = np.corrcoef(y[:, j], y[:, j + 1])[0, 1]
        assert corr == pytest.approx(rho, abs=3.0 / math.sqrt(n))


def test_equicorrelated_latent_correlation():
    n = 100_000
    data = sample_gaussian_copula(CopulaSpec(Dependence.EQUICORRELATED, 0.2, 3.0), n, 2, seed(3))
    y = latent_normals(data, 3.0)
    corr = np.corrcoef(y[:, 0], y[:, 1])[0, 1]
    assert corr == pytest.approx(0.2, abs=3.0 / math.sqrt(n))


def test_experiment_ii_configuration_marginal_means():
    # n=200, p=400 with gamma(1,1) marginals: every column mean near 1
    n, p, alpha = 200, 400, 1.0
    data = sample_gaussian_copula(CopulaSpec(Dependence.AR1, 0.8, alpha), n, p, seed(4))
    assert data.known_mean == pytest.approx(np.full(p, alpha))
    dev = np.abs(data.values.mean(axis=0) - alpha)
    assert dev.max() <= 4.0 * math.sqrt(alpha / n)


def test_marginal_is_gamma_ks():
    # one-sample KS against gamma(3,1) at level 0.01, n = 1e5
    n = 100_000
    data = sample_gaussian_copula(CopulaSpec(Dependence.EQUICORRELATED, 0.2, 3.0), n, 1, seed(5))
    x = np.sort(data.values[:, 0])
    cdf = special.gammainc(3.0, x)
    ks = max(
        (np.arange(1, n + 1) / n - cdf).max(),
        (cdf - np.arange(0, n) / n).max(),
    )
    assert ks < 1.6276 / math.sqrt(n)  # asymptotic 1% critical value


def test_skewness_matches_two_over_sqrt_alpha():
    # sample skewness converges to 2/sqrt(alpha); allow 3 block-estimated MC SEs
    n, alpha = 1_000_000, 1.0
    data = sample_gaussian_copula(CopulaSpec(Dependence.AR1, 0.0, alpha), n, 1, seed(6))
    v = data.values[:, 0]

    def skew(a):
        c = a - a.mean()
        return (c**3).mean() / (c**2).mean() ** 1.5

    blocks = v.reshape(100, -1)
    block_se = np.array([skew(b) for b in blocks]).std(ddof=1) / 10.0
    assert skew(v) == pytest.approx(2.0 / math.sqrt(alpha), abs=3.0 * block_se)


def test_bit_identical_under_thread_concurrency():
    from concurrent.futures import ThreadPoolExecutor

    spec = CopulaSpec(Dependence.EQUICORRELATED, 0.3, 1.0)
    serial = sample_gaussian_copula(spec, 50, 8, SeedSpec(2).child(4))
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(sample_gaussian_copula, spec, 50, 8, SeedSpec(2).child(4)) for _ in range(4)]
        for fut in futures:
            assert np.array_equal(fut.result().values, serial.values)


def test_distinct_streams_differ():
    spec = CopulaSpec(Dependence.AR1, 0.5, 2.0)
    a = sample_gaussian_copula(spec, 32, 4, SeedSpec(5).child(0))
    b = sample_gaussian_copula(spec, 32, 4, SeedSpec(5).child(1))
    assert not np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# byte identity with a one-shot evaluation
# ---------------------------------------------------------------------------


def one_shot_transform(y: np.ndarray, a: float) -> np.ndarray:
    """The transform over the whole array at once, one temporary per step."""
    c0, c1, c2, c3 = _transform_table(float(a))
    u = (y + _EDGE) * (1.0 / _STEP)
    k = np.floor(u)
    t = u - k
    idx = np.clip(k, -1.0, _INTERVALS).astype(np.intp) + 1
    g = ((c3.take(idx) * t + c2.take(idx)) * t + c1.take(idx)) * t + c0.take(idx)
    x = np.exp(g)
    off = np.isnan(g)
    x[off] = _exact_transform(y[off], a)
    return x


def one_shot_latent(spec: CopulaSpec, n: int, p: int, seed: SeedSpec) -> np.ndarray:
    """The latent normals with a fresh array per operation and a column-copying recursion."""
    rng = seed.rng()
    rho = spec.rho
    if spec.structure is Dependence.EQUICORRELATED:
        z0 = rng.standard_normal((n, 1))
        z = rng.standard_normal((n, p))
        y = math.sqrt(rho) * z0 + math.sqrt(1.0 - rho) * z
    else:
        eps = rng.standard_normal((n, p))
        y = np.empty((n, p))
        y[:, 0] = eps[:, 0]
        c = math.sqrt(1.0 - rho * rho)
        for j in range(1, p):
            y[:, j] = rho * y[:, j - 1] + c * eps[:, j]
    return y


def one_shot_sample(spec: CopulaSpec, n: int, p: int, seed: SeedSpec) -> np.ndarray:
    """The sampler with a fresh array per operation and a column-copying recursion."""
    return one_shot_transform(one_shot_latent(spec, n, p, seed).ravel(), spec.shape_alpha).reshape(n, p)


# n * p one short of a piece, one piece, one past it, more than three pieces;
# AR(1) with one column and both structures with one row
PIECE_SHAPES = [(127, 129), (128, 128), (113, 145), (200, 300), (50, 1), (1, 40)]
assert [n * p for n, p in PIECE_SHAPES[:4]] == [_PIECE - 1, _PIECE, _PIECE + 1, 60_000]
assert 60_000 > 3 * _PIECE


@pytest.mark.parametrize("structure", list(Dependence))
@pytest.mark.parametrize("a", (0.05, 1.0, 10.0))
@pytest.mark.parametrize("n, p", PIECE_SHAPES)
def test_sampler_matches_one_shot_evaluation(structure, a, n, p):
    spec = CopulaSpec(structure, 0.6, a)
    got = sample_gaussian_copula(spec, n, p, seed(7, n, p))
    expected = one_shot_sample(spec, n, p, seed(7, n, p))
    assert got.values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("a", (0.05, 1.0, 10.0))
def test_transform_matches_one_shot_evaluation(a):
    # y straddles +-9 everywhere, the first piece ends on the exact path, and
    # the tail is far past the table (beyond any intp once scaled)
    y = 5.0 * np.random.default_rng(11).standard_normal(3 * _PIECE + 7)
    y[_PIECE - 2 : _PIECE + 2] = [-9.5, 8.99, 9.0, -8.5]
    y[-3:] = [-1e30, 1e30, 37.0]
    expected = one_shot_transform(y, a)
    assert _normal_to_gamma(y[:0], a).shape == (0,)
    assert _normal_to_gamma(y, a).tobytes() == expected.tobytes()
    assert (np.abs(y) > _EDGE).sum() > 100


# ---------------------------------------------------------------------------
# the block sampler: stages, and stacks of AR(1) datasets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("structure", list(Dependence))
@pytest.mark.parametrize("rho", (0.0, 0.9))
@pytest.mark.parametrize("k", (1, 2, 3, 4))
@pytest.mark.parametrize("p", (1, 100))
def test_correlated_raw_normals_are_the_one_shot_latent_matrices(structure, rho, k, p):
    # the boundary between the correlation and the gamma transform
    spec, n = CopulaSpec(structure, rho, 1.0), 30
    seeds = [seed(12, p, i) for i in range(k)]
    latent = _correlate(rho, *_raw_normals(structure, n, p, seeds))
    assert [y.tobytes() for y in latent] == [one_shot_latent(spec, n, p, s).tobytes() for s in seeds]


def block_bytes(spec: CopulaSpec, n: int, p: int, seeds: list) -> list[tuple[bytes, bytes]]:
    return [(d.values.tobytes(), d.known_mean.tobytes()) for d in _sample_block(spec, n, p, seeds)]


def per_seed_bytes(spec: CopulaSpec, n: int, p: int, seeds: list) -> list[tuple[bytes, bytes]]:
    datasets = [sample_gaussian_copula(spec, n, p, s) for s in seeds]
    return [(d.values.tobytes(), d.known_mean.tobytes()) for d in datasets]


@pytest.mark.parametrize("structure", list(Dependence))
@pytest.mark.parametrize("rho", (0.0, 0.9))
@pytest.mark.parametrize("a", (1.0, 0.05))
@pytest.mark.parametrize("n", (1, 2, 200))
@pytest.mark.parametrize("p", (1, 2, 100))
def test_block_sampler_matches_per_seed_calls(structure, rho, a, n, p):
    # 1 to 9 seeds: the last stack is full at 4 and 8 and partial elsewhere
    spec = CopulaSpec(structure, rho, a)
    seeds = [seed(8, n, p, i) for i in range(9)]
    for count in range(1, 10):
        assert block_bytes(spec, n, p, seeds[:count]) == per_seed_bytes(spec, n, p, seeds[:count])


def stack_size(spec: CopulaSpec, n: int, p: int) -> int:
    """How many seeds the block sampler takes before yielding its first dataset."""
    taken = []
    seeds = (taken.append(i) or seed(9, i) for i in range(9))
    next(_sample_block(spec, n, p, seeds))
    return len(taken)


@pytest.mark.parametrize("cap_in_datasets, expected", [(0.5, 1), (1, 1), (2, 2), (2.9, 2), (4, 4), (40, 4)])
def test_stack_is_capped_in_bytes(monkeypatch, cap_in_datasets, expected):
    # past the cap, fewer datasets share a stack, down to one at a time
    n, p = 30, 7
    spec = CopulaSpec(Dependence.AR1, 0.5, 2.0)
    monkeypatch.setattr(datagen, "_STACK_BYTES", int(cap_in_datasets * 8 * n * p))
    assert stack_size(spec, n, p) == expected
    seeds = [seed(10, i) for i in range(7)]
    assert block_bytes(spec, n, p, seeds) == per_seed_bytes(spec, n, p, seeds)


def test_stack_sizes_by_structure_and_size():
    assert stack_size(CopulaSpec(Dependence.AR1, 0.2, 1.0), 200, 400) == _STACK
    assert stack_size(CopulaSpec(Dependence.AR1, 0.2, 1.0), 2000, 400) == 1
    assert stack_size(CopulaSpec(Dependence.EQUICORRELATED, 0.2, 1.0), 200, 100) == 1


def test_unallocatable_dataset_fails_on_its_own_array():
    # numpy refuses one (n, p) latent matrix before anything is touched; a
    # stack of four would overflow the size instead
    spec = CopulaSpec(Dependence.AR1, 0.2, 1.0)
    with pytest.raises(MemoryError, match=r"shape \(1000000000, 1000000000\)"):
        next(_sample_block(spec, 10**9, 10**9, [seed(11, i) for i in range(4)]))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


test_rejects_bad_input = rejection_table(
    (lambda: gamma_quantile(0.0, 2.0), ValueError, "u must lie strictly inside (0, 1)"),
    (lambda: gamma_quantile(1.0, 2.0), ValueError, "u must lie strictly inside (0, 1)"),
    (lambda: gamma_quantile(-0.2, 2.0), ValueError, "u must lie strictly inside (0, 1)"),
    (lambda: gamma_quantile(1.7, 2.0), ValueError, "u must lie strictly inside (0, 1)"),
    (lambda: gamma_quantile(0.5, 0.0), ValueError, "shape_alpha must be positive"),
    (lambda: CopulaSpec(Dependence.AR1, 1.0, 1.0), ValueError, "rho must lie in [0, 1), got 1.0"),
    (lambda: CopulaSpec(Dependence.AR1, -0.1, 1.0), ValueError, "rho must lie in [0, 1), got -0.1"),
    (lambda: CopulaSpec(Dependence.AR1, 0.5, 0.0), ValueError, "shape_alpha must be positive and finite, got 0.0"),
    (lambda: CopulaSpec(Dependence.AR1, 0.5, math.inf), ValueError, "shape_alpha must be positive and finite, got inf"),
    (lambda: CopulaSpec(Dependence.AR1, 0.5, math.nan), ValueError, "shape_alpha must be positive and finite, got nan"),
    # scipy's gamma inverses give NaN or 0 at subnormal shapes
    (lambda: CopulaSpec(Dependence.AR1, 0.5, 1e-320), ValueError,
     "shape_alpha must be at least 2.2250738585072014e-308 (the smallest normal double), got 1e-320"),
    (lambda: DataMatrix(np.array([[np.nan]])), ValueError, "data entries must be finite"),
    (lambda: DataMatrix(np.empty((0, 3))), ValueError, "values must be a nonempty 2-d array"),
    (lambda: DataMatrix(np.ones((3, 2)), known_mean=np.ones(5)), ValueError, "known_mean must have length p"),
    (lambda: DataMatrix(np.ones((2, 2)), known_mean=[np.nan, 0.0]), ValueError, "known_mean entries must be finite"),
    (lambda: sample_gaussian_copula(CopulaSpec(Dependence.AR1, 0.2, 1.0), 0, 3, SeedSpec(1)), ValueError,
     "n and p must be at least 1"),
)
