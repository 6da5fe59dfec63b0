import math

import numpy as np
import pytest

from maxboot.datagen import DataMatrix
from maxboot.stat_core import (
    EmpiricalDistribution,
    MaxMode,
    concentration_fn,
    max_statistic,
    smooth_max,
    softmax_weights,
    two_sample_ks,
    upper_quantile,
)

from conftest import rejection_table


def dist(*values):
    return EmpiricalDistribution(np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def ks_oracle(a, b):
    """sup |F_a - F_b| scanned just after every pooled point."""
    pts = np.unique(np.concatenate([a, b]))
    best = 0.0
    for t in pts:
        fa = np.mean(a <= t)
        fb = np.mean(b <= t)
        best = max(best, abs(fa - fb))
    return best


def concentration_oracle(sample, eps):
    """sup_t P{t - eps < X < t} by scanning intervals anchored near points."""
    best = 0
    deltas = [1e-9, 1e-12]
    for x in sample:
        for d in deltas:
            lo = x - d  # interval (lo, lo + eps)
            best = max(best, np.sum((sample > lo) & (sample < lo + eps)))
    return best / len(sample)


# ---------------------------------------------------------------------------
# max statistic
# ---------------------------------------------------------------------------


def test_max_statistic_degenerate_zero():
    data = DataMatrix(np.zeros((4, 3)))
    center = np.zeros(3)
    assert max_statistic(data, center, MaxMode.ONE_SIDED) == 0.0
    assert max_statistic(data, center, MaxMode.ABSOLUTE) == 0.0


def test_max_statistic_single_row():
    data = DataMatrix(np.array([[3.0, -5.0]]))
    center = np.zeros(2)
    assert max_statistic(data, center, MaxMode.ONE_SIDED) == 3.0
    assert max_statistic(data, center, MaxMode.ABSOLUTE) == 5.0


def test_max_statistic_centering_identity():
    # integer-valued data keeps the identity exact in floating point
    values = np.array([[1.0, 2.0], [3.0, 6.0], [5.0, 4.0], [7.0, 8.0]])
    data = DataMatrix(values)
    means = values.mean(axis=0)
    centered = DataMatrix(values - means)
    for mode in MaxMode:
        assert max_statistic(data, means, mode) == max_statistic(centered, np.zeros(2), mode)


# ---------------------------------------------------------------------------
# smooth max and softmax
# ---------------------------------------------------------------------------


def test_smooth_max_single_coordinate():
    assert smooth_max(np.array([1.7]), 2.5) == 1.7


def test_smooth_max_equal_entries_saturates_bound():
    p, c, beta = 8, 2.0, 0.5
    assert smooth_max(np.full(p, c), beta) == pytest.approx(c + math.log(p) / beta, abs=1e-14)


def test_smooth_max_no_overflow():
    assert smooth_max(np.array([0.0, -1000.0]), 1.0) == pytest.approx(0.0, abs=1e-12)
    assert smooth_max(np.array([1e4, 0.0]), 1.0) == pytest.approx(1e4, rel=1e-12)


def wide_inputs(rng, count, beta_max):
    """count random (z, beta) with |z| up to 1e3 and beta from 0.01 to beta_max."""
    return [
        (rng.uniform(-1.0, 1.0, int(rng.integers(1, 50))) * 10.0 ** rng.uniform(-2, 3),
         10.0 ** rng.uniform(-2, math.log10(beta_max)))
        for _ in range(count)
    ]


# a smooth max or softmax without the max shift overflows on these
edge_vectors = pytest.mark.parametrize(
    "z",
    [np.zeros(4), np.array([1e3, -1e3]), np.array([-1e3, 5e-324, -1e3])],
    ids=["zeros", "pm1e3", "subnormal"],
)


def assert_sandwich(z, beta):
    fb = smooth_max(z, beta)
    assert z.max() - 1e-12 <= fb <= z.max() + math.log(z.size) / beta + 1e-12


def assert_partition_of_unity(w):
    assert abs(w.sum() - 1.0) <= 1e-14
    assert np.all(w >= 0.0)


@edge_vectors
@pytest.mark.parametrize("beta", [0.01, 100.0])
def test_smooth_max_sandwich_edges(z, beta):
    assert_sandwich(z, beta)


def test_softmax_equal_entries():
    np.testing.assert_allclose(softmax_weights(np.full(4, 3.3), 2.0), np.full(4, 0.25), atol=1e-15)


def test_softmax_two_point():
    w = softmax_weights(np.array([1.0, 0.0]), 1.0)
    e = math.e
    np.testing.assert_allclose(w, [e / (e + 1), 1 / (e + 1)], atol=1e-12)


def test_softmax_sums_to_one(rng):
    # scales kept below the exp underflow threshold so positivity is exact
    for _ in range(200):
        z = rng.standard_normal(int(rng.integers(1, 30))) * 10.0 ** rng.uniform(-2, 1)
        w = softmax_weights(z, 10.0 ** rng.uniform(-2, 1))
        assert abs(w.sum() - 1.0) <= 1e-14
        assert np.all(w > 0.0) and np.all(w < 1.0 + 1e-15)
    # wider scales, where weights underflow to 0
    for z, beta in wide_inputs(rng, 200, 10.0):
        assert_partition_of_unity(softmax_weights(z, beta))


@edge_vectors
@pytest.mark.parametrize("beta", [0.01, 10.0])
def test_softmax_sums_to_one_edges(z, beta):
    assert_partition_of_unity(softmax_weights(z, beta))


def test_softmax_is_gradient_of_smooth_max(rng):
    p, beta, h = 5, 2.0, 1e-6
    z = rng.standard_normal(p)
    grad_fd = np.empty(p)
    for j in range(p):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        grad_fd[j] = (smooth_max(zp, beta) - smooth_max(zm, beta)) / (2 * h)
    np.testing.assert_allclose(grad_fd, softmax_weights(z, beta), atol=1e-6)


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------


def test_upper_quantile_matches_infimum_definition():
    d = dist(*range(1, 21))
    # exactly one of 20 values exceeds 19: fraction 0.05 <= alpha
    assert upper_quantile(d, 0.05) == 19.0
    assert upper_quantile(d, 0.5) == 10.0


def test_upper_quantile_single_point():
    for alpha in (0.01, 0.5, 0.99):
        assert upper_quantile(dist(7.5), alpha) == 7.5


def test_upper_quantile_infimum_oracle(rng):
    # smallest sample value t with #{x > t}/B <= alpha
    for _ in range(50):
        sample = np.sort(rng.standard_normal(int(rng.integers(1, 40))))
        alpha = float(rng.uniform(0.01, 0.99))
        d = EmpiricalDistribution(sample)
        candidates = [t for t in sample if np.mean(sample > t) <= alpha]
        assert upper_quantile(d, alpha) == min(candidates)


def test_upper_quantile_nonincreasing_in_alpha(rng):
    d = EmpiricalDistribution(rng.standard_normal(37))
    qs = [upper_quantile(d, a) for a in np.arange(0.01, 1.0, 0.01)]
    assert all(x >= y for x, y in zip(qs, qs[1:]))


# ---------------------------------------------------------------------------
# KS distance
# ---------------------------------------------------------------------------


def test_ks_identical_samples():
    assert two_sample_ks(dist(1, 2, 3), dist(1, 2, 3)) == 0.0


def test_ks_disjoint_point_masses():
    assert two_sample_ks(dist(0, 0), dist(1, 1)) == 1.0


def test_ks_interleaved():
    assert two_sample_ks(dist(1, 3), dist(2, 4)) == 0.5


def test_ks_matches_oracle(rng):
    for _ in range(100):
        a = rng.standard_normal(int(rng.integers(1, 25)))
        b = rng.standard_normal(int(rng.integers(1, 25))) + rng.uniform(-1, 1)
        got = two_sample_ks(EmpiricalDistribution(a), EmpiricalDistribution(b))
        assert got == pytest.approx(ks_oracle(a, b), abs=1e-14)


def test_ks_symmetric_bounded_zero_iff_equal(rng):
    a = rng.standard_normal(15)
    b = rng.standard_normal(20)
    da, db = EmpiricalDistribution(a), EmpiricalDistribution(b)
    assert two_sample_ks(da, db) == two_sample_ks(db, da)
    assert 0.0 <= two_sample_ks(da, db) <= 1.0
    # same multiset (up to ordering) induces the same step function
    assert two_sample_ks(da, EmpiricalDistribution(a[::-1].copy())) == 0.0
    assert two_sample_ks(da, db) > 0.0


# ---------------------------------------------------------------------------
# concentration function
# ---------------------------------------------------------------------------


def test_concentration_point_mass():
    assert concentration_fn(dist(0.0, 0.0, 0.0), 0.05) == 1.0


def test_concentration_unit_spaced_integers():
    # any open interval of length 0.5 contains at most one integer
    assert concentration_fn(EmpiricalDistribution(np.arange(1.0, 101.0)), 0.5) == 0.01


def test_concentration_grid_spacing():
    # grid spacing delta: an open interval of length 2.5*delta fits three
    # points (span 2*delta < 2.5*delta); length 2*delta fits only two
    delta = 0.25
    sample = EmpiricalDistribution(np.arange(0.0, 25.0, delta))
    n = sample.size
    assert concentration_fn(sample, 2.5 * delta) == pytest.approx(3.0 / n)
    assert concentration_fn(sample, 2.0 * delta) == pytest.approx(2.0 / n)


def test_concentration_matches_oracle(rng):
    for _ in range(60):
        sample = np.round(rng.standard_normal(int(rng.integers(1, 30))), 1)
        eps = float(rng.uniform(0.05, 1.0))
        got = concentration_fn(EmpiricalDistribution(sample), eps)
        assert got == pytest.approx(concentration_oracle(sample, eps), abs=1e-12)


# ---------------------------------------------------------------------------
# empirical distribution container
# ---------------------------------------------------------------------------


def test_distribution_sorts():
    d = dist(3.0, 1.0, 2.0)
    assert d.sample.tolist() == [1.0, 2.0, 3.0]


test_rejects_bad_input = rejection_table(
    (lambda: dist(1.0, float("nan")), ValueError, "sample must not contain NaN"),
    (lambda: EmpiricalDistribution(np.array([])), ValueError, "sample must be a nonempty 1-d array"),
    (lambda: max_statistic(DataMatrix(np.ones((2, 3))), np.zeros(2), MaxMode.ONE_SIDED), ValueError,
     "center must have length p=3"),
    (lambda: smooth_max(np.zeros(2), 0.0), ValueError, "beta must be positive"),
    (lambda: smooth_max(np.zeros((2, 2)), 1.0), ValueError, "z must be a nonempty 1-d array"),
    (lambda: softmax_weights(np.zeros(2), -1.0), ValueError, "beta must be positive"),
    (lambda: softmax_weights(np.array([]), 1.0), ValueError, "z must be a nonempty 1-d array"),
    (lambda: upper_quantile(dist(1.0), 0.0), ValueError, "alpha must lie in (0, 1)"),
    (lambda: upper_quantile(dist(1.0), 1.0), ValueError, "alpha must lie in (0, 1)"),
    (lambda: concentration_fn(dist(0.0), -1.0), ValueError, "eps must be positive"),
)
