import numpy as np
import pytest

from maxboot import _kernels


def count_rows(rng, b: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Resample index rows and the multinomial count rows they make."""
    idx = rng.integers(0, n, (b, n), dtype=np.int64)
    counts = np.array([np.bincount(row, minlength=n) for row in idx], dtype=float)
    return idx, counts


def test_count_rows_match_gather_sum_oracle(rng):
    # the empirical bootstrap's count weights against summing the resampled rows
    n, p = 37, 11
    xc = rng.standard_normal((n, p))
    idx, counts = count_rows(rng, 23, n)
    for absolute in (False, True):
        sums = np.array([xc[row].sum(axis=0) for row in idx])
        stats = np.abs(sums) if absolute else sums
        np.testing.assert_allclose(
            _kernels.max_reduce(xc, counts, absolute), stats.max(axis=1) / np.sqrt(n), rtol=1e-12
        )


def test_numpy_single_row_matches_batch(rng):
    # a replicate's value must not depend on which batch it is computed in
    xc = rng.standard_normal((20, 6))
    w = rng.standard_normal((10, 20))
    _, counts = count_rows(rng, 10, 20)
    full_w = _kernels.max_reduce(xc, w, False)
    full_c = _kernels.max_reduce(xc, counts, True)
    for r in range(10):
        assert _kernels.max_reduce(xc, w[r : r + 1], False)[0] == full_w[r]
        assert _kernels.max_reduce(xc, counts[r : r + 1], True)[0] == full_c[r]


def test_shape_validation():
    with pytest.raises(ValueError):
        _kernels.max_reduce(np.zeros((4, 2)), np.zeros((3, 5)), False)
