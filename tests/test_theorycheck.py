import itertools
import math

import numpy as np
import pytest

from maxboot import theorycheck
from maxboot.cli import _check_reports
from maxboot.stat_core import concentration_fn, softmax_weights
from maxboot.theorycheck import (
    L1_BOUNDS,
    check_gaussian_anticoncentration,
    check_l1_bounds,
    check_lindeberg_permutation,
    check_smoothmax_sandwich,
    check_softmax_stability,
    fbeta_derivative,
    fd_smooth_max_tensor,
)

from conftest import seed


# ---------------------------------------------------------------------------
# derivative tensors
# ---------------------------------------------------------------------------


def test_order_one_is_softmax():
    z = np.array([0.4, -1.2, 0.9])
    np.testing.assert_array_equal(fbeta_derivative(z, 1.7, 1), softmax_weights(z, 1.7))


def test_order_two_equal_entries():
    beta = 2.5
    t = fbeta_derivative(np.array([1.0, 1.0]), beta, 2)
    np.testing.assert_allclose(t, beta * np.array([[0.25, -0.25], [-0.25, 0.25]]), atol=1e-15)


@pytest.mark.parametrize("order,rel_tol", [(1, 1e-9), (2, 1e-5), (3, 1e-5), (4, 1e-3)])
def test_derivatives_match_finite_differences(order, rel_tol, rng):
    beta = 1.5
    for _ in range(3):
        z = rng.standard_normal(4)
        exact = fbeta_derivative(z, beta, order)
        fd = fd_smooth_max_tensor(z, beta, order)
        rel = np.abs(fd - exact).max() / np.abs(exact).max()
        assert rel <= rel_tol


def test_tensors_are_exactly_symmetric(rng):
    z = rng.standard_normal(4)
    for order in (2, 3, 4):
        t = fbeta_derivative(z, 1.3, order)
        for perm in itertools.permutations(range(order)):
            np.testing.assert_array_equal(np.transpose(t, perm), t)


def test_tensor_entries_sum_to_zero(rng):
    # gradient sums to one, so every higher derivative of the sum vanishes
    z = rng.standard_normal(5)
    beta = 2.0
    assert fbeta_derivative(z, beta, 2).sum() == pytest.approx(0.0, abs=1e-15)
    assert fbeta_derivative(z, beta, 3).sum() == pytest.approx(0.0, abs=1e-13)
    assert fbeta_derivative(z, beta, 4).sum() == pytest.approx(0.0, abs=1e-13)


def test_tensor_guards():
    with pytest.raises(ValueError):
        fbeta_derivative(np.zeros(17), 1.0, 2)
    with pytest.raises(ValueError):
        fbeta_derivative(np.zeros(3), 1.0, 5)


# ---------------------------------------------------------------------------
# randomized inequality checks
# ---------------------------------------------------------------------------


def test_sandwich_check_passes():
    report = check_smoothmax_sandwich(500, seed(50))
    assert report.passed
    assert report.max_violation <= 1e-12


def test_l1_check_passes_and_order_one_is_tight():
    report = check_l1_bounds(300, seed(51))
    assert report.passed
    # ||pi||_1 = 1 = C_1 exactly, so the best ratio is 1
    assert "max ratio" in report.details
    assert float(report.details.split(":")[-1]) == pytest.approx(1.0, abs=1e-12)


def test_l1_equal_entries_order_two():
    # hand value: beta^{-1} F^(2) at equal entries has l1 norm 1 <= 2
    t = fbeta_derivative(np.zeros(2), 3.0, 2) / 3.0
    assert np.abs(t).sum() == pytest.approx(1.0, abs=1e-15)
    assert np.abs(t).sum() <= L1_BOUNDS[2]


def test_stability_check_passes():
    report = check_softmax_stability(500, seed(52))
    assert report.passed


def test_stability_constant_shift_exact():
    z = np.array([0.5, -0.3, 1.1])
    np.testing.assert_array_equal(softmax_weights(z + 2.0, 1.5), softmax_weights(z, 1.5))


# ---------------------------------------------------------------------------
# permutation-average identity
# ---------------------------------------------------------------------------


def test_lindeberg_identity_small_case_tight():
    report = check_lindeberg_permutation(2, 1, "smoothmax", seed(53))
    assert report.max_violation <= 1e-14


def test_lindeberg_identity_medium_case():
    report = check_lindeberg_permutation(4, 2, "smoothmax", seed(54))
    assert report.passed
    assert report.max_violation <= 1e-12


def test_lindeberg_constant_function():
    # constant c averages to c/n for every held-out index under the
    # (1/(n n!)) indicator weighting; the identity across i is exact
    n = 3
    report = check_lindeberg_permutation(n, 1, "const", seed(55))
    assert report.max_violation == 0.0
    values = eval(report.details.split(":", 1)[1])
    assert values == pytest.approx([1.0 / n] * n, abs=1e-15)


def test_lindeberg_rejects_unknown_function():
    with pytest.raises(ValueError):
        check_lindeberg_permutation(3, 1, "asymmetric", seed(56))
    with pytest.raises(ValueError):
        check_lindeberg_permutation(7, 1, "sumsq", seed(56))


# ---------------------------------------------------------------------------
# Gaussian anti-concentration
# ---------------------------------------------------------------------------


def test_anticoncentration_basic_cells():
    for p in (1, 10):
        report = check_gaussian_anticoncentration(p, 0.1, 20_000, seed(57, p))
        assert report.passed


def test_anticoncentration_bound_value():
    # p=10, sigma=1, eps=0.1: bound = 0.1 (4 + sqrt(2 log 100)) ~ 0.7035
    bound = 0.1 * (4.0 + math.sqrt(2.0 * math.log(100.0)))
    assert bound == pytest.approx(0.70350, abs=1e-4)
    report = check_gaussian_anticoncentration(10, 0.1, 20_000, seed(58))
    sup = float(report.details.split()[2])
    assert sup < bound / 3.0  # i.i.d. N(0,1) max is far below the bound


def test_anticoncentration_single_coordinate_closed_form():
    # p=1: sup_a P{a < xi <= a+eps} = Phi(eps/2) - Phi(-eps/2)
    eps = 0.3
    report = check_gaussian_anticoncentration(1, eps, 100_000, seed(59))
    sup = float(report.details.split()[2])
    closed = math.erf(eps / (2.0 * math.sqrt(2.0)))
    assert sup == pytest.approx(closed, abs=4.0 * math.sqrt(closed * (1 - closed) / 100_000))
    assert closed <= eps / math.sqrt(2 * math.pi) + 1e-12


def test_anticoncentration_vacuous_when_bound_exceeds_one():
    report = check_gaussian_anticoncentration(1, 5.0, 10_000, seed(60))
    assert report.passed  # bound > 1 makes the inequality vacuous


def test_anticoncentration_window_sup_is_never_below_the_old_grid(monkeypatch):
    # the check used to scan 512 half-open windows (g, g + eps] over mean +- 4 sd;
    # the points in such a window lie less than eps apart, so the window
    # [x, x + eps) anchored at the lowest of them holds them all, and the
    # exact sup the check takes now can only be larger
    seen = []

    def recording(dist, eps):
        seen.append((dist.sample, eps, concentration_fn(dist, eps)))
        return seen[-1][2]

    monkeypatch.setattr(theorycheck, "concentration_fn", recording)
    reports = list(_check_reports("anticonc", 1, 100_000, 20250808))
    assert len(reports) == len(seen) == 9
    for report, (maxima, eps, sup) in zip(reports, seen):
        center, spread = maxima.mean(), maxima.std()
        grid = np.linspace(center - 4.0 * spread, center + 4.0 * spread + eps, 512)
        counts = np.searchsorted(maxima, grid + eps, side="right") - np.searchsorted(
            maxima, grid, side="right"
        )
        assert sup >= counts.max() / maxima.size
        assert report.details.startswith(f"MC sup {sup:.5f} ")


def test_anticoncentration_rejects_small_mc():
    with pytest.raises(ValueError):
        check_gaussian_anticoncentration(3, 0.1, 100, seed(61))
