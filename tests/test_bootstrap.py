import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from maxboot import _kernels, bootstrap
from maxboot.bootstrap import (
    GAUSSIAN,
    MAMMEN,
    MAMMEN_PROB_PLUS,
    MAMMEN_VALUE_MINUS,
    MAMMEN_VALUE_PLUS,
    RADEMACHER,
    BootstrapPlan,
    _fill_rows,
    _rejected_rows,
    bootstrap_distribution,
    bootstrap_stat_once,
    draw_multipliers,
    mixed_coefficients,
    mixed_multiplier,
    multiplier_moment,
    multiplier_moments,
)
from maxboot.datagen import DataMatrix
from maxboot.rng import SeedSpec
from maxboot.stat_core import EmpiricalDistribution, MaxMode

from conftest import oracle_row, seed

ALL_PLANS = (
    BootstrapPlan.wild(GAUSSIAN),
    BootstrapPlan.wild(MAMMEN),
    BootstrapPlan.wild(RADEMACHER),
    BootstrapPlan.empirical(),
    BootstrapPlan.mixed_wild(0.5),
)


def mammen_moment(k: int) -> float:
    """k-th moment of the two-point law, straight from its definition."""
    p_plus = MAMMEN_PROB_PLUS
    return p_plus * MAMMEN_VALUE_PLUS**k + (1 - p_plus) * MAMMEN_VALUE_MINUS**k


# ---------------------------------------------------------------------------
# multiplier laws
# ---------------------------------------------------------------------------


def test_multiplier_moments_exact():
    assert multiplier_moments(GAUSSIAN) == (0.0, 1.0, 0.0)
    assert multiplier_moments(RADEMACHER) == (0.0, 1.0, 0.0)
    assert multiplier_moments(MAMMEN) == (0.0, 1.0, 1.0)
    assert multiplier_moments(mixed_multiplier(0.5)) == (0.0, 1.0, 1.0)


def test_mammen_two_point_law_reproduces_moments():
    # weighted sums over the two atoms
    assert mammen_moment(1) == pytest.approx(0.0, abs=1e-15)
    assert mammen_moment(2) == pytest.approx(1.0, abs=1e-15)
    assert mammen_moment(3) == pytest.approx(1.0, abs=1e-14)
    assert multiplier_moment(MAMMEN, 4) == pytest.approx(mammen_moment(4), abs=1e-14)
    assert MAMMEN_PROB_PLUS == pytest.approx(0.27639, abs=1e-5)
    assert MAMMEN_VALUE_PLUS == pytest.approx(1.61803, abs=1e-5)
    assert MAMMEN_VALUE_MINUS == pytest.approx(-0.61803, abs=1e-5)


def test_mixed_coefficients_printed_values():
    a0, b0 = mixed_coefficients(0.5)
    assert a0 == pytest.approx(0.6423387, abs=1e-6)
    assert b0 == pytest.approx(1.259921, abs=1e-6)


def test_mixed_moments_exact_for_any_p0():
    for p0 in (0.1, 0.5, 0.9):
        kind = mixed_multiplier(p0)
        a0, b0 = mixed_coefficients(p0)
        assert p0 * a0**2 + (1 - p0) * b0**2 == pytest.approx(1.0, abs=1e-14)
        assert (1 - p0) * b0**3 == pytest.approx(1.0, abs=1e-14)
        assert multiplier_moments(kind) == (0.0, 1.0, 1.0)


def test_multiplier_fourth_moments():
    assert multiplier_moment(GAUSSIAN, 4) == 3.0
    assert multiplier_moment(RADEMACHER, 4) == 1.0
    assert multiplier_moment(MAMMEN, 4) == pytest.approx(2.0, abs=1e-14)
    p0 = 0.5
    a0, b0 = mixed_coefficients(p0)
    expect = p0 * a0**4 * 3.0 + (1 - p0) * b0**4 * mammen_moment(4)
    assert multiplier_moment(mixed_multiplier(p0), 4) == pytest.approx(expect, abs=1e-13)


def test_sampled_moments_match_population():
    n = 1_000_000
    for kind in (GAUSSIAN, RADEMACHER, MAMMEN, mixed_multiplier(0.5)):
        w = draw_multipliers(kind, n, seed(10, hash(kind.name) % 100))
        m1, m2, m3 = multiplier_moments(kind)
        var1 = multiplier_moment(kind, 2) - m1**2
        assert w.mean() == pytest.approx(m1, abs=4 * math.sqrt(var1 / n))
        var2 = multiplier_moment(kind, 4) - m2**2
        if kind.name == "rademacher":
            assert np.all(w**2 == 1.0)  # W^2 is identically one
        else:
            assert (w**2).mean() == pytest.approx(m2, abs=4 * math.sqrt(var2 / n) + 1e-12)


def test_mammen_sampled_third_moment():
    n = 1_000_000
    w = draw_multipliers(MAMMEN, n, seed(11))
    var3 = mammen_moment(6) - mammen_moment(3) ** 2
    assert (w**3).mean() == pytest.approx(1.0, abs=4 * math.sqrt(var3 / n))


def test_mixed_branch_fraction():
    # Mammen-branch draws land on exactly two atoms; everything else is the
    # continuous Gaussian branch
    n = 1_000_000
    p0 = 0.5
    w = draw_multipliers(mixed_multiplier(p0), n, seed(12))
    _, b0 = mixed_coefficients(p0)
    atoms = np.isclose(w, b0 * MAMMEN_VALUE_PLUS) | np.isclose(w, b0 * MAMMEN_VALUE_MINUS)
    frac_gauss = 1.0 - atoms.mean()
    assert frac_gauss == pytest.approx(p0, abs=4 * math.sqrt(p0 * (1 - p0) / n))


def test_mixed_gaussian_branch_is_scaled_normal():
    n = 1_000_000
    p0 = 0.4
    a0, b0 = mixed_coefficients(p0)
    w = draw_multipliers(mixed_multiplier(p0), n, seed(13))
    atoms = np.isclose(w, b0 * MAMMEN_VALUE_PLUS) | np.isclose(w, b0 * MAMMEN_VALUE_MINUS)
    g = w[~atoms]
    assert g.mean() == pytest.approx(0.0, abs=4 * a0 / math.sqrt(g.size))
    assert g.var() == pytest.approx(a0**2, rel=0.02)


def test_multiplier_kind_validation():
    from maxboot.bootstrap import MultiplierKind

    with pytest.raises(ValueError):
        MultiplierKind("bogus")
    with pytest.raises(ValueError):
        MultiplierKind("mixed", p0=1.0)
    with pytest.raises(ValueError):
        MultiplierKind("gaussian", p0=0.5)


# ---------------------------------------------------------------------------
# weight rows
# ---------------------------------------------------------------------------


def redrawing_streams(n: int, spec: SeedSpec, b: int) -> list[int]:
    """Which of the streams spec.child(0..b-1) make numpy's integers(0, n, n)
    reject a 32-bit draw: Lemire's rule on the halves of the raw words, low
    half first, split arithmetically."""
    rows = []
    for r in range(b):
        words = spec.child(r).rng().bit_generator.random_raw((n + 1) // 2)
        halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel()[:n]
        if np.any((halves * np.uint64(n)) & 0xFFFFFFFF < (1 << 32) % n):
            rows.append(r)
    return rows


@pytest.mark.parametrize("b", [1, 65, 300])
@pytest.mark.parametrize("n", [2, 3, 57, 200, 20001])
def test_replicate_rows_equal_numpy_per_row_draws(n, b):
    spec = SeedSpec(7).child(2, n)
    if n == 20001 and b > 40:
        # without rows that numpy redraws, the redraw path would go untested
        assert redrawing_streams(n, spec, 40) == [15, 35]
    for plan in ALL_PLANS:
        rows = np.empty((b, n))
        _fill_rows(plan.multiplier, spec.child_rngs(b), rows)
        for r in range(b):
            expect = oracle_row(plan, n, spec.child(r).rng())
            assert rows[r].tobytes() == expect.tobytes(), (plan.name, r)


@pytest.mark.parametrize("plan", ALL_PLANS, ids=lambda plan: plan.name)
@pytest.mark.parametrize("n", [57, 20001])
def test_fill_rows_takes_exactly_one_stream_per_row(plan, n):
    # k rows take streams 0 to k-1 of the walk and leave stream k untaken,
    # also when the mixed law draws three times from each, and when
    # _bounded_integers redraws a stream from a new generator
    spec = SeedSpec(7).child(2, n)
    if n == 20001:
        # streams 15 and 35 redraw; 35 ends the second fill
        assert redrawing_streams(n, spec, 36) == [15, 35]
    rngs = spec.child_rngs(100)
    taken = 0
    for k in (1, 34, 3):
        rows = np.empty((k, n))
        _fill_rows(plan.multiplier, rngs, rows)
        for r in range(k):
            expect = oracle_row(plan, n, spec.child(taken + r).rng())
            assert rows[r].tobytes() == expect.tobytes(), (plan.name, taken + r)
        taken += k
        (after,) = rngs.take(1)
        assert after.bit_generator.state == spec.child(taken).rng().bit_generator.state
        taken += 1


def test_rejected_rows_exactly_below_the_threshold():
    # rows of halves 5, x, 9, where (x * k) mod 2**32 is one below the
    # threshold 2**32 mod k, and then the threshold itself
    k = 20001
    threshold = (1 << 32) % k
    x = [low * pow(k, -1, 1 << 32) % (1 << 32) for low in (threshold - 1, threshold)]
    halves = np.array([[5, x[0], 9], [5, x[1], 9]], dtype=np.uint32)
    assert _rejected_rows(halves.copy(), k).tolist() == [0]
    # 2**32 mod k is 0 for a power of two: nothing is ever rejected
    assert _rejected_rows(halves.copy(), 2).tolist() == []


def test_rejected_rows_match_python_ints():
    # 2**32 mod k is about a third of 2**32, so about a third of the draws
    # are rejected and most rows hold one
    k = (1 << 32) // 3 + 1
    halves = np.random.default_rng(3).integers(0, 1 << 32, (50, 3), dtype=np.uint32)
    want = [r for r, row in enumerate(halves.tolist()) if any(x * k % (1 << 32) < (1 << 32) % k for x in row)]
    assert 0 < len(want) < 50
    assert _rejected_rows(halves.copy(), k).tolist() == want


# walks of 128 streams at n 20001, where numpy rejects a draw in these rows
REDRAW_WALKS = {
    "tile-position-0": (SeedSpec(4).child(2, 20001), [7, 64, 101, 106]),
    "tile-position-63": (SeedSpec(11).child(2, 20001), [13, 76, 122, 127]),
    "two-in-one-tile": (SeedSpec(26).child(2, 20001), [7, 37]),
}


@pytest.mark.parametrize("case", REDRAW_WALKS)
def test_redrawn_rows_equal_numpy_per_row_draws(seating, case):
    spec, redrawn = REDRAW_WALKS[case]
    n, b = 20001, 128
    assert redrawing_streams(n, spec, b) == redrawn
    walk, rows = spec.child_rngs(b + 1), np.empty((b, n))
    for start in range(0, b, _kernels._TILE):
        _fill_rows(None, walk, rows[start : start + _kernels._TILE])
    for r in range(b):
        expect = oracle_row(BootstrapPlan.empirical(), n, spec.child(r).rng())
        assert rows[r].tobytes() == expect.tobytes(), r
    # the redraws leave the walk where it was
    (after,) = walk.take(1)
    assert after.bit_generator.state == spec.child(b).rng().bit_generator.state


# ---------------------------------------------------------------------------
# bootstrap statistics
# ---------------------------------------------------------------------------


def test_identical_rows_give_zero_empirical_statistic():
    data = DataMatrix(np.tile([1.5, -2.0, 0.25], (6, 1)))
    plan = BootstrapPlan.empirical(b_reps=5)
    for s in range(20):
        assert bootstrap_stat_once(data, plan, MaxMode.ONE_SIDED, seed(20, s)) == 0.0
    d = bootstrap_distribution(data, plan, MaxMode.ABSOLUTE, seed(21))
    assert np.all(d.sample == 0.0)


def test_rademacher_triangle_inequality():
    values = np.array([[0.7], [-1.3], [2.1], [0.2], [-0.5]])
    data = DataMatrix(values)
    xc = values - values.mean()
    bound = np.abs(xc).sum() / math.sqrt(5)
    plan = BootstrapPlan.wild(RADEMACHER, b_reps=1)
    for s in range(50):
        stat = bootstrap_stat_once(data, plan, MaxMode.ABSOLUTE, seed(22, s))
        assert stat <= bound + 1e-12


def test_empirical_two_point_enumeration():
    # rows {0, 2}: centered points are -1, +1; the four equiprobable
    # resamples give statistic sqrt(2) * {-1, 0, 0, +1}
    data = DataMatrix(np.array([[0.0], [2.0]]))
    plan = BootstrapPlan.empirical(b_reps=6000)
    d = bootstrap_distribution(data, plan, MaxMode.ONE_SIDED, seed(23))
    support = {-math.sqrt(2.0), 0.0, math.sqrt(2.0)}
    assert all(any(abs(v - s) < 1e-12 for s in support) for v in d.sample)
    # exact conditional law: probabilities 1/4, 1/2, 1/4; mean 0, variance 1
    b = d.size
    se = 1.0 / math.sqrt(b)
    assert d.sample.mean() == pytest.approx(0.0, abs=4 * se)
    freq_zero = np.mean(np.abs(d.sample) < 1e-12)
    assert freq_zero == pytest.approx(0.5, abs=4 * math.sqrt(0.25 / b))


def test_rademacher_exact_enumeration_oracle():
    # n=5, p=1: all 32 sign patterns give the exact conditional law
    values = np.array([[0.9], [-0.4], [1.7], [0.3], [-1.2]])
    data = DataMatrix(values)
    xc = (values - values.mean()).ravel()
    stats = []
    for signs in itertools.product([-1.0, 1.0], repeat=5):
        stats.append(np.dot(signs, xc) / math.sqrt(5))
    exact_mean = np.mean(stats)
    exact_sd = np.std(stats)
    b = 100_000
    plan = BootstrapPlan.wild(RADEMACHER, b_reps=b)
    d = bootstrap_distribution(data, plan, MaxMode.ONE_SIDED, seed(24))
    assert d.sample.mean() == pytest.approx(exact_mean, abs=4 * exact_sd / math.sqrt(b))


ORACLE_B = 20_000
# the Dvoretzky-Kiefer-Wolfowitz bound (Massart's constant) at level 0.001:
# P(KS of b draws from a law against that law > DKW_BOUND) <= 0.001
DKW_BOUND = math.sqrt(math.log(2.0 / 1e-3) / (2 * ORACLE_B))


def two_point_law(minus: float, plus: float, p_plus: float, n: int):
    """Every weight vector of n i.i.d. two-point draws, with its probability."""
    weights = np.array(list(itertools.product([minus, plus], repeat=n)))
    return weights, np.prod(np.where(weights == plus, p_plus, 1.0 - p_plus), axis=1)


def multinomial_law(n: int):
    """Every count vector of n draws from n rows, with its probability."""
    draws = itertools.combinations_with_replacement(range(n), n)
    counts = np.array([np.bincount(d, minlength=n) for d in draws])
    return counts, stats.multinomial(n, np.full(n, 1.0 / n)).pmf(counts)


ENUMERATED_LAWS = {
    "rademacher": (RADEMACHER, 10, lambda: two_point_law(-1.0, 1.0, 0.5, 10)),
    "mammen": (
        MAMMEN, 10, lambda: two_point_law(MAMMEN_VALUE_MINUS, MAMMEN_VALUE_PLUS, MAMMEN_PROB_PLUS, 10)
    ),
    "empirical": (None, 6, lambda: multinomial_law(6)),
}


@pytest.mark.parametrize("master", [20250808, 11])
@pytest.mark.parametrize("mode", list(MaxMode))
@pytest.mark.parametrize("law", list(ENUMERATED_LAWS))
def test_bootstrap_law_is_its_enumerated_exact_law(law, mode, master):
    # the exact conditional law of T* = max_j sum_i w_i xc_ij / sqrt(n) over
    # every weight vector w, against b draws of the pipeline: every draw must
    # lie on the exact support, and the KS distance must be within the DKW
    # bound.  An empirical law drawing its indices from n - 1 rows gives KS
    # 0.10-0.25 and fails every case; a 5% shift of Mammen's P+ either way
    # gives 0.011-0.023, near the bound 0.0138, so it fails only some cases.
    # Values are rounded to 1e-9 before atoms are merged: the GEMM and a
    # matvec round the zero-sum atom to different +-1e-17 values.
    multiplier, n, enumerate_law = ENUMERATED_LAWS[law]
    values = SeedSpec(master).child(90).rng().standard_normal((n, 3))
    weights, probs = enumerate_law()
    sums = weights @ (values - values.mean(axis=0)) / math.sqrt(n)
    exact = np.round((np.abs(sums) if mode is MaxMode.ABSOLUTE else sums).max(axis=1), 9)
    atoms, where = np.unique(exact, return_inverse=True)
    cdf = np.cumsum(np.bincount(where, weights=probs))
    left = np.concatenate(([0.0], cdf[:-1]))
    plan = BootstrapPlan(multiplier, ORACLE_B)
    draws = bootstrap_distribution(DataMatrix(values), plan, mode, SeedSpec(master).child(91, n))
    sample = np.round(draws.sample, 9)
    assert np.isin(sample, atoms).all()
    ks = max(
        np.abs(np.searchsorted(sample, atoms, "right") / ORACLE_B - cdf).max(),
        np.abs(np.searchsorted(sample, atoms, "left") / ORACLE_B - left).max(),
    )
    assert ks <= DKW_BOUND


@pytest.mark.parametrize("master", [20250808, 11])
@pytest.mark.parametrize("mode", list(MaxMode))
def test_gaussian_bootstrap_law_at_p_one_is_normal(mode, master):
    # at p 1, T* = sum_i w_i xc_i / sqrt(n) is exactly N(0, sum_i xc_i^2 / n),
    # and its absolute value in abs mode; KS within the DKW bound
    n = 10
    values = SeedSpec(master).child(90).rng().standard_normal((n, 1))
    scale = math.sqrt(np.sum((values - values.mean()) ** 2) / n)
    law = stats.halfnorm(scale=scale) if mode is MaxMode.ABSOLUTE else stats.norm(scale=scale)
    plan = BootstrapPlan.wild(GAUSSIAN, ORACLE_B)
    draws = bootstrap_distribution(DataMatrix(values), plan, mode, SeedSpec(master).child(91, n))
    assert stats.kstest(draws.sample, law.cdf).statistic <= DKW_BOUND


def test_b_reps_one_matches_stat_once_substream():
    data = DataMatrix(np.arange(12.0).reshape(6, 2) ** 1.3)
    for plan in (
        BootstrapPlan.empirical(b_reps=1),
        BootstrapPlan.wild(MAMMEN, b_reps=1),
        BootstrapPlan.mixed_wild(0.5, b_reps=1),
    ):
        d = bootstrap_distribution(data, plan, MaxMode.ONE_SIDED, seed(25))
        one = bootstrap_stat_once(data, plan, MaxMode.ONE_SIDED, seed(25).child(0))
        assert d.sample[0] == one


@pytest.mark.parametrize(
    "n, p, b, thread_control",
    [(57, 33, b, True) for b in (1, 63, 64, 65, 130)] + [(57, 33, 130, False), (20001, 3, 65, True)],
)
def test_every_replicate_at_tile_boundaries_matches_stat_once(n, p, b, thread_control, monkeypatch):
    # replicate r of the tiled walk, read before the law sorts it, against
    # replicate r drawn and reduced alone
    spec = SeedSpec(7).child(2, n)
    if n == 20001:
        # a stream that numpy redraws must fall inside the walk
        assert redrawing_streams(n, spec, b)
    if not thread_control:
        monkeypatch.setattr(_kernels, "_blas_threads", lambda: None)
    walked = []

    def record(stats):
        walked.append(np.array(stats))
        return EmpiricalDistribution(stats)

    monkeypatch.setattr(bootstrap, "EmpiricalDistribution", record)
    data = DataMatrix(np.random.default_rng(n).gamma(1.0, 1.0, (n, p)), known_mean=np.ones(p))
    for plan in ALL_PLANS:
        plan = dataclasses.replace(plan, b_reps=b)
        for mode in MaxMode:
            law = bootstrap_distribution(data, plan, mode, spec)
            (stats,) = walked
            walked.clear()
            once = np.array([bootstrap_stat_once(data, plan, mode, spec.child(r)) for r in range(b)])
            assert stats.tobytes() == once.tobytes(), (plan.name, mode, np.flatnonzero(stats != once))
            assert law.sample.tobytes() == np.sort(once).tobytes()


@pytest.mark.parametrize("plan", ALL_PLANS, ids=lambda plan: plan.name)
def test_no_law_holds_a_block_of_weight_rows(plan):
    # the walk holds tiles of weight rows, never all b of them: the peak of
    # one law above its centered matrix stays below one (b, n) float block
    n, p, b = 200, 400, 500
    plan = dataclasses.replace(plan, b_reps=b)
    data = DataMatrix(np.random.default_rng(3).gamma(1.0, 1.0, (n, p)), known_mean=np.ones(p))
    # the first call resolves the lazy caches (BLAS thread control, the
    # stream-state layout check)
    bootstrap_distribution(data, plan, MaxMode.ONE_SIDED, seed(40))
    tracemalloc.start()
    try:
        bootstrap_distribution(data, plan, MaxMode.ONE_SIDED, seed(41))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - n * p * 8 < 8 * b * n


def test_determinism_across_runs_and_threads():
    from concurrent.futures import ThreadPoolExecutor

    data = DataMatrix(np.sin(np.arange(40.0)).reshape(10, 4))
    plan = BootstrapPlan.wild(GAUSSIAN, b_reps=64)
    ref = bootstrap_distribution(data, plan, MaxMode.ABSOLUTE, seed(26)).sample
    again = bootstrap_distribution(data, plan, MaxMode.ABSOLUTE, seed(26)).sample
    assert np.array_equal(ref, again)
    with ThreadPoolExecutor(max_workers=4) as pool:
        futs = [
            pool.submit(bootstrap_distribution, data, plan, MaxMode.ABSOLUTE, seed(26))
            for _ in range(4)
        ]
        for f in futs:
            assert np.array_equal(f.result().sample, ref)


def test_bootstrap_rejects_single_row():
    data = DataMatrix(np.ones((1, 3)))
    with pytest.raises(ValueError):
        bootstrap_stat_once(data, BootstrapPlan.empirical(), MaxMode.ONE_SIDED, seed(27))


def test_plan_validation_and_centering_flags():
    with pytest.raises(ValueError):
        BootstrapPlan.mixed_wild(p0=0.0)
    with pytest.raises(ValueError):
        BootstrapPlan.empirical(b_reps=0)
    assert BootstrapPlan.empirical().center_by_sample_mean
    assert BootstrapPlan.wild(MAMMEN).center_by_sample_mean
    assert not BootstrapPlan.mixed_wild(0.5).center_by_sample_mean
    # a wild plan with the mixed law is the mixed wild bootstrap, centering included
    assert BootstrapPlan.wild(mixed_multiplier(0.3)) == BootstrapPlan.mixed_wild(0.3)
    assert not BootstrapPlan.wild(mixed_multiplier(0.3)).center_by_sample_mean


def test_mixed_wild_warns_without_known_mean(caplog):
    data = DataMatrix(np.arange(8.0).reshape(4, 2))
    plan = BootstrapPlan.mixed_wild(0.5, b_reps=2)
    with caplog.at_level("WARNING", logger="maxboot.bootstrap"):
        bootstrap_distribution(data, plan, MaxMode.ONE_SIDED, seed(28))
    assert any("known mean" in rec.message for rec in caplog.records)


def test_mixed_wild_centers_at_known_mean():
    # with a known mean of zero and all-positive data, mixed-wild statistics
    # see the raw rows, not mean-centered ones
    values = np.abs(np.sin(np.arange(20.0))).reshape(10, 2) + 1.0
    data_known = DataMatrix(values, known_mean=np.zeros(2))
    data_plain = DataMatrix(values)
    plan = BootstrapPlan.mixed_wild(0.5, b_reps=16)
    d_known = bootstrap_distribution(data_known, plan, MaxMode.ONE_SIDED, seed(29))
    d_plain = bootstrap_distribution(data_plain, plan, MaxMode.ONE_SIDED, seed(29))
    assert not np.array_equal(d_known.sample, d_plain.sample)


# ---------------------------------------------------------------------------
# conditional moment structure
# ---------------------------------------------------------------------------


def test_wild_conditional_moment_match():
    # plug-in average tensor over B replicates approaches E W^m * sample tensor
    from oracles import bootstrap_moment_tensor_mc

    rng = np.random.default_rng(77)
    data = DataMatrix(rng.gamma(1.0, 1.0, (4, 2)))
    xc = data.values - data.values.mean(axis=0)
    b = 100_000
    for kind in (GAUSSIAN, MAMMEN, RADEMACHER):
        plan = BootstrapPlan.wild(kind, b_reps=b)
        for order in (2, 3):
            target = multiplier_moment(kind, order) * np.einsum(
                {2: "ia,ib->ab", 3: "ia,ib,ic->abc"}[order], *([xc] * order)
            ) / 4.0
            mc, se = bootstrap_moment_tensor_mc(data, plan, order, seed(30, order))
            assert np.all(np.abs(mc - target) <= 4.0 * se + 1e-12)


def test_empirical_conditional_mean_is_zero():
    # conditional mean of sum X*_i / sqrt(n) is exactly zero; the Monte Carlo
    # average of the one-sided statistic on p=1 data estimates E* max = E* sum
    values = np.array([[0.3], [1.1], [-0.7], [2.2], [0.5], [-1.4]])
    data = DataMatrix(values)
    b = 100_000
    d = bootstrap_distribution(data, BootstrapPlan.empirical(b_reps=b), MaxMode.ONE_SIDED, seed(31))
    xc = values - values.mean()
    cond_sd = math.sqrt(float((xc**2).mean()))  # sd of one resampled point
    assert d.sample.mean() == pytest.approx(0.0, abs=4 * cond_sd / math.sqrt(b))


def test_mixed_conditional_gaussian_parameters():
    # conditionally on the branch pattern and Mammen draws, the normalized
    # sum is Gaussian with mean b0/sqrt(n) sum (1-d_i) w0_i X_i and
    # per-coordinate variance a0^2/n sum d_i X_ij^2
    rng = np.random.default_rng(4242)
    n, p, p0 = 5, 2, 0.5
    x = rng.standard_normal((n, p))
    a0, b0 = mixed_coefficients(p0)
    delta = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    w0 = np.where(rng.random(n) < MAMMEN_PROB_PLUS, MAMMEN_VALUE_PLUS, MAMMEN_VALUE_MINUS)
    mu_target = b0 / math.sqrt(n) * ((1 - delta) * w0) @ x
    sd_target = np.sqrt(a0**2 / n * (delta[:, None] * x**2).sum(axis=0))

    reps = 400_000
    z = rng.standard_normal((reps, n))
    w_star = a0 * delta * z + b0 * (1 - delta) * w0
    z_star = w_star @ x / math.sqrt(n)
    se_mean = sd_target / math.sqrt(reps)
    np.testing.assert_array_less(np.abs(z_star.mean(axis=0) - mu_target), 4 * se_mean)
    np.testing.assert_allclose(z_star.std(axis=0), sd_target, rtol=0.02)


def test_forced_gaussian_branch_variance():
    # with every branch indicator forced to one the statistic is exactly
    # a0 * max of a Gaussian with covariance a0^2 X^T X / n
    rng = np.random.default_rng(11)
    n, p = 6, 3
    x = rng.standard_normal((n, p))
    a0, _ = mixed_coefficients(0.5)
    reps = 200_000
    z = rng.standard_normal((reps, n))
    z_star = a0 * (z @ x) / math.sqrt(n)
    target_var = a0**2 * (x**2).sum(axis=0) / n
    np.testing.assert_allclose(z_star.var(axis=0), target_var, rtol=0.02)


# ---------------------------------------------------------------------------
# scheme tokens
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "tokens, plan",
    [
        (("g", "gaussian", "G", " Gaussian "), BootstrapPlan.wild(GAUSSIAN, 7)),
        (("m", "mammen", "M", " MAMMEN"), BootstrapPlan.wild(MAMMEN, 7)),
        (("r", "rademacher", "R", "Rademacher "), BootstrapPlan.wild(RADEMACHER, 7)),
        (("e", "empirical", "E", " EMPIRICAL "), BootstrapPlan.empirical(7)),
        (("mix", "mix:", "mixed", "MIX", " Mixed: "), BootstrapPlan.mixed_wild(b_reps=7)),
        (("mix:0.3", "mixed:0.3", " MIX:0.3 "), BootstrapPlan.mixed_wild(0.3, 7)),
    ],
    ids=["gaussian", "mammen", "rademacher", "empirical", "mixed", "mixed-p0"],
)
def test_parse_gives_the_constructors_plan(tokens, plan):
    assert [BootstrapPlan.parse(token, 7) for token in tokens] == [plan] * len(tokens)


@pytest.mark.parametrize("token", ["g:0.3", "e:0.2", "r:1", "mammen:0.5", "mix:0", "mix:x"])
def test_parse_rejects_an_argument_the_law_does_not_take(token):
    with pytest.raises(ValueError) as err:
        BootstrapPlan.parse(token, 7)
    assert str(err.value) == f"bad scheme {token!r} (use mix[:p0] with p0 a number in (0, 1))"


@pytest.mark.parametrize("token, shown", [(" ZZ ", "zz"), ("", "")], ids=["zz", "empty"])
def test_parse_rejects_unknown_tokens(token, shown):
    with pytest.raises(ValueError) as err:
        BootstrapPlan.parse(token, 7)
    assert str(err.value) == f"unknown scheme {shown!r} (use g, m, r, e, mix[:p0])"
