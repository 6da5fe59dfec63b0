import dataclasses
import math

import numpy as np
import pytest

from maxboot.bootstrap import GAUSSIAN, MAMMEN, RADEMACHER, BootstrapPlan, multiplier_moment
from maxboot.datagen import DataMatrix
from maxboot.moments import (
    Centering,
    MomentSummary,
    RateBranch,
    _DegenerateSummary,
    estimate_moment_summary,
    moment_tensor_diff_max,
    rate_certificate,
)

from conftest import oracle_row, rejection_table, seed
from oracles import bootstrap_moment_tensor_mc


def sample_tensor_max(values: np.ndarray, order: int) -> float:
    """Sup norm of the sample-centered moment tensor, by direct loops."""
    xc = values - values.mean(axis=0)
    n, p = xc.shape
    best = 0.0
    idx = np.ndindex(*(p,) * order)
    for index in idx:
        entry = np.prod([xc[:, j] for j in index], axis=0).mean()
        best = max(best, abs(entry))
    return best


# ---------------------------------------------------------------------------
# moment summary
# ---------------------------------------------------------------------------


def test_summary_on_sign_matrix():
    # columns (-1, +1) and (+1, -1) with known mean zero: every |x|^m = 1
    data = DataMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]), known_mean=np.zeros(2))
    s = estimate_moment_summary(data, Centering.KNOWN_MEAN)
    assert s.M2 == s.M4 == s.M6 == s.sigma_lower == 1.0
    assert s.Mcal4 == 1.0


def test_summary_all_zero_data():
    data = DataMatrix(np.zeros((4, 3)), known_mean=np.zeros(3))
    s = estimate_moment_summary(data, Centering.KNOWN_MEAN)
    assert (s.M2, s.M4, s.M6, s.sigma_lower, s.Mcal4) == (0.0,) * 5


def test_summary_single_column_collapse():
    rng = np.random.default_rng(7)
    data = DataMatrix(rng.gamma(2.0, 1.0, (30, 1)))
    s = estimate_moment_summary(data, Centering.SAMPLE_MEAN)
    assert s.M4 == s.Mcal4 == s.Mcal_m1[4] == s.Mcal_m2[4]


def test_summary_power_mean_ordering(rng):
    for _ in range(20):
        data = DataMatrix(rng.standard_normal((15, 6)) * rng.uniform(0.5, 3.0))
        s = estimate_moment_summary(data, Centering.SAMPLE_MEAN)
        assert s.sigma_lower <= s.M2 + 1e-15
        assert s.M2 <= s.M4 + 1e-15
        assert s.M4 <= s.M6 + 1e-15
        assert s.M4 <= s.Mcal4 + 1e-15


@pytest.mark.parametrize("center", list(Centering))
def test_summary_constant_column_has_zero_spread_exactly(center):
    # three 0.1s average to 0.1 + 1.4e-17, so centring alone leaves a spread
    data = DataMatrix(np.array([[0.1, 1.0], [0.1, 2.0], [0.1, 4.0]]), known_mean=np.array([0.1, 2.0]))
    assert estimate_moment_summary(data, center).sigma_lower == 0.0


@pytest.mark.parametrize("scale", [1e-200, 1e60, 1e200])
def test_summary_scales_with_the_data(rng, scale):
    # filterwarnings = error: a power that overflows or underflows fails here
    values = rng.gamma(2.0, 1.0, (20, 4))
    for center in Centering:
        plain = estimate_moment_summary(DataMatrix(values, known_mean=np.full(4, 2.0)), center)
        scaled = estimate_moment_summary(DataMatrix(values * scale, known_mean=np.full(4, 2.0 * scale)), center)
        for name in ("M2", "M4", "M6", "sigma_lower", "Mcal4"):
            assert getattr(scaled, name) == pytest.approx(scale * getattr(plain, name), rel=1e-12, abs=0.0)


def test_summary_at_the_float_maximum_is_the_unit_summary_shifted(rng):
    # entries up to 2^1023: a column sum overflows unless the columns are
    # scaled first, and by a power of two the summary moves by it exactly
    values, mean = rng.uniform(-1.0, 1.0, (20, 4)), np.full(4, -0.25)
    for center in Centering:
        unit = estimate_moment_summary(DataMatrix(values, mean), center)
        big = estimate_moment_summary(DataMatrix(np.ldexp(values, 1023), np.ldexp(mean, 1023)), center)
        for name in ("M2", "M4", "M6", "sigma_lower", "Mcal4"):
            assert getattr(big, name) == np.ldexp(getattr(unit, name), 1023)


def test_summary_at_a_known_mean_far_from_the_data(rng):
    # the known mean sets the columns' scale: every |x - 1e200| rounds to 1e200
    s = estimate_moment_summary(DataMatrix(rng.uniform(-1.0, 1.0, (20, 4)), np.full(4, 1e200)), Centering.KNOWN_MEAN)
    assert [s.M2, s.M4, s.M6, s.sigma_lower, s.Mcal4] == pytest.approx([1e200] * 5, rel=1e-14)


# ---------------------------------------------------------------------------
# rate certificates
# ---------------------------------------------------------------------------


def reference_branches(n, p, M, sigma, mcal):
    """Independent transliteration of the two rate expressions."""
    tail = ((math.log(p)) ** 2 * (math.log(n * p)) ** 3 / n) ** (1 / 6) * M / sigma
    moment = ((math.log(n * p)) ** 5 / n) ** (1 / 6) * (mcal / sigma) ** (2 / 3)
    return tail, moment


def unit_summary(mcal4=1.0):
    return MomentSummary(
        M2=1.0, M4=1.0, M6=1.0, sigma_lower=1.0, Mcal4=mcal4,
        Mcal_m1={4: 1.0}, Mcal_m2={4: 1.0},
    )


def test_certificate_formula_oracle():
    n, p = int(math.e**5) + 1, 40
    s = unit_summary()
    for scheme, factor in (("empirical", 2.0), ("wild", 1.0)):
        cert = rate_certificate(s, n, p, scheme)
        tail, moment = reference_branches(n, p, factor, 1.0, 1.0)
        assert cert.gamma_star == pytest.approx(min(tail, moment), rel=1e-12)
        assert cert.M == pytest.approx(factor, rel=1e-12)
        expected_branch = RateBranch.TAIL if tail <= moment else RateBranch.MOMENT
        assert cert.branch is expected_branch


def test_certificate_monotone_in_n():
    s = unit_summary()
    values = [rate_certificate(s, n, 50, "empirical").gamma_star for n in (10, 100, 1000, 10**6)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_certificate_moment_branch_homogeneity():
    # doubling Mcal4 scales the moment branch value by exactly 2^(2/3)
    n, p = 10**9, 50
    base = rate_certificate(unit_summary(mcal4=1.0), n, p, "empirical")
    doubled = rate_certificate(unit_summary(mcal4=2.0), n, p, "empirical")
    assert doubled.moment_value == pytest.approx(2 ** (2 / 3) * base.moment_value, rel=1e-12)
    assert doubled.tail_value == base.tail_value
    # when the moment branch wins on both sides, gamma* scales the same way
    big_m4 = MomentSummary(M2=1.0, M4=5.0, M6=6.0, sigma_lower=1.0, Mcal4=1.0,
                           Mcal_m1={4: 5.0}, Mcal_m2={4: 5.0})
    big_m4_doubled = MomentSummary(M2=1.0, M4=5.0, M6=6.0, sigma_lower=1.0, Mcal4=2.0,
                                   Mcal_m1={4: 5.0}, Mcal_m2={4: 5.0})
    a = rate_certificate(big_m4, n, p, "empirical")
    b = rate_certificate(big_m4_doubled, n, p, "empirical")
    assert a.branch is RateBranch.MOMENT and b.branch is RateBranch.MOMENT
    assert b.gamma_star == pytest.approx(2 ** (2 / 3) * a.gamma_star, rel=1e-12)


def test_certificate_kappa_and_default_bn():
    n, p = 4000, 64
    s = unit_summary()
    cert = rate_certificate(s, n, p, "wild")
    t_n = (cert.M / 1.0) / (1.0) ** (2 / 3)
    b_n = (math.sqrt(n) / (1.0 * 1.0 * math.log(p))) ** (1 / 3) / t_n
    assert cert.b_n == pytest.approx(b_n, rel=1e-12)
    assert cert.kappa_n4 == pytest.approx(b_n**4 * math.log(p) ** 3 / n, rel=1e-12)


# ---------------------------------------------------------------------------
# moment tensor diagnostics
# ---------------------------------------------------------------------------


def test_empirical_second_order_diff_is_zero(rng):
    data = DataMatrix(rng.standard_normal((10, 5)))
    assert moment_tensor_diff_max(data, BootstrapPlan.empirical(), 2) == 0.0
    assert moment_tensor_diff_max(data, BootstrapPlan.empirical(), 3) == 0.0


def test_mammen_third_order_diff_is_zero(rng):
    data = DataMatrix(rng.gamma(1.0, 1.0, (12, 4)))
    assert moment_tensor_diff_max(data, BootstrapPlan.wild(MAMMEN), 3) == pytest.approx(0.0, abs=1e-15)


def test_gaussian_third_order_equals_skewness_tensor(rng):
    data = DataMatrix(rng.gamma(1.0, 1.0, (15, 3)))
    got = moment_tensor_diff_max(data, BootstrapPlan.wild(GAUSSIAN), 3)
    assert got == pytest.approx(sample_tensor_max(data.values, 3), abs=1e-12)


def test_closed_form_identity_wild(rng):
    # || mu - nu ||_max = |1 - E W^m| * || sample tensor ||_max, to 1e-12
    data = DataMatrix(rng.standard_normal((20, 8)) + rng.gamma(2.0, 1.0, (20, 8)))
    for kind in (GAUSSIAN, MAMMEN, RADEMACHER):
        for order in (2, 3):
            got = moment_tensor_diff_max(data, BootstrapPlan.wild(kind), order)
            expect = abs(multiplier_moment(kind, order) - 1.0) * sample_tensor_max(
                data.values, order
            )
            assert got == pytest.approx(expect, abs=1e-12)


def test_fourth_order_guarded_but_supported(rng):
    data = DataMatrix(rng.standard_normal((9, 3)))
    got = moment_tensor_diff_max(data, BootstrapPlan.wild(GAUSSIAN), 4)
    expect = abs(multiplier_moment(GAUSSIAN, 4) - 1.0) * sample_tensor_max(data.values, 4)
    assert got == pytest.approx(expect, abs=1e-12)


DEGENERATE = MomentSummary(M2=0.0, M4=0.0, M6=0.0, sigma_lower=0.0, Mcal4=0.0, Mcal_m1={4: 0.0}, Mcal_m2={4: 0.0})


def tensor_gap(n: int, p: int, order: int) -> float:
    return moment_tensor_diff_max(DataMatrix(np.ones((n, p))), BootstrapPlan.empirical(), order)


test_rejects_bad_input = rejection_table(
    (lambda: estimate_moment_summary(DataMatrix(np.ones((3, 2))), Centering.KNOWN_MEAN), ValueError,
     "centering at the known mean requires data.known_mean"),
    (lambda: estimate_moment_summary(DataMatrix(np.ones((1, 2))), Centering.SAMPLE_MEAN), ValueError,
     "need at least two rows"),
    # the certify command reads this type to name the constant column
    (lambda: rate_certificate(DEGENERATE, 100, 10, "empirical"), _DegenerateSummary,
     "degenerate summary: sigma_lower must be positive"),
    (lambda: rate_certificate(unit_summary(), 100, 10, "bogus"), ValueError, "scheme must be 'empirical' or 'wild'"),
    (lambda: rate_certificate(unit_summary(), 1, 10, "wild"), ValueError, "need n >= 2 and p >= 2"),
    (lambda: tensor_gap(5, 65, 3), ValueError, "order-3 tensors are limited to p <= 64"),
    (lambda: tensor_gap(5, 17, 4), ValueError, "order-4 tensors are limited to p <= 16"),
    (lambda: tensor_gap(5, 3, 5), ValueError, "order must be 2, 3 or 4"),
    (lambda: tensor_gap(1, 3, 2), ValueError, "need at least two rows"),
)


def test_monte_carlo_cross_check_agrees(rng):
    # the Monte Carlo bootstrap tensor agrees with the closed form
    # E W^3 * (sample tensor) to 6 standard errors
    data = DataMatrix(rng.gamma(1.5, 1.0, (8, 2)))
    b = 20_000
    xc = data.centered(Centering.SAMPLE_MEAN)
    sample = np.einsum("ia,ib,ic->abc", xc, xc, xc) / data.n
    for plan in (
        BootstrapPlan.empirical(b),
        BootstrapPlan.wild(MAMMEN, b),
        BootstrapPlan.mixed_wild(0.5, b),
    ):
        closed = sample if plan.multiplier is None else multiplier_moment(plan.multiplier, 3) * sample
        mc_mean, mc_se = bootstrap_moment_tensor_mc(data, plan, 3, seed(40))
        assert not np.any(np.abs(mc_mean - closed) > 6.0 * mc_se + 1e-9)


@pytest.mark.parametrize(
    "plan, center",
    [
        (BootstrapPlan.empirical(), Centering.SAMPLE_MEAN),
        (BootstrapPlan.wild(MAMMEN), Centering.SAMPLE_MEAN),
        (BootstrapPlan.mixed_wild(0.5), Centering.KNOWN_MEAN),
    ],
    ids=["empirical", "mammen", "mixed"],
)
def test_moment_tensor_mc_draws_replicate_r_from_child_r(plan, center):
    # a loop over seed.child(r).rng() is the reference; the plan's 4100
    # replicates cross the 4096-replicate chunk boundary.  Only the mixed
    # wild bootstrap centers at the known mean; the others subtract the
    # sample mean.
    values = np.random.default_rng(5).gamma(1.0, 1.0, (6, 2))
    data = DataMatrix(values, known_mean=np.ones(2))
    xc = values - (data.known_mean if center is Centering.KNOWN_MEAN else values.mean(axis=0))
    b, n, s = 4100, 6, seed(41)
    plan = dataclasses.replace(plan, b_reps=b)
    reps = []
    for r in range(b):
        w = oracle_row(plan, n, s.child(r).rng())
        if plan.multiplier is not None:
            w = w**2
        reps.append(np.einsum("i,ia,ib->ab", w, xc, xc) / n)
    reps = np.array(reps)
    mean, se = bootstrap_moment_tensor_mc(data, plan, 2, s)
    np.testing.assert_allclose(mean, reps.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(se, reps.std(axis=0) / math.sqrt(b), rtol=1e-9)


# one case, kept parametrized so its id stays "closed-form"
@pytest.mark.parametrize("seeded", [False], ids=["closed-form"])
def test_mixed_fallback_warns_once_per_call(caplog, seeded):
    data = DataMatrix(np.random.default_rng(6).gamma(1.5, 1.0, (8, 2)))
    plan = BootstrapPlan.mixed_wild(0.5, 2000)
    with caplog.at_level("WARNING", logger="maxboot.bootstrap"):
        moment_tensor_diff_max(data, plan, 2)
    assert [rec.message for rec in caplog.records] == [
        "mixed wild bootstrap without a known mean: falling back to sample-mean centering"
    ]
