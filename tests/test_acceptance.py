"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 3 (full-scale KS reproduction, the long run) is gated behind
MAXBOOT_PAPER=1.  The desk-scale experiment used by criteria 2, 4 and 10 runs
once per session and is shared.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from maxboot.bootstrap import (
    GAUSSIAN,
    MAMMEN,
    MAMMEN_PROB_PLUS,
    MAMMEN_VALUE_MINUS,
    MAMMEN_VALUE_PLUS,
    RADEMACHER,
    BootstrapPlan,
    draw_multipliers,
    mixed_coefficients,
    mixed_multiplier,
    multiplier_moment,
    multiplier_moments,
)
from maxboot.datagen import CopulaSpec, Dependence
from maxboot.harness import ExperimentConfig, emit_figure_data, emit_results, run_experiment
from maxboot.moments import moment_tensor_diff_max
from maxboot.rng import SeedSpec
from maxboot.theorycheck import (
    check_gaussian_anticoncentration,
    check_l1_bounds,
    check_lindeberg_permutation,
    check_smoothmax_sandwich,
    fbeta_derivative,
)

from oracles import fd_smooth_max_tensor

DESK_SEED = 20250808
JOBS = 8  # criterion 10 compares parallelism 1 against parallelism 8


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:02d}] {status} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def desk_config() -> ExperimentConfig:
    b = 200
    return ExperimentConfig(
        copula=CopulaSpec(Dependence.AR1, 0.2, 1.0),
        n=200,
        p=100,
        schemes=(
            BootstrapPlan.wild(GAUSSIAN, b),
            BootstrapPlan.wild(MAMMEN, b),
            BootstrapPlan.wild(RADEMACHER, b),
            BootstrapPlan.empirical(b),
        ),
        outer_reps=100,
        truth_reps=2000,
        master_seed=DESK_SEED,
    )


@pytest.fixture(scope="module")
def desk_run():
    start = time.time()
    result = run_experiment(desk_config(), jobs=JOBS)
    elapsed = time.time() - start
    means = {
        (row.scheme, row.metric): row.mean for row in result.rows
    }
    return result, means, elapsed


def law_sixth_moment(kind) -> float:
    """E W^6 straight from each law's definition (test-side oracle)."""
    mammen6 = (
        MAMMEN_PROB_PLUS * MAMMEN_VALUE_PLUS**6
        + (1 - MAMMEN_PROB_PLUS) * MAMMEN_VALUE_MINUS**6
    )
    if kind.name == "gaussian":
        return 15.0
    if kind.name == "rademacher":
        return 1.0
    if kind.name == "mammen":
        return mammen6
    a0, b0 = mixed_coefficients(kind.p0)
    return kind.p0 * a0**6 * 15.0 + (1 - kind.p0) * b0**6 * mammen6


def test_criterion_01_multiplier_exactness():
    start = time.time()
    ok = multiplier_moments(GAUSSIAN) == (0.0, 1.0, 0.0)
    ok &= multiplier_moments(MAMMEN) == (0.0, 1.0, 1.0)
    ok &= multiplier_moments(mixed_multiplier(0.5)) == (0.0, 1.0, 1.0)
    a0, b0 = mixed_coefficients(0.5)
    ok &= abs(a0 - 0.6423387) <= 1e-6 and abs(b0 - 1.259921) <= 1e-6

    n = 1_000_000
    detail = []
    for i, kind in enumerate((GAUSSIAN, RADEMACHER, MAMMEN, mixed_multiplier(0.5))):
        w = draw_multipliers(kind, n, SeedSpec(DESK_SEED).child(100, i))
        m1, m2, m3 = multiplier_moments(kind)
        sixth = law_sixth_moment(kind)
        checks = [
            (w.mean(), m1, multiplier_moment(kind, 2) - m1**2),
            ((w**2).mean(), m2, multiplier_moment(kind, 4) - m2**2),
            ((w**3).mean(), m3, sixth - m3**2),
        ]
        for got, target, variance in checks:
            tol = 4.0 * math.sqrt(max(variance, 0.0) / n) + 1e-12
            ok &= abs(got - target) <= tol
        detail.append(f"{kind.name}: W={w.mean():+.4f} W2={(w**2).mean():.4f} W3={(w**3).mean():+.4f}")
    elapsed = time.time() - start
    ok &= elapsed < 5.0
    report(1, "multiplier exactness", ok, f"{'; '.join(detail)} ({elapsed:.1f}s)")


def test_criterion_02_ks_ordering_desk(desk_run):
    _, means, elapsed = desk_run
    ks = {s: means[(s, "KS")] for s in ("mammen", "empirical", "gaussian", "rademacher")}
    ok = ks["mammen"] < ks["empirical"] < ks["gaussian"] < ks["rademacher"]
    ok &= elapsed <= 600.0
    report(
        2,
        "scheme ordering of mean KS at desk scale",
        ok,
        "mean KS mammen={mammen:.5f} < empirical={empirical:.5f} < gaussian={gaussian:.5f}"
        " < rademacher={rademacher:.5f} ({t:.0f}s)".format(**ks, t=elapsed),
    )


@pytest.mark.skipif(
    not os.environ.get("MAXBOOT_PAPER"),
    reason="paper-scale run takes 11-12 s on a 2-vCPU Intel Xeon; set MAXBOOT_PAPER=1 to enable",
)
def test_criterion_03_ks_values_full_scale():
    # reference mean KS for AR(1), rho=0.2, shape=1 at n=200, p=400
    reference = {"gaussian": 0.14542, "mammen": 0.04677, "rademacher": 0.18143, "empirical": 0.07190}
    b = 500
    config = ExperimentConfig(
        copula=CopulaSpec(Dependence.AR1, 0.2, 1.0),
        n=200,
        p=400,
        schemes=(
            BootstrapPlan.wild(GAUSSIAN, b),
            BootstrapPlan.wild(MAMMEN, b),
            BootstrapPlan.wild(RADEMACHER, b),
            BootstrapPlan.empirical(b),
        ),
        outer_reps=500,
        truth_reps=5000,
        master_seed=DESK_SEED,
    )
    result = run_experiment(config, jobs=JOBS)
    means = {row.scheme: row.mean for row in result.rows if row.metric == "KS"}
    ok = all(abs(means[s] - reference[s]) <= 0.015 for s in reference)
    detail = "; ".join(f"{s}: {means[s]:.5f} vs {reference[s]:.5f}" for s in sorted(reference))
    report(3, "mean KS values at full scale", ok, detail)


def test_criterion_04_coverage_pattern_desk(desk_run):
    _, means, _ = desk_run
    cov = {s: means[(s, "Coverage")] for s in ("mammen", "empirical", "gaussian", "rademacher")}
    ok = 0.92 <= cov["mammen"] <= 0.98 and 0.92 <= cov["empirical"] <= 0.98
    ok &= cov["rademacher"] < cov["gaussian"] < 0.95
    report(
        4,
        "coverage pattern at desk scale",
        ok,
        "coverage mammen={mammen:.4f} empirical={empirical:.4f} gaussian={gaussian:.4f}"
        " rademacher={rademacher:.4f}".format(**cov),
    )


def test_criterion_05_smoothmax_sandwich():
    start = time.time()
    rep = check_smoothmax_sandwich(10_000, SeedSpec(DESK_SEED).child(105))
    elapsed = time.time() - start
    ok = rep.passed and rep.max_violation <= 1e-12 and elapsed < 10.0
    report(5, "smooth-max sandwich", ok, f"max violation {rep.max_violation:.2e} ({elapsed:.1f}s)")


def test_criterion_06_derivative_identities():
    rng = SeedSpec(DESK_SEED).child(106).rng()
    tolerances = {1: 1e-5, 2: 1e-5, 3: 1e-5, 4: 1e-3}
    worst = {order: 0.0 for order in tolerances}
    beta = 1.5
    for _ in range(100):
        z = rng.standard_normal(4)
        for order, tol in tolerances.items():
            exact = fbeta_derivative(z, beta, order)
            fd = fd_smooth_max_tensor(z, beta, order)
            rel = float(np.abs(fd - exact).max() / np.abs(exact).max())
            worst[order] = max(worst[order], rel)
    ok = all(worst[order] <= tol for order, tol in tolerances.items())

    l1 = check_l1_bounds(10_000, SeedSpec(DESK_SEED).child(116))
    ok &= l1.passed
    detail = (
        "FD rel err per order: "
        + ", ".join(f"{o}: {worst[o]:.2e}" for o in sorted(worst))
        + f"; l1 violation {l1.max_violation:.2e}"
    )
    report(6, "derivative identities and l1 bounds", ok, detail)


def test_criterion_07_lindeberg_identity():
    start = time.time()
    worst = 0.0
    ok = True
    for n, p, f in itertools.product(range(2, 7), (1, 2), ("smoothmax", "sumsq")):
        rep = check_lindeberg_permutation(n, p, f, SeedSpec(DESK_SEED).child(107, n, p))
        worst = max(worst, rep.max_violation)
        ok &= rep.passed
    elapsed = time.time() - start
    ok &= worst <= 1e-12 and elapsed < 30.0
    report(
        7,
        "permutation-averaged swap identity",
        ok,
        f"max cross-i deviation {worst:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_08_gaussian_anticoncentration():
    ok = True
    details = []
    for p in (1, 10, 100):
        for eps in (0.05, 0.1, 0.2):
            rep = check_gaussian_anticoncentration(
                p, eps, 100_000, SeedSpec(DESK_SEED).child(108, p, int(eps * 100))
            )
            ok &= rep.passed
            details.append(f"p={p},eps={eps}: margin {-rep.max_violation:.3f}")
    report(8, "Gaussian anti-concentration bound", ok, "; ".join(details))


def test_criterion_09_moment_match_diagnostics():
    rng = SeedSpec(DESK_SEED).child(109).rng()
    values = rng.gamma(1.0, 1.0, (20, 8)) - 0.3 * rng.standard_normal((20, 8))
    from maxboot.datagen import DataMatrix

    data = DataMatrix(values)
    xc = values - values.mean(axis=0)
    ok = True
    details = []
    for kind in (GAUSSIAN, MAMMEN, RADEMACHER):
        for order in (2, 3):
            got = moment_tensor_diff_max(data, BootstrapPlan.wild(kind), order)
            spec = {2: "ia,ib->ab", 3: "ia,ib,ic->abc"}[order]
            tensor_max = float(np.abs(np.einsum(spec, *([xc] * order)) / 20.0).max())
            expect = abs(multiplier_moment(kind, order) - 1.0) * tensor_max
            ok &= abs(got - expect) <= 1e-12
            details.append(f"{kind.name}/m={order}: |diff|={abs(got - expect):.1e}")
    empirical = moment_tensor_diff_max(data, BootstrapPlan.empirical(), 2)
    ok &= empirical == 0.0
    details.append(f"empirical/m=2: {empirical}")
    report(9, "moment-match diagnostics closed form", ok, "; ".join(details))


def test_criterion_10_determinism(desk_run, tmp_path):
    result8, _, _ = desk_run
    result1 = run_experiment(desk_config(), jobs=1)
    paths = {}
    for tag, result in (("j8", result8), ("j1", result1)):
        rows_path = tmp_path / f"rows_{tag}.csv"
        fig_path = tmp_path / f"fig_{tag}.csv"
        emit_results(result.rows, "csv", str(rows_path))
        emit_figure_data(result.by_scheme("KS"), str(fig_path))
        paths[tag] = (rows_path.read_bytes(), fig_path.read_bytes())
    ok = paths["j8"][0] == paths["j1"][0] and paths["j8"][1] == paths["j1"][1]
    report(
        10,
        "byte-identical outputs at parallelism 1 and 8",
        ok,
        f"rows {len(paths['j8'][0])} bytes, figure data {len(paths['j8'][1])} bytes",
    )
