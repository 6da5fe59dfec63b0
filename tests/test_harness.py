import csv
import json

import numpy as np
import pytest

from maxboot import harness
from maxboot.bootstrap import GAUSSIAN, BootstrapPlan
from maxboot.datagen import CopulaSpec, Dependence
from maxboot.harness import (
    ExperimentConfig,
    ResultRow,
    emit_figure_data,
    emit_results,
    run_experiment,
    run_truth,
)
from maxboot.stat_core import EmpiricalDistribution, MaxMode, two_sample_ks


def tiny_config(**overrides):
    defaults = dict(
        copula=CopulaSpec(Dependence.AR1, 0.2, 1.0),
        n=24,
        p=6,
        schemes=(BootstrapPlan.wild(GAUSSIAN, 30), BootstrapPlan.empirical(30)),
        outer_reps=8,
        truth_reps=60,
        master_seed=31415,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# truth law
# ---------------------------------------------------------------------------


def test_truth_single_rep_is_point():
    truth = run_truth(tiny_config(truth_reps=1))
    assert truth.size == 1


def test_truth_deterministic_and_jobs_invariant():
    cfg = tiny_config()
    a = run_truth(cfg, jobs=1)
    b = run_truth(cfg, jobs=4)
    c = run_truth(cfg, jobs=1)
    assert np.array_equal(a.sample, b.sample)
    assert np.array_equal(a.sample, c.sample)


def test_truth_changes_with_seed():
    a = run_truth(tiny_config())
    b = run_truth(tiny_config(master_seed=999))
    assert not np.array_equal(a.sample, b.sample)


# ---------------------------------------------------------------------------
# experiment loop
# ---------------------------------------------------------------------------


def test_run_experiment_row_layout():
    cfg = tiny_config()
    result = run_experiment(cfg)
    assert len(result.rows) == 2 * len(cfg.schemes)
    keys = [(r.scheme, r.metric) for r in result.rows]
    assert keys == sorted(keys)
    for row in result.rows:
        assert row.experiment == "II"
        assert row.reps == cfg.outer_reps
        assert 0.0 <= row.mean <= 1.0 or row.metric == "KS"


def test_ks_rows_in_unit_interval_and_aggregation_identity():
    result = run_experiment(tiny_config())
    for row in result.rows:
        if row.metric == "KS":
            per_rep = result.per_rep_ks[row.scheme]
            assert row.mean == pytest.approx(per_rep.mean(), abs=1e-12)
            assert 0.0 <= row.mean <= 1.0
        else:
            per_rep = result.per_rep_cover[row.scheme]
            assert row.mean == pytest.approx(per_rep.mean(), abs=1e-12)


def test_coverage_is_multiple_of_one_over_outer():
    cfg = tiny_config()
    result = run_experiment(cfg)
    for row in result.rows:
        if row.metric == "Coverage":
            assert (row.mean * cfg.outer_reps) == pytest.approx(
                round(row.mean * cfg.outer_reps), abs=1e-9
            )


def test_parallel_results_identical():
    cfg = tiny_config(outer_reps=10)
    a = run_experiment(cfg, jobs=1)
    b = run_experiment(cfg, jobs=4)
    assert a.rows == b.rows
    for scheme in a.per_rep_ks:
        assert np.array_equal(a.per_rep_ks[scheme], b.per_rep_ks[scheme])


def test_degenerate_truth_ks_exact():
    # a one-point truth law against a bootstrap law is the largest CDF gap,
    # computable by hand from the step functions
    truth = EmpiricalDistribution(np.array([0.0]))
    law = EmpiricalDistribution(np.array([-1.0, 1.0, 2.0, 3.0]))
    assert two_sample_ks(truth, law) == 0.75


def test_mode_absolute_runs():
    result = run_experiment(tiny_config(mode=MaxMode.ABSOLUTE, outer_reps=3))
    assert all(row.mean >= 0.0 for row in result.rows)


def test_interrupt_flushes_completed_replicates(tmp_path, monkeypatch, caplog):
    # 16 outer replicates at one job run as eight blocks of two; the second
    # block is interrupted, so the flush holds exactly replicates 0 and 1
    block = harness._outer_block
    calls = []

    def interrupted_block(*args):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return block(*args)

    monkeypatch.setattr(harness, "_outer_block", interrupted_block)
    flushed = tmp_path / "partial.csv"
    with caplog.at_level("WARNING", logger="maxboot.harness"):
        with pytest.raises(KeyboardInterrupt):
            run_experiment(
                tiny_config(outer_reps=16),
                jobs=1,
                on_interrupt=lambda result: emit_results(result.rows, "csv", str(flushed)),
            )
    assert any("interrupted" in rec.message for rec in caplog.records)

    monkeypatch.setattr(harness, "_outer_block", block)
    clean = tmp_path / "clean.csv"
    emit_results(run_experiment(tiny_config(outer_reps=2)).rows, "csv", str(clean))
    assert flushed.read_bytes() == clean.read_bytes()


def test_jobs_below_one_rejected():
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_truth(tiny_config(), jobs=0)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_experiment(tiny_config(), jobs=-3)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(outer_reps=0)
    with pytest.raises(ValueError):
        tiny_config(alpha_level=1.0)
    with pytest.raises(ValueError):
        tiny_config(schemes=())
    with pytest.raises(ValueError):
        tiny_config(schemes=(BootstrapPlan.empirical(5), BootstrapPlan.empirical(9)))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def rows_fixture():
    return [
        ResultRow("II", 0.2, 1.0, "mammen", "KS", 0.0467712, 0.0162234, 500),
        ResultRow("II", 0.2, 1.0, "mammen", "Coverage", 0.9545, 0.00955, 500),
        ResultRow("I", 0.8, 3.0, "gaussian", "KS", 0.04910, 0.01610, 500),
    ]


def test_emit_results_csv_layout(tmp_path):
    path = tmp_path / "rows.csv"
    emit_results(rows_fixture(), "csv", str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "experiment,rho,shape_alpha,scheme,metric,mean,std,reps"
    assert len(lines) == 4
    # deterministic order: experiment, then scheme, then metric
    assert lines[1].startswith("I,")
    assert lines[2].split(",")[4] == "Coverage"
    assert lines[3].split(",")[4] == "KS"


def test_emit_results_round_trip(tmp_path):
    path = tmp_path / "rows.csv"
    rows = rows_fixture()
    emit_results(rows, "csv", str(path))
    with open(path) as handle:
        parsed = list(csv.DictReader(handle))
    by_key = {(r["scheme"], r["metric"]): r for r in parsed}
    for row in rows:
        got = by_key[(row.scheme, row.metric)]
        assert got["experiment"] == row.experiment
        assert float(got["mean"]) == pytest.approx(row.mean, rel=1e-5)
        assert float(got["std"]) == pytest.approx(row.std, rel=1e-5)
        assert int(got["reps"]) == row.reps


def test_emit_results_json_round_trip(tmp_path):
    path = tmp_path / "rows.json"
    emit_results(rows_fixture(), "json", str(path))
    parsed = json.loads(path.read_text())
    assert isinstance(parsed, list) and len(parsed) == 3
    assert set(parsed[0]) == {
        "experiment", "rho", "shape_alpha", "scheme", "metric", "mean", "std", "reps",
    }
    mammen_ks = [r for r in parsed if r["scheme"] == "mammen" and r["metric"] == "KS"][0]
    assert mammen_ks["mean"] == pytest.approx(0.0467712, rel=1e-5)


def test_emit_results_six_significant_digits(tmp_path):
    path = tmp_path / "rows.csv"
    emit_results([ResultRow("II", 0.2, 1.0, "x", "KS", 1 / 3, 2 / 3, 10)], "csv", str(path))
    fields = path.read_text().splitlines()[1].split(",")
    assert fields[5] == "0.333333"
    assert fields[6] == "0.666667"


def test_emit_results_errors(tmp_path):
    with pytest.raises(ValueError):
        emit_results([], "csv", str(tmp_path / "rows.csv"))
    with pytest.raises(ValueError):
        emit_results(rows_fixture(), "yaml", str(tmp_path / "rows.csv"))
    with pytest.raises(OSError) as err:
        emit_results(rows_fixture(), "csv", str(tmp_path / "nodir" / "rows.csv"))
    assert "nodir" in str(err.value)


def test_emit_figure_data(tmp_path):
    path = tmp_path / "fig.csv"
    values = {"mammen": np.array([0.1, 0.2, 0.3]), "gaussian": np.array([0.4, 0.5, 0.6])}
    emit_figure_data(values, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "scheme,rep,value"
    assert len(lines) == 7
    assert lines[1].startswith("gaussian,0,")


def test_figure_data_preserves_exact_means(tmp_path):
    cfg = tiny_config()
    result = run_experiment(cfg)
    path = tmp_path / "fig.csv"
    emit_figure_data(result.per_rep_ks, str(path))
    with open(path) as handle:
        parsed = list(csv.DictReader(handle))
    for row in result.rows:
        if row.metric != "KS":
            continue
        col = [float(r["value"]) for r in parsed if r["scheme"] == row.scheme]
        assert len(col) == cfg.outer_reps
        assert np.mean(col) == pytest.approx(row.mean, abs=1e-12)
