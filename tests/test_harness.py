import contextlib
import csv
import functools
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from maxboot import cli, harness
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
from maxboot.rng import SeedSpec
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


def check_truth_law_at_rho_zero(structure, shape, mode, n, p, m, jobs):
    # at rho 0 the columns are independent and a column sum of n gamma(a)
    # draws is gamma(n a), so P(T_n <= t) is the p-th power of one column's
    # probability; a one-sample KS test at level 0.001, fixed seed
    cfg = tiny_config(
        copula=CopulaSpec(structure, 0.0, shape), n=n, p=p, truth_reps=m, master_seed=20250808, mode=mode
    )
    na, root_n = n * shape, math.sqrt(n)

    def law(t):
        column = special.gammainc(na, np.maximum(na + root_n * t, 0.0))
        if mode is MaxMode.ABSOLUTE:
            column -= special.gammainc(na, np.maximum(na - root_n * t, 0.0))
        return column**p

    assert stats.kstest(run_truth(cfg, jobs).sample, law).pvalue >= 1e-3


@pytest.mark.parametrize("mode", list(MaxMode))
@pytest.mark.parametrize("shape", [1.0, 0.05])
@pytest.mark.parametrize("structure", list(Dependence))
def test_truth_law_at_rho_zero_is_the_exact_law(structure, shape, mode):
    check_truth_law_at_rho_zero(structure, shape, mode, n=50, p=100, m=2000, jobs=1)


@pytest.mark.skipif(
    not os.environ.get("MAXBOOT_PAPER"),
    reason="16 paper-size cells take about 40 s on a 2-vCPU machine; set MAXBOOT_PAPER=1 to enable",
)
@pytest.mark.parametrize("n, p", [(200, 400), (50, 1000)])
@pytest.mark.parametrize("mode", list(MaxMode))
@pytest.mark.parametrize("shape", [1.0, 0.05])
@pytest.mark.parametrize("structure", list(Dependence))
def test_truth_law_at_rho_zero_is_the_exact_law_at_paper_size(structure, shape, mode, n, p):
    # m 5000 resolves what m 2000 at (50, 100) does not: with the transformed
    # entries above y = 2.5 scaled by 1.02, 14 of these 16 cells fail
    check_truth_law_at_rho_zero(structure, shape, mode, n=n, p=p, m=5000, jobs=2)


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
    # at three jobs this process runs a third of the blocks, at two and four
    # a half and a quarter
    cfg = tiny_config(outer_reps=10)
    a = run_experiment(cfg, jobs=1)
    for jobs in (2, 3, 4):
        b = run_experiment(cfg, jobs=jobs)
        assert a.rows == b.rows
        for scheme in a.per_rep_ks:
            assert b.per_rep_ks[scheme].tobytes() == a.per_rep_ks[scheme].tobytes()
            assert b.per_rep_cover[scheme].tobytes() == a.per_rep_cover[scheme].tobytes()


def test_degenerate_truth_ks_exact():
    # a one-point truth law against a bootstrap law is the largest CDF gap,
    # computable by hand from the step functions
    truth = EmpiricalDistribution(np.array([0.0]))
    law = EmpiricalDistribution(np.array([-1.0, 1.0, 2.0, 3.0]))
    assert two_sample_ks(truth, law) == 0.75


def test_mode_absolute_runs():
    result = run_experiment(tiny_config(mode=MaxMode.ABSOLUTE, outer_reps=3))
    assert all(row.mean >= 0.0 for row in result.rows)


def test_interrupt_flushes_completed_replicates(tmp_path, interrupt_block, caplog):
    clean = tmp_path / "clean.csv"
    emit_results(run_experiment(tiny_config(outer_reps=2)).rows, "csv", str(clean))

    # 16 outer replicates at one job run as eight blocks of two; the second
    # block is interrupted, so the flush holds exactly replicates 0 and 1
    interrupt_block("_outer_block")
    flushed = tmp_path / "partial.csv"
    with caplog.at_level("WARNING", logger="maxboot.harness"):
        with pytest.raises(KeyboardInterrupt):
            run_experiment(
                tiny_config(outer_reps=16),
                jobs=1,
                on_interrupt=lambda result: emit_results(result.rows, "csv", str(flushed)),
            )
    assert any("interrupted" in rec.message for rec in caplog.records)
    assert flushed.read_bytes() == clean.read_bytes()


def test_interrupt_in_the_truth_phase_flushes_nothing(interrupt_block):
    # 60 truth replicates at one job run as eight blocks; the second is
    # interrupted before any outer replicate has run
    calls = interrupt_block("_truth_block")
    flushed = []
    with pytest.raises(KeyboardInterrupt):
        run_experiment(tiny_config(), jobs=1, on_interrupt=flushed.append)
    assert len(calls) == 2
    assert flushed == []


# this process's pid and the directory that the blocks below record pids in;
# set before a run forks its workers, which inherit both
WITNESS = {}


def record_pid(phase, reps):
    """Record which process runs the block starting at replicate ``reps.start``."""
    (WITNESS["dir"] / f"{phase}-{reps.start}").write_text(str(os.getpid()))


def truth_block_recording_pid(config, reps, block=harness._truth_block):
    record_pid("truth", reps)
    return block(config, reps)


def outer_block_recording_pid(config, truth, reps, block=harness._outer_block):
    record_pid("outer", reps)
    return block(config, truth, reps)


def outer_block_interrupted_here(config, truth, reps, block=harness._outer_block):
    if reps.start == 2 and os.getpid() == WITNESS["parent"]:
        raise KeyboardInterrupt
    return block(config, truth, reps)


def outer_block_failing_in_a_worker(config, truth, reps, block=harness._outer_block):
    if os.getpid() != WITNESS["parent"]:
        WITNESS["fail"]()
    return block(config, truth, reps)


def kill_this_process():
    os.kill(os.getpid(), signal.SIGKILL)


def raise_boom():
    raise ValueError("boom")


@contextlib.contextmanager
def deadline(seconds):
    """Fail, rather than hang, when the body runs longer than ``seconds``; the
    timer fires again every second, so clean-up that hangs fails too."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


forks_workers = pytest.mark.skipif(sys.platform != "linux", reason="workers are forked only on Linux")


@forks_workers
@pytest.mark.parametrize("jobs", [2, 3])
def test_this_process_is_one_of_the_jobs(tmp_path, monkeypatch, jobs):
    # this process runs blocks 0, jobs, 2 jobs, ... of both phases, and
    # jobs - 1 forked workers run the others
    monkeypatch.setitem(WITNESS, "dir", tmp_path)
    monkeypatch.setitem(WITNESS, "parent", os.getpid())
    monkeypatch.setattr(harness, "_truth_block", truth_block_recording_pid)
    monkeypatch.setattr(harness, "_outer_block", outer_block_recording_pid)
    run_experiment(tiny_config(outer_reps=4, truth_reps=20), jobs=jobs)
    pids = set()
    for phase in ("truth", "outer"):
        ran = sorted((int(path.name.split("-")[1]), int(path.read_text())) for path in tmp_path.glob(f"{phase}-*"))
        here = [block for block, (_, pid) in enumerate(ran) if pid == os.getpid()]
        assert here == list(range(0, len(ran), jobs))
        pids.update(pid for _, pid in ran)
    assert len(pids) == jobs
    assert os.getpid() in pids


@forks_workers
def test_interrupt_in_a_block_this_process_runs(monkeypatch):
    # 16 outer replicates at two jobs run as 16 blocks of one; block 2 runs
    # here and is interrupted after blocks 0 (here) and 1 (in the worker)
    monkeypatch.setitem(WITNESS, "parent", os.getpid())
    block = harness._outer_block
    monkeypatch.setattr(harness, "_outer_block", outer_block_interrupted_here)
    flushed = []
    with pytest.raises(KeyboardInterrupt):
        run_experiment(tiny_config(outer_reps=16), jobs=2, on_interrupt=flushed.append)
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(harness, "_outer_block", block)
    clean = run_experiment(tiny_config(outer_reps=2))
    assert len(flushed) == 1
    assert flushed[0].rows == clean.rows
    for scheme, values in clean.per_rep_ks.items():
        assert flushed[0].per_rep_ks[scheme].tobytes() == values.tobytes()


@forks_workers
def test_a_killed_worker_fails_the_run(monkeypatch, capsys):
    # a worker killed in its first outer block, as by the OOM killer, ends
    # the run with an error that names its exit code, and leaves no children
    monkeypatch.setitem(WITNESS, "parent", os.getpid())
    monkeypatch.setitem(WITNESS, "fail", kill_this_process)
    monkeypatch.setattr(harness, "_outer_block", outer_block_failing_in_a_worker)
    with deadline(20), pytest.raises(ChildProcessError, match=r"^worker process \d+ died with exit code -9$"):
        run_experiment(tiny_config(outer_reps=4, truth_reps=20), jobs=2)
    assert multiprocessing.active_children() == []

    argv = ["run", "--n", "20", "--p", "5", "--outer", "4", "--truth", "20", "--breps", "20", "--jobs", "2"]
    with deadline(20):
        assert cli.main(argv) == 1
    assert re.fullmatch(r"error: worker process \d+ died with exit code -9\n", capsys.readouterr().err)
    assert multiprocessing.active_children() == []


def test_a_worker_dead_between_phases_fails_the_next_phase():
    cfg = tiny_config(truth_reps=20)
    with deadline(20), harness._block_map(2) as run:
        run(functools.partial(harness._truth_block, cfg), 20, [], "truth")
        (worker,) = multiprocessing.active_children()
        os.kill(worker.pid, signal.SIGKILL)
        worker.join()
        with pytest.raises(ChildProcessError, match=r"^worker process \d+ died with exit code -9$"):
            run(functools.partial(harness._truth_block, cfg), 20, [], "truth")
    assert multiprocessing.active_children() == []


@forks_workers
def test_an_exception_in_a_worker_reaches_this_process(monkeypatch):
    monkeypatch.setitem(WITNESS, "parent", os.getpid())
    monkeypatch.setitem(WITNESS, "fail", raise_boom)
    monkeypatch.setattr(harness, "_outer_block", outer_block_failing_in_a_worker)
    with deadline(20), pytest.raises(ValueError, match="^boom$") as raised:
        run_experiment(tiny_config(outer_reps=4, truth_reps=20), jobs=2)
    # chained from the worker's own traceback, which names the frame that raised
    assert "in raise_boom" in str(raised.value.__cause__)
    assert multiprocessing.active_children() == []


def count_workers(monkeypatch, pick=lambda asked: asked):
    """Route ``multiprocessing.get_context(asked)`` to the context ``pick(asked)``
    names, and return the start methods of the worker processes made through it."""
    get_context = multiprocessing.get_context
    started = []

    class CountingContext:
        def __init__(self, context):
            self.context = context

        def __getattr__(self, name):  # Pipe and the rest
            return getattr(self.context, name)

        def Process(self, *args, **kwargs):
            started.append(self.context.get_start_method())
            return self.context.Process(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "get_context", lambda asked=None: CountingContext(get_context(pick(asked))))
    return started


def test_one_set_of_workers_per_run(monkeypatch):
    # a run starts jobs - 1 workers, which serve both of its phases; one job starts none
    started = count_workers(monkeypatch)
    cfg = tiny_config(outer_reps=4, truth_reps=20)
    for jobs in (2, 3, 1):
        started.clear()
        run_experiment(cfg, jobs=jobs)
        assert len(started) == jobs - 1
        run_truth(cfg, jobs=jobs)
        assert len(started) == 2 * (jobs - 1)


def test_a_run_at_two_jobs_leaves_no_pool_module_or_thread():
    # the workers are plain processes on pipes: no pool module, and no
    # handler thread beside the main one
    code = (
        "import sys, threading; from maxboot import cli; "
        "code = cli.main(['run', '--n', '20', '--p', '5', '--outer', '4', '--truth', '20', "
        "'--breps', '20', '--jobs', '2']); "
        "print(code, 'multiprocessing.pool' in sys.modules, threading.active_count())"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 False 1", proc.stderr


def needs_start_method(method):
    return pytest.mark.skipif(
        method not in multiprocessing.get_all_start_methods(), reason=f"no {method} start method here"
    )


@needs_start_method("forkserver")
def test_workers_fork_on_linux_whatever_the_default(monkeypatch):
    # forkserver stands in for the interpreter's default, as from Python 3.14
    started = count_workers(monkeypatch, lambda asked: asked or "forkserver")
    cfg = tiny_config(truth_reps=20)
    assert np.array_equal(run_truth(cfg, jobs=2).sample, run_truth(cfg, jobs=1).sample)
    assert started == ["fork" if sys.platform == "linux" else "forkserver"]


@pytest.mark.parametrize(
    "method", [pytest.param(m, marks=needs_start_method(m)) for m in ("spawn", "forkserver")]
)
def test_rows_are_byte_identical_under_every_start_method(monkeypatch, method):
    # spawn is the start method on macOS and Windows; forkserver is Linux's
    # default from Python 3.14
    cfg = tiny_config(outer_reps=4, truth_reps=20)
    serial = run_experiment(cfg, jobs=1)
    started = count_workers(monkeypatch, lambda asked: method)
    parallel = run_experiment(cfg, jobs=2)
    assert started == [method]
    assert parallel.rows == serial.rows
    assert parallel.per_rep_ks.keys() == serial.per_rep_ks.keys()
    for name, values in serial.per_rep_ks.items():
        assert parallel.per_rep_ks[name].tobytes() == values.tobytes()


def test_jobs_below_one_rejected():
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_truth(tiny_config(), jobs=0)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_experiment(tiny_config(), jobs=-3)


def test_config_validation():
    with pytest.raises(ValueError, match=re.escape("outer_reps and truth_reps must be at least 1")):
        tiny_config(outer_reps=0)
    with pytest.raises(ValueError, match=re.escape("alpha_level must lie in (0, 1)")):
        tiny_config(alpha_level=1.0)
    with pytest.raises(ValueError, match=re.escape("at least one bootstrap scheme is required")):
        tiny_config(schemes=())
    with pytest.raises(ValueError, match=re.escape("scheme names must be unique: empirical appears 2 times")):
        tiny_config(schemes=(BootstrapPlan.empirical(5), BootstrapPlan.empirical(9)))


def test_negative_master_seed_fails_at_construction():
    # a library caller learns of a bad seed here, not inside the first dataset
    with pytest.raises(ValueError) as want:
        SeedSpec(-1)
    with pytest.raises(ValueError) as err:
        tiny_config(master_seed=-1)
    assert str(err.value) == str(want.value)


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
    with pytest.raises(ValueError) as err:
        emit_results(rows_fixture(), "yaml", str(tmp_path / "rows.csv"))
    assert str(err.value) == "format must be 'csv' or 'json', got 'yaml'"
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


# ---------------------------------------------------------------------------
# perfbench's traced cell
# ---------------------------------------------------------------------------


def test_perfbench_traced_cell_runs():
    # perfbench/cell.py's tracer rebinds names of harness, datagen and rng by
    # attribute, so a name that harness stops importing fails every traced cell
    root = Path(__file__).resolve().parents[1]
    argv = ["run", "--experiment", "II", "--n", "20", "--p", "5", "--outer", "2",
            "--truth", "20", "--breps", "20", "--schemes", "g,e"]
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "cell.py"), str(time.monotonic_ns()), "trace", json.dumps(argv)],
        capture_output=True, text=True, cwd=root, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == 0
    assert result["layers"]["harness.run_experiment"]["calls"] == 1
