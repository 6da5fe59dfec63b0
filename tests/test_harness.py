import contextlib
import copy
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
from maxboot.datagen import CopulaSpec, DataMatrix, Dependence
from maxboot.harness import (
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    emit_figure_data,
    emit_results,
    run_experiment,
    run_truth,
)
from maxboot.stat_core import EmpiricalDistribution, MaxMode, max_statistic, quantile_rank, two_sample_ks

from conftest import rejection_table


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


def same_result(a, b):
    """Assert that two run results are equal: the same rows, schemes and
    per-replicate array, and the same truth law, byte for byte."""
    assert (a.rows, a.schemes) == (b.rows, b.schemes)
    assert (a.per_rep.shape, a.per_rep.tobytes()) == (b.per_rep.shape, b.per_rep.tobytes())
    assert a.truth.sample.tobytes() == b.truth.sample.tobytes()


def check_read_only(result):
    """Assert that ``result`` cannot change: its rows are a tuple, and a write
    through any ``by_scheme`` view of ``per_rep`` or into the truth law raises."""
    assert isinstance(result.rows, tuple)
    for metric in harness._FIELDS:
        for values in result.by_scheme(metric).values():
            assert np.shares_memory(values, result.per_rep)
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        result.truth.sample[0] = 0.5


@pytest.mark.parametrize("mode", list(MaxMode))
def test_rows_aggregate_the_per_replicate_arrays(mode):
    cfg = tiny_config(mode=mode)
    result = run_experiment(cfg)
    keys = [(row.scheme, row.metric) for row in result.rows]
    assert keys == [("empirical", "Coverage"), ("empirical", "KS"), ("gaussian", "Coverage"), ("gaussian", "KS")]
    for row in result.rows:
        assert (row.experiment, row.reps) == ("II", cfg.outer_reps)
        values = result.by_scheme(row.metric)[row.scheme]
        assert (row.mean, row.std) == (values.mean(), values.std(ddof=1))
    for ks, cover in zip(result.by_scheme("KS").values(), result.by_scheme("Coverage").values()):
        assert 0.0 <= ks.min() and ks.max() <= 1.0
        assert set(cover.tolist()) <= {0.0, 1.0}
    assert result.per_rep.shape == (2, 2, cfg.outer_reps)
    check_read_only(result)


def test_every_law_of_a_run_is_read_only_and_records_compare_by_identity(monkeypatch):
    laws = []

    def recording(*args, law=harness.bootstrap_distribution):
        laws.append(law(*args))
        return laws[-1]

    monkeypatch.setattr(harness, "bootstrap_distribution", recording)
    result = run_experiment(tiny_config(outer_reps=2))
    assert len(laws) == 4
    for law in laws:
        with pytest.raises(ValueError, match="read-only"):
            law.sample[0] = 0.5
    # the array-holding records compare and hash by identity, so a copy is
    # another record; contents are compared as same_result does
    for record in (result, result.truth, laws[0], DataMatrix(np.zeros((2, 3)))):
        assert record == record and record != copy.copy(record)
        assert hash(record) == hash(record)


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_kept_truth_law_is_run_truths_law(jobs):
    # at jobs 2, 40 truth and 1 outer replicate, both calls start one worker;
    # at 1 truth replicate run_truth starts none and run_experiment still one
    for cfg in (tiny_config(outer_reps=1, truth_reps=40), tiny_config(outer_reps=2, truth_reps=1)):
        assert run_experiment(cfg, jobs=jobs).truth.sample.tobytes() == run_truth(cfg, jobs=jobs).sample.tobytes()


def test_a_law_drawn_from_the_truth_law_shows_the_known_answers(monkeypatch):
    # an oracle "bootstrap" whose b draws are max statistics of fresh datasets
    # drawn from the law's own seed: its law is the truth law, so the run
    # checks the pairing of T_n with its law, the quantile rule and the KS
    # distance, with no bootstrap theory involved
    cfg = tiny_config(n=20, p=5, schemes=(BootstrapPlan.wild(GAUSSIAN, 50),), outer_reps=1000,
                      truth_reps=2000, master_seed=20250808)

    def oracle(data, plan, mode, seed):
        datasets = harness._sample_block(cfg.copula, cfg.n, cfg.p, (seed.child(j) for j in range(plan.b_reps)))
        return EmpiricalDistribution(np.array([max_statistic(d, d.known_mean, mode) for d in datasets]))

    monkeypatch.setattr(harness, "bootstrap_distribution", oracle)
    rows = {row.metric: row for row in run_experiment(cfg, jobs=1).rows}
    # T_n and the law's 50 draws are exchangeable: coverage k / (b + 1) = 48/51
    # exactly, whatever the truth sample, within 3 binomial SEs
    target = quantile_rank(50, cfg.alpha_level) / 51
    assert abs(rows["Coverage"].mean - target) <= 3 * math.sqrt(target * (1 - target) / 1000)
    # the KS distance of a 2000-sample and a 50-sample of one continuous law
    # has one distribution, simulated here with uniforms; the tolerance adds
    # to the run's own SE the spread of a run's mean over truth samples (an
    # sd of 0.0015 over 40 of them) and the simulation's SE
    rng = np.random.default_rng(20250808)
    null = [two_sample_ks(EmpiricalDistribution(rng.random(2000)), EmpiricalDistribution(rng.random(50)))
            for _ in range(4000)]
    run_se, null_se = rows["KS"].std / math.sqrt(1000), np.std(null, ddof=1) / math.sqrt(4000)
    assert abs(rows["KS"].mean - np.mean(null)) <= 3 * math.sqrt(run_se**2 + 0.0015**2 + null_se**2)


def test_parallel_results_identical():
    # at three jobs this process runs a third of the blocks, at two and four
    # a half and a quarter; 40 replicates put two or three in each block
    cfg = tiny_config(outer_reps=40)
    serial = run_experiment(cfg, jobs=1)
    for jobs in (2, 3, 4):
        same_result(run_experiment(cfg, jobs=jobs), serial)


def test_interrupt_flushes_completed_replicates(interrupt_block, caplog):
    clean = run_experiment(tiny_config(outer_reps=2))
    # 16 outer replicates at one job run as eight blocks of two; the second
    # block is interrupted, so the flush holds exactly replicates 0 and 1
    interrupt_block("_outer_block")
    flushed = []
    with caplog.at_level("WARNING", logger="maxboot.harness"):
        with pytest.raises(KeyboardInterrupt):
            run_experiment(tiny_config(outer_reps=16), jobs=1, on_interrupt=flushed.append)
    assert any("interrupted" in rec.message for rec in caplog.records)
    (partial,) = flushed
    same_result(partial, clean)
    check_read_only(partial)


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
    (partial,) = flushed
    same_result(partial, run_experiment(tiny_config(outer_reps=2)))


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


def test_no_more_processes_than_the_larger_phase_has_replicates(monkeypatch):
    # at jobs 4, truth 2 and outer 1 fork one worker and truth 1 alone none;
    # the blocks may move, the rows may not
    cfg = tiny_config(outer_reps=1, truth_reps=2)
    serial = run_experiment(cfg, jobs=1)
    started = count_workers(monkeypatch)
    same_result(run_experiment(cfg, jobs=4), serial)
    assert len(started) == 1
    run_truth(tiny_config(truth_reps=1), jobs=4)
    assert len(started) == 1


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
    same_result(parallel, serial)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def rows_fixture():
    return [
        ResultRow("II", 0.2, 1.0, "mammen", "KS", 0.0467712, 0.0162234, 500),
        ResultRow("II", 0.2, 1.0, "mammen", "Coverage", 0.9545, 0.00955, 500),
        ResultRow("I", 0.8, 3.0, "gaussian", "KS", 0.04910, 0.01610, 500),
        ResultRow("II", 0.2, 1.0, "x", "KS", 1 / 3, 2 / 3, 10),
    ]


def test_emit_results_csv_layout(tmp_path):
    # ordered by experiment, then scheme, then metric; floats at six
    # significant digits
    path = tmp_path / "rows.csv"
    emit_results(rows_fixture(), "csv", str(path))
    assert path.read_text() == (
        "experiment,rho,shape_alpha,scheme,metric,mean,std,reps\n"
        "I,0.8,3,gaussian,KS,0.0491,0.0161,500\n"
        "II,0.2,1,mammen,Coverage,0.9545,0.00955,500\n"
        "II,0.2,1,mammen,KS,0.0467712,0.0162234,500\n"
        "II,0.2,1,x,KS,0.333333,0.666667,10\n"
    )


def test_figure_data_preserves_exact_means(tmp_path):
    cfg = tiny_config()
    result = run_experiment(cfg)
    path = tmp_path / "fig.csv"
    emit_figure_data(result.by_scheme("KS"), str(path))
    with open(path) as handle:
        parsed = list(csv.DictReader(handle))
    for row in result.rows:
        if row.metric != "KS":
            continue
        col = [float(r["value"]) for r in parsed if r["scheme"] == row.scheme]
        assert len(col) == cfg.outer_reps
        assert np.mean(col) == pytest.approx(row.mean, abs=1e-12)


@pytest.mark.parametrize("target_exists", [True, False], ids=["live-link", "dangling-link"])
@pytest.mark.parametrize("slot", ["out", "figure_data"])
def test_an_output_link_into_an_existing_directory_writes_its_target(tmp_path, slot, target_exists):
    # the link is a usable destination: the check passes it, and the write
    # goes through to the target while the link stays a link
    target, link, plain = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "plain.csv"
    if target_exists:
        target.write_text("old\n")
    link.symlink_to(target)
    harness.check_destinations(**{"out": None, "figure_data": None, slot: str(link)})
    values = {"gaussian": np.array([0.25, 0.5])}
    emit_figure_data(values, str(link))
    emit_figure_data(values, str(plain))
    assert os.readlink(link) == str(target)
    assert target.read_bytes() == plain.read_bytes()


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


test_rejects_bad_input = rejection_table(
    (lambda: run_truth(tiny_config(), jobs=0), ValueError, "jobs must be at least 1"),
    (lambda: run_experiment(tiny_config(), jobs=-3), ValueError, "jobs must be at least 1"),
    (lambda: tiny_config(outer_reps=0), ValueError, "outer_reps and truth_reps must be at least 1"),
    (lambda: tiny_config(alpha_level=1.0), ValueError, "alpha_level must lie in (0, 1)"),
    (lambda: tiny_config(n=1), ValueError, "need n >= 2 and p >= 1"),
    (lambda: tiny_config(schemes=()), ValueError, "at least one bootstrap scheme is required"),
    (lambda: tiny_config(schemes=(BootstrapPlan.empirical(5), BootstrapPlan.empirical(9))), ValueError,
     "scheme names must be unique: empirical appears 2 times"),
    # a library caller learns of a bad seed here, not inside the first dataset
    (lambda: tiny_config(master_seed=-1), ValueError, "seed components must be nonnegative integers"),
    (lambda: emit_results([], "csv", "rows.csv"), ValueError, "rows must be nonempty"),
    (lambda: emit_results(rows_fixture(), "yaml", "rows.csv"), ValueError,
     "format must be 'csv' or 'json', got 'yaml'"),
    (lambda: emit_results(rows_fixture(), "csv", "nodir/rows.csv"), OSError,
     "cannot write results to 'nodir/rows.csv': [Errno 2] No such file or directory: 'nodir/rows.csv'"),
    (lambda: emit_figure_data({}, "fig.csv"), ValueError, "per_rep_values must be nonempty"),
    (lambda: ExperimentResult((), np.zeros((2, 1, 1)), ("gaussian",), EmpiricalDistribution(np.zeros(1)))
     .by_scheme("ks"), ValueError, "metric must be 'KS' or 'Coverage', got 'ks'"),
)
