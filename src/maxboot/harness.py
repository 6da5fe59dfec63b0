"""Experiment runner: Monte Carlo truth law, per-dataset bootstrap laws,
Kolmogorov-Smirnov and coverage metrics, and deterministic file emission.

Blocks of replicates are the parallel unit.  Both phases of a run, the
truth law and then the outer replicates, go through one block runner, opened
once per run.  The calling process computes every jobs-th block itself and
jobs - 1 worker processes, started only above one job, compute the rest,
each talking to it over one pipe.
Every replicate derives its own random substream from the master seed, and
the runner collects the blocks in order, so results are byte-identical at
any worker count.  ``_FIELDS`` names an outer replicate's fields, which are
also the metrics of the result rows and what ``ExperimentResult.by_scheme``
reads.  A finished result cannot change: its rows, arrays and laws are read-only.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import logging
import math
import multiprocessing
import os
import signal
import sys
import traceback
from collections.abc import Iterator
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from maxboot.bootstrap import BootstrapPlan, bootstrap_distribution
# perfbench/cell.py rebinds ``sample_gaussian_copula`` here by name; runs draw through ``_sample_block``
from maxboot.datagen import CopulaSpec, DataMatrix, Dependence, _sample_block, sample_gaussian_copula  # noqa: F401
from maxboot.rng import SeedSpec
from maxboot.stat_core import (
    EmpiricalDistribution,
    MaxMode,
    max_statistic,
    two_sample_ks,
    upper_quantile,
)

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "ExperimentResult",
    "run_truth",
    "run_experiment",
    "emit_results",
    "emit_figure_data",
    "check_destinations",
    "check_jobs",
    "EXPERIMENTS", "FORMATS",
]

logger = logging.getLogger(__name__)

# substream namespaces under the master seed
_TRUTH, _DATA, _BOOT = 0, 1, 2
# the paper's experiment labels, and the output formats of ``emit_results``
EXPERIMENTS = {"I": Dependence.EQUICORRELATED, "II": Dependence.AR1}
FORMATS = ("csv", "json")
_FIELDS = ("KS", "Coverage")  # in the order of axis 1 of ``_outer_block``'s array


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation run."""

    copula: CopulaSpec
    n: int
    p: int
    schemes: tuple[BootstrapPlan, ...]
    outer_reps: int
    truth_reps: int
    master_seed: int
    alpha_level: float = 0.05
    mode: MaxMode = MaxMode.ONE_SIDED

    def __post_init__(self) -> None:
        SeedSpec(self.master_seed)  # the seed's range rule is SeedSpec's
        if min(self.outer_reps, self.truth_reps) < 1:
            raise ValueError("outer_reps and truth_reps must be at least 1")
        if not 0.0 < self.alpha_level < 1.0:
            raise ValueError("alpha_level must lie in (0, 1)")
        if self.n < 2 or self.p < 1:
            raise ValueError("need n >= 2 and p >= 1")
        if not self.schemes:
            raise ValueError("at least one bootstrap scheme is required")
        for name in dict.fromkeys(plan.name for plan in self.schemes):
            repeats = [plan for plan in self.schemes if plan.name == name]
            if len(repeats) > 1:
                message = f"scheme names must be unique: {name} appears {len(repeats)} times"
                if name == "mixed":
                    p0s = [f"{plan.multiplier.p0:g}" for plan in repeats]
                    message += f", with p0 {', '.join(p0s[:-1])} and {p0s[-1]}"
                raise ValueError(message)

    @property
    def experiment(self) -> str:
        return next(label for label, structure in EXPERIMENTS.items() if structure is self.copula.structure)


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    rho: float
    shape_alpha: float
    scheme: str
    metric: str  # a name in _FIELDS
    mean: float
    std: float
    reps: int


def _row_order(row: ResultRow) -> tuple:
    """The sort key of result rows, in memory and in every file."""
    return (row.experiment, row.scheme, row.metric)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """The rows, every replicate's values as one read-only (``_FIELDS``,
    ``schemes``, replicates) array, and the truth law behind every KS value;
    ``==`` is identity, so compare the bytes of ``per_rep`` and ``truth.sample``."""

    rows: tuple[ResultRow, ...]
    per_rep: np.ndarray
    schemes: tuple[str, ...]
    truth: EmpiricalDistribution

    def by_scheme(self, metric: str) -> dict[str, np.ndarray]:
        """Each scheme's values of ``metric``, a name in ``_FIELDS``, as a read-only view of ``per_rep``."""
        if metric not in _FIELDS:
            raise ValueError(f"metric must be {' or '.join(map(repr, _FIELDS))}, got {metric!r}")
        return dict(zip(self.schemes, self.per_rep[_FIELDS.index(metric)]))


def check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError("jobs must be at least 1")


def _datasets(config: ExperimentConfig, space: int, reps: range) -> Iterator[tuple[DataMatrix, float]]:
    """Datasets r in ``reps`` of substream namespace ``space``, each with its
    max statistic at the known mean; the truth law and the outer replicates
    draw alike."""
    master = SeedSpec(config.master_seed)
    seeds = (master.child(space, r) for r in reps)
    # ``data`` stays alive until the next dataset is drawn: freed first, an
    # unstacked (equicorrelated) p-400 dataset's pages go back to the system
    # and each draw faults them in afresh (310-380 against 1 minor faults);
    # AR(1) stacks take 2.4 per dataset either way
    for data in _sample_block(config.copula, config.n, config.p, seeds):
        yield data, max_statistic(data, data.known_mean, config.mode)


def _truth_block(config: ExperimentConfig, reps: range) -> list[float]:
    return [tn for _, tn in _datasets(config, _TRUTH, reps)]


def _outer_block(config: ExperimentConfig, truth: EmpiricalDistribution, reps: range) -> np.ndarray:
    """Replicates ``reps`` as one (len(reps), fields, len(config.schemes))
    array: [i, f, s] is replicate reps[i]'s value of field ``_FIELDS[f]`` under
    scheme s, its KS distance to the truth law or its coverage bit (0.0 or 1.0)."""
    out = np.empty((len(reps), len(_FIELDS), len(config.schemes)))
    for i, (r, (data, tn)) in enumerate(zip(reps, _datasets(config, _DATA, reps))):
        for s, plan in enumerate(config.schemes):
            law = bootstrap_distribution(
                data, plan, config.mode, SeedSpec(config.master_seed).child(_BOOT, r, s)
            )
            values = {"KS": two_sample_ks(truth, law), "Coverage": tn <= upper_quantile(law, config.alpha_level)}
            out[i, :, s] = [values[field] for field in _FIELDS]
    return out


def _serve(conn) -> None:
    """A worker's loop: for each ``(fn, blocks)`` it receives, send back each
    block's items in order, or the exception a block raised with its formatted
    traceback and no more of those blocks; return when the run's process has
    closed its end."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            fn, blocks = conn.recv()
        except EOFError:
            return
        for block in blocks:
            try:
                conn.send(fn(block))
            except Exception as exc:
                conn.send((exc, traceback.format_exc()))
                break


@contextlib.contextmanager
def _alive(worker):
    """Raise ChildProcessError, naming the exit code, when the pipe to
    ``worker`` breaks because the worker has died."""
    try:
        yield
    except (EOFError, ConnectionError):
        worker.join()
        raise ChildProcessError(f"worker process {worker.pid} died with exit code {worker.exitcode}") from None


class _WorkerTraceback(Exception):
    """The traceback, formatted in the worker, of an exception a block raised there."""


def _receive(worker, conn) -> list:
    """The next block's items from ``worker``, raising the exception the block
    raised there, chained from its traceback in the worker."""
    with _alive(worker):
        items = conn.recv()
    if isinstance(items, tuple):
        exc, text = items
        raise exc from _WorkerTraceback(text)
    return items


@contextlib.contextmanager
def _block_map(jobs: int):
    """The run's one block runner: ``run(fn, total, out, what)`` maps ``fn``
    in order over the blocks of ``range(total)``, ceil(total / (8 jobs))
    replicates each, appends each block's items to ``out`` (where they stay on
    an interrupt) and logs how many ``what`` replicates are done.  The calling
    process is one of the ``jobs``: it computes blocks 0, jobs, 2 jobs, ...
    itself, and worker w of jobs - 1 (none at one job), started once per run,
    computes the blocks i with i mod jobs = w + 1.  Each phase sends a worker
    ``fn`` and its blocks once, over the worker's one pipe, and the items come
    back on it block by block.  The workers ignore SIGINT and are terminated
    on leaving, so an interrupt never waits on them."""
    check_jobs(jobs)
    # Linux forks the workers, with numpy and scipy imported, whatever the
    # default start method (forkserver from Python 3.14); elsewhere, spawn
    context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    workers = []
    try:
        for _ in range(jobs - 1):
            conn, child_conn = context.Pipe()
            worker = context.Process(target=_serve, args=(child_conn,), daemon=True)
            worker.start()
            child_conn.close()
            workers.append((worker, conn))

        def run(fn, total: int, out: list, what: str) -> None:
            size = max(1, math.ceil(total / (jobs * 8)))
            blocks = [range(lo, min(lo + size, total)) for lo in range(0, total, size)]
            for w, (worker, conn) in enumerate(workers, 1):
                with _alive(worker):
                    conn.send((fn, blocks[w::jobs]))
            for i, block in enumerate(blocks):
                out.extend(_receive(*workers[i % jobs - 1]) if i % jobs else fn(block))
                logger.info("%s replicates done: %d of %d", what, len(out), total)

        yield run
    finally:
        for worker, _ in workers:
            worker.terminate()
        for worker, conn in workers:
            worker.join()
            conn.close()


def _truth_law(config: ExperimentConfig, run) -> EmpiricalDistribution:
    logger.info("simulating truth law: %d replicates", config.truth_reps)
    stats: list[float] = []
    run(functools.partial(_truth_block, config), config.truth_reps, stats, "truth")
    return EmpiricalDistribution(np.asarray(stats))


def run_truth(config: ExperimentConfig, jobs: int = 1) -> EmpiricalDistribution:
    """Monte Carlo law of the true statistic over truth_reps fresh datasets."""
    with _block_map(min(jobs, config.truth_reps)) as run:
        return _truth_law(config, run)


def _aggregate(config: ExperimentConfig, truth: EmpiricalDistribution, per_rep: list) -> ExperimentResult:
    schemes = tuple(plan.name for plan in config.schemes)
    # the rows of the outer blocks, as one contiguous (fields, schemes, reps) array
    array = np.array(per_rep).transpose(1, 2, 0).copy()
    array.flags.writeable = False

    rows = []
    for metric, by_scheme in zip(_FIELDS, array):
        for name, values in zip(schemes, by_scheme):
            std = float(values.std(ddof=1)) if values.size > 1 else 0.0
            rows.append(ResultRow(
                config.experiment, config.copula.rho, config.copula.shape_alpha,
                scheme=name, metric=metric, mean=float(values.mean()), std=std, reps=values.size,
            ))
    return ExperimentResult(rows=tuple(sorted(rows, key=_row_order)), per_rep=array, schemes=schemes, truth=truth)


def run_experiment(config: ExperimentConfig, jobs: int = 1, on_interrupt=None) -> ExperimentResult:
    """Truth law plus outer_reps dataset replicates of every scheme's
    ``_FIELDS`` values (KS distance and coverage indicator), aggregated to one
    row per (scheme, metric).

    On KeyboardInterrupt, ``on_interrupt`` (when given) receives the result
    of the outer replicates finished so far, if any, and then the interrupt
    propagates.
    """
    per_rep: list = []
    try:
        # a process beyond the larger phase's replicate count would get no block
        with _block_map(min(jobs, max(config.truth_reps, config.outer_reps))) as run:
            truth = _truth_law(config, run)
            logger.info("running %d outer replicates", config.outer_reps)
            run(functools.partial(_outer_block, config, truth), config.outer_reps, per_rep, "outer")
    except KeyboardInterrupt:
        if per_rep and on_interrupt is not None:
            logger.warning("interrupted; flushing %d completed replicates", len(per_rep))
            on_interrupt(_aggregate(config, truth, per_rep))
        raise
    return _aggregate(config, truth, per_rep)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def emit_results(rows: list[ResultRow], format: str, path: str | None) -> None:
    """Write aggregated rows as CSV or JSON (floats at 6 significant digits).

    Rows are written in the one row order of ``_row_order``;
    ``path=None`` or '-' writes to stdout.
    """
    if not rows:
        raise ValueError("rows must be nonempty")
    if format not in FORMATS:
        raise ValueError(f"format must be {' or '.join(map(repr, FORMATS))}, got {format!r}")
    ordered = sorted(rows, key=_row_order)
    if format == "csv":
        text = _csv_text([field.name for field in fields(ResultRow)], [map(_fmt, astuple(row)) for row in ordered])
    else:
        payload = [
            {c: float(_fmt(v)) if isinstance(v, float) else v for c, v in asdict(row).items()}
            for row in ordered
        ]
        text = json.dumps(payload, indent=2) + "\n"
    _write_text(text, path)


def emit_figure_data(per_rep_values: dict[str, np.ndarray], path: str | None) -> None:
    """Long-format CSV scheme,rep,value with one row per (scheme, replicate).

    Values are written with full round-trip precision so downstream
    aggregation reproduces the in-memory means exactly.
    """
    if not per_rep_values:
        raise ValueError("per_rep_values must be nonempty")
    rows = [[scheme, rep, repr(float(value))] for scheme in sorted(per_rep_values)
            for rep, value in enumerate(per_rep_values[scheme])]
    _write_text(_csv_text(["scheme", "rep", "value"], rows), path)


def check_destinations(out: str | None, figure_data: str | None) -> None:
    """Fail now, not after the run, when the results path ``out`` or the
    figure-data path is a directory, lies in a directory that does not exist
    or cannot be written (an existing file must be writable, and a new file
    needs a writable directory), or when a path is empty or both name one
    file; None and '-' (stdout) pass."""
    for flag, path in (("--out", out), ("--figure-data", figure_data)):
        if path == "":
            raise ValueError(f"{flag} is an empty path")
    files = [path for path in (out, figure_data) if path and path != "-"]
    for path in files:
        if os.path.isdir(path):
            raise ValueError(f"cannot write results to {path!r}: it is a directory")
        # a symlink writes through to its target, so the target's directory must exist
        directory = os.path.dirname(os.path.realpath(path) if os.path.islink(path) else path) or "."
        if not os.path.isdir(directory):
            raise ValueError(f"cannot write results to {path!r}: directory {directory!r} does not exist")
        # a symlink loop resolves to a link, and os.access refuses it
        if os.path.exists(path) or os.path.islink(os.path.realpath(path)):
            if not os.access(path, os.W_OK):
                raise ValueError(f"cannot write results to {path!r}: it is not writable")
        elif not os.access(directory, os.W_OK | os.X_OK):
            raise ValueError(f"cannot write results to {path!r}: directory {directory!r} is not writable")
    if len(files) == 2 and os.path.realpath(out) == os.path.realpath(figure_data):
        # the figure data would overwrite the results; named as the CLI flags
        raise ValueError(f"--out {out!r} and --figure-data {figure_data!r} name the same file")


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc
