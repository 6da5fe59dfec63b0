"""Experiment runner: Monte Carlo truth law, per-dataset bootstrap laws,
Kolmogorov-Smirnov and coverage metrics, and deterministic file emission.

Blocks of replicates are the parallel unit.  Both phases of a run, the
truth law and then the outer replicates, go through one block map, opened
once per run: the builtin ``map`` at one job, else one worker pool.  Every
replicate derives its own random substream from the master seed, and the
block map returns the blocks in order, so results are byte-identical at any
worker count.
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
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from maxboot.bootstrap import BootstrapPlan, bootstrap_distribution
from maxboot.datagen import CopulaSpec, DataMatrix, Dependence, sample_gaussian_copula
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
]

logger = logging.getLogger(__name__)

# substream namespaces under the master seed
_TRUTH, _DATA, _BOOT = 0, 1, 2


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
        return "I" if self.copula.structure is Dependence.EQUICORRELATED else "II"


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    rho: float
    shape_alpha: float
    scheme: str
    metric: str  # "KS" or "Coverage"
    mean: float
    std: float
    reps: int


def _row_order(row: ResultRow) -> tuple:
    """The sort key of result rows, in memory and in every file."""
    return (row.experiment, row.scheme, row.metric)


@dataclass(frozen=True)
class ExperimentResult:
    rows: list[ResultRow]
    per_rep_ks: dict[str, np.ndarray]
    per_rep_cover: dict[str, np.ndarray]


def _blocks(total: int, jobs: int) -> list[range]:
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    size = max(1, math.ceil(total / (jobs * 8)))
    return [range(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _dataset(config: ExperimentConfig, space: int, r: int) -> tuple[DataMatrix, float]:
    """Dataset r of substream namespace ``space`` and its max statistic at
    the known mean; the truth law and the outer replicates draw alike."""
    data = sample_gaussian_copula(
        config.copula, config.n, config.p, SeedSpec(config.master_seed).child(space, r)
    )
    return data, max_statistic(data, data.known_mean, config.mode)


def _truth_block(config: ExperimentConfig, reps: range) -> list[float]:
    out = []
    for r in reps:
        # ``data`` stays alive until the next dataset is drawn: freed first,
        # its pages go back to the system and every draw faults them in
        # afresh (about 20 times the minor faults)
        data, tn = _dataset(config, _TRUTH, r)
        out.append(tn)
    return out


def _outer_block(
    config: ExperimentConfig, truth: EmpiricalDistribution, reps: range
) -> list[tuple[list[float], list[bool]]]:
    out = []
    for r in reps:
        data, tn = _dataset(config, _DATA, r)
        ks_vals, covered = [], []
        for s, plan in enumerate(config.schemes):
            law = bootstrap_distribution(
                data, plan, config.mode, SeedSpec(config.master_seed).child(_BOOT, r, s)
            )
            ks_vals.append(two_sample_ks(truth, law))
            covered.append(tn <= upper_quantile(law, config.alpha_level))
        out.append((ks_vals, covered))
    return out


@contextlib.contextmanager
def _block_map(jobs: int):
    """The map that evaluates one run's blocks, in every phase: the builtin
    ``map`` at one job, else ``imap`` of one pool opened here.  Pool workers
    ignore SIGINT and are terminated when the block is left, so an
    interrupt never waits on them."""
    _blocks(0, jobs)  # rejects jobs < 1 before a pool is opened
    if jobs == 1:
        yield map
        return
    with multiprocessing.Pool(jobs, signal.signal, (signal.SIGINT, signal.SIG_IGN)) as pool:
        yield pool.imap


def _walk(block_map, fn, blocks: list[range], out: list, what: str) -> None:
    """Evaluate ``fn`` on each block in order through ``block_map``,
    appending each block's items to ``out`` and logging how many of
    ``what`` replicates are done; on an interrupt the items of the blocks
    completed so far stay there."""
    for items in block_map(fn, blocks):
        out.extend(items)
        logger.info("%s replicates done: %d of %d", what, len(out), blocks[-1].stop)


def _truth_law(config: ExperimentConfig, block_map, jobs: int) -> EmpiricalDistribution:
    logger.info("simulating truth law: %d replicates", config.truth_reps)
    fn = functools.partial(_truth_block, config)
    stats: list[float] = []
    _walk(block_map, fn, _blocks(config.truth_reps, jobs), stats, "truth")
    return EmpiricalDistribution(np.asarray(stats))


def run_truth(config: ExperimentConfig, jobs: int = 1) -> EmpiricalDistribution:
    """Monte Carlo law of the true statistic over truth_reps fresh datasets."""
    with _block_map(jobs) as block_map:
        return _truth_law(config, block_map, jobs)


def _aggregate(config: ExperimentConfig, per_rep: list) -> ExperimentResult:
    names = [plan.name for plan in config.schemes]
    per_rep_ks = {}
    per_rep_cover = {}
    for s, name in enumerate(names):
        per_rep_ks[name] = np.array([rep[0][s] for rep in per_rep])
        per_rep_cover[name] = np.array([float(rep[1][s]) for rep in per_rep])

    rows = []
    for name in names:
        for metric, values in (("KS", per_rep_ks[name]), ("Coverage", per_rep_cover[name])):
            std = float(values.std(ddof=1)) if values.size > 1 else 0.0
            rows.append(
                ResultRow(
                    experiment=config.experiment,
                    rho=config.copula.rho,
                    shape_alpha=config.copula.shape_alpha,
                    scheme=name,
                    metric=metric,
                    mean=float(values.mean()),
                    std=std,
                    reps=values.size,
                )
            )
    rows.sort(key=_row_order)
    return ExperimentResult(rows=rows, per_rep_ks=per_rep_ks, per_rep_cover=per_rep_cover)


def run_experiment(config: ExperimentConfig, jobs: int = 1, on_interrupt=None) -> ExperimentResult:
    """Truth law plus outer_reps dataset replicates of every scheme's KS
    distance and coverage indicator, aggregated to one row per
    (scheme, metric).

    On KeyboardInterrupt, ``on_interrupt`` (when given) receives the result
    of the outer replicates finished so far, if any, and then the interrupt
    propagates.
    """
    per_rep: list = []
    try:
        with _block_map(jobs) as block_map:
            truth = _truth_law(config, block_map, jobs)
            logger.info("running %d outer replicates", config.outer_reps)
            fn = functools.partial(_outer_block, config, truth)
            _walk(block_map, fn, _blocks(config.outer_reps, jobs), per_rep, "outer")
    except KeyboardInterrupt:
        if per_rep and on_interrupt is not None:
            logger.warning("interrupted; flushing %d completed replicates", len(per_rep))
            on_interrupt(_aggregate(config, per_rep))
        raise
    return _aggregate(config, per_rep)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit_results(rows: list[ResultRow], format: str, path: str | None) -> None:
    """Write aggregated rows as CSV or JSON (floats at 6 significant digits).

    Rows are written in the one row order of ``_row_order``;
    ``path=None`` or '-' writes to stdout.
    """
    if not rows:
        raise ValueError("rows must be nonempty")
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    ordered = sorted(rows, key=_row_order)
    buf = io.StringIO()
    if format == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(field.name for field in fields(ResultRow))
        for row in ordered:
            writer.writerow(_fmt(v) for v in astuple(row))
    else:
        payload = [
            {c: float(_fmt(v)) if isinstance(v, float) else v for c, v in asdict(row).items()}
            for row in ordered
        ]
        json.dump(payload, buf, indent=2)
        buf.write("\n")
    _write_text(buf.getvalue(), path)


def emit_figure_data(per_rep_values: dict[str, np.ndarray], path: str | None) -> None:
    """Long-format CSV scheme,rep,value with one row per (scheme, replicate).

    Values are written with full round-trip precision so downstream
    aggregation reproduces the in-memory means exactly.
    """
    if not per_rep_values:
        raise ValueError("per_rep_values must be nonempty")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scheme", "rep", "value"])
    for scheme in sorted(per_rep_values):
        for rep, value in enumerate(per_rep_values[scheme]):
            writer.writerow([scheme, rep, repr(float(value))])
    _write_text(buf.getvalue(), path)


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
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ValueError(f"cannot write results to {path!r}: directory {directory!r} does not exist")
        if os.path.exists(path):
            if not os.access(path, os.W_OK):
                raise ValueError(f"cannot write results to {path!r}: it is not writable")
        elif not os.access(directory, os.W_OK | os.X_OK):
            raise ValueError(f"cannot write results to {path!r}: directory {directory!r} is not writable")
    if len(files) == 2 and os.path.realpath(out) == os.path.realpath(figure_data):
        # the figure data would overwrite the results; named as the CLI flags
        raise ValueError(f"--out {out!r} and --figure-data {figure_data!r} name the same file")


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        import sys

        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc
