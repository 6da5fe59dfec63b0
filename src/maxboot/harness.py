"""Experiment runner: Monte Carlo truth law, per-dataset bootstrap laws,
Kolmogorov-Smirnov and coverage metrics, and deterministic file emission.

Outer replicates are the parallel unit.  Every replicate derives its own
random substream from the master seed, so results are byte-identical at any
worker count; aggregation sorts by replicate index before reducing.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import logging
import math
import multiprocessing
import signal
from dataclasses import dataclass

import numpy as np

from maxboot.bootstrap import BootstrapPlan, bootstrap_distribution
from maxboot.datagen import CopulaSpec, Dependence, sample_gaussian_copula
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
        if min(self.outer_reps, self.truth_reps) < 1:
            raise ValueError("outer_reps and truth_reps must be at least 1")
        if not 0.0 < self.alpha_level < 1.0:
            raise ValueError("alpha_level must lie in (0, 1)")
        if self.n < 2 or self.p < 1:
            raise ValueError("need n >= 2 and p >= 1")
        if not self.schemes:
            raise ValueError("at least one bootstrap scheme is required")
        names = [plan.name for plan in self.schemes]
        if len(set(names)) != len(names):
            raise ValueError("scheme names must be unique")

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


@dataclass(frozen=True)
class ExperimentResult:
    rows: list[ResultRow]
    per_rep_ks: dict[str, np.ndarray]
    per_rep_cover: dict[str, np.ndarray]
    truth: EmpiricalDistribution


def _blocks(total: int, jobs: int) -> list[range]:
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    size = max(1, math.ceil(total / (jobs * 8)))
    return [range(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _truth_block(config: ExperimentConfig, reps: range) -> list[float]:
    out = []
    for r in reps:
        data = sample_gaussian_copula(
            config.copula, config.n, config.p, SeedSpec(config.master_seed).child(_TRUTH, r)
        )
        out.append(max_statistic(data, data.known_mean, config.mode))
    return out


def _outer_block(
    config: ExperimentConfig, truth_sample: np.ndarray, reps: range
) -> list[tuple[list[float], list[bool]]]:
    truth = EmpiricalDistribution(truth_sample)
    out = []
    for r in reps:
        data = sample_gaussian_copula(
            config.copula, config.n, config.p, SeedSpec(config.master_seed).child(_DATA, r)
        )
        tn = max_statistic(data, data.known_mean, config.mode)
        ks_vals, covered = [], []
        for s, plan in enumerate(config.schemes):
            law = bootstrap_distribution(
                data, plan, config.mode, SeedSpec(config.master_seed).child(_BOOT, r, s)
            )
            ks_vals.append(two_sample_ks(truth, law))
            covered.append(tn <= upper_quantile(law, config.alpha_level))
        out.append((ks_vals, covered))
    return out


def _run_blocks(fn, blocks: list[range], jobs: int, out: list) -> None:
    """Evaluate ``fn`` on each block in order, appending each block's items
    to ``out``; on an interrupt the items of the blocks completed so far stay
    there.  Pool workers ignore SIGINT and are terminated when the pool is
    left, so an interrupt never waits on them."""
    if jobs == 1:
        for block in blocks:
            out.extend(fn(block))
        return
    with multiprocessing.Pool(jobs, signal.signal, (signal.SIGINT, signal.SIG_IGN)) as pool:
        for items in pool.imap(fn, blocks):
            out.extend(items)


def run_truth(config: ExperimentConfig, jobs: int = 1) -> EmpiricalDistribution:
    """Monte Carlo law of the true statistic over truth_reps fresh datasets."""
    logger.info("simulating truth law: %d replicates", config.truth_reps)
    fn = functools.partial(_truth_block, config)
    stats: list[float] = []
    _run_blocks(fn, _blocks(config.truth_reps, jobs), jobs, stats)
    return EmpiricalDistribution(np.asarray(stats))


def _aggregate(
    config: ExperimentConfig, per_rep: list, truth: EmpiricalDistribution
) -> ExperimentResult:
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
    rows.sort(key=lambda row: (row.experiment, row.scheme, row.metric))
    return ExperimentResult(rows=rows, per_rep_ks=per_rep_ks, per_rep_cover=per_rep_cover, truth=truth)


def run_experiment(config: ExperimentConfig, jobs: int = 1, on_interrupt=None) -> ExperimentResult:
    """Truth law plus outer_reps dataset replicates of every scheme's KS
    distance and coverage indicator, aggregated to one row per
    (scheme, metric).

    On KeyboardInterrupt, ``on_interrupt`` (when given) receives the result
    of the replicates finished so far, and then the interrupt propagates.
    """
    truth = run_truth(config, jobs=jobs)
    logger.info("running %d outer replicates", config.outer_reps)
    fn = functools.partial(_outer_block, config, truth.sample)
    per_rep: list = []
    try:
        _run_blocks(fn, _blocks(config.outer_reps, jobs), jobs, per_rep)
    except KeyboardInterrupt:
        if per_rep and on_interrupt is not None:
            logger.warning("interrupted; flushing %d completed replicates", len(per_rep))
            on_interrupt(_aggregate(config, per_rep, truth))
        raise
    return _aggregate(config, per_rep, truth)


_COLUMNS = ("experiment", "rho", "shape_alpha", "scheme", "metric", "mean", "std", "reps")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit_results(rows: list[ResultRow], format: str, path: str | None) -> None:
    """Write aggregated rows as CSV or JSON (floats at 6 significant digits).

    Row order is made deterministic by sorting on (experiment, scheme,
    metric); ``path=None`` or '-' writes to stdout.
    """
    if not rows:
        raise ValueError("rows must be nonempty")
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    ordered = sorted(rows, key=lambda row: (row.experiment, row.scheme, row.metric))
    buf = io.StringIO()
    if format == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for row in ordered:
            writer.writerow([_fmt(getattr(row, c)) for c in _COLUMNS])
    else:
        payload = [
            {c: float(_fmt(v)) if isinstance(v := getattr(row, c), float) else v for c in _COLUMNS}
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
