"""Resampling schemes: empirical bootstrap, wild bootstrap with several
multiplier laws, and the mixed wild bootstrap with a Gaussian component.

Replicate r of a bootstrap distribution draws from the substream
``seed.child(r)``, so the distribution is reproducible replicate-by-replicate
and identical under any evaluation order or batching.
"""

from __future__ import annotations

import enum
import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from maxboot import _kernels
from maxboot.datagen import DataMatrix
from maxboot.rng import SeedSpec
from maxboot.stat_core import EmpiricalDistribution, MaxMode

__all__ = [
    "MultiplierKind",
    "GAUSSIAN",
    "RADEMACHER",
    "MAMMEN",
    "mixed_multiplier",
    "mixed_coefficients",
    "multiplier_moments",
    "multiplier_moment",
    "draw_multipliers",
    "Scheme",
    "BootstrapPlan",
    "bootstrap_stat_once",
    "bootstrap_distribution",
]

logger = logging.getLogger(__name__)

# Mammen's two-point law: values (1 +- sqrt5)/2 with P{(1+sqrt5)/2} = (sqrt5-1)/(2 sqrt5),
# the unique two-point law with mean 0 and second and third moments equal to 1.
MAMMEN_VALUE_PLUS = (1.0 + math.sqrt(5.0)) / 2.0
MAMMEN_VALUE_MINUS = (1.0 - math.sqrt(5.0)) / 2.0
MAMMEN_PROB_PLUS = (math.sqrt(5.0) - 1.0) / (2.0 * math.sqrt(5.0))


@dataclass(frozen=True)
class MultiplierKind:
    """Wild-bootstrap multiplier law: gaussian, rademacher, mammen, or mixed."""

    name: str
    p0: float | None = None

    def __post_init__(self) -> None:
        if self.name not in ("gaussian", "rademacher", "mammen", "mixed"):
            raise ValueError(f"unknown multiplier law {self.name!r}")
        if self.name == "mixed":
            if self.p0 is None or not 0.0 < self.p0 < 1.0:
                raise ValueError("mixed multiplier requires p0 in (0, 1)")
        elif self.p0 is not None:
            raise ValueError(f"p0 only applies to the mixed law, not {self.name!r}")


GAUSSIAN = MultiplierKind("gaussian")
RADEMACHER = MultiplierKind("rademacher")
MAMMEN = MultiplierKind("mammen")


def mixed_multiplier(p0: float = 0.5) -> MultiplierKind:
    return MultiplierKind("mixed", p0=p0)


def mixed_coefficients(p0: float) -> tuple[float, float]:
    """(a0, b0) scaling the Gaussian / Mammen branches of the mixed law.

    Chosen so the mixture keeps unit second moment and unit third moment:
    b0 = (1-p0)^(-1/3), a0 = sqrt((1 - (1-p0)^(1/3)) / p0).
    """
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must lie in (0, 1)")
    b0 = (1.0 - p0) ** (-1.0 / 3.0)
    a0 = math.sqrt((1.0 - (1.0 - p0) ** (1.0 / 3.0)) / p0)
    return a0, b0


def multiplier_moment(kind: MultiplierKind, order: int) -> float:
    """Exact population moment E W^order, orders 1 through 4."""
    if order not in (1, 2, 3, 4):
        raise ValueError("order must be 1, 2, 3 or 4")
    if kind.name == "gaussian":
        return (0.0, 1.0, 0.0, 3.0)[order - 1]
    if kind.name == "rademacher":
        return (0.0, 1.0, 0.0, 1.0)[order - 1]
    if kind.name == "mammen":
        # fourth moment of the two-point law works out to exactly 2
        return (0.0, 1.0, 1.0, 2.0)[order - 1]
    a0, b0 = mixed_coefficients(kind.p0)
    if order == 4:
        return kind.p0 * a0**4 * 3.0 + (1.0 - kind.p0) * b0**4 * 2.0
    return (0.0, 1.0, 1.0)[order - 1]


def multiplier_moments(kind: MultiplierKind) -> tuple[float, float, float]:
    """(E W, E W^2, E W^3) of the law, exactly."""
    return tuple(multiplier_moment(kind, m) for m in (1, 2, 3))


def _draw_from(kind: MultiplierKind, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind.name == "gaussian":
        return rng.standard_normal(n)
    if kind.name == "rademacher":
        return 2.0 * rng.integers(0, 2, n) - 1.0
    if kind.name == "mammen":
        return np.where(rng.random(n) < MAMMEN_PROB_PLUS, MAMMEN_VALUE_PLUS, MAMMEN_VALUE_MINUS)
    # mixed: Bernoulli branch indicator, then both branch variables (fixed draw
    # order keeps the stream layout independent of the branch outcomes)
    a0, b0 = mixed_coefficients(kind.p0)
    delta = rng.random(n) < kind.p0
    z = rng.standard_normal(n)
    w0 = np.where(rng.random(n) < MAMMEN_PROB_PLUS, MAMMEN_VALUE_PLUS, MAMMEN_VALUE_MINUS)
    return np.where(delta, a0 * z, b0 * w0)


def draw_multipliers(kind: MultiplierKind, n: int, seed: SeedSpec) -> np.ndarray:
    """n i.i.d. multipliers from the law, deterministic given the seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _draw_from(kind, n, seed.rng())


class Scheme(enum.Enum):
    EMPIRICAL = "empirical"
    WILD = "wild"
    MIXED_WILD = "mixed_wild"


@dataclass(frozen=True)
class BootstrapPlan:
    """One resampling scheme plus its replicate budget.

    Empirical and wild resampling operate on sample-mean-centered rows;
    the mixed wild bootstrap deliberately does not subtract the sample mean
    (it centers at the known mean when the data carry one).
    """

    scheme: Scheme
    multiplier: MultiplierKind | None = None
    p0: float = 0.5
    b_reps: int = 500

    def __post_init__(self) -> None:
        if self.b_reps < 1:
            raise ValueError("b_reps must be at least 1")
        if self.scheme is Scheme.WILD:
            if self.multiplier is None:
                raise ValueError("wild scheme requires a multiplier kind")
        elif self.multiplier is not None:
            raise ValueError(f"multiplier only applies to the wild scheme, not {self.scheme}")
        if self.scheme is Scheme.MIXED_WILD and not 0.0 < self.p0 < 1.0:
            raise ValueError("mixed wild scheme requires p0 in (0, 1)")

    @property
    def center_by_sample_mean(self) -> bool:
        return self.scheme is not Scheme.MIXED_WILD

    @property
    def name(self) -> str:
        if self.scheme is Scheme.EMPIRICAL:
            return "empirical"
        if self.scheme is Scheme.MIXED_WILD:
            return "mixed"
        return self.multiplier.name

    @classmethod
    def empirical(cls, b_reps: int = 500) -> "BootstrapPlan":
        return cls(Scheme.EMPIRICAL, b_reps=b_reps)

    @classmethod
    def wild(cls, multiplier: MultiplierKind, b_reps: int = 500) -> "BootstrapPlan":
        return cls(Scheme.WILD, multiplier=multiplier, b_reps=b_reps)

    @classmethod
    def mixed_wild(cls, p0: float = 0.5, b_reps: int = 500) -> "BootstrapPlan":
        return cls(Scheme.MIXED_WILD, p0=p0, b_reps=b_reps)


def _centered_values(data: DataMatrix, plan: BootstrapPlan) -> np.ndarray:
    if plan.center_by_sample_mean:
        return data.values - data.values.mean(axis=0)
    if data.known_mean is not None:
        return data.values - data.known_mean
    logger.warning(
        "mixed wild bootstrap without a known mean: falling back to sample-mean centering"
    )
    return data.values - data.values.mean(axis=0)


def _replicate_rows(
    data: DataMatrix, plan: BootstrapPlan, rngs: Iterable[np.random.Generator], b: int
) -> tuple[np.ndarray, np.ndarray]:
    """Centered data plus one weight row per replicate, drawn from its stream.

    The wild schemes' weights are the multipliers.  The empirical bootstrap's
    are the multinomial counts of its resampled indices: summing the
    resampled centered rows is the same as weighting each row by its count.
    """
    n = data.n
    xc = _centered_values(data, plan)
    rows = np.empty((b, n))
    if plan.scheme is Scheme.EMPIRICAL:
        for r, rng in enumerate(rngs):
            rows[r] = np.bincount(rng.integers(0, n, n, dtype=np.int64), minlength=n)
        return xc, rows
    kind = plan.multiplier if plan.scheme is Scheme.WILD else mixed_multiplier(plan.p0)
    for r, rng in enumerate(rngs):
        rows[r] = _draw_from(kind, n, rng)
    return xc, rows


def bootstrap_stat_once(
    data: DataMatrix, plan: BootstrapPlan, mode: MaxMode, seed: SeedSpec
) -> float:
    """One draw of the bootstrapped max statistic."""
    if data.n < 2:
        raise ValueError("bootstrap requires at least two rows")
    xc, rows = _replicate_rows(data, plan, [seed.rng()], 1)
    return float(_kernels.max_reduce(xc, rows, mode is MaxMode.ABSOLUTE)[0])


def bootstrap_distribution(
    data: DataMatrix, plan: BootstrapPlan, mode: MaxMode, seed: SeedSpec
) -> EmpiricalDistribution:
    """plan.b_reps conditionally-i.i.d. bootstrap statistics, sorted.

    Replicate r draws from ``seed.child(r)``; batching the reduction does not
    change any individual replicate's value.
    """
    if data.n < 2:
        raise ValueError("bootstrap requires at least two rows")
    xc, rows = _replicate_rows(data, plan, seed.child_rngs(plan.b_reps), plan.b_reps)
    return EmpiricalDistribution(_kernels.max_reduce(xc, rows, mode is MaxMode.ABSOLUTE))
