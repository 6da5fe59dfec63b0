"""Scalar-statistic layer: max statistics, smooth max, empirical laws,
quantiles, and distance / concentration functionals on step CDFs.

All distribution-level quantities are computed exactly for step functions:
supremum evaluations run over pooled sample points, or over windows anchored
at sample points, which is sufficient because step CDFs only change value
there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from maxboot.datagen import DataMatrix

__all__ = [
    "MaxMode",
    "EmpiricalDistribution",
    "max_statistic",
    "smooth_max",
    "softmax_weights",
    "upper_quantile",
    "two_sample_ks",
    "concentration_fn",
]

# guard against float fuzz when (1 - alpha) * size is an exact integer
_CEIL_GUARD = 1e-9


class MaxMode(enum.Enum):
    ONE_SIDED = "onesided"
    ABSOLUTE = "abs"


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted sample of a scalar statistic with CDF/quantile queries."""

    sample: np.ndarray

    def __post_init__(self) -> None:
        sample = np.asarray(self.sample, dtype=np.float64)
        if sample.ndim != 1 or sample.size < 1:
            raise ValueError("sample must be a nonempty 1-d array")
        if np.isnan(sample).any():
            raise ValueError("sample must not contain NaN")
        object.__setattr__(self, "sample", np.sort(sample))

    @property
    def size(self) -> int:
        return self.sample.size

    def cdf(self, t):
        """P{X <= t}, right-continuous."""
        return np.searchsorted(self.sample, t, side="right") / self.size


def max_statistic(data: DataMatrix, center: np.ndarray, mode: MaxMode) -> float:
    """max_j sqrt(n) (xbar_j - center_j), or the same with absolute values."""
    center = np.asarray(center, dtype=np.float64)
    if center.shape != (data.p,):
        raise ValueError(f"center must have length p={data.p}")
    dev = math.sqrt(data.n) * (data.values.mean(axis=0) - center)
    if mode is MaxMode.ABSOLUTE:
        return float(np.abs(dev).max())
    return float(dev.max())


def smooth_max(z: np.ndarray, beta: float) -> float:
    """Log-sum-exp surrogate of the coordinate maximum.

    Computed with the max-shift so the exponentials never overflow; the
    value always lies in [max(z), max(z) + log(p)/beta].
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("z must be a nonempty 1-d array")
    m = z.max()
    return float(m + np.log(np.exp(beta * (z - m)).sum()) / beta)


def softmax_weights(z: np.ndarray, beta: float) -> np.ndarray:
    """Gradient of ``smooth_max``: positive weights summing to one."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("z must be a nonempty 1-d array")
    e = np.exp(beta * (z - z.max()))
    return e / e.sum()


def upper_quantile(dist: EmpiricalDistribution, alpha: float) -> float:
    """Smallest sample value t with (#{x > t}) / size <= alpha.

    Realized as the ceil((1 - alpha) * size) order statistic (1-indexed).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    k = math.ceil((1.0 - alpha) * dist.size - _CEIL_GUARD)
    k = min(max(k, 1), dist.size)
    return float(dist.sample[k - 1])


def two_sample_ks(a: EmpiricalDistribution, b: EmpiricalDistribution) -> float:
    """Exact sup_t |F_a(t) - F_b(t)| for two empirical CDFs.

    Both step functions are constant between pooled sample points, so the
    supremum is attained at one of them (left-limit pairs there equal the
    point values one grid position earlier).
    """
    pooled = np.concatenate([a.sample, b.sample])
    return float(np.abs(a.cdf(pooled) - b.cdf(pooled)).max())


def concentration_fn(dist: EmpiricalDistribution, eps: float) -> float:
    """Levy concentration function: sup_t P{t - eps < X < t}.

    Any open interval can be slid right until its left end sits just below
    a sample point without dropping points, so the supremum equals the best
    count over windows [x_j, x_j + eps) anchored at sample points.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    s = dist.sample
    counts = np.searchsorted(s, s + eps, side="left") - np.arange(s.size)
    return float(counts.max() / dist.size)
