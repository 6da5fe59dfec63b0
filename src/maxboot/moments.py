"""Plug-in moment functionals, rate certificates, and exact bootstrap
moment-tensor diagnostics at small dimension.

The population functionals replace expectations by empirical averages over
rows.  Note that on a single dataset with i.i.d. rows the plug-ins of the
two "average of the maximum moment" variants coincide with the max of the
per-column average; all three are still reported separately since they
estimate different population quantities.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from maxboot.bootstrap import (
    BootstrapPlan,
    _centered_values,
    multiplier_moment,
)
from maxboot.datagen import DataMatrix

__all__ = [
    "Centering",
    "MomentSummary",
    "RateBranch",
    "RateCertificate",
    "estimate_moment_summary",
    "rate_certificate",
    "moment_tensor_diff_max",
]

_MCAL_ORDERS = (2, 3, 4, 6)


class Centering(enum.Enum):
    KNOWN_MEAN = "known"
    SAMPLE_MEAN = "sample"


@dataclass(frozen=True)
class MomentSummary:
    """Plug-in estimates of the moment functionals entering the rate bounds."""

    M2: float
    M4: float
    M6: float
    sigma_lower: float
    Mcal4: float
    Mcal_m1: dict[int, float] = field(repr=False)
    Mcal_m2: dict[int, float] = field(repr=False)


class RateBranch(str, enum.Enum):
    TAIL = "TailBranch"
    MOMENT = "MomentBranch"


@dataclass(frozen=True)
class RateCertificate:
    """Constant-free convergence-rate value gamma*_n, which branch won, and
    the values behind it; ``certify`` prints the fields in this order."""

    gamma_star: float
    branch: RateBranch
    tail_value: float
    moment_value: float
    kappa_n4: float
    M: float
    b_n: float


class _DegenerateSummary(ValueError):
    """A summary whose sigma_lower is 0, as it is when a column has zero
    spread (``_zero_spread``)."""


def _zero_spread(data: DataMatrix, center: Centering) -> np.ndarray:
    """Which columns have zero spread: all their entries are equal (sample
    centring), or all equal their known mean (known centring)."""
    reference = data.known_mean if center is Centering.KNOWN_MEAN else data.values[0]
    return (data.values == reference).all(axis=0)


def estimate_moment_summary(data: DataMatrix, center: Centering) -> MomentSummary:
    if data.n < 2:
        raise ValueError("need at least two rows")
    # each column, and the known mean it is centred at, times the power of two
    # 2^-e that takes their largest |value| below 1: exact, so neither the mean
    # nor a power overflows; the exponent e is added back after each root
    known = center is Centering.KNOWN_MEAN
    mean = data.known_mean if known else None
    largest = np.abs(data.values).max(axis=0)
    if mean is not None:
        largest = np.maximum(largest, np.abs(mean))
    e = np.frexp(largest)[1]
    scaled = DataMatrix(np.ldexp(data.values, -e), None if mean is None else np.ldexp(mean, -e))
    xc = np.abs(scaled.centered(known))
    # a column's sample mean need not round to its constant value
    xc[:, _zero_spread(data, center)] = 0.0
    # per column, the row-averaged |.|^m to the 1/m; its max over columns is
    # also the plug-in of (1/n) sum_i max_j E|.|^m and of
    # E max_j (1/n) sum_i |.|^m: with E replaced by the average over rows both
    # reduce to it.  A moment beyond the float range is inf, without a warning
    top = e.max()
    with np.errstate(over="ignore"):
        col_avg = {m: np.ldexp((xc**m).mean(axis=0) ** (1.0 / m), e) for m in _MCAL_ORDERS}
        mcal4 = float(np.ldexp((np.ldexp(xc, e - top) ** 4).max(axis=1).mean() ** 0.25, top))
    col_avg_max = {m: float(col_avg[m].max()) for m in _MCAL_ORDERS}
    return MomentSummary(
        M2=col_avg_max[2],
        M4=col_avg_max[4],
        M6=col_avg_max[6],
        sigma_lower=float(col_avg[2].min()),
        Mcal4=mcal4,
        Mcal_m1=dict(col_avg_max),
        Mcal_m2=dict(col_avg_max),
    )


def rate_certificate(summary: MomentSummary, n: int, p: int, scheme: str) -> RateCertificate:
    """gamma*_n = min of the tail branch and the moment branch.

    Tail branch: ((log p)^2 (log np)^3 / n)^(1/6) * M / sigma_lower with M at
    its minimal admissible value (twice (sigma/M4)^(1/3) M4 for the empirical
    scheme, without the factor two for the wild scheme).  Moment branch:
    ((log np)^5 / n)^(1/6) * (Mcal / sigma_lower)^(2/3) with Mcal the average
    row-max fourth moment (empirical) or the max column-average (wild).
    """
    if scheme not in ("empirical", "wild"):
        raise ValueError("scheme must be 'empirical' or 'wild'")
    if n < 2 or p < 2:
        raise ValueError("need n >= 2 and p >= 2")
    sig = summary.sigma_lower
    if sig <= 0.0:
        raise _DegenerateSummary("degenerate summary: sigma_lower must be positive")

    m4 = summary.M4
    factor = 2.0 if scheme == "empirical" else 1.0
    M = factor * (sig / m4) ** (1.0 / 3.0) * m4
    mcal = summary.Mcal4 if scheme == "empirical" else summary.Mcal_m2[4]

    log_p = math.log(p)
    log_np = math.log(n * p)
    tail = (log_p**2 * log_np**3 / n) ** (1.0 / 6.0) * M / sig
    moment = (log_np**5 / n) ** (1.0 / 6.0) * (mcal / sig) ** (2.0 / 3.0)

    b_n = (math.sqrt(n) / log_p) ** (1.0 / 3.0) / M
    # (b_n m4)^4 as products, which overflow to inf (refused by certify's
    # JSON) where ** would raise
    bm_squared = (b_n * m4) * (b_n * m4)
    kappa_n4 = bm_squared * bm_squared * log_p**3 / n

    if tail <= moment:
        gamma_star, branch = tail, RateBranch.TAIL
    else:
        gamma_star, branch = moment, RateBranch.MOMENT
    return RateCertificate(gamma_star, branch, tail, moment, kappa_n4, M, b_n)


def _tensor_guard(order: int, p: int) -> None:
    if order not in (2, 3, 4):
        raise ValueError("order must be 2, 3 or 4")
    if order == 3 and p > 64:
        raise ValueError("order-3 tensors are limited to p <= 64")
    if order == 4 and p > 16:
        raise ValueError("order-4 tensors are limited to p <= 16")


_TENSOR_SPEC = {2: "ia,ib->ab", 3: "ia,ib,ic->abc", 4: "ia,ib,ic,id->abcd"}


def _mean_tensor(xc: np.ndarray, order: int) -> np.ndarray:
    return np.einsum(_TENSOR_SPEC[order], *([xc] * order)) / xc.shape[0]


def moment_tensor_diff_max(data: DataMatrix, plan: BootstrapPlan, order: int) -> float:
    """Sup-norm gap between the sample moment tensor and its exact
    conditional bootstrap counterpart.

    For wild schemes the bootstrap tensor is E W^m times the sample tensor,
    so the gap equals |1 - E W^m| times the sample tensor's sup norm; for
    the empirical bootstrap the two tensors are the same object and the gap
    is zero.  ``tests/oracles.py`` holds the Monte Carlo reference for the
    closed form.
    """
    _tensor_guard(order, data.p)
    if data.n < 2:
        raise ValueError("need at least two rows")
    sample_xc = data.centered(at_known_mean=False)
    mu_hat = _mean_tensor(sample_xc, order)
    # the data as the plan centres them, centred (and warned about) once
    xc = sample_xc if plan.center_by_sample_mean else _centered_values(data, plan)
    nu_hat = mu_hat if xc is sample_xc else _mean_tensor(xc, order)
    if plan.multiplier is not None:
        nu_hat = multiplier_moment(plan.multiplier, order) * nu_hat
    return float(np.abs(mu_hat - nu_hat).max())
