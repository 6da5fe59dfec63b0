"""Plug-in moment functionals, truncation, rate certificates, and exact
bootstrap moment-tensor diagnostics at small dimension.

The population functionals replace expectations by empirical averages over
rows.  Note that on a single dataset with i.i.d. rows the plug-ins of the
two "average of the maximum moment" variants coincide with the max of the
per-column average; all three are still reported separately since they
estimate different population quantities.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from maxboot.bootstrap import (
    BootstrapPlan,
    _centered_values,
    _replicate_rows,
    multiplier_moment,
)
from maxboot.datagen import DataMatrix
from maxboot.rng import SeedSpec

__all__ = [
    "Centering",
    "MomentSummary",
    "RateBranch",
    "RateCertificate",
    "estimate_moment_summary",
    "rate_certificate",
    "truncate_centered",
    "moment_tensor_diff_max",
    "bootstrap_moment_tensor_mc",
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


class RateBranch(enum.Enum):
    TAIL = "TailBranch"
    MOMENT = "MomentBranch"


@dataclass(frozen=True)
class RateCertificate:
    """Constant-free convergence-rate value gamma*_n and which branch won."""

    gamma_star: float
    branch: RateBranch
    kappa_n4: float
    n: int
    p: int
    M: float
    b_n: float
    scheme: str
    tail_value: float = 0.0
    moment_value: float = 0.0


def _center(data: DataMatrix, center: Centering) -> np.ndarray:
    if center is Centering.KNOWN_MEAN:
        if data.known_mean is None:
            raise ValueError("KnownMean centering requires data.known_mean")
        return data.values - data.known_mean
    return data.values - data.values.mean(axis=0)


def estimate_moment_summary(data: DataMatrix, center: Centering) -> MomentSummary:
    if data.n < 2:
        raise ValueError("need at least two rows")
    xc = np.abs(_center(data, center))
    # max over columns of the row-averaged |.|^m, to the 1/m.  This is also the
    # plug-in of (1/n) sum_i max_j E|.|^m and of E max_j (1/n) sum_i |.|^m:
    # with E replaced by the average over rows both reduce to it
    col_avg_max = {m: float((xc**m).mean(axis=0).max() ** (1.0 / m)) for m in _MCAL_ORDERS}
    return MomentSummary(
        M2=col_avg_max[2],
        M4=col_avg_max[4],
        M6=col_avg_max[6],
        sigma_lower=float(math.sqrt((xc**2).mean(axis=0).min())),
        Mcal4=float(((xc**4).max(axis=1).mean()) ** 0.25),
        Mcal_m1=dict(col_avg_max),
        Mcal_m2=dict(col_avg_max),
    )


def rate_certificate(
    summary: MomentSummary,
    n: int,
    p: int,
    scheme: str,
    b_n: float | None = None,
) -> RateCertificate:
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
        raise ValueError("degenerate summary: sigma_lower must be positive")

    m4 = summary.M4
    factor = 2.0 if scheme == "empirical" else 1.0
    M = factor * (sig / m4) ** (1.0 / 3.0) * m4
    mcal = summary.Mcal4 if scheme == "empirical" else summary.Mcal_m2[4]

    log_p = math.log(p)
    log_np = math.log(n * p)
    tail = (log_p**2 * log_np**3 / n) ** (1.0 / 6.0) * M / sig
    moment = (log_np**5 / n) ** (1.0 / 6.0) * (mcal / sig) ** (2.0 / 3.0)

    if b_n is None:
        t_n = (M / sig) / (m4 / sig) ** (2.0 / 3.0)
        b_n = (math.sqrt(n) / (m4**2 * sig * log_p)) ** (1.0 / 3.0) / t_n
    kappa_n4 = b_n**4 * log_p**3 * m4**4 / n

    if tail <= moment:
        gamma_star, branch = tail, RateBranch.TAIL
    else:
        gamma_star, branch = moment, RateBranch.MOMENT
    return RateCertificate(
        gamma_star=gamma_star,
        branch=branch,
        kappa_n4=kappa_n4,
        n=n,
        p=p,
        M=M,
        b_n=b_n,
        scheme=scheme,
        tail_value=tail,
        moment_value=moment,
    )


def truncate_centered(data: DataMatrix, a_n: float, center: Centering) -> DataMatrix:
    """Zero out entries with |x| > a_n, then center the truncated columns.

    SampleMean centering subtracts the empirical mean of each truncated
    column, so output columns average to exactly zero; KnownMean subtracts
    the data's known mean vector.  The result carries known_mean = 0.
    """
    if a_n <= 0.0:
        raise ValueError("a_n must be positive")
    kept = np.where(np.abs(data.values) <= a_n, data.values, 0.0)
    if center is Centering.KNOWN_MEAN:
        if data.known_mean is None:
            raise ValueError("KnownMean centering requires data.known_mean")
        c = data.known_mean
    else:
        c = kept.mean(axis=0)
    return DataMatrix(values=kept - c, known_mean=np.zeros(data.p))


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


def moment_tensor_diff_max(
    data: DataMatrix,
    plan: BootstrapPlan,
    order: int,
    b_reps_for_nu: int = 0,
    seed: SeedSpec | None = None,
) -> float:
    """Sup-norm gap between the sample moment tensor and its exact
    conditional bootstrap counterpart.

    For wild schemes the bootstrap tensor is E W^m times the sample tensor,
    so the gap equals |1 - E W^m| times the sample tensor's sup norm; for
    the empirical bootstrap the two tensors are the same object and the gap
    is zero.  When ``b_reps_for_nu`` is positive, a Monte Carlo estimate of
    the bootstrap tensor is computed from that many replicates and checked
    against the closed form (6 standard errors); this guards the closed
    form, the returned value is always the exact one.
    """
    _tensor_guard(order, data.p)
    if data.n < 2:
        raise ValueError("need at least two rows")
    mu_hat = _mean_tensor(data.values - data.values.mean(axis=0), order)
    if plan.multiplier is None:
        nu_hat = mu_hat
    else:
        xc = _centered_values(data, plan)
        nu_hat = multiplier_moment(plan.multiplier, order) * _mean_tensor(xc, order)

    if b_reps_for_nu > 0:
        if seed is None:
            raise ValueError("Monte Carlo cross-check requires a seed")
        mc_mean, mc_se = bootstrap_moment_tensor_mc(data, plan, order, b_reps_for_nu, seed)
        if np.any(np.abs(mc_mean - nu_hat) > 6.0 * mc_se + 1e-9):
            raise RuntimeError(
                "Monte Carlo bootstrap tensor disagrees with the closed form "
                "beyond 6 standard errors"
            )
    return float(np.abs(mu_hat - nu_hat).max())


def bootstrap_moment_tensor_mc(
    data: DataMatrix,
    plan: BootstrapPlan,
    order: int,
    b_reps: int,
    seed: SeedSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo mean and standard error of the conditional bootstrap
    moment tensor (1/n) sum_i (X*_i)^(x order) over b_reps replicates."""
    _tensor_guard(order, data.p)
    xc = _centered_values(data, plan)
    # per-row rank-one tensors, stacked: shape (n, p, ..., p)
    stack_spec = {2: "ia,ib->iab", 3: "ia,ib,ic->iabc", 4: "ia,ib,ic,id->iabcd"}[order]
    row_tensors = np.einsum(stack_spec, *([xc] * order))

    total = np.zeros(row_tensors.shape[1:])
    total_sq = np.zeros_like(total)
    rngs = seed.child_rngs(b_reps)
    for done in range(0, b_reps, 4096):
        m = min(4096, b_reps - done)
        weights = _replicate_rows(plan, data.n, itertools.islice(rngs, m), m)
        if plan.multiplier is not None:
            # a wild replicate weights row i's tensor by W_i^order
            weights **= order
        reps = np.einsum("ri,i...->r...", weights, row_tensors) / data.n
        total += reps.sum(axis=0)
        total_sq += (reps**2).sum(axis=0)
    mean = total / b_reps
    var = np.maximum(total_sq / b_reps - mean**2, 0.0)
    se = np.sqrt(var / b_reps)
    return mean, se
