"""Numerical verification of the smooth-max calculus and probabilistic
identities that the bootstrap theory leans on: closed-form derivative
tensors of the log-sum-exp max against finite differences, their l1-norm
bounds, softmax stability under shifts, the permutation-averaged swap
identity, and Gaussian anti-concentration.

Identities are verified by exact enumeration; inequalities by randomized
sweeps that report the worst violation found.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from maxboot.rng import SeedSpec
from maxboot.stat_core import EmpiricalDistribution, concentration_fn, smooth_max, softmax_weights

__all__ = [
    "CheckReport",
    "L1_BOUNDS",
    "fbeta_derivative",
    "check_smoothmax_sandwich",
    "check_l1_bounds",
    "check_softmax_stability",
    "check_lindeberg_permutation",
    "check_gaussian_anticoncentration",
    "LINDEBERG_TEST_FUNCTIONS", "MIN_MC_REPS",
]

# l1 bounds for beta^(1-m) F^(m): orders 1..4
L1_BOUNDS = {1: 1.0, 2: 2.0, 3: 6.0, 4: 26.0}

_MAX_TENSOR_P = 16

# largest dimension the sandwich and l1 sweeps draw
_SANDWICH_P_MAX, _L1_P_MAX = 1000, 8

# fewest Monte Carlo maxima the anti-concentration check accepts
MIN_MC_REPS = 10_000


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    max_violation: float
    trials: int
    details: str

    def __post_init__(self) -> None:
        # normalize numpy scalars so reports serialize straight to JSON
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "max_violation", float(self.max_violation))
        object.__setattr__(self, "trials", int(self.trials))


def _set_partitions(items: list[int]):
    """Every set partition of ``items``, each block in the items' order."""
    if not items:
        yield []
        return
    for blocks in _set_partitions(items[1:]):
        yield [items[:1], *blocks]
        for i, block in enumerate(blocks):
            yield [*blocks[:i], [items[0], *block], *blocks[i + 1 :]]


def fbeta_derivative(z: np.ndarray, beta: float, order: int) -> np.ndarray:
    """Dense, symmetric derivative tensor of the smooth max, orders 1 to 4.

    The m-th derivative is beta^(m-1) times the m-th joint cumulant of the
    one-hot vector of a coordinate drawn with the softmax weights pi.  Entry
    (a_1..a_m) is a sum over the set partitions of the m positions into k
    blocks, each adding (-1)^(k-1) (k-1)! times a product over its blocks of
    pi at the block's index if all its indices agree, else 0.  Every entry is
    evaluated at its sorted index tuple, so all entries of an orbit take the
    same operations and the tensor is bitwise symmetric; sorted, a block's
    indices agree exactly when its first and last do.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("z must be a nonempty 1-d array")
    if z.size > _MAX_TENSOR_P:
        raise ValueError(f"dense tensors are limited to p <= {_MAX_TENSOR_P}")
    if order not in (1, 2, 3, 4):
        raise ValueError("order must be 1, 2, 3 or 4")
    pi = softmax_weights(z, beta)
    index = np.sort(np.indices((z.size,) * order).reshape(order, -1), axis=0)
    # a block's factor, keyed by its first and last position
    factor = {(i, j): np.where(index[i] == index[j], pi[index[i]], 0.0) for i in range(order) for j in range(i, order)}
    core = np.zeros(index.shape[1])
    for blocks in _set_partitions(list(range(order))):
        term = (-1.0) ** (len(blocks) - 1) * math.factorial(len(blocks) - 1)
        for block in blocks:
            term = term * factor[block[0], block[-1]]
        core += term
    return beta ** (order - 1) * core.reshape((z.size,) * order)


def _random_z(rng: np.random.Generator, p: int) -> np.ndarray:
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    return scale * rng.standard_normal(p)


def check_smoothmax_sandwich(trials: int, seed: SeedSpec) -> CheckReport:
    """0 <= F_beta(z) - max(z) <= log(p)/beta on random inputs."""
    rng = seed.rng()
    worst = -math.inf
    for _ in range(trials):
        p = int(rng.integers(1, _SANDWICH_P_MAX + 1))
        beta = 10.0 ** rng.uniform(-2.0, 2.0)
        z = _random_z(rng, p)
        fb = smooth_max(z, beta)
        gap = fb - z.max()
        worst = max(worst, -gap, gap - math.log(p) / beta)
    passed = worst <= 1e-12
    return CheckReport(
        name="smoothmax_sandwich",
        passed=passed,
        max_violation=worst,
        trials=trials,
        details=f"max excess over [max, max + log(p)/beta]: {worst:.3e}",
    )


def check_l1_bounds(trials: int, seed: SeedSpec) -> CheckReport:
    """l1 norms of beta^(1-m) F^(m) never exceed 1, 2, 6, 26 for m = 1..4."""
    rng = seed.rng()
    worst = -math.inf
    max_ratio = 0.0
    for _ in range(trials):
        p = int(rng.integers(1, _L1_P_MAX + 1))
        beta = 10.0 ** rng.uniform(-1.0, 1.0)
        z = _random_z(rng, p)
        for m in (1, 2, 3, 4):
            l1 = float(np.abs(fbeta_derivative(z, beta, m)).sum()) * beta ** (1 - m)
            worst = max(worst, l1 - L1_BOUNDS[m])
            max_ratio = max(max_ratio, l1 / L1_BOUNDS[m])
    return CheckReport(
        name="fbeta_l1_bounds",
        passed=worst <= 1e-12,
        max_violation=worst,
        trials=trials,
        details=f"max ratio ||.||_1 / C_m attained: {max_ratio:.6f}",
    )


def _log_softmax(z: np.ndarray, beta: float) -> np.ndarray:
    s = beta * (z - z.max())
    return s - math.log(np.exp(s).sum())


def check_softmax_stability(trials: int, seed: SeedSpec) -> CheckReport:
    """Shift stability: pi_j(z+t) within exp(+-2 beta ||t||_inf) of pi_j(z).

    Checked in log space: |log pi(z+t) - log pi(z)| <= 2 beta ||t||_inf.
    """
    rng = seed.rng()
    worst = -math.inf
    for _ in range(trials):
        p = int(rng.integers(1, 33))
        beta = 10.0 ** rng.uniform(-1.0, 1.0)
        z = _random_z(rng, p)
        t = rng.uniform(-1.0, 1.0) * rng.standard_normal(p)
        delta = _log_softmax(z + t, beta) - _log_softmax(z, beta)
        worst = max(worst, float(np.abs(delta).max()) - 2.0 * beta * float(np.abs(t).max()))
    return CheckReport(
        name="softmax_stability",
        passed=worst <= 1e-12,
        max_violation=worst,
        trials=trials,
        details=f"max excess of |log-ratio| over 2 beta ||t||_inf: {worst:.3e}",
    )


def _f_smoothmax(total: np.ndarray, n: int) -> float:
    return smooth_max(total / math.sqrt(n), 2.0)


def _f_sumsq(total: np.ndarray, n: int) -> float:
    return float(total @ total)


# All registered test functions depend on the arguments only through their
# sum, hence are permutation invariant as the swap identity requires.
LINDEBERG_TEST_FUNCTIONS = {"smoothmax": _f_smoothmax, "sumsq": _f_sumsq}


def check_lindeberg_permutation(n: int, p: int, f: str, seed: SeedSpec) -> CheckReport:
    """The permutation-averaged swap functional does not depend on which row
    is being swapped.

    For fixed draws X, X* the average over all n! orderings, all swap
    positions k, and both Bernoulli branches (weights k/(n+1) and
    (n+1-k)/(n+1)) of f applied to the partially swapped collection is
    computed by full enumeration separately for each held-out row index i;
    the identity says all n values coincide.
    """
    if not 2 <= n <= 6:
        raise ValueError("n must lie in 2..6 (full n! enumeration)")
    if not 1 <= p <= 3:
        raise ValueError("p must lie in 1..3")
    if f not in LINDEBERG_TEST_FUNCTIONS:
        raise ValueError(
            f"unknown or non-permutation-invariant test function {f!r}; "
            f"choose from {sorted(LINDEBERG_TEST_FUNCTIONS)}"
        )
    func = LINDEBERG_TEST_FUNCTIONS[f]
    rng = seed.rng()
    x = rng.standard_normal((n, p))
    x_star = rng.standard_normal((n, p))

    terms: list[list[float]] = [[] for _ in range(n)]
    norm = 1.0 / (n * math.factorial(n))
    for sigma in itertools.permutations(range(n)):
        # prefix[k] = sum of X rows sigma_1..sigma_k; suffix[k] = sum of X* rows sigma_(k+1)..sigma_n
        prefix = np.zeros((n + 1, p))
        suffix = np.zeros((n + 1, p))
        for k in range(n):
            prefix[k + 1] = prefix[k] + x[sigma[k]]
            suffix[n - k - 1] = suffix[n - k] + x_star[sigma[n - k - 1]]
        for k in range(n):  # swap position, 0-based; weights use k+1
            i = sigma[k]
            base = prefix[k] + suffix[k + 1]
            w1 = (k + 1) / (n + 1)
            terms[i].append(norm * w1 * func(base + x[i], n))
            terms[i].append(norm * (1.0 - w1) * func(base + x_star[i], n))
    values = np.array([math.fsum(t) for t in terms])
    dev = float(values.max() - values.min())
    return CheckReport(
        name=f"lindeberg_permutation[n={n},p={p},f={f}]",
        passed=dev <= 1e-12,
        max_violation=dev,
        trials=n,
        details=f"values: {values.tolist()}",
    )


def check_gaussian_anticoncentration(p: int, eps: float, mc_reps: int, seed: SeedSpec) -> CheckReport:
    """Interval mass of the maximum of p independent N(0, 1) coordinates
    versus the closed-form bound eps (4 + sqrt(2 log(p / eps))).

    Takes the exact sup of the sample's mass over open windows of width eps
    (``stat_core.concentration_fn``), and requires that this Monte Carlo sup
    plus four standard errors stay below the bound.  The check is vacuous
    once the bound exceeds one.  A scale sigma needs no parameter: sigma Z
    at width eps has the window masses of Z at eps / sigma.
    """
    if mc_reps < MIN_MC_REPS:
        raise ValueError(f"mc_reps must be at least {MIN_MC_REPS}")
    if eps <= 0.0:
        raise ValueError("eps must be positive")

    rng = seed.rng()
    maxima = np.empty(mc_reps)
    chunk = max(1, min(mc_reps, 200_000 // max(p, 1)))
    done = 0
    while done < mc_reps:
        m = min(chunk, mc_reps - done)
        maxima[done : done + m] = rng.standard_normal((m, p)).max(axis=1)
        done += m
    sup_hat = concentration_fn(EmpiricalDistribution(maxima), eps)
    se = math.sqrt(sup_hat * (1.0 - sup_hat) / mc_reps)
    bound = eps * (4.0 + math.sqrt(2.0 * max(math.log(p / eps), 0.0)))
    violation = sup_hat + 4.0 * se - bound
    return CheckReport(
        name=f"gaussian_anticoncentration[p={p},eps={eps}]",
        passed=violation <= 0.0 or bound >= 1.0,
        max_violation=violation,
        trials=mc_reps,
        details=f"MC sup {sup_hat:.5f} + 4se {4 * se:.5f} vs bound {bound:.5f}",
    )
