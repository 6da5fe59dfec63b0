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
    "fd_smooth_max_tensor",
    "check_smoothmax_sandwich",
    "check_l1_bounds",
    "check_softmax_stability",
    "check_lindeberg_permutation",
    "check_gaussian_anticoncentration",
    "LINDEBERG_TEST_FUNCTIONS",
]

# l1 bounds for beta^(1-m) F^(m): orders 1..4
L1_BOUNDS = {1: 1.0, 2: 2.0, 3: 6.0, 4: 26.0}

_MAX_TENSOR_P = 16

# largest dimension the sandwich and l1 sweeps draw
_SANDWICH_P_MAX, _L1_P_MAX = 1000, 8

# fewest Monte Carlo maxima the anti-concentration check accepts
_MIN_MC_REPS = 10_000


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


def _sym(t: np.ndarray) -> np.ndarray:
    """Symmetrize by averaging all axis permutations.

    The permuted values are sorted before summation so every entry of an
    orbit accumulates in the same order, making the result bitwise
    symmetric, not just symmetric up to rounding.
    """
    m = t.ndim
    stack = np.stack([np.transpose(t, perm) for perm in itertools.permutations(range(m))])
    stack.sort(axis=0)
    return stack.sum(axis=0) / math.factorial(m)


def _diag_embed(v: np.ndarray, order: int) -> np.ndarray:
    p = v.size
    t = np.zeros((p,) * order)
    t[(np.arange(p),) * order] = v
    return t


def fbeta_derivative(z: np.ndarray, beta: float, order: int) -> np.ndarray:
    """Dense, symmetric derivative tensor of the smooth max, orders 1 to 4.

    Built from the softmax weights pi: the gradient is pi itself, and each
    higher order is the stated signed, symmetrized combination of diagonal
    embeddings and outer products, scaled back by beta^(order-1).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("z must be a nonempty 1-d array")
    if z.size > _MAX_TENSOR_P:
        raise ValueError(f"dense tensors are limited to p <= {_MAX_TENSOR_P}")
    if order not in (1, 2, 3, 4):
        raise ValueError("order must be 1, 2, 3 or 4")
    pi = softmax_weights(z, beta)
    if order == 1:
        core = pi
    elif order == 2:
        core = np.diag(pi) - np.outer(pi, pi)
    elif order == 3:
        d3 = _diag_embed(pi, 3)
        d21 = _sym(np.einsum("ab,c->abc", np.diag(pi), pi))
        d111 = _sym(np.einsum("a,b,c->abc", pi, pi, pi))
        core = d3 - 3.0 * d21 + 2.0 * d111
    else:
        d2 = np.diag(pi)
        d4 = _diag_embed(pi, 4)
        d31 = _sym(np.einsum("abc,d->abcd", _diag_embed(pi, 3), pi))
        d22 = _sym(np.einsum("ab,cd->abcd", d2, d2))
        d211 = _sym(np.einsum("ab,c,d->abcd", d2, pi, pi))
        d1111 = _sym(np.einsum("a,b,c,d->abcd", pi, pi, pi, pi))
        core = d4 - 4.0 * d31 - 3.0 * d22 + 12.0 * d211 - 6.0 * d1111
    return beta ** (order - 1) * core


def _fd_step(order: int) -> float:
    # balances h^2 truncation against roundoff amplified by h^(-order)
    eps = float(np.finfo(np.longdouble).eps)
    return 2.0 * eps ** (1.0 / (order + 2))


def fd_smooth_max_tensor(z: np.ndarray, beta: float, order: int) -> np.ndarray:
    """Finite-difference estimate of the order-``order`` derivative tensor.

    Nested central differences evaluated in extended precision; serves as
    the independent oracle for ``fbeta_derivative``.
    """
    z = np.asarray(z, dtype=np.float64)
    p = z.size
    if order not in (1, 2, 3, 4):
        raise ValueError("order must be 1, 2, 3 or 4")
    h = np.longdouble(_fd_step(order))
    zl = z.astype(np.longdouble)
    beta_l = np.longdouble(beta)
    cache: dict[tuple[int, ...], np.longdouble] = {}

    def f(offsets: tuple[int, ...]) -> np.longdouble:
        val = cache.get(offsets)
        if val is None:
            zz = zl + h * np.array(offsets, dtype=np.longdouble)
            m = zz.max()
            val = m + np.log(np.exp(beta_l * (zz - m)).sum()) / beta_l
            cache[offsets] = val
        return val

    def diff(axes: tuple[int, ...], offsets: tuple[int, ...]) -> np.longdouble:
        if not axes:
            return f(offsets)
        up = list(offsets)
        dn = list(offsets)
        up[axes[0]] += 1
        dn[axes[0]] -= 1
        return (diff(axes[1:], tuple(up)) - diff(axes[1:], tuple(dn))) / (2.0 * h)

    out = np.empty((p,) * order)
    zero = (0,) * p
    for index in itertools.product(range(p), repeat=order):
        out[index] = float(diff(index, zero))
    return out


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


def _f_const(total: np.ndarray, n: int) -> float:
    return 1.0


# All registered test functions depend on the arguments only through their
# sum, hence are permutation invariant as the swap identity requires.
LINDEBERG_TEST_FUNCTIONS = {
    "smoothmax": _f_smoothmax,
    "sumsq": _f_sumsq,
    "const": _f_const,
}


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
    if mc_reps < _MIN_MC_REPS:
        raise ValueError(f"mc_reps must be at least {_MIN_MC_REPS}")
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
