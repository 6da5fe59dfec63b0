"""Reference implementations that the tests compare the package against: a
finite-difference oracle for the smooth-max derivative tensors and a Monte
Carlo estimate of the conditional bootstrap moment tensor."""

import itertools

import numpy as np

from maxboot.bootstrap import BootstrapPlan, _fill_rows
from maxboot.datagen import DataMatrix
from maxboot.moments import _tensor_guard
from maxboot.rng import SeedSpec


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


def bootstrap_moment_tensor_mc(
    data: DataMatrix, plan: BootstrapPlan, order: int, seed: SeedSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo mean and standard error of the conditional bootstrap
    moment tensor (1/n) sum_i (X*_i)^(x order) over the plan's ``b_reps``
    replicates, replicate r drawn from ``seed.child(r)``."""
    _tensor_guard(order, data.p)
    xc = plan.centered(data)
    n = data.n
    # per-row rank-one tensors, stacked: shape (n, p, ..., p)
    stack_spec = {2: "ia,ib->iab", 3: "ia,ib,ic->iabc", 4: "ia,ib,ic,id->iabcd"}[order]
    row_tensors = np.einsum(stack_spec, *([xc] * order))

    b = plan.b_reps
    total = np.zeros(row_tensors.shape[1:])
    total_sq = np.zeros_like(total)
    walk = seed.child_rngs(b)
    block = np.empty((min(4096, b), n))
    for done in range(0, b, 4096):
        weights = block[: min(4096, b - done)]
        _fill_rows(plan.multiplier, walk, weights)
        if plan.multiplier is not None:
            # a wild replicate weights row i's tensor by W_i^order
            weights **= order
        reps = np.einsum("ri,i...->r...", weights, row_tensors) / n
        total += reps.sum(axis=0)
        total_sq += (reps**2).sum(axis=0)
    mean = total / b
    var = np.maximum(total_sq / b - mean**2, 0.0)
    se = np.sqrt(var / b)
    return mean, se
