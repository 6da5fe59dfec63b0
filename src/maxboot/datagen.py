"""Simulation data: Gaussian copula vectors with gamma marginals.

Rows are i.i.d.; the latent Gaussian vector has either an equicorrelated or
an AR(1) correlation structure, and each marginal is pushed through the
standard normal CDF and the gamma(shape, 1) quantile.  Both structures are
generated by exact O(np) constructions (common factor / first-order
recursion) rather than a Cholesky factor, which gives the identical law.

The transform is tabulated once per shape a and process, on first use: g(y) =
log x at y_k = -9 + k/512 from the exact inverse (``gammaincinv(a, ndtr(y))``,
or ``gammainccinv(a, ndtr(-y))`` for y > 0) with exact slopes g' = phi(y) /
(x f_a(x)), joined by cubic Hermite pieces (Fritsch & Carlson 1980).  Points
off [-9, 9], or next to a knot whose x is not a normal double (shape 0.05 below
y = -8.04), take the exact inverse.  Tested error: at most 1e-12 relative.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from maxboot.rng import SeedSpec

__all__ = [
    "Dependence",
    "CopulaSpec",
    "DataMatrix",
    "sample_gaussian_copula",
    "gamma_quantile",
    "gamma_cdf",
    "standard_normal_cdf",
]


class Dependence(enum.Enum):
    EQUICORRELATED = "equicorrelated"
    AR1 = "ar1"


@dataclass(frozen=True)
class CopulaSpec:
    """Dependence structure and gamma-marginal shape for one experiment."""

    structure: Dependence
    rho: float
    shape_alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if not self.shape_alpha > 0.0:
            raise ValueError(f"shape_alpha must be positive, got {self.shape_alpha}")


@dataclass(frozen=True)
class DataMatrix:
    """n x p observation matrix with independent rows.

    ``known_mean`` carries the true marginal mean vector when the data come
    from the simulator; statistics that center at the population mean need it.
    """

    values: np.ndarray
    known_mean: np.ndarray | None = None

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError("values must be a nonempty 2-d array")
        if not np.isfinite(values).all():
            raise ValueError("data entries must be finite")
        if self.known_mean is not None:
            km = np.asarray(self.known_mean, dtype=np.float64)
            if km.shape != (values.shape[1],):
                raise ValueError("known_mean must have length p")
            if not np.isfinite(km).all():
                raise ValueError("known_mean entries must be finite")
            object.__setattr__(self, "known_mean", km)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


def standard_normal_cdf(x):
    """Phi(x) through scipy's ``ndtr``; exact to full double precision."""
    return special.ndtr(np.asarray(x, dtype=np.float64))


def gamma_cdf(x, shape_alpha: float):
    """Regularized lower incomplete gamma P(shape_alpha, x) for unit scale."""
    if shape_alpha <= 0.0:
        raise ValueError("shape_alpha must be positive")
    return special.gammainc(shape_alpha, x)


def gamma_quantile(u, shape_alpha: float):
    """Inverse of ``gamma_cdf``: the gamma(shape, 1) quantile function.

    ``gammaincinv`` for u <= 1/2 and ``gammainccinv`` on 1 - u above, for
    scalars or arrays in (0, 1).  Near u = 1 it is only as good as u: rounding
    ``ndtr(8)`` moves the shape-1 quantile by 2e-3; the sampler never forms u.
    """
    if shape_alpha <= 0.0:
        raise ValueError("shape_alpha must be positive")
    u_arr = np.asarray(u, dtype=np.float64)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    upper = special.gammainccinv(shape_alpha, 1.0 - u_arr)
    x = np.where(u_arr <= 0.5, special.gammaincinv(shape_alpha, u_arr), upper)
    return float(x) if np.isscalar(u) else x


def _exact_transform(y: np.ndarray, a: float) -> np.ndarray:
    """F_a^{-1}(Phi(y)), inverting whichever tail probability Phi keeps exact."""
    x = np.empty(y.shape)
    lower = y <= 0.0
    x[lower] = special.gammaincinv(a, special.ndtr(y[lower]))
    x[~lower] = special.gammainccinv(a, special.ndtr(-y[~lower]))
    return x


_EDGE, _STEP, _INTERVALS = 9.0, 1.0 / 512.0, 9216  # 2 * _EDGE / _STEP intervals


@functools.lru_cache(maxsize=16)
def _transform_table(a: float) -> tuple[np.ndarray, ...]:
    """(c0, c1, c2, c3) with g = ((c3 t + c2) t + c1) t + c0, t = (y - y_k) / h, at index
    k + 1; NaN off the grid and next to any knot whose x is not a normal double."""
    y = -_EDGE + _STEP * np.arange(_INTERVALS + 1)
    x = _exact_transform(y, a)
    g = np.log(np.where(x >= np.finfo(np.float64).tiny, x, np.nan))
    # h g'(y) = h phi(y) / (x f_a(x)), with log(x f_a(x)) = a g - x - lgamma(a)
    hm = _STEP * np.exp(special.gammaln(a) + x - a * g - 0.5 * (y * y + math.log(2 * math.pi)))
    m0, m1, d = hm[:-1], hm[1:], np.diff(g)
    coef = np.full((4, _INTERVALS + 2), np.nan)
    coef[:, 1:-1] = g[:-1], m0, 3 * d - 2 * m0 - m1, m0 + m1 - 2 * d
    coef.setflags(write=False)
    return tuple(coef)


def _normal_to_gamma(y: np.ndarray, a: float) -> np.ndarray:
    """F_a^{-1}(Phi(y)) elementwise for a flat array: the table, else exact."""
    c0, c1, c2, c3 = _transform_table(float(a))
    u = (y + _EDGE) * (1.0 / _STEP)
    k = np.floor(u)
    t = u - k
    idx = np.clip(k, -1.0, _INTERVALS).astype(np.intp) + 1
    g = ((c3.take(idx) * t + c2.take(idx)) * t + c1.take(idx)) * t + c0.take(idx)
    x = np.exp(g)
    off = np.isnan(g)
    x[off] = _exact_transform(y[off], a)
    return x


def sample_gaussian_copula(spec: CopulaSpec, n: int, p: int, seed: SeedSpec) -> DataMatrix:
    """Draw n i.i.d. rows from the Gaussian copula model with gamma marginals.

    The latent normals Y have N(0,1) marginals and correlation per
    ``spec.structure``; the output is X = F^{-1}(Phi(Y)) with F the
    gamma(shape_alpha, 1) CDF, and ``known_mean`` set to shape_alpha.
    """
    if n < 1 or p < 1:
        raise ValueError("n and p must be at least 1")
    rng = seed.rng()
    rho = spec.rho
    if spec.structure is Dependence.EQUICORRELATED:
        # single common factor: Y_j = sqrt(rho) Z0 + sqrt(1-rho) Z_j
        z0 = rng.standard_normal((n, 1))
        z = rng.standard_normal((n, p))
        y = math.sqrt(rho) * z0 + math.sqrt(1.0 - rho) * z
    else:
        # stationary AR(1) recursion with N(0,1) marginals
        eps = rng.standard_normal((n, p))
        y = np.empty((n, p))
        y[:, 0] = eps[:, 0]
        c = math.sqrt(1.0 - rho * rho)
        for j in range(1, p):
            y[:, j] = rho * y[:, j - 1] + c * eps[:, j]
    x = _normal_to_gamma(y.ravel(), spec.shape_alpha).reshape(n, p)
    return DataMatrix(values=x, known_mean=np.full(p, spec.shape_alpha))
