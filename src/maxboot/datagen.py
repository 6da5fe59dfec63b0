"""Simulation data: Gaussian copula vectors with gamma marginals.

Rows are i.i.d.; the latent Gaussian vector has either an equicorrelated or
an AR(1) correlation structure, and each marginal is pushed through the
standard normal CDF and the gamma(shape, 1) quantile.  Both structures are
generated by exact O(np) constructions (common factor / first-order
recursion) rather than a Cholesky factor, which gives the identical law.

The block sampler (``_sample_block``, through which runs draw every dataset)
composes three stages for each stack of consecutive seeds.  ``_raw_normals``
draws each seed's N(0,1) normals from its own stream; for a given structure
they depend only on the seed, n and p.  ``_correlate`` applies the
common-factor mix or the AR(1) recursion to them in place, by rho.
``_gamma_data`` transforms each dataset's latent matrix, by shape, into an
array of its own.

The transform is tabulated once per shape a and process, on first use: g(y) =
log x at y_k = -9 + k/512 from the exact inverse (``gammaincinv(a, ndtr(y))``,
or ``gammainccinv(a, ndtr(-y))`` for y > 0) with exact slopes g' = phi(y) /
(x f_a(x)), joined by cubic Hermite pieces (Fritsch & Carlson 1980).  Points
off [-9, 9], or next to a knot whose x is not a normal double (shape 0.05 below
y = -8.04), take the exact inverse.  Relative error against that inverse
(scipy 1.17.1, y in [-9, 9]): at most 5.4e-13 for shapes up to 2e5, then
7.1e-12 at 5e5, 1.9e-9 at 1e6 and 7.0e-6 at 1e8, all at y below -4.5.
The tests hold shapes 0.05 to 1e4 to 1e-12.

The transform runs in pieces of 2^14 entries through a few reused piece-sized
buffers, so its temporaries stay in L2: the index arithmetic, the four
coefficient gathers (``take`` with ``out=`` and ``mode="clip"``, which numpy
does not buffer) and Horner's rule each run in place, and ``exp`` writes
straight into the output.  The latent normals are drawn into the matrix that
the mix or the recursion then updates in place.  Every entry goes through the
same IEEE operations as a one-shot, temporary-per-step evaluation, so the
output is the same to the byte.

The AR(1) recursion makes two ufunc calls per column whatever the row count,
so at n = 200 it is mostly per-call overhead.  The block sampler therefore
stacks the rows of up to four consecutive seeds' datasets in one (k n, p) matrix.
Each seed fills its own n rows from its own stream, exactly as
``standard_normal((n, p))`` would; one recursion runs down the stacked columns;
then each dataset's rows are transformed into an array of its own.  A row's
recursion reads only that row, so every entry still goes through the same IEEE
operations, and the bytes cannot depend on where a stack is cut (a block's
first replicate, its length, ``--jobs``).  A stack holds at most 8 MiB of
latent normals, so larger datasets share one with fewer others, down to one:
a run whose one dataset fits in memory never needs room for four, and numpy
refuses an unallocatable (n, p) matrix before anything is touched.  The
equicorrelated mix makes a few calls per dataset and stays one at a time.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
from scipy import special

from maxboot.rng import SeedSpec

__all__ = [
    "Dependence",
    "CopulaSpec",
    "Centering",
    "DataMatrix",
    "sample_gaussian_copula",
    "gamma_quantile",
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
        if not 0.0 < self.shape_alpha < math.inf:
            raise ValueError(f"shape_alpha must be positive and finite, got {self.shape_alpha}")
        if self.shape_alpha < sys.float_info.min:
            # scipy's gamma inverses give NaN or 0 at subnormal shapes
            raise ValueError(
                f"shape_alpha must be at least {sys.float_info.min} (the smallest normal double),"
                f" got {self.shape_alpha}"
            )


class Centering(enum.Enum):
    KNOWN_MEAN = "known"
    SAMPLE_MEAN = "sample"


@dataclass(frozen=True, eq=False)
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

    def centered(self, center: Centering) -> np.ndarray:
        """The values minus the known mean, or minus the column sample means."""
        if center is Centering.SAMPLE_MEAN:
            return self.values - self.values.mean(axis=0)
        if self.known_mean is None:
            raise ValueError("centering at the known mean requires data.known_mean")
        return self.values - self.known_mean


def gamma_quantile(u, shape_alpha: float):
    """The gamma(shape, 1) quantile function, inverse of ``special.gammainc``.

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
_PIECE = 1 << 14  # entries per pass of the transform


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
    x = np.empty(y.shape)
    size = min(y.size, _PIECE)
    t, k, buf = np.empty(size), np.empty(size), np.empty(size)
    idx, nan = np.empty(size, np.intp), np.empty(size, bool)
    for start in range(0, y.size, _PIECE):
        stop = min(start + _PIECE, y.size)
        m = stop - start
        t_, k_, buf_, idx_, nan_ = t[:m], k[:m], buf[:m], idx[:m], nan[:m]
        g = x[start:stop]
        np.add(y[start:stop], _EDGE, out=t_)
        t_ *= 1.0 / _STEP
        np.floor(t_, out=k_)
        t_ -= k_
        np.clip(k_, -1.0, _INTERVALS, out=k_)
        k_ += 1.0
        idx_[:] = k_
        c3.take(idx_, out=g, mode="clip")
        for c in (c2, c1, c0):
            g *= t_
            g += c.take(idx_, out=buf_, mode="clip")
        np.exp(g, out=g)
        if np.isnan(g, out=nan_).any():
            g[nan_] = _exact_transform(y[start:stop][nan_], a)
    return x


def sample_gaussian_copula(spec: CopulaSpec, n: int, p: int, seed: SeedSpec) -> DataMatrix:
    """Draw n i.i.d. rows from the Gaussian copula model with gamma marginals.

    The latent normals Y have N(0,1) marginals and correlation per
    ``spec.structure``; the output is X = F^{-1}(Phi(Y)) with F the
    gamma(shape_alpha, 1) CDF, and ``known_mean`` set to shape_alpha.
    """
    return next(_sample_block(spec, n, p, (seed,)))


_STACK, _STACK_BYTES = 4, 1 << 23  # AR(1) datasets per stack, and its cap in bytes


def _sample_block(spec: CopulaSpec, n: int, p: int, seeds: Iterable[SeedSpec]) -> Iterator[DataMatrix]:
    """``sample_gaussian_copula(spec, n, p, seed)`` for each seed in turn, a stack
    of consecutive seeds at a time: raw normals, correlation, gamma transform."""
    if n < 1 or p < 1:
        raise ValueError("n and p must be at least 1")
    seeds = iter(seeds)
    k = max(1, min(_STACK, _STACK_BYTES // (8 * n * p))) if spec.structure is Dependence.AR1 else 1
    while stack := list(itertools.islice(seeds, k)):
        latent = _correlate(spec.rho, *_raw_normals(spec.structure, n, p, stack))
        while latent:  # each matrix goes as its _gamma_data returns, not across the yield
            yield _gamma_data(latent.pop(0), spec.shape_alpha)


def _raw_normals(structure: Dependence, n: int, p: int, seeds: list[SeedSpec]) -> Iterable:
    """(factors, z): seed i's (n, p) N(0,1) draws z[i] from its own stream, after its (n, 1)
    common factor factors[i] if equicorrelated; for AR(1) factors is None and z one stack."""
    if structure is Dependence.EQUICORRELATED:
        return zip(*[(rng.standard_normal((n, 1)), rng.standard_normal((n, p))) for rng in map(SeedSpec.rng, seeds)])
    z = np.empty((len(seeds) * n, p)).reshape(len(seeds), n, p)
    for seed, eps in zip(seeds, z):
        seed.rng().standard_normal(out=eps)
    return None, z


def _correlate(rho: float, factors, z) -> list[np.ndarray]:
    """The latent (n, p) matrices Y: ``_raw_normals``' z, correlated by rho in place."""
    if factors is not None:  # a single common factor: Y_j = sqrt(rho) Z0 + sqrt(1-rho) Z_j
        for z0, y in zip(factors, z):
            z0 *= math.sqrt(rho)
            y *= math.sqrt(1.0 - rho)
            y += z0
    else:  # stationary AR(1) recursion with N(0,1) marginals: Y_j = rho Y_{j-1} + sqrt(1-rho^2) Z_j
        z[..., 1:] *= math.sqrt(1.0 - rho * rho)
        cols = list(z.reshape(-1, z.shape[2]).T)
        tmp = np.empty(len(cols[0]))
        for prev, col in zip(cols, cols[1:]):
            np.multiply(prev, rho, out=tmp)
            col += tmp
    return list(z)


def _gamma_data(y: np.ndarray, a: float) -> DataMatrix:
    """The dataset F_a^{-1}(Phi(Y)) of one (n, p) latent matrix."""
    x = _normal_to_gamma(y.ravel(), a).reshape(y.shape)
    return DataMatrix(values=x, known_mean=np.full(y.shape[1], a))
