"""Resampling schemes: empirical bootstrap, wild bootstrap with several
multiplier laws, and the mixed wild bootstrap with a Gaussian component.

Replicate r of a bootstrap distribution draws from the substream
``seed.child(r)``, so the distribution is reproducible replicate-by-replicate
and identical under any evaluation order or batching.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from maxboot import _kernels
from maxboot.datagen import Centering, DataMatrix
from maxboot.rng import _MAX_CHILDREN, SeedSpec, StreamWalk
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
    "SCHEME_TOKENS",
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
# two-point laws as (value if the draw fails, value if it succeeds)
_MAMMEN_VALUES = np.array([MAMMEN_VALUE_MINUS, MAMMEN_VALUE_PLUS])
_SIGNS = np.array([-1.0, 1.0])
# each scheme's short spelling and law name; ``BootstrapPlan.parse`` takes either
SCHEME_TOKENS = {"g": "gaussian", "m": "mammen", "r": "rademacher", "e": "empirical", "mix": "mixed"}
# each multiplier law's (E W, E W^2, E W^3, E W^4); Mammen's fourth moment works
# out to exactly 2, and the mixed law's depends on p0 (``multiplier_moment``)
_MOMENTS = {"gaussian": (0.0, 1.0, 0.0, 3.0), "rademacher": (0.0, 1.0, 0.0, 1.0),
            "mammen": (0.0, 1.0, 1.0, 2.0), "mixed": (0.0, 1.0, 1.0)}


@dataclass(frozen=True)
class MultiplierKind:
    """Wild-bootstrap multiplier law, named by a key of ``_MOMENTS``."""

    name: str
    p0: float | None = None

    def __post_init__(self) -> None:
        if self.name not in _MOMENTS:
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
    if kind.name == "mixed" and order == 4:
        a0, b0 = mixed_coefficients(kind.p0)
        return kind.p0 * a0**4 * 3.0 + (1.0 - kind.p0) * b0**4 * 2.0
    return _MOMENTS[kind.name][order - 1]


def multiplier_moments(kind: MultiplierKind) -> tuple[float, float, float]:
    """(E W, E W^2, E W^3) of the law, exactly."""
    return tuple(multiplier_moment(kind, m) for m in (1, 2, 3))


@dataclass(frozen=True)
class BootstrapPlan:
    """One resampling scheme plus its replicate budget: a multiplier law for
    the wild bootstrap, or None for the empirical bootstrap.

    Empirical and wild resampling operate on sample-mean-centered rows;
    the mixed wild bootstrap centers at the known mean (``centering``).
    """

    multiplier: MultiplierKind | None
    b_reps: int = 500

    def __post_init__(self) -> None:
        if self.b_reps < 1:
            raise ValueError("b_reps must be at least 1")
        if self.b_reps > _MAX_CHILDREN:
            # each replicate is one child stream of the law's seed
            raise ValueError(f"b_reps must be at most 2**32, got {self.b_reps}")

    @property
    def centering(self) -> Centering:
        return Centering.KNOWN_MEAN if self.name == "mixed" else Centering.SAMPLE_MEAN

    def centered(self, data: DataMatrix) -> np.ndarray:
        """The data centered as this law centers them; the mixed law falls back
        to the sample mean, with a warning, on data without a known mean."""
        if self.centering is Centering.KNOWN_MEAN and data.known_mean is None:
            logger.warning(
                "mixed wild bootstrap without a known mean: falling back to sample-mean centering"
            )
            return data.centered(Centering.SAMPLE_MEAN)
        return data.centered(self.centering)

    @property
    def name(self) -> str:
        return "empirical" if self.multiplier is None else self.multiplier.name

    @classmethod
    def empirical(cls, b_reps: int = 500) -> "BootstrapPlan":
        return cls(None, b_reps)

    @classmethod
    def wild(cls, multiplier: MultiplierKind, b_reps: int = 500) -> "BootstrapPlan":
        return cls(multiplier, b_reps)

    @classmethod
    def mixed_wild(cls, p0: float = 0.5, b_reps: int = 500) -> "BootstrapPlan":
        return cls(mixed_multiplier(p0), b_reps)

    @classmethod
    def parse(cls, token: str, b_reps: int = 500) -> "BootstrapPlan":
        """The plan a scheme token names: a key or a law name of
        ``SCHEME_TOKENS``, in any case.  Only the mixed law takes ``:p0``; a
        bare ``mix`` has ``mixed_multiplier``'s default p0."""
        token = token.strip().lower()
        name, _, arg = token.partition(":")
        law = SCHEME_TOKENS.get(name, name)
        if law not in SCHEME_TOKENS.values():
            raise ValueError(f"unknown scheme {token!r} (use {', '.join(SCHEME_TOKENS)}[:p0])")
        try:
            p0 = float(arg) if arg else mixed_multiplier().p0 if law == "mixed" else None
            multiplier = None if (law, p0) == ("empirical", None) else MultiplierKind(law, p0)
        except ValueError:
            raise ValueError(f"bad scheme {token!r} (use mix[:p0] with p0 a number in (0, 1))") from None
        return cls(multiplier, b_reps)


def _fill_rows(kind: MultiplierKind | None, walk: StreamWalk, out: np.ndarray) -> None:
    """Fill the (k, n) array out with the weight rows of law ``kind`` (None
    for the empirical bootstrap), one row from each of the next k streams of
    the walk; the stream after them is left untaken.

    The wild schemes' weights are the multipliers.  The empirical bootstrap's
    are the multinomial counts of its resampled indices: summing the
    resampled centered rows is the same as weighting each row by its count.

    Each stream only makes C-level fills into its row of each (k, n) tile,
    and the law then maps all k rows at once; its scratch arrays are (k, n)
    too, so a caller that walks its streams in tiles never holds more than a
    tile.  Gaussian rows are ``standard_normal`` fills and Mammen rows
    threshold ``random`` fills.  The mixed law fills the branch uniforms, the
    Gaussian branch and the Mammen uniforms, in that order whatever the
    branches turn out to be.  Rademacher signs and resample indices are
    numpy's ``integers(0, 2, n)`` and ``integers(0, n, n)``, from the walk's
    ``integers``, and only mapped here.  The tests compare every scheme's
    rows with numpy's per-row calls bit for bit, so a change to numpy's
    streams or maps fails there.
    """
    k, n = out.shape
    if kind is None:
        # row r counts how often each of the n rows occurs in resample r
        index = walk.integers(n, n, k)
        index += np.arange(0, k * n, n)[:, None]
        out[...] = np.bincount(index.ravel(), minlength=k * n).reshape(k, n)
        return
    if kind.name == "rademacher":
        np.take(_SIGNS, walk.integers(2, n, k), out=out, mode="clip")
        return
    if kind.name == "gaussian":
        for r, rng in enumerate(walk.take(k)):
            rng.standard_normal(out=out[r])
        return
    # the Mammen values are a two-value table lookup, here and in the mixed
    # law ("clip" skips the bounds check): several times faster than a masked
    # assignment, whose branch a random mask defeats
    if kind.name == "mammen":
        for r, rng in enumerate(walk.take(k)):
            rng.random(out=out[r])
        plus = out < MAMMEN_PROB_PLUS
        np.take(_MAMMEN_VALUES, plus.view(np.uint8), out=out, mode="clip")
        return
    # mixed: the branch uniform, the Gaussian branch, then the Mammen uniform
    a0, b0 = mixed_coefficients(kind.p0)
    branch, uniform = np.empty((2, k, n))
    for r, rng in enumerate(walk.take(k)):
        rng.random(out=branch[r])
        rng.standard_normal(out=out[r])
        rng.random(out=uniform[r])
    mammen = branch >= kind.p0
    plus = uniform < MAMMEN_PROB_PLUS
    np.take(b0 * _MAMMEN_VALUES, plus.view(np.uint8), out=branch, mode="clip")
    out *= a0
    np.copyto(out, branch, where=mammen)


def draw_multipliers(kind: MultiplierKind, n: int, seed: SeedSpec) -> np.ndarray:
    """n i.i.d. multipliers from the law, deterministic given the seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    row = np.empty((1, n))
    _fill_rows(kind, seed.rng_walk(), row)
    return row[0]


def _replicates(
    data: DataMatrix, plan: BootstrapPlan, mode: MaxMode, walk: StreamWalk, b: int
) -> np.ndarray:
    """The statistics of b replicates, replicate r drawn from stream r of the walk."""
    if data.n < 2:
        raise ValueError("bootstrap requires at least two rows")
    fill = functools.partial(_fill_rows, plan.multiplier, walk)
    return _kernels.max_reduce(plan.centered(data), fill, b, mode is MaxMode.ABSOLUTE)


def bootstrap_stat_once(
    data: DataMatrix, plan: BootstrapPlan, mode: MaxMode, seed: SeedSpec
) -> float:
    """One draw of the bootstrapped max statistic."""
    return float(_replicates(data, plan, mode, seed.rng_walk(), 1)[0])


def bootstrap_distribution(
    data: DataMatrix, plan: BootstrapPlan, mode: MaxMode, seed: SeedSpec
) -> EmpiricalDistribution:
    """plan.b_reps conditionally-i.i.d. bootstrap statistics, sorted.

    Replicate r draws from ``seed.child(r)``; the streams are walked in the
    reduction's tiles, and neither the tiling nor the batch size changes any
    individual replicate's value.
    """
    stats = _replicates(data, plan, mode, seed.child_rngs(plan.b_reps), plan.b_reps)
    return EmpiricalDistribution(stats)
