import numpy as np
import pytest

from maxboot.bootstrap import (
    MAMMEN_PROB_PLUS,
    MAMMEN_VALUE_MINUS,
    MAMMEN_VALUE_PLUS,
    BootstrapPlan,
    mixed_coefficients,
)
from maxboot import harness
from maxboot import rng as rng_module
from maxboot.rng import SeedSpec


@pytest.fixture(params=["selected", "state-dict"])
def seating(request, monkeypatch):
    """Seat every stream as the layout check selects (the memory write wherever
    numpy has a native 128-bit PCG64), or through the ``state`` dict, as on a
    numpy whose PCG64 layout the check declines."""
    if request.param == "state-dict":
        monkeypatch.setattr(rng_module, "_state_write_ok", lambda: False)
    return request.param


@pytest.fixture
def interrupt_block(monkeypatch):
    """``interrupt_block(name)`` patches ``harness.<name>`` so that its second
    call in this process raises KeyboardInterrupt, and returns the calls."""

    def patch(name):
        block, calls = getattr(harness, name), []

        def interrupted(*args):
            calls.append(args)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return block(*args)

        monkeypatch.setattr(harness, name, interrupted)
        return calls

    return patch


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def seed(*keys: int) -> SeedSpec:
    """Shorthand for a fixed test stream."""
    return SeedSpec(987654321).child(*keys)


def oracle_row(plan: BootstrapPlan, n: int, rng: np.random.Generator) -> np.ndarray:
    """One replicate's weight row from numpy's public per-row draws: the
    reference that the in-place fill of ``_fill_rows`` must match bit for bit."""
    kind = plan.multiplier
    if kind is None:
        return np.bincount(rng.integers(0, n, n), minlength=n).astype(np.float64)
    if kind.name == "gaussian":
        return rng.standard_normal(n)
    if kind.name == "rademacher":
        return 2.0 * rng.integers(0, 2, n) - 1.0
    if kind.name == "mammen":
        return np.where(rng.random(n) < MAMMEN_PROB_PLUS, MAMMEN_VALUE_PLUS, MAMMEN_VALUE_MINUS)
    a0, b0 = mixed_coefficients(kind.p0)
    delta = rng.random(n) < kind.p0
    z = rng.standard_normal(n)
    w0 = np.where(rng.random(n) < MAMMEN_PROB_PLUS, MAMMEN_VALUE_PLUS, MAMMEN_VALUE_MINUS)
    return np.where(delta, a0 * z, b0 * w0)
