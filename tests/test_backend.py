import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import maxboot
from maxboot import _kernels


def count_rows(rng, b: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Resample index rows and the multinomial count rows they make."""
    idx = rng.integers(0, n, (b, n), dtype=np.int64)
    counts = np.array([np.bincount(row, minlength=n) for row in idx], dtype=float)
    return idx, counts


def fill_from(w: np.ndarray):
    """A ``max_reduce`` fill that serves the rows of w in order."""
    done = 0

    def fill(out: np.ndarray) -> None:
        nonlocal done
        out[...] = w[done : done + len(out)]
        done += len(out)

    return fill


def reduce_rows(xc: np.ndarray, w: np.ndarray, absolute: bool) -> np.ndarray:
    return _kernels.max_reduce(xc, fill_from(w), len(w), absolute)


def gemv_reduce(xc: np.ndarray, w: np.ndarray, absolute: bool) -> np.ndarray:
    """The one-matvec-per-replicate reduction, as a reference."""
    scale = 1.0 / np.sqrt(xc.shape[0])
    out = np.empty(w.shape[0])
    for r in range(w.shape[0]):
        s = w[r] @ xc
        out[r] = (np.abs(s).max() if absolute else s.max()) * scale
    return out


def test_count_rows_match_gather_sum_oracle(rng):
    # the empirical bootstrap's count weights against summing the resampled rows
    n, p = 37, 11
    xc = rng.standard_normal((n, p))
    idx, counts = count_rows(rng, 23, n)
    for absolute in (False, True):
        sums = np.array([xc[row].sum(axis=0) for row in idx])
        stats = np.abs(sums) if absolute else sums
        np.testing.assert_allclose(
            reduce_rows(xc, counts, absolute), stats.max(axis=1) / np.sqrt(n), rtol=1e-12
        )


def test_numpy_single_row_matches_batch(rng):
    # a replicate's value must not depend on which batch it is computed in;
    # 200 x 100 and 57 x 33 are shapes where an unpinned GEMM broke this, and
    # at n 20001 OpenBLAS splits the inner dimension into several panels
    for n, p in ((20, 6), (200, 100), (57, 33), (20001, 3)):
        b = 70
        xc = rng.standard_normal((n, p))
        w = rng.standard_normal((b, n))
        _, counts = count_rows(rng, b, n)
        full_w = reduce_rows(xc, w, False)
        full_c = reduce_rows(xc, counts, True)
        for r in range(b):
            assert reduce_rows(xc, w[r : r + 1], False)[0] == full_w[r]
            assert reduce_rows(xc, counts[r : r + 1], True)[0] == full_c[r]


def test_without_thread_control_each_row_is_one_matvec(rng, monkeypatch):
    monkeypatch.setattr(_kernels, "_blas_threads", lambda: None)
    for n, p in ((200, 100), (57, 33)):
        xc = rng.standard_normal((n, p))
        w = rng.standard_normal((130, n))
        _, counts = count_rows(rng, 130, n)
        for rows in (w, counts):
            for absolute in (False, True):
                got = reduce_rows(xc, rows, absolute)
                assert np.array_equal(got, gemv_reduce(xc, rows, absolute))


def test_an_openblas_numpy_has_thread_control():
    # without it every reduction takes the one-matvec path and the tile GEMM
    # goes untested; numpy 1.x wheels suffix OpenBLAS's own names with 64_
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy's BLAS is {blas}")
    assert _kernels._blas_threads() is not None


def test_concurrent_reductions_restore_the_thread_count(rng):
    threads = _kernels._blas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread control")
    get, _ = threads
    before = get()
    xc = rng.standard_normal((200, 100))
    w = rng.standard_normal((130, 200))
    ref = reduce_rows(xc, w, False)
    results: list[bool] = []

    def work() -> None:
        results.extend(np.array_equal(reduce_rows(xc, w, False), ref) for _ in range(20))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in workers)
    assert results == [True] * 80
    assert get() == before


# Run in a fresh interpreter so that OPENBLAS_NUM_THREADS takes effect; prints
# a JSON list of every mismatch found.
_THREADED_CHECKS = r"""
import json, os
import numpy as np
from maxboot import _kernels, bootstrap
from maxboot.datagen import DataMatrix
from maxboot.rng import SeedSpec
from maxboot.stat_core import MaxMode

threads = _kernels._blas_threads()
count = threads[0] if threads else (lambda: None)
problems = []
if threads and "OPENBLAS_NUM_THREADS" in os.environ and count() != 2:
    problems.append(f"OPENBLAS_NUM_THREADS=2 but BLAS runs {count()} threads")

def reduce(xc, w, absolute):
    before = count()
    done = [0]

    def fill(rows):
        rows[...] = w[done[0] : done[0] + len(rows)]
        done[0] += len(rows)

    out = _kernels.max_reduce(xc, fill, len(w), absolute)
    if count() != before:
        problems.append(f"thread count {before} became {count()}")
    return out

rng = np.random.default_rng(20250808)
n, b = 200, 500
plans = [
    bootstrap.BootstrapPlan.wild(bootstrap.GAUSSIAN, b),
    bootstrap.BootstrapPlan.wild(bootstrap.MAMMEN, b),
    bootstrap.BootstrapPlan.wild(bootstrap.RADEMACHER, b),
    bootstrap.BootstrapPlan.empirical(b),
    bootstrap.BootstrapPlan.mixed_wild(0.5, b),
]
for p in (100, 400):
    xc = rng.standard_normal((n, p))
    w = rng.standard_normal((b, n))
    for absolute in (False, True):
        full = reduce(xc, w, absolute)
        # the 64 rotations of a tile put each of its rows at every position,
        # next to other neighbours each time
        for start in range(0, b, 64):
            group = (start + np.arange(64)) % b
            for shift in range(64):
                rows = np.roll(group, shift)
                moved = np.flatnonzero(reduce(xc, w[rows], absolute) != full[rows])
                problems += [f"p {p} row {rows[i]} differs at tile position {i}" for i in moved]
        for k in (1, 63, 64, 65, 130, 500):
            if not np.array_equal(reduce(xc, w[:k], absolute), full[:k]):
                problems.append(f"p {p} prefix {k} differs from the full batch")
    data = DataMatrix(rng.standard_gamma(1.0, (n, p)), known_mean=np.ones(p))
    seed = SeedSpec(20250808).child(p)
    for plan, mode in zip(plans, [MaxMode.ONE_SIDED, MaxMode.ABSOLUTE] * 3):
        rows = np.empty((b, n))
        bootstrap._fill_rows(plan.multiplier, seed.child_rngs(b), rows)
        batch = reduce(plan.centered(data), rows, mode is MaxMode.ABSOLUTE)
        law = bootstrap.bootstrap_distribution(data, plan, mode, seed)
        if not np.array_equal(np.sort(batch), law.sample):
            problems.append(f"p {p} {plan.name}: the law is not the sorted rows")
        for r in (0, 1, 63, 64, b - 1):
            if bootstrap.bootstrap_stat_once(data, plan, mode, seed.child(r)) != batch[r]:
                problems.append(f"p {p} {plan.name}: replicate {r} alone differs from its row")
print(json.dumps(problems))
"""


@pytest.mark.parametrize("blas_threads", ["2", None])
def test_reduction_is_position_and_batch_free_at_two_blas_threads(blas_threads):
    env = dict(os.environ, PYTHONPATH=str(Path(maxboot.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-c", _THREADED_CHECKS],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_shape_validation():
    # the kernel has no rule of its own: numpy refuses weight rows of the wrong length
    with pytest.raises(ValueError) as err:
        reduce_rows(np.zeros((4, 2)), np.zeros((3, 5)), False)
    assert str(err.value) == "could not broadcast input array from shape (3,5) into shape (3,4)"
