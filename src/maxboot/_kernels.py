"""The replicate reduction shared by every bootstrap scheme.

Replicate r's statistic is max_j of sum_i w[r, i] * xc[i, j] / sqrt(n), where
row r of ``w`` holds multipliers (wild schemes) or resample counts
(empirical bootstrap).

The b rows are never held at once.  They are walked in tiles of 64: the
caller draws each tile's rows straight into one reused, zero-padded (64, n)
buffer, which is then multiplied by ``xc`` in one BLAS GEMM.  Every product
has the same shape, so with BLAS on one thread a row's value does not
depend on its position in the tile, on its neighbours or on the batch size:
a replicate computed alone (``bootstrap_stat_once``) equals its row of the
whole distribution.  At two OpenBLAS threads that fails (at n 200, p 100, 40
of 832 row and position pairs gave another value than the row's place in
its batch, on a 2-vCPU Xeon with OpenBLAS 0.3.31), so the reduction sets the
OpenBLAS that numpy loaded to one thread for its duration and then restores
the caller's count.  Where no OpenBLAS thread control can be found, the
tiles are still drawn whole but multiplied one row at a time: one BLAS
matvec per replicate, which is thread-invariant.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from collections.abc import Callable

import numpy as np

__all__ = ["max_reduce"]

_TILE = 64

# (get, set) thread-count functions: the scipy-openblas ILP64 build that
# numpy 2's PyPI wheels bundle, the pair a plain OpenBLAS declares in its
# cblas.h, and that pair with the 64_ suffix of an ILP64 build (numpy 1.x)
_THREAD_FUNCS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)

# the thread count is process-wide: concurrent reductions must not interleave
# their save, set and restore
_PIN_LOCK = threading.Lock()


@functools.cache
def _blas_threads():
    """The (get, set) thread-count functions of numpy's OpenBLAS, or None.

    ``np.empty`` is a C function of numpy's core extension module, and symbol
    lookup through that module searches the libraries it links, so this
    finds the BLAS that numpy calls.  Resolved on first use, not at import.
    """
    try:
        lib = ctypes.CDLL(np.empty.__self__.__file__)
    except OSError:
        return None
    for get_name, set_name in _THREAD_FUNCS:
        get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread(threads):
    if threads is None:
        yield
        return
    get, put = threads
    with _PIN_LOCK:
        saved = get()
        put(1)
        try:
            yield
        finally:
            put(saved)


def max_reduce(
    xc: np.ndarray, fill: Callable[[np.ndarray], None], b: int, absolute: bool
) -> np.ndarray:
    """The b replicate statistics.  ``fill(rows)`` writes the next k <= 64
    weight rows, in replicate order, into the (k, n) array ``rows``."""
    n = xc.shape[0]
    threads = _blas_threads()
    buf = np.zeros((_TILE, n))
    prod = np.empty((_TILE, xc.shape[1]))
    out = np.empty(b)
    with _one_blas_thread(threads):
        for start in range(0, b, _TILE):
            k = min(_TILE, b - start)
            fill(buf[:k])
            buf[k:] = 0.0
            if threads is None:
                for r in range(k):
                    np.matmul(buf[r : r + 1], xc, out=prod[r : r + 1])
            else:
                np.matmul(buf, xc, out=prod)
            if absolute:
                np.abs(prod, out=prod)
            prod[:k].max(axis=1, out=out[start : start + k])
    out *= 1.0 / np.sqrt(n)
    return out
