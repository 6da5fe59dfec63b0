"""The replicate reduction shared by every bootstrap scheme.

Replicate r's statistic is max_j of sum_i w[r, i] * xc[i, j] / sqrt(n), where
row r of ``w`` holds multipliers (wild schemes) or resample counts
(empirical bootstrap).

The rows are reduced in tiles of 64: each tile is copied into one reused,
zero-padded (64, n) buffer and multiplied by ``xc`` in one BLAS GEMM.  Every
product has the same shape, so with BLAS on one thread a row's value does not
depend on its position in the tile, on its neighbours or on the batch size:
a replicate computed alone (``bootstrap_stat_once``) equals its row of the
whole distribution.  At two OpenBLAS threads that fails (at n 200, p 100, 40
of 832 row and position pairs gave another value than the row's place in
its batch, on a 2-vCPU Xeon with OpenBLAS 0.3.31), so the reduction sets the
OpenBLAS that numpy loaded to one thread for its duration and then restores
the caller's count.  Where no OpenBLAS thread control can be found, the tile
is one row: one BLAS matvec per replicate, which is thread-invariant.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

import numpy as np

__all__ = ["max_reduce"]

_TILE = 64

# (get, set) thread-count functions: the scipy-openblas ILP64 build that
# numpy's PyPI wheels bundle, then the pair a plain OpenBLAS declares in its
# cblas.h
_THREAD_FUNCS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
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


def max_reduce(xc: np.ndarray, w: np.ndarray, absolute: bool) -> np.ndarray:
    n = xc.shape[0]
    if w.shape[1] != n:
        raise ValueError("weight row length must equal the row count of xc")
    threads = _blas_threads()
    tile = 1 if threads is None else _TILE
    buf = np.zeros((tile, n))
    prod = np.empty((tile, xc.shape[1]))
    out = np.empty(w.shape[0])
    with _one_blas_thread(threads):
        for start in range(0, w.shape[0], tile):
            k = min(tile, w.shape[0] - start)
            buf[:k] = w[start : start + k]
            buf[k:] = 0.0
            np.matmul(buf, xc, out=prod)
            if absolute:
                np.abs(prod, out=prod)
            prod[:k].max(axis=1, out=out[start : start + k])
    out *= 1.0 / np.sqrt(n)
    return out
