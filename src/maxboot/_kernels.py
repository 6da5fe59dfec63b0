"""The replicate reduction shared by every bootstrap scheme.

Replicate r's statistic is max_j of sum_i w[r, i] * xc[i, j] / sqrt(n), where
row r of ``w`` holds multipliers (wild schemes) or resample counts
(empirical bootstrap).  It is kept per-replicate (one BLAS matvec each)
rather than one big matmul, so a replicate's value never depends on which
other replicates share the batch.
"""

from __future__ import annotations

import numpy as np

__all__ = ["max_reduce"]


def max_reduce(xc: np.ndarray, w: np.ndarray, absolute: bool) -> np.ndarray:
    n = xc.shape[0]
    if w.shape[1] != n:
        raise ValueError("weight row length must equal the row count of xc")
    scale = 1.0 / np.sqrt(n)
    out = np.empty(w.shape[0])
    for r in range(w.shape[0]):
        s = w[r] @ xc
        out[r] = (np.abs(s).max() if absolute else s.max()) * scale
    return out
