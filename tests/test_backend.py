import subprocess
import sys

import numpy as np
import pytest

from maxboot import _backend, _kernels

try:
    from maxboot import _core
except ImportError:
    _core = None


def test_backend_name_reports_both_kernels():
    name = _backend.backend_name()
    assert "wild=" in name and "resample=" in name


@pytest.mark.skipif(_core is None, reason="compiled core not built")
def test_kernels_agree_between_implementations(rng):
    xc = rng.standard_normal((37, 11))
    w = rng.standard_normal((23, 37))
    idx = rng.integers(0, 37, (23, 37), dtype=np.int64)
    for absolute in (False, True):
        np.testing.assert_allclose(
            _core.wild_max_reduce(xc, w, absolute),
            _kernels.wild_max_reduce(xc, w, absolute),
            rtol=1e-12,
        )
        np.testing.assert_array_equal(
            _core.resample_max_reduce(xc, idx, absolute),
            _kernels.resample_max_reduce(xc, idx, absolute),
        )


def assert_single_row_matches_batch(mod, rng):
    # a replicate's value must not depend on which batch it is computed in
    xc = rng.standard_normal((20, 6))
    w = rng.standard_normal((10, 20))
    idx = rng.integers(0, 20, (10, 20), dtype=np.int64)
    full_w = mod.wild_max_reduce(xc, w, False)
    full_i = mod.resample_max_reduce(xc, idx, True)
    for r in range(10):
        assert mod.wild_max_reduce(xc, w[r : r + 1], False)[0] == full_w[r]
        assert mod.resample_max_reduce(xc, idx[r : r + 1], True)[0] == full_i[r]


def test_numpy_single_row_matches_batch(rng):
    assert_single_row_matches_batch(_kernels, rng)


@pytest.mark.skipif(_core is None, reason="compiled core not built")
def test_single_row_matches_batch(rng):
    assert_single_row_matches_batch(_core, rng)


def test_force_py_env_selects_numpy():
    code = (
        "import os; os.environ['MAXBOOT_FORCE_PY']='1'; "
        "from maxboot import _backend; print(_backend.backend_name())"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.stdout.strip() == "wild=numpy,resample=numpy"


def test_shape_validation():
    xc = np.zeros((4, 2))
    with pytest.raises(ValueError):
        _kernels.wild_max_reduce(xc, np.zeros((3, 5)), False)
    with pytest.raises(ValueError):
        _kernels.resample_max_reduce(xc, np.zeros((3, 5), dtype=np.int64), False)
    if _core is not None:
        with pytest.raises(ValueError):
            _core.wild_max_reduce(xc, np.zeros((3, 5)), False)
