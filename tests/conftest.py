"""Fixtures shared by the test modules."""

import ctypes
import glob
from pathlib import Path

import numpy as np
import pytest
import scipy


@pytest.fixture
def one_blas_thread():
    """scipy's OpenBLAS on one thread for the test.  ``predict``'s blocks give
    the bits of one whole-matrix call only there: on more threads OpenBLAS
    splits a whole-matrix trmm wider than 384 points across them, and each
    sums its own last points in another order.  Another BLAS build keeps
    its thread count."""
    libs = glob.glob(str(Path(scipy.__file__).parents[1] / "scipy.libs" / "libscipy_openblas*"))
    if not libs:
        yield
        return
    lib = ctypes.CDLL(libs[0])
    threads = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(threads)


@pytest.fixture
def traces_equal():
    """Equality of two traces on the fields the trace CSV keeps, with NaN
    equal to NaN."""

    def persisted(trace):
        return [np.array([r.iteration, *r.x, r.y, r.incumbent_f, r.acq_value, r.wall_ms])
                for r in trace]

    def equal(a, b) -> bool:
        rows_a, rows_b = persisted(a), persisted(b)
        return len(rows_a) == len(rows_b) and all(
            np.array_equal(u, v, equal_nan=True) for u, v in zip(rows_a, rows_b)
        )

    return equal
