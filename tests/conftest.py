"""Fixtures shared by the test modules."""

import ctypes
import glob
from pathlib import Path

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
