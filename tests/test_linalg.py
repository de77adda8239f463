"""The Cholesky inverse of 1 x 1 matrices against LAPACK potrf/potrs, byte for byte.

The n = 1 inverse is computed by numpy as (1/sqrt(m))**2.  It equals the
LAPACK result only as long as the BLAS triangular solve inside potrs
multiplies by the reciprocal of the factor, so the comparison is made against
the LAPACK of the machine that runs the test.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from pcrlb import spd_inverse
from pcrlb.linalg import _cholesky_inverse

POTRF, POTRS = sla.get_lapack_funcs(("potrf", "potrs"), (np.zeros(1),))


def lapack_inverse(stack):
    """Each 1 x 1 element inverted by LAPACK potrf then potrs, symmetrized as spd_inverse does."""
    out = np.empty_like(stack)
    for index in np.ndindex(stack.shape[:-2]):
        factor, info = POTRF(stack[index], lower=1, clean=0)
        assert info == 0
        out[index], info = POTRS(factor, np.eye(1), lower=1)
    return 0.5 * (out + out.mT)


def test_scalar_inverse_matches_lapack_bit_for_bit(rng):
    values = np.concatenate([
        np.exp(rng.uniform(-30.0, 30.0, 20_000)), rng.uniform(0.5, 2.0, 2_000),
        [1.0, 2.0, 3.0, 0.1, 1e-300, 1e300, 5e-324, np.finfo(float).max]])
    stack = values.reshape(-1, 1, 1)
    want = lapack_inverse(stack)
    with np.errstate(over="ignore"):  # 1/5e-324 overflows to inf, as in LAPACK
        assert np.array_equal(_cholesky_inverse(stack), want)
    for value in (1.0, 7.3, 1e-9, 4e12):
        single = np.array([[value]])
        assert np.array_equal(spd_inverse(single), lapack_inverse(single))
    grid = np.exp(rng.uniform(-10.0, 10.0, (4, 6, 1, 1)))  # (R, T, 1, 1)
    assert np.array_equal(_cholesky_inverse(grid), lapack_inverse(grid))


def test_scalar_inverse_error_texts():
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            _cholesky_inverse(np.array([[[1.0]], [[bad]]]))
    for bad in (0.0, -1.0):
        with pytest.raises(np.linalg.LinAlgError,
                           match="1-th leading minor of the array is not positive definite"):
            _cholesky_inverse(np.array([[[2.0]], [[bad]]]))
