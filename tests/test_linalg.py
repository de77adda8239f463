"""The package's inverses and particle likelihood against LAPACK potrf/potrs.

The package runs on numpy alone; scipy supplies potrf/potrs here as the
reference.  1 x 1 matrices are compared byte for byte.  A single 1 x 1
matrix is inverted through its Cholesky factor, computed by numpy as
(1/sqrt(m))**2.  It equals the LAPACK potrf/potrs result only as long as the
BLAS triangular solve inside potrs multiplies by the reciprocal of the
factor, so the comparison is made against the LAPACK of the machine that
runs the test.  A stack of 1 x 1 matrices is inverted as 1 / m, which is
compared with the np.linalg.inv of the same machine.  Larger matrices are
inverted by np.linalg.inv once they factor, and the particle likelihood
whitens residuals with the inverse Cholesky factor; both are compared with
potrf/potrs within 50 kappa eps relative, kappa the condition number.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from pcrlb import NumericError, run_ukf, spd_inverse
from pcrlb import filters
from pcrlb.cli import random_stable_linear_model
from pcrlb.filters import _gaussian_loglik
from pcrlb.linalg import _cholesky_inverse

POTRF, POTRS = sla.get_lapack_funcs(("potrf", "potrs"), (np.zeros(1),))
EPS = np.finfo(float).eps


def lapack_inverse(stack):
    """Each element inverted by LAPACK potrf then potrs, symmetrized as spd_inverse does."""
    out = np.empty_like(stack)
    for index in np.ndindex(stack.shape[:-2]):
        factor, info = POTRF(stack[index], lower=1, clean=0)
        assert info == 0
        out[index], info = POTRS(factor, np.eye(stack.shape[-1]), lower=1)
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


def test_scalar_stack_inverse_matches_numpy_inv_bit_for_bit(rng):
    """spd_inverse of a (..., 1, 1) stack gives the symmetrized np.linalg.inv
    of each element, over the whole positive range, subnormals included."""
    values = np.concatenate([
        [5e-324, 1e-310, 1e-308, 7e-309, 1e300, 1.7e308, np.finfo(float).max],
        np.exp(rng.uniform(np.log(5e-324), np.log(1.7e308), 20_000))])
    for stack in (values.reshape(-1, 1, 1), values[:20_000].reshape(40, 500, 1, 1)):
        inverse = np.linalg.inv(stack)
        with np.errstate(over="ignore"):  # 1/5e-324 overflows to inf, as in np.linalg.inv
            assert np.array_equal(spd_inverse(stack), 0.5 * (inverse + inverse.mT))


@pytest.mark.parametrize("bad, error, text", [
    (0.0, NumericError, "matrix is not positive definite: min eigenvalue 0.000e+00"),
    (-0.0, NumericError, "matrix is not positive definite: min eigenvalue -0.000e+00"),
    (-1.0, NumericError, "matrix is not positive definite: min eigenvalue -1.000e+00"),
    (-1e-300, NumericError, "matrix is not positive definite: min eigenvalue -1.000e-300"),
    (np.nan, ValueError, "m must be finite"),
    (np.inf, ValueError, "m must be finite"),
    (-np.inf, ValueError, "m must be finite"),
])
def test_scalar_stack_inverse_error_texts(bad, error, text):
    for m in (np.array([[[2.0]], [[bad]]]), np.array([[bad]])):
        with pytest.raises(error) as raised:
            spd_inverse(m)
        assert type(raised.value) is error and str(raised.value) == text


def random_spd(rng, shape, n):
    """SPD matrices of shape + (n, n) with condition numbers from 1 to about 1e6."""
    basis = np.linalg.qr(rng.standard_normal(shape + (n, n)))[0]
    spectrum = 10.0 ** rng.uniform(-3.0, 3.0, shape + (n,))
    return (basis * spectrum[..., None, :]) @ basis.mT


def assert_near_potrs(got, want, matrices):
    """got within 50 kappa eps of the potrs result, relative to its largest entry, per matrix."""
    scale = 50.0 * np.linalg.cond(matrices) * EPS * np.abs(want).max(axis=(-2, -1))
    assert np.all(np.abs(got - want).max(axis=(-2, -1)) <= scale)


def potrs_loglik(resid, cov):
    """The Gaussian log density through LAPACK potrf/potrs, and the size of its terms."""
    factor, info = POTRF(cov, lower=1, clean=0)
    assert info == 0
    m = cov.shape[0]
    columns = np.moveaxis(resid, -1, 0).reshape(m, -1)
    quad = np.sum(columns * POTRS(factor, columns, lower=1)[0], axis=0)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor))))
    loglik = -0.5 * (quad + logdet + m * np.log(2.0 * np.pi))
    return loglik.reshape(resid.shape[:-1]), 0.5 * (quad + abs(logdet) + m * np.log(2.0 * np.pi))


def test_matrix_path_matches_potrs_within_rounding(rng, monkeypatch):
    """For n, m = 2..4 the inverses and the likelihood are potrf/potrs's up
    to 50 kappa eps: spd_inverse of single matrices and (R, T) stacks, the
    UKF's innovation inverse and the particle log-likelihood."""
    for n in (2, 3, 4):
        singles = random_spd(rng, (40,), n)
        for single in singles:
            assert_near_potrs(spd_inverse(single), lapack_inverse(single), single)
        stack = random_spd(rng, (5, 7), n)
        assert_near_potrs(spd_inverse(stack), lapack_inverse(stack), stack)

        for cov in random_spd(rng, (20,), n):
            resid = rng.standard_normal((3, 40, n)) * np.sqrt(np.diag(cov))
            want, size = potrs_loglik(resid, cov)
            tolerance = 50.0 * np.linalg.cond(cov) * EPS * size.reshape(want.shape)
            got = _gaussian_loglik(resid, filters._loglik_terms(np.linalg.cholesky(cov)))
            assert np.all(np.abs(got - want) <= tolerance)

        model = random_stable_linear_model(rng, n)
        innovations = []
        monkeypatch.setattr(filters, "_cholesky_inverse",
                            lambda m: innovations.append(m) or _cholesky_inverse(m))
        run_ukf(model, rng.standard_normal((6, n))[:, None])
        monkeypatch.undo()
        (z_cov,) = innovations
        assert z_cov.shape == (6, n, n)
        assert_near_potrs(_cholesky_inverse(z_cov), lapack_inverse(z_cov), z_cov)
