"""Small dense linear-algebra helpers shared across the package.

Everything here operates on square symmetric matrices of modest size (state
and measurement dimensions), so Cholesky factorizations are the workhorse.
A matrix that must be positive definite and does not factor is an error here,
never silently repaired: the only diagonal-jitter repair in the package is
``filters.regularize_cov``, which counts every covariance it repairs.  Every
helper takes a single (n, n) matrix or a stack of them with any leading axes
(..., n, n) and acts on each element of the stack.  All of it is numpy's
LAPACK: a factor is np.linalg.cholesky's (potrf's bytes), 1 x 1 elements are
factored and inverted by numpy in potrf/potrs's own arithmetic, and a larger
matrix, once it has factored, is inverted by np.linalg.inv.  So no model
needs more than numpy at run time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NumericError", "symmetrize", "spd_inverse"]


class NumericError(ArithmeticError):
    """A matrix that must be positive definite is not, or a numeric step failed."""


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part 0.5 * (m + m') of each matrix in the stack."""
    return 0.5 * (m + m.mT)


def _check_finite(m: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must be finite")
    return m


def _check_square_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    _check_finite(m, name)
    if m.shape[-1] > 1:  # a 1 x 1 matrix is its own transpose
        # np.allclose(m, m', atol=1e-8 * scale) with one scale per matrix
        scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1), keepdims=True, initial=0.0))
        if not np.all(np.abs(m - m.mT) <= 1e-8 * scale + 1e-5 * np.abs(m.mT)):
            raise ValueError(f"{name} must be symmetric")
    return m


def _cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a matrix or of each matrix of a stack.

    np.linalg.cholesky, whose factor is LAPACK potrf's bit for bit; a 1 x 1
    stack is factored by one square root behind potrf's own test, m > 0.
    LinAlgError where an element does not factor (0 and -0 included); NaN
    passes through as NaN, as np.linalg.cholesky passes it.
    """
    if m.shape[-1] != 1:
        return np.linalg.cholesky(m)
    if (m <= 0.0).any():
        raise np.linalg.LinAlgError("1-th leading minor of the array is not positive definite")
    return np.sqrt(m)


def _cholesky_inverse(m: np.ndarray) -> np.ndarray:
    """Invert each matrix of a stack once every element has passed a Cholesky factorization.

    1 x 1 elements are inverted through their factor, (1/sqrt(m))**2 in one
    vector operation, the bytes of LAPACK potrf/potrs; larger ones by one
    batched LU inverse (np.linalg.inv).  The result is symmetrized.
    """
    if not np.isfinite(m).all():
        raise ValueError("array must not contain infs or NaNs")
    factor = _cholesky(m)
    if m.shape[-1] == 1:
        scale = 1.0 / factor
        return symmetrize(scale * scale)
    return symmetrize(np.linalg.inv(m))


def spd_inverse(m: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive definite matrix, or each matrix of a stack.

    m is factored once, and a factorization that runs to completion is the
    test of positive definiteness.  A single 1 x 1 matrix is inverted through
    its factor as (1/sqrt(m))**2, a stack of 1 x 1 matrices as 1 / m behind
    potrf's own test, m > 0 (the bytes of np.linalg.inv), and larger
    matrices, single or stacked, once every element has factored in one
    call, by one batched LU inverse (_cholesky_inverse).

    Args:
        m: symmetric positive definite matrix, shape (n, n), or a stack of
            them, shape (..., n, n).

    Returns:
        Symmetrized inverse of m, same shape as m.

    Raises:
        ValueError: m is not square, not finite or not symmetric.
        NumericError: an element does not factor; the text names the
            smallest eigenvalue of the stack.
    """
    return _spd_inverse(_check_square_symmetric(m, "m"))


def _spd_inverse(m: np.ndarray) -> np.ndarray:
    """spd_inverse of a finite, symmetric float matrix or stack, which it does not check."""
    try:
        if m.ndim > 2 and m.shape[-1] == 1 and (m > 0.0).all():
            return symmetrize(1.0 / m)
        return _cholesky_inverse(m)
    except np.linalg.LinAlgError:
        eigmin = float(np.linalg.eigvalsh(m).min())
        raise NumericError(f"matrix is not positive definite: min eigenvalue {eigmin:.3e}") from None
