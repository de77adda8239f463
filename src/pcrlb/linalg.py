"""Small dense linear-algebra helpers shared across the package.

Everything here operates on square symmetric matrices of modest size (state
and measurement dimensions), so Cholesky factorizations are the workhorse.
A matrix that must be positive definite and does not factor is an error here,
never silently repaired: the only diagonal-jitter repair in the package is
``filters.regularize_cov``, which counts every covariance it repairs.  Every
helper takes a single (n, n) matrix or a stack of them with any leading axes
(..., n, n) and acts on each element of the stack.  Cholesky factors and
solves are LAPACK potrf/potrs: numpy does the 1 x 1 case in their arithmetic,
and scipy, which supplies them for larger matrices, is imported only the first
time one is factored, so a scalar model never loads it.
"""

from __future__ import annotations

import functools

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


@functools.cache
def _lapack() -> tuple:
    """LAPACK potrf and potrs for float64, importing scipy on the first call."""
    import scipy.linalg
    return scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (np.zeros(1),))


def _cho_factor(m: np.ndarray) -> np.ndarray:
    """potrf's lower factor (upper triangle not zeroed); for 1 x 1 elements sqrt(m)."""
    if m.shape[-1] == 1:
        factor, info = np.sqrt(np.abs(m)), int(not (m > 0.0).all())
    else:
        factor, info = _lapack()[0](m, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return factor


def _cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """potrs's solution of L L' x = b; for 1 x 1 elements b scaled by 1/l twice, as potrs does."""
    if factor.shape[-1] == 1:
        x = b * (scale := 1.0 / factor)
        x *= scale
        return x
    return _lapack()[1](factor, b, lower=1)[0]


def _cholesky_inverse(m: np.ndarray) -> np.ndarray:
    """Invert each factorable matrix of a stack through its own Cholesky factor.

    Each element gets the bytes of LAPACK potrf/potrs, as in scipy's cho_solve:
    1 x 1 elements in one vector operation, (1/sqrt(m))**2, larger ones singly.
    """
    if not np.isfinite(m).all():
        raise ValueError("array must not contain infs or NaNs")
    if m.shape[-1] == 1:
        return symmetrize(_cho_solve(_cho_factor(m), 1.0))
    eye = np.eye(m.shape[-1])
    out = np.empty_like(m)
    for index in np.ndindex(m.shape[:-2]):
        out[index] = _cho_solve(_cho_factor(m[index]), eye)
    return symmetrize(out)


def spd_inverse(m: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive definite matrix, or each matrix of a stack.

    m is factored once, and a factorization that runs to completion is the
    test of positive definiteness.  A single matrix is inverted through that
    Cholesky factor (_cholesky_inverse), a stack of 1 x 1 matrices as 1 / m
    behind potrf's own test, m > 0 (the bytes of np.linalg.inv), and a larger
    stack, once every element has factored in one call, by one LU inverse.

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
        if m.ndim == 2:
            return _cholesky_inverse(m)
        if m.shape[-1] == 1 and (m > 0.0).all():
            return symmetrize(1.0 / m)
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        eigmin = float(np.linalg.eigvalsh(m).min())
        raise NumericError(f"matrix is not positive definite: min eigenvalue {eigmin:.3e}") from None
    return symmetrize(np.linalg.inv(m))
