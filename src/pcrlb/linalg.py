"""Small dense linear-algebra helpers shared across the package.

Everything here operates on square symmetric matrices of modest size (state
and measurement dimensions), so Cholesky factorizations are the workhorse and
failures are handled by escalating diagonal jitter rather than by switching to
iterative methods.  Every helper takes a single (n, n) matrix or a stack of
them with any leading axes (..., n, n) and acts on each element of the stack.
Cholesky factors and solves are LAPACK potrf/potrs: numpy does the 1 x 1 case
in their arithmetic, and scipy, which supplies them for larger matrices, is
imported only the first time one is factored, so a scalar model never loads it.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["NumericError", "symmetrize", "jitter_ladder", "spd_inverse"]

# Jitter escalation for barely-indefinite matrices: relative to trace/n,
# starting at 1e-12 and growing by decades up to 1e-6.
_JITTER_START = 1e-12
_JITTER_STOP = 1e-6


class NumericError(ArithmeticError):
    """A linear-algebra operation failed beyond recoverable jitter."""


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part 0.5 * (m + m') of each matrix in the stack."""
    return 0.5 * (m + m.mT)


def _check_square_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    # np.allclose(m, m', atol=1e-8 * scale) with one scale per matrix
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1), keepdims=True, initial=0.0))
    if not np.all(np.abs(m - m.mT) <= 1e-8 * scale + 1e-5 * np.abs(m.mT)):
        raise ValueError(f"{name} must be symmetric")
    return m


def jitter_ladder(m: np.ndarray, start: float = _JITTER_START,
                  stop: float = _JITTER_STOP) -> tuple[np.ndarray, np.ndarray]:
    """Make each matrix of a stack Cholesky-factorable with the least ladder jitter.

    The stack is factored in one batched call.  Only the elements that fail
    go one by one up the ladder: a diagonal jitter of start * trace(m)/n,
    growing by decades while it stays within stop * trace(m)/n.  Non-finite
    entries pass through untouched (the factorization does not reject them).

    Args:
        m: symmetric matrix (n, n) or stack of them (..., n, n).
        start, stop: the ladder's range, relative to trace/n.

    Returns:
        (m with the jitter added to the elements that needed it, boolean mask
        of those elements with the stack's leading shape).

    Raises:
        NumericError: an element still fails at the top of the ladder.
    """
    repaired = np.zeros(m.shape[:-2], dtype=bool)
    try:
        np.linalg.cholesky(m)
        return m, repaired
    except np.linalg.LinAlgError:
        pass
    m = m.copy()
    eye = np.eye(m.shape[-1])
    for index in np.ndindex(m.shape[:-2]):
        element = m[index]
        scale = float(np.trace(element)) / m.shape[-1]
        if scale <= 0.0:
            scale = 1.0
        jitter = 0.0
        while True:
            try:
                np.linalg.cholesky(element + jitter * eye)
                break
            except np.linalg.LinAlgError:
                jitter = start * scale if jitter == 0.0 else jitter * 10.0
                if jitter > stop * scale:
                    eigmin = float(np.linalg.eigvalsh(element)[0])
                    raise NumericError(
                        "matrix is not positive definite within jitter budget: "
                        f"min eigenvalue {eigmin:.3e}, trace/n {scale:.3e}"
                    ) from None
        if jitter:
            m[index] = element + jitter * eye
            repaired[index] = True
    return m, repaired


@functools.cache
def _lapack() -> tuple:
    """LAPACK potrf and potrs for float64, importing scipy on the first call."""
    import scipy.linalg
    return scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (np.zeros(1),))


def _cho_factor(m: np.ndarray) -> np.ndarray:
    """potrf's lower factor (upper triangle not zeroed); for 1 x 1 elements sqrt(m)."""
    if m.shape[-1] == 1:
        factor, info = np.sqrt(np.abs(m)), int(not np.all(m > 0.0))
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
    if not np.all(np.isfinite(m)):
        raise ValueError("array must not contain infs or NaNs")
    if m.shape[-1] == 1:
        return symmetrize(_cho_solve(_cho_factor(m), 1.0))
    eye = np.eye(m.shape[-1])
    out = np.empty_like(m)
    for index in np.ndindex(m.shape[:-2]):
        out[index] = _cho_solve(_cho_factor(m[index]), eye)
    return symmetrize(out)


def spd_inverse(m: np.ndarray, cholesky: bool = False) -> np.ndarray:
    """Invert a symmetric positive definite matrix, or each matrix of a stack.

    Elements that fail to factor first go up the jitter ladder (see
    jitter_ladder, 1e-12 to 1e-6 of trace/n).  A single matrix is then
    inverted through its Cholesky factor, a stack in one batched LU call.  An
    element past the jitter budget raises a NumericError with its condition
    diagnostics.

    Args:
        m: symmetric positive (semi)definite matrix, shape (n, n), or a
            stack of them, shape (..., n, n).
        cholesky: invert each element of a stack through its own Cholesky
            factor, as a single matrix is, so that element i has the bytes
            of spd_inverse(m[i]).

    Returns:
        Symmetrized inverse of m, same shape as m.
    """
    m, _ = jitter_ladder(_check_square_symmetric(m, "m"))
    if m.ndim == 2 or cholesky:
        return _cholesky_inverse(m)
    return symmetrize(np.linalg.inv(m))

