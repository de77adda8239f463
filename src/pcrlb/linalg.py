"""Small dense linear-algebra helpers shared across the package.

Everything here operates on square symmetric matrices of modest size (state
and measurement dimensions), so Cholesky factorizations are the workhorse and
failures are handled by escalating diagonal jitter rather than by switching to
iterative methods.  Every helper takes a single (n, n) matrix or a stack of
them with any leading axes (..., n, n) and acts on each element of the stack.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

__all__ = ["NumericError", "symmetrize", "spd_inverse", "inv_lemma_split"]

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


def _cholesky_with_jitter(m: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Factor one matrix, adding the smallest ladder jitter that makes it factor.

    The jitter is scaled by trace(m)/n and escalates from 1e-12 to 1e-6 by
    decades; past that the matrix is treated as genuinely indefinite.

    Returns:
        (the factored matrix m + jitter * I, its scipy Cholesky factor).
    """
    n = m.shape[0]
    scale = float(np.trace(m)) / n
    if scale <= 0.0:
        scale = 1.0
    eye = np.eye(n)
    jitter = 0.0
    while True:
        try:
            shifted = m + jitter * eye
            return shifted, sla.cho_factor(shifted, lower=True)
        except np.linalg.LinAlgError:
            jitter = _JITTER_START * scale if jitter == 0.0 else jitter * 10.0
            if jitter > _JITTER_STOP * scale:
                eigmin = float(sla.eigvalsh(m)[0])
                raise NumericError(
                    "matrix is not positive definite within jitter budget: "
                    f"min eigenvalue {eigmin:.3e}, trace/n {scale:.3e}"
                ) from None


def spd_inverse(m: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive definite matrix, or each matrix of a stack.

    A single matrix is inverted through its Cholesky factor.  A stack is
    factored in one batched call; only the elements that fail to factor go
    through the jitter ladder (see _cholesky_with_jitter), and the stack is
    then inverted in one batched LU call.  An element past the jitter budget
    raises a NumericError with its condition diagnostics.

    Args:
        m: symmetric positive (semi)definite matrix, shape (n, n), or a
            stack of them, shape (..., n, n).

    Returns:
        Symmetrized inverse of m, same shape as m.
    """
    m = _check_square_symmetric(m, "m")
    if m.ndim == 2:
        _, chol = _cholesky_with_jitter(m)
        return symmetrize(sla.cho_solve(chol, np.eye(m.shape[0])))
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        m = m.copy()
        for index in np.ndindex(m.shape[:-2]):
            m[index], _ = _cholesky_with_jitter(m[index])
    return symmetrize(np.linalg.inv(m))


def inv_lemma_split(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Evaluate (a + b)^-1 as a^-1 minus a correction, without forming a + b.

    Uses the matrix-inversion-lemma rearrangement

        (a + b)^-1 = a^-1 - (a b^-1 a + a)^-1

    valid for symmetric positive definite a and b.  The correction term
    (a b^-1 a + a)^-1 is what the FIM decomposition calls the Psi matrix.

    Args:
        a: symmetric positive definite matrix, shape (..., n, n).
        b: symmetric positive definite matrix, shape (..., n, n).

    Returns:
        (a + b)^-1 computed via the split form, shape (..., n, n).
    """
    a = _check_square_symmetric(a, "a")
    b = _check_square_symmetric(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: a {a.shape} vs b {b.shape}")
    correction = spd_inverse(symmetrize(a @ spd_inverse(b) @ a) + a)
    return spd_inverse(a) - correction
