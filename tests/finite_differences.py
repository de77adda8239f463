"""Central-difference derivatives, the tests' check of the models' analytic ones."""

from __future__ import annotations

from typing import Callable

import numpy as np

from pcrlb.model import _EPS, _JAC_STEP

_HESS_STEP = _EPS ** 0.25


def fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a vector map.

    Per-coordinate steps are cbrt(eps) * max(1, |x_i|), the usual balance
    between truncation and rounding error for first derivatives.

    Args:
        fn: map from shape (n,) to shape (m,).
        x: evaluation point, shape (n,).

    Returns:
        Jacobian matrix, shape (m, n).
    """
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fn(x), dtype=float)
    jac = np.empty((f0.shape[0], x.shape[0]))
    for i in range(x.shape[0]):
        h = _JAC_STEP * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (np.asarray(fn(xp), dtype=float) - np.asarray(fn(xm), dtype=float)) / (2.0 * h)
    return jac


def fd_hessians(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Hessians of each output component of a vector map.

    Steps scale with the fourth root of machine epsilon, appropriate for
    second derivatives.

    Args:
        fn: map from shape (n,) to shape (m,).
        x: evaluation point, shape (n,).

    Returns:
        Stacked Hessians, shape (m, n, n); entry [c, i, j] is the (i, j)
        second derivative of output component c.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    f0 = np.asarray(fn(x), dtype=float)
    m = f0.shape[0]
    h = np.array([_HESS_STEP * max(1.0, abs(x[i])) for i in range(n)])
    hess = np.empty((m, n, n))

    def _at(*bumps: tuple[int, float]) -> np.ndarray:
        xv = x.copy()
        for idx, delta in bumps:
            xv[idx] += delta
        return np.asarray(fn(xv), dtype=float)

    for i in range(n):
        hess[:, i, i] = (_at((i, h[i])) - 2.0 * f0 + _at((i, -h[i]))) / (h[i] * h[i])
        for j in range(i + 1, n):
            mixed = (_at((i, h[i]), (j, h[j])) - _at((i, h[i]), (j, -h[j]))
                     - _at((i, -h[i]), (j, h[j])) + _at((i, -h[i]), (j, -h[j])))
            val = mixed / (4.0 * h[i] * h[j])
            hess[:, i, j] = val
            hess[:, j, i] = val
    return hess
