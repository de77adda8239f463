"""Central-difference Jacobians, the tests' check of the models' analytic ones."""

from __future__ import annotations

from typing import Callable

import numpy as np

_JAC_STEP = np.finfo(float).eps ** (1.0 / 3.0)


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

