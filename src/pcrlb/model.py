"""Discrete-time state-space models with additive Gaussian noise.

Models have the form

    x_k = transition(k, x_{k-1}) + w_k,   w_k ~ N(0, Q),   k = 1..T
    z_k = measure(k, x_k) + v_k,          v_k ~ N(0, R)

with a Gaussian prior on x_0 and time-constant noise covariances Q and R.
``GaussianBelief`` is the package's one Gaussian type: the prior is one, and
so is every filter belief and every input of the bound engines.
Time indices are explicit: the ``k`` passed to ``transition`` is the index of
the state being produced, and the ``k`` passed to ``measure`` is the index of
the state being observed.

A model is its two maps, their analytic first and second derivatives and the
two noise covariances.  Maps and derivatives take one state of shape (n,) or
a stack of states (..., n) and map the whole stack in one call.

The time index k is an int, or an integer array (..., 1) whose leading axes
broadcast against the stack's leading axes (and whose last axis against the
state axis), so one call covers a stack over runs and steps, e.g. states
(R, T, n) with k = np.arange(1, T + 1)[:, None].  Each state is then mapped
at its own k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import _check_square_symmetric, spd_inverse, symmetrize

__all__ = [
    "GaussianBelief",
    "SystemModel",
    "Trajectory",
    "sample_trajectory",
    "ungm_model",
    "linear_gaussian_model",
]

_EPS = np.finfo(float).eps
_JAC_STEP = _EPS ** (1.0 / 3.0)


@dataclass(frozen=True)
class GaussianBelief:
    """A Gaussian belief N(mean, cov) about a state, or a stack of them.

    mean has shape (n,) and cov (n, n), or (..., n) and (..., n, n) for a
    stack.  The covariance may be positive semidefinite (a zero covariance
    encodes exact knowledge of the state), but never indefinite.  The prior
    of a SystemModel is one such belief, which the model requires to be
    positive definite.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        n = mean.shape[-1]
        if cov.shape != mean.shape + (n,):
            raise ValueError(f"cov shape {cov.shape} does not match mean shape {mean.shape}")
        _check_square_symmetric(cov, "belief covariance")
        scale = np.maximum(1.0, np.abs(cov).max(axis=(-2, -1), initial=0.0))
        if np.any(np.linalg.eigvalsh(cov)[..., 0] < -1e-10 * scale):
            raise ValueError("belief covariance must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


def _unchecked(mean, cov) -> GaussianBelief:
    """GaussianBelief(mean, cov) without its checks, for arrays known to pass them:
    covariances that have just passed a Cholesky factorization (filters.regularize_cov),
    and slices and concatenations of such stacks and a checked prior."""
    belief = object.__new__(GaussianBelief)
    belief.__dict__.update(mean=mean, cov=cov)
    return belief


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass
class SystemModel:
    """A state-space model: its maps, their analytic derivatives and its noise.

    All six callables take the time index k, as the module notes describe,
    and a stack of states (..., n); a single state (n,) is a stack without
    leading axes.  ``transition_fn`` and ``measurement_fn`` return the mapped
    stack (..., n) and (..., m), the Jacobian callables (..., n, n) and
    (..., m, n), and the Hessian callables (..., n, n, n) and (..., m, n, n),
    entry [..., c, i, j] being the (i, j) second derivative of output c.

    The prior is a GaussianBelief about x_0 whose covariance, like Q and R,
    must be positive definite.  The noise covariances are time-constant.
    Their precisions ``process_precision`` and ``meas_precision`` are
    inverted on first use and handed out read-only.
    """

    state_dim: int
    meas_dim: int
    transition_fn: Callable[[int, np.ndarray], np.ndarray]
    measurement_fn: Callable[[int, np.ndarray], np.ndarray]
    process_cov: np.ndarray
    meas_cov: np.ndarray
    prior: GaussianBelief
    transition_jacobian_fn: Callable[[int, np.ndarray], np.ndarray]
    transition_hessian_fn: Callable[[int, np.ndarray], np.ndarray]
    measurement_jacobian_fn: Callable[[int, np.ndarray], np.ndarray]
    measurement_hessian_fn: Callable[[int, np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        self.process_cov = np.atleast_2d(np.asarray(self.process_cov, dtype=float))
        self.meas_cov = np.atleast_2d(np.asarray(self.meas_cov, dtype=float))
        for label, cov, dim in (("process_cov", self.process_cov, self.state_dim),
                                ("meas_cov", self.meas_cov, self.meas_dim),
                                ("prior cov", self.prior.cov, self.state_dim)):
            if cov.shape != (dim, dim):
                raise ValueError(f"{label} shape {cov.shape}, expected ({dim}, {dim})")
            if not np.allclose(cov, cov.T):
                raise ValueError(f"{label} must be symmetric")
            if np.any(np.linalg.eigvalsh(cov) <= 0.0):
                raise ValueError(f"{label} must be positive definite")

    def _call(self, fn: Callable[[int, np.ndarray], np.ndarray], k,
              x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.state_dim:
            raise ValueError(
                f"state shape {x.shape} incompatible with state_dim {self.state_dim}")
        return np.asarray(fn(k, x), dtype=float)

    # -- maps ------------------------------------------------------------

    def transition(self, k, x: np.ndarray) -> np.ndarray:
        """Noise-free state at time k from the state at time k-1."""
        return self._call(self.transition_fn, k, x)

    def measure(self, k, x: np.ndarray) -> np.ndarray:
        """Noise-free measurement of the state at time k."""
        return self._call(self.measurement_fn, k, x)

    # -- derivatives -----------------------------------------------------

    def transition_jacobian(self, k, x: np.ndarray) -> np.ndarray:
        return self._call(self.transition_jacobian_fn, k, x)

    def transition_hessians(self, k, x: np.ndarray) -> np.ndarray:
        return symmetrize(self._call(self.transition_hessian_fn, k, x))

    def measurement_jacobian(self, k, x: np.ndarray) -> np.ndarray:
        return self._call(self.measurement_jacobian_fn, k, x)

    def measurement_hessians(self, k, x: np.ndarray) -> np.ndarray:
        return symmetrize(self._call(self.measurement_hessian_fn, k, x))

    # -- noise precisions ------------------------------------------------

    @cached_property
    def process_precision(self) -> np.ndarray:
        """Q^-1, read-only."""
        return _read_only(spd_inverse(self.process_cov))

    @cached_property
    def meas_precision(self) -> np.ndarray:
        """R^-1, read-only."""
        return _read_only(spd_inverse(self.meas_cov))


@dataclass(frozen=True)
class Trajectory:
    """One sampled state/measurement history, or a stack of them.

    states has shape (..., T+1, n) with row 0 the initial state; measurements
    has shape (..., T, m) with row k-1 the measurement of state k.
    """

    states: np.ndarray
    measurements: np.ndarray

    def __post_init__(self) -> None:
        if self.states.shape[-2] != self.measurements.shape[-2] + 1:
            raise ValueError("states must have exactly one more row than measurements")
        if not (np.all(np.isfinite(self.states)) and np.all(np.isfinite(self.measurements))):
            raise ValueError("trajectory contains non-finite values")


def _noise(chol: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """chol @ draws[i] for each row i of a (R, d) stack, one matrix-vector
    product per row as for a single (d,) draw."""
    return (chol @ draws[..., None])[..., 0]


def sample_trajectory(model: SystemModel, horizon: int, seed) -> Trajectory:
    """Draw one trajectory of the model over ``horizon`` steps, or a stack of them.

    Each trajectory draws its n + T (n + m) standard normals from its own
    Generator in one call, in the order prior draw, then per step k the
    process noise followed by the measurement noise.  A stack steps all its
    runs at once, and each of its elements has the bytes of the single-run
    call with the same seed.

    Args:
        model: the system to simulate.
        horizon: number of transitions T; the trajectory holds T+1 states.
        seed: integer seed or numpy Generator for one trajectory; for a
            stack, a list with one per trajectory.

    Returns:
        Trajectory with states (T+1, n) and measurements (T, m), or
        (R, T+1, n) and (R, T, m) for a list of R seeds.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    seeds = seed if isinstance(seed, list) else [seed]
    n, m = model.state_dim, model.meas_dim
    draws = np.stack([np.random.default_rng(s).standard_normal(n + horizon * (n + m))
                      for s in seeds])
    steps = draws[:, n:].reshape(len(seeds), horizon, n + m)
    chol_q = np.linalg.cholesky(model.process_cov)
    chol_r = np.linalg.cholesky(model.meas_cov)
    states = np.empty((len(seeds), horizon + 1, n))
    measurements = np.empty((len(seeds), horizon, m))
    states[:, 0] = model.prior.mean + _noise(np.linalg.cholesky(model.prior.cov), draws[:, :n])
    # each state as a 1 x n row, so a matmul map makes one vector-matrix
    # product per run, as for a single (n,) state
    for k in range(1, horizon + 1):
        states[:, k] = (model.transition(k, states[:, None, k - 1])[:, 0]
                        + _noise(chol_q, steps[:, k - 1, :n]))
        measurements[:, k - 1] = (model.measure(k, states[:, None, k])[:, 0]
                                  + _noise(chol_r, steps[:, k - 1, n:]))
    if not isinstance(seed, list):
        states, measurements = states[0], measurements[0]
    return Trajectory(states=states, measurements=measurements)


def ungm_model(process_var: float = 1.0, meas_var: float = 5.0,
               prior_mean: float = 0.0, prior_var: float = 20.0) -> SystemModel:
    """Scalar univariate nonlinear growth model.

    Dynamics and measurement:

        x_k = 0.5 x + 25 x / (1 + x^2) + 8 cos(1.2 (k - 1)) + w_k
        z_k = x_k^2 / 20 + v_k

    with x the previous state.  The cosine forcing depends on time only, so
    state derivatives of the transition are time-invariant.  Analytic first
    and second derivatives ride along on the model interface.
    """

    def f(k: int, x: np.ndarray) -> np.ndarray:
        """0.5 * x + 25.0 * x / (1.0 + x * x) + drift, operation by operation, in two buffers."""
        drift = 8.0 * np.cos(1.2 * (k - 1))
        out = np.multiply(x, x)
        out += 1.0
        growth = np.multiply(x, 25.0)
        growth /= out
        np.multiply(x, 0.5, out=out)
        out += growth
        out += drift
        return out

    def h(k: int, x: np.ndarray) -> np.ndarray:
        """x * x / 20.0 in one buffer."""
        out = np.multiply(x, x)
        out /= 20.0
        return out

    # x has shape (..., 1); derivatives come out as (..., 1, 1) and (..., 1, 1, 1)
    def f_jac(k: int, x: np.ndarray) -> np.ndarray:
        v = 1.0 + x * x
        return (0.5 + 25.0 * (1.0 - x * x) / (v * v))[..., None]

    def f_hess(k: int, x: np.ndarray) -> np.ndarray:
        v = 1.0 + x * x
        return (25.0 * (2.0 * x ** 3 - 6.0 * x) / v ** 3)[..., None, None]

    def h_jac(k: int, x: np.ndarray) -> np.ndarray:
        return (x / 10.0)[..., None]

    def h_hess(k: int, x: np.ndarray) -> np.ndarray:
        return np.full(x.shape + (1, 1), 0.1)

    prior = GaussianBelief(np.array([prior_mean]), np.array([[prior_var]]))
    return SystemModel(
        state_dim=1,
        meas_dim=1,
        transition_fn=f,
        measurement_fn=h,
        process_cov=np.array([[process_var]]),
        meas_cov=np.array([[meas_var]]),
        prior=prior,
        transition_jacobian_fn=f_jac,
        transition_hessian_fn=f_hess,
        measurement_jacobian_fn=h_jac,
        measurement_hessian_fn=h_hess,
    )


def linear_gaussian_model(a, h, process_cov, meas_cov, prior_mean, prior_cov) -> SystemModel:
    """Linear time-invariant Gaussian model x_k = A x_{k-1} + w, z_k = H x_k + v.

    Accepts scalars or matrices; scalars build the 1-D model.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    h = np.atleast_2d(np.asarray(h, dtype=float))
    n = a.shape[0]
    m = h.shape[0]
    if a.shape != (n, n):
        raise ValueError("a must be square")
    if h.shape != (m, n):
        raise ValueError(f"h shape {h.shape} incompatible with state dim {n}")
    prior = GaussianBelief(prior_mean, prior_cov)
    return SystemModel(
        state_dim=n,
        meas_dim=m,
        transition_fn=lambda k, x: x @ a.T,
        measurement_fn=lambda k, x: x @ h.T,
        process_cov=np.atleast_2d(np.asarray(process_cov, dtype=float)),
        meas_cov=np.atleast_2d(np.asarray(meas_cov, dtype=float)),
        prior=prior,
        transition_jacobian_fn=lambda k, x: np.broadcast_to(a, x.shape[:-1] + a.shape),
        transition_hessian_fn=lambda k, x: np.zeros(x.shape[:-1] + (n, n, n)),
        measurement_jacobian_fn=lambda k, x: np.broadcast_to(h, x.shape[:-1] + h.shape),
        measurement_hessian_fn=lambda k, x: np.zeros(x.shape[:-1] + (m, n, n)),
    )
