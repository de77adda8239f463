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

A model is its two maps, their analytic Jacobians and the two noise
covariances, with the Cholesky factors of these and of the prior
covariance, formed once when it is built.  Maps and Jacobians take one state
of shape (n,) or a stack of states (..., n) and map the whole stack in one call.

The time index k is an int, or an integer array (..., 1) whose leading axes
broadcast against the stack's leading axes (and whose last axis against the
state axis), so one call covers a stack over runs and steps, e.g. states
(R, T, n) with k = np.arange(1, T + 1)[:, None].  Each state is then mapped
at its own k.

The sampler and the particle filter share one seed rule: an int or Generator
for one run, a list for a stack, and one Generator per run drawing into its
own row (``_generators``, ``_standard_normal``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import NumericError, _check_square_symmetric, _cholesky, spd_inverse

__all__ = [
    "GaussianBelief",
    "SystemModel",
    "Trajectory",
    "sample_trajectory",
    "ungm_model",
    "linear_gaussian_model",
]

@dataclass(frozen=True)
class GaussianBelief:
    """A Gaussian belief N(mean, cov) about a state, or a stack of them.

    mean has shape (n,) and cov (n, n), or (..., n) and (..., n, n) for a
    stack.  The covariance may be positive semidefinite (a zero covariance
    encodes exact knowledge of the state), but never indefinite.  The prior
    of a SystemModel is one whose covariance must factor; a filter belief
    formed without covariances carries its mean alone, with cov None.
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
    slices and concatenations of such stacks and a checked prior, and cov None, the
    one exception, for the means-only beliefs of a filter run without covariances."""
    belief = object.__new__(GaussianBelief)
    belief.__dict__.update(mean=mean, cov=cov)
    return belief


def _check_cov(label: str, cov: np.ndarray, dim: int) -> np.ndarray:
    """The read-only lower Cholesky factor of cov; ValueError naming label unless
    cov is (dim, dim), finite and symmetric, and factors (linalg._cholesky)."""
    if cov.shape != (dim, dim):
        raise ValueError(f"{label} shape {cov.shape}, expected ({dim}, {dim})")
    try:
        return _read_only(_cholesky(_check_square_symmetric(cov, label)))
    except np.linalg.LinAlgError:
        raise ValueError(f"{label} must be positive definite") from None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SystemModel:
    """A state-space model: its maps, their analytic Jacobians and its noise.

    All four callables take the time index k, as the module notes describe,
    and a stack of states (..., n); a single state (n,) is a stack without
    leading axes.  ``transition_fn`` and ``measurement_fn`` return the mapped
    stack (..., n) and (..., m), and the Jacobian callables (..., n, n) and
    (..., m, n).

    The prior is a GaussianBelief about x_0 whose covariance, like Q and R,
    must have a Cholesky factor.  The noise covariances are time-constant.
    The lower factors ``process_chol``, ``meas_chol`` and ``prior_chol`` are
    formed when the model is built, the precisions ``process_precision`` and
    ``meas_precision`` on first use, all read-only in a frozen model.
    """

    state_dim: int
    meas_dim: int
    transition_fn: Callable[[int, np.ndarray], np.ndarray]
    measurement_fn: Callable[[int, np.ndarray], np.ndarray]
    process_cov: np.ndarray
    meas_cov: np.ndarray
    prior: GaussianBelief
    transition_jacobian_fn: Callable[[int, np.ndarray], np.ndarray]
    measurement_jacobian_fn: Callable[[int, np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        q = np.atleast_2d(np.asarray(self.process_cov, dtype=float))
        r = np.atleast_2d(np.asarray(self.meas_cov, dtype=float))
        self.__dict__.update(process_cov=q, meas_cov=r,
                             process_chol=_check_cov("process_cov", q, self.state_dim),
                             meas_chol=_check_cov("meas_cov", r, self.meas_dim),
                             prior_chol=_check_cov("prior cov", self.prior.cov, self.state_dim))

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

    # -- Jacobians -------------------------------------------------------

    def transition_jacobian(self, k, x: np.ndarray) -> np.ndarray:
        return self._call(self.transition_jacobian_fn, k, x)

    def measurement_jacobian(self, k, x: np.ndarray) -> np.ndarray:
        return self._call(self.measurement_jacobian_fn, k, x)

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
    has shape (..., T, m) with row k-1 the measurement of state k.  The
    sampler that makes it checks that its values are finite.
    """

    states: np.ndarray
    measurements: np.ndarray


def _generators(seed) -> list:
    """One Generator per run: a list of seeds for a stack, else one seed."""
    return [np.random.default_rng(s) for s in (seed if isinstance(seed, list) else [seed])]


def _standard_normal(generators: list, shape: tuple) -> np.ndarray:
    """Draw shape from each run's own generator, stacked as (runs,) + shape."""
    draws = np.empty((len(generators),) + shape)
    for row, rng in enumerate(generators):
        rng.standard_normal(shape, out=draws[row])
    return draws


def _noise(chol: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """chol @ draws[i] for each row i of a (R, d) stack, one matrix-vector
    product per row as for a single (d,) draw."""
    return (chol @ draws[..., None])[..., 0]


def sample_trajectory(model: SystemModel, horizon: int, seed) -> Trajectory:
    """Draw one trajectory of the model over ``horizon`` steps, or a stack of them.

    Each trajectory draws its n + T (n + m) standard normals from its own
    Generator in one call (_generators, _standard_normal), in the order prior
    draw, then per step k the process noise followed by the measurement
    noise.  A stack steps all its runs at once, and each of its elements has
    the bytes of the single-run call with the same seed.

    Args:
        model: the system to simulate.
        horizon: number of transitions T; the trajectory holds T+1 states.
        seed: integer seed or numpy Generator for one trajectory; for a
            stack, a list with one per trajectory.

    Returns:
        Trajectory with states (T+1, n) and measurements (T, m), or
        (R, T+1, n) and (R, T, m) for a list of R seeds.

    Raises:
        NumericError: a state or measurement is not finite; the message names
            the first such step k (k = 0 the initial state), over the stack.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    n, m = model.state_dim, model.meas_dim
    draws = _standard_normal(_generators(seed), (n + horizon * (n + m),))
    steps = draws[:, n:].reshape(len(draws), horizon, n + m)
    states = np.empty((len(draws), horizon + 1, n))
    measurements = np.empty((len(draws), horizon, m))
    states[:, 0] = model.prior.mean + _noise(model.prior_chol, draws[:, :n])
    # each state as a 1 x n row, so a matmul map makes one vector-matrix
    # product per run, as for a single (n,) state; a value that leaves the
    # reals is reported below, by its step, not warned about here
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, horizon + 1):
            states[:, k] = (model.transition(k, states[:, None, k - 1])[:, 0]
                            + _noise(model.process_chol, steps[:, k - 1, :n]))
            measurements[:, k - 1] = (model.measure(k, states[:, None, k])[:, 0]
                                      + _noise(model.meas_chol, steps[:, k - 1, n:]))
    # one flag per step k = 0..T: x_k, or z_k, is not finite in some run
    bad = ~np.isfinite(states).all(axis=(0, 2))
    bad[1:] |= ~np.isfinite(measurements).all(axis=(0, 2))
    if bad.any():
        raise NumericError(f"trajectory is not finite at step k = {bad.argmax()}")
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
    the transition's Jacobian is time-invariant.  Analytic Jacobians ride
    along on the model interface.
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

    # x has shape (..., 1); Jacobians come out as (..., 1, 1)
    def f_jac(k: int, x: np.ndarray) -> np.ndarray:
        v = 1.0 + x * x
        return (0.5 + 25.0 * (1.0 - x * x) / (v * v))[..., None]

    def h_jac(k: int, x: np.ndarray) -> np.ndarray:
        return (x / 10.0)[..., None]

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
        measurement_jacobian_fn=h_jac,
    )


def linear_gaussian_model(a=0.9, h=1.0, process_var=1.0, meas_var=1.0, prior_mean=0.0,
                          prior_var=1.0) -> SystemModel:
    """Linear time-invariant Gaussian model x_k = A x_{k-1} + w, z_k = H x_k + v,
    with w ~ N(0, process_var), v ~ N(0, meas_var) and x_0 ~ N(prior_mean, prior_var).

    Accepts scalars or matrices; scalars build the 1-D model.  A bad shape, or a
    variance not symmetric positive definite, raises ValueError naming its parameter.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    h = np.atleast_2d(np.asarray(h, dtype=float))
    n = a.shape[0]
    m = h.shape[0]
    if a.shape != (n, n):
        raise ValueError("a must be square")
    if h.shape != (m, n):
        raise ValueError(f"h shape {h.shape} incompatible with state dim {n}")
    if np.shape(np.atleast_1d(prior_mean)) != (n,):
        raise ValueError(f"prior_mean shape {np.shape(prior_mean)}, expected ({n},)")
    for key, cov, dim in (("process_var", process_var, n), ("meas_var", meas_var, m),
                          ("prior_var", prior_var, n)):
        _check_cov(key, np.atleast_2d(np.asarray(cov, dtype=float)), dim)
    prior = GaussianBelief(prior_mean, prior_var)
    return SystemModel(
        state_dim=n,
        meas_dim=m,
        transition_fn=lambda k, x: x @ a.T,
        measurement_fn=lambda k, x: x @ h.T,
        process_cov=process_var,
        meas_cov=meas_var,
        prior=prior,
        transition_jacobian_fn=lambda k, x: np.broadcast_to(a, x.shape[:-1] + a.shape),
        measurement_jacobian_fn=lambda k, x: np.broadcast_to(h, x.shape[:-1] + h.shape),
    )
