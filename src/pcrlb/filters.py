"""Bayesian filters: unscented Kalman filter and bootstrap particle filter.

Both filters report, at every step k = 1..T, the predicted belief (prior to
the measurement update) and the posterior belief.  The bound engines consume
these beliefs; which one feeds which channel is the harness's decision.

A closed-form Kalman step for linear models rides along as the oracle used by
the CLI selftest.  Randomness is always drawn from a caller-supplied seed or
numpy Generator, so every routine is reproducible bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as sla

from .linalg import NumericError, spd_inverse, symmetrize
from .model import SystemModel
from .moments import GaussianBelief

__all__ = [
    "UTParams",
    "SigmaPointSet",
    "FilterOutput",
    "ParticleSet",
    "sigma_points",
    "unscented_transform",
    "ukf_step",
    "run_ukf",
    "init_particles",
    "particle_moments",
    "systematic_resample",
    "pf_step",
    "run_pf",
    "kalman_step",
    "regularize_cov",
]

# Covariance repair: scaled diagonal jitter applied when a filter covariance
# loses positive definiteness to rounding; escalates by decades, bounded so a
# genuinely broken covariance still errors out.
_REG_START = 1e-10
_REG_STOP = 1e-4


@dataclass(frozen=True)
class UTParams:
    """Unscented transform spread parameters.

    kappa defaults to 3 - n when left as None, the classic choice matching
    fourth moments of a Gaussian in the scalar case.
    """

    alpha: float = 1.0
    beta: float = 2.0
    kappa: Optional[float] = None

    def resolved_kappa(self, n: int) -> float:
        return float(3 - n) if self.kappa is None else float(self.kappa)


@dataclass(frozen=True)
class SigmaPointSet:
    points: np.ndarray        # (2n+1, n), row 0 is the center
    mean_weights: np.ndarray  # (2n+1,)
    cov_weights: np.ndarray   # (2n+1,)


@dataclass(frozen=True)
class FilterOutput:
    """Beliefs produced by one filter step."""

    posterior: GaussianBelief
    predicted: GaussianBelief


@dataclass(frozen=True)
class ParticleSet:
    """Weighted particles; weights are normalized and non-negative."""

    states: np.ndarray   # (N, n)
    weights: np.ndarray  # (N,)

    def __post_init__(self) -> None:
        if self.states.shape[0] != self.weights.shape[0]:
            raise ValueError("states and weights disagree on particle count")
        if not np.all(np.isfinite(self.weights)):
            raise NumericError("particle weights are not finite")
        if abs(float(self.weights.sum()) - 1.0) > 1e-8:
            raise ValueError("particle weights must sum to one")

    @property
    def ess(self) -> float:
        """Effective sample size 1 / sum(w^2)."""
        return 1.0 / float(np.sum(self.weights ** 2))


def regularize_cov(cov: np.ndarray) -> np.ndarray:
    """Return a Cholesky-factorable version of a symmetric covariance.

    Adds trace-scaled diagonal jitter starting at 1e-10 only when the matrix
    fails to factor as given.
    """
    cov = symmetrize(np.asarray(cov, dtype=float))
    n = cov.shape[0]
    scale = float(np.trace(cov)) / n
    if scale <= 0.0:
        scale = 1.0
    jitter = 0.0
    while True:
        try:
            np.linalg.cholesky(cov + jitter * np.eye(n))
            return cov if jitter == 0.0 else cov + jitter * np.eye(n)
        except np.linalg.LinAlgError:
            jitter = _REG_START * scale if jitter == 0.0 else jitter * 10.0
            if jitter > _REG_STOP * scale:
                raise NumericError("filter covariance not repairable by jitter") from None


def sigma_points(mean: np.ndarray, cov: np.ndarray,
                 params: UTParams = UTParams()) -> SigmaPointSet:
    """Scaled symmetric sigma points for N(mean, cov)."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    n = mean.shape[0]
    kappa = params.resolved_kappa(n)
    lam = params.alpha ** 2 * (n + kappa) - n
    spread = n + lam
    if spread <= 0.0:
        raise ValueError(f"alpha/kappa give non-positive spread n + lambda = {spread}")
    root = np.linalg.cholesky(regularize_cov(cov) * spread)
    points = np.empty((2 * n + 1, n))
    points[0] = mean
    for i in range(n):
        points[1 + i] = mean + root[:, i]
        points[1 + n + i] = mean - root[:, i]
    wm = np.full(2 * n + 1, 1.0 / (2.0 * spread))
    wc = wm.copy()
    wm[0] = lam / spread
    wc[0] = lam / spread + (1.0 - params.alpha ** 2 + params.beta)
    return SigmaPointSet(points=points, mean_weights=wm, cov_weights=wc)


def unscented_transform(fn, belief: GaussianBelief, noise_cov: np.ndarray,
                        params: UTParams = UTParams()):
    """Push a belief through fn and add noise_cov.

    Args:
        fn: map applied to each sigma point, shape (n,) -> (m,).
        belief: input Gaussian belief.
        noise_cov: additive noise covariance of the output, shape (m, m).
        params: sigma point spread parameters.

    Returns:
        (mean, cov, cross_cov): output mean (m,), output covariance (m, m)
        including noise, and input-output cross covariance (n, m).
    """
    sp = sigma_points(belief.mean, belief.cov, params)
    mapped = np.stack([np.atleast_1d(np.asarray(fn(p), dtype=float)) for p in sp.points])
    mean = sp.mean_weights @ mapped
    dev_out = mapped - mean
    dev_in = sp.points - belief.mean
    cov = symmetrize((dev_out * sp.cov_weights[:, None]).T @ dev_out + noise_cov)
    cross = (dev_in * sp.cov_weights[:, None]).T @ dev_out
    return mean, cov, cross


def ukf_step(model: SystemModel, k: int, belief: GaussianBelief, z: np.ndarray,
             params: UTParams = UTParams()) -> FilterOutput:
    """One predict/update cycle of the unscented Kalman filter at time k."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    m_pred, p_pred, _ = unscented_transform(
        lambda x: model.transition(k, x), belief, model.process_cov_at(k), params)
    p_pred = regularize_cov(p_pred)
    predicted = GaussianBelief(mean=m_pred, cov=p_pred)
    z_mean, z_cov, cross = unscented_transform(
        lambda x: model.measure(k, x), predicted, model.meas_cov_at(k), params)
    gain = cross @ spd_inverse(z_cov)
    post_mean = m_pred + gain @ (z - z_mean)
    post_cov = regularize_cov(p_pred - gain @ z_cov @ gain.T)
    return FilterOutput(posterior=GaussianBelief(post_mean, post_cov), predicted=predicted)


def run_ukf(model: SystemModel, measurements: np.ndarray,
            params: UTParams = UTParams()) -> list[FilterOutput]:
    """Run the UKF over a measurement sequence, starting from the model prior."""
    belief = GaussianBelief(model.prior.mean, model.prior.cov)
    outputs: list[FilterOutput] = []
    for k, z in enumerate(np.atleast_2d(np.asarray(measurements, dtype=float)), start=1):
        out = ukf_step(model, k, belief, z, params)
        outputs.append(out)
        belief = out.posterior
    return outputs


# -- particle filter ---------------------------------------------------------


def init_particles(model: SystemModel, n_particles: int, seed) -> ParticleSet:
    """Draw equally weighted particles from the model prior."""
    if n_particles < 1:
        raise ValueError("n_particles must be positive")
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(model.prior.cov)
    states = model.prior.mean + rng.standard_normal((n_particles, model.state_dim)) @ chol.T
    return ParticleSet(states=states, weights=np.full(n_particles, 1.0 / n_particles))


def particle_moments(states: np.ndarray, weights: np.ndarray) -> GaussianBelief:
    """Weighted mean and covariance of a particle cloud (no bias correction)."""
    mean = weights @ states
    dev = states - mean
    cov = symmetrize((dev * weights[:, None]).T @ dev)
    return GaussianBelief(mean=mean, cov=regularize_cov(cov))


def systematic_resample(weights: np.ndarray, u: float) -> np.ndarray:
    """Systematic resampling indices for normalized weights.

    Positions (i + u) / N for i = 0..N-1 are matched against the cumulative
    weight sum, so a single uniform draw u in [0, 1) determines the whole
    resampled population.

    Returns:
        Integer index array of length N into the particle arrays.
    """
    weights = np.asarray(weights, dtype=float)
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    if abs(float(weights.sum()) - 1.0) > 1e-9:
        raise ValueError("resampling weights must be normalized")
    n = weights.shape[0]
    positions = (np.arange(n) + u) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = max(cumulative[-1], 1.0)  # guard rounding of the final edge
    return np.minimum(np.searchsorted(cumulative, positions, side="right"), n - 1)


def _gaussian_loglik(resid: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Log density of N(0, cov) at each row of resid, shape (N, m) -> (N,)."""
    chol = sla.cho_factor(cov, lower=True)
    # skip scipy's finiteness gate; bad residuals must propagate to the
    # log-weights where pf_step raises a NumericError
    sol = sla.cho_solve(chol, resid.T, check_finite=False)
    quad = np.sum(resid.T * sol, axis=0)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
    m = cov.shape[0]
    return -0.5 * (quad + logdet + m * np.log(2.0 * np.pi))


def pf_step(model: SystemModel, k: int, particles: ParticleSet, z: np.ndarray,
            seed, resample: str = "always", ess_threshold: float = 0.5
            ) -> tuple[ParticleSet, FilterOutput]:
    """One bootstrap particle filter step at time k.

    Particles are propagated through the transition with fresh process noise,
    reweighted by the measurement likelihood in the log domain (max
    subtraction before exponentiation), and resampled systematically.  The
    reported beliefs are the weighted moments before resampling; the predicted
    belief uses the incoming weights on the propagated cloud.

    Args:
        model: the system model.
        k: time index of the measurement being absorbed.
        particles: current particle set.
        z: measurement vector at time k.
        seed: integer seed or numpy Generator for noise and resampling draws.
        resample: "always" resamples every step; "adaptive" only when
            ESS < ess_threshold * N.
        ess_threshold: ESS fraction for adaptive resampling.

    Returns:
        (new particle set, FilterOutput with predicted and posterior beliefs).
    """
    if resample not in ("always", "adaptive"):
        raise ValueError(f"unknown resample policy {resample!r}")
    rng = np.random.default_rng(seed)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    n_particles = particles.states.shape[0]

    noise = rng.standard_normal((n_particles, model.state_dim))
    chol_q = np.linalg.cholesky(model.process_cov_at(k))
    propagated = model.transition(k, particles.states) + noise @ chol_q.T
    predicted = particle_moments(propagated, particles.weights)

    resid = z - model.measure(k, propagated)
    log_w = np.log(particles.weights) + _gaussian_loglik(resid, model.meas_cov_at(k))
    if not np.all(np.isfinite(log_w) | np.isneginf(log_w)):
        raise NumericError(f"non-finite particle log-weights at step {k}")
    shifted = log_w - np.max(log_w)
    weights = np.exp(shifted)
    total = float(weights.sum())
    if total <= 0.0 or not np.isfinite(total):
        warnings.warn(f"all particle likelihoods vanished at step {k}; "
                      "falling back to uniform weights", RuntimeWarning)
        weights = np.full(n_particles, 1.0 / n_particles)
    else:
        weights = weights / total
    posterior = particle_moments(propagated, weights)

    updated = ParticleSet(states=propagated, weights=weights)
    if resample == "always" or updated.ess < ess_threshold * n_particles:
        idx = systematic_resample(weights, float(rng.random()))
        updated = ParticleSet(states=propagated[idx],
                              weights=np.full(n_particles, 1.0 / n_particles))
    return updated, FilterOutput(posterior=posterior, predicted=predicted)


def run_pf(model: SystemModel, measurements: np.ndarray, n_particles: int, seed,
           resample: str = "always", ess_threshold: float = 0.5) -> list[FilterOutput]:
    """Run the bootstrap particle filter over a measurement sequence."""
    rng = np.random.default_rng(seed)
    particles = init_particles(model, n_particles, rng)
    outputs: list[FilterOutput] = []
    for k, z in enumerate(np.atleast_2d(np.asarray(measurements, dtype=float)), start=1):
        particles, out = pf_step(model, k, particles, z, rng,
                                 resample=resample, ess_threshold=ess_threshold)
        outputs.append(out)
    return outputs


def kalman_step(a: np.ndarray, h: np.ndarray, q: np.ndarray, r: np.ndarray,
                belief: GaussianBelief, z: np.ndarray) -> FilterOutput:
    """Closed-form Kalman filter step for a linear-Gaussian model."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    h = np.atleast_2d(np.asarray(h, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    m_pred = a @ belief.mean
    p_pred = symmetrize(a @ belief.cov @ a.T + q)
    innov_cov = symmetrize(h @ p_pred @ h.T + r)
    gain = p_pred @ h.T @ spd_inverse(innov_cov)
    post_mean = m_pred + gain @ (z - h @ m_pred)
    post_cov = symmetrize(p_pred - gain @ h @ p_pred)
    return FilterOutput(posterior=GaussianBelief(post_mean, post_cov),
                        predicted=GaussianBelief(m_pred, p_pred))
