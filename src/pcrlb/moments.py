"""Second-order Taylor propagation of Gaussian beliefs through model maps.

Given a belief x ~ N(mean, cov) and a map g with Jacobian G and per-output
Hessians S_i at the mean, the propagated moments are

    g_bar   = g(mean) + 0.5 * sum_i e_i tr(S_i cov)
    P_out   = G cov G' + 0.5 * sum_ij e_i e_j' tr(S_i cov S_j cov) + noise

applied to the transition map (producing state moments at time k from a
belief at k-1) and the measurement map (producing measurement moments at
time k from a belief at k).

No bound engine, pipeline stage or check calls this module; the benchmark
in ``perfbench/`` imports ``GaussianBelief`` from it and traces its
functions by name.  The derivatives of these moment maps with respect to
the conditioning point hold the belief covariance frozen.  Those involve
third derivatives of the underlying map, which the model interface does not
expose, so they are obtained by central finite differences of the moment maps
themselves; the mean derivative reuses the model's analytic Jacobian for its
first-order part so that curvature-free models come out exact.

Beliefs may hold a stack of Gaussians (mean (..., n), cov (..., n, n)); every
function here then acts on each element of the stack in one batched pass.
The time index k may then be an integer array (..., 1), one per element, as
``pcrlb.model`` describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import symmetrize
# GaussianBelief lives in pcrlb.model; the name stays importable from here
# because perfbench/run.py imports it from this module.
from .model import GaussianBelief, SystemModel, _JAC_STEP

__all__ = [
    "PropagatedMoments",
    "MomentMapDerivatives",
    "propagate_state_moments",
    "propagate_measurement_moments",
    "state_moment_map_derivatives",
    "measurement_moment_map_derivatives",
]


@dataclass(frozen=True)
class PropagatedMoments:
    """Moments of a belief pushed through a map with additive noise.

    cov is the Jacobian sandwich G cov G' plus curvature_cov, the
    Hessian-trace double sum (it vanishes whenever all Hessians vanish), plus
    the additive noise covariance; mean is the map value plus curvature_mean.
    """

    mean: np.ndarray
    cov: np.ndarray
    curvature_mean: np.ndarray
    curvature_cov: np.ndarray


class MomentMapDerivatives(NamedTuple):
    """Derivatives of a moment map w.r.t. the conditioning point.

    dmean[..., i, j]  = d mean_i / d x_j        (includes the map Jacobian)
    dcov[..., j, :, :] = d cov / d x_j           (noise-free part)
    dcurv_mean        = d curvature_mean / d x  (the second-order part of dmean)
    """

    dmean: np.ndarray
    dcov: np.ndarray
    dcurv_mean: np.ndarray


def _curvature_mean(hessians: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """0.5 tr(S_i cov) per output i; hessians (..., m, n, n), cov (..., n, n)."""
    return 0.5 * np.trace(hessians @ cov[..., None, :, :], axis1=-2, axis2=-1)


def _curvature_cov(hessians: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """0.5 tr(S_i cov S_j cov) per output pair (i, j)."""
    hp = hessians @ cov[..., None, :, :]
    return 0.5 * np.einsum("...iab,...jba->...ij", hp, hp)


def _propagate(value: np.ndarray, jac: np.ndarray, hessians: np.ndarray,
               cov: np.ndarray, noise: np.ndarray) -> PropagatedMoments:
    curv_mean = _curvature_mean(hessians, cov)
    curv_cov = _curvature_cov(hessians, cov)
    total = symmetrize(symmetrize(jac @ cov @ jac.mT) + curv_cov + noise)
    return PropagatedMoments(mean=value + curv_mean, cov=total,
                             curvature_mean=curv_mean, curvature_cov=curv_cov)


def propagate_state_moments(model: SystemModel, k,
                            belief: GaussianBelief) -> PropagatedMoments:
    """Moments of the state at time k from a belief about the state at k-1."""
    if belief.dim != model.state_dim:
        raise ValueError("belief dimension does not match model state_dim")
    x = belief.mean
    return _propagate(model.transition(k, x), model.transition_jacobian(k, x),
                      model.transition_hessians(k, x), belief.cov,
                      model.process_cov)


def propagate_measurement_moments(model: SystemModel, k,
                                  belief: GaussianBelief) -> PropagatedMoments:
    """Moments of the measurement at time k from a belief about the state at k."""
    if belief.dim != model.state_dim:
        raise ValueError("belief dimension does not match model state_dim")
    x = belief.mean
    return _propagate(model.measure(k, x), model.measurement_jacobian(k, x),
                      model.measurement_hessians(k, x), belief.cov,
                      model.meas_cov)


def _moment_map_derivatives(jac_fn, hess_fn, base_jac: np.ndarray,
                            mean: np.ndarray, cov: np.ndarray) -> MomentMapDerivatives:
    """Shared central-difference engine for both moment channels.

    Differentiates x -> curvature_mean(x) and the noise-free covariance with the
    belief covariance frozen; the full mean derivative is the analytic map
    Jacobian plus the curvature-mean derivative.  Each coordinate step moves
    every element of a stack at once.
    """
    n_in = mean.shape[-1]
    n_out = base_jac.shape[-2]
    stack = mean.shape[:-1]

    def signal_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        jac = jac_fn(x)
        hess = hess_fn(x)
        return (_curvature_mean(hess, cov),
                symmetrize(jac @ cov @ jac.mT) + _curvature_cov(hess, cov))

    dcurv = np.empty(stack + (n_out, n_in))
    dcov = np.empty(stack + (n_in, n_out, n_out))
    for i in range(n_in):
        h = _JAC_STEP * np.maximum(1.0, np.abs(mean[..., i]))
        xp = mean.copy()
        xm = mean.copy()
        xp[..., i] += h
        xm[..., i] -= h
        cm_p, sc_p = signal_parts(xp)
        cm_m, sc_m = signal_parts(xm)
        dcurv[..., :, i] = (cm_p - cm_m) / (2.0 * h[..., None])
        dcov[..., i, :, :] = symmetrize((sc_p - sc_m) / (2.0 * h[..., None, None]))
    return MomentMapDerivatives(dmean=base_jac + dcurv, dcov=dcov, dcurv_mean=dcurv)


def state_moment_map_derivatives(model: SystemModel, k,
                                 belief: GaussianBelief) -> MomentMapDerivatives:
    """Derivatives of the time-k state moment map at the belief mean."""
    return _moment_map_derivatives(
        lambda x: model.transition_jacobian(k, x),
        lambda x: model.transition_hessians(k, x),
        model.transition_jacobian(k, belief.mean),
        belief.mean, belief.cov)


def measurement_moment_map_derivatives(model: SystemModel, k,
                                       belief: GaussianBelief) -> MomentMapDerivatives:
    """Derivatives of the time-k measurement moment map at the belief mean."""
    return _moment_map_derivatives(
        lambda x: model.measurement_jacobian(k, x),
        lambda x: model.measurement_hessians(k, x),
        model.measurement_jacobian(k, belief.mean),
        belief.mean, belief.cov)
