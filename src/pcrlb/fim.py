"""Recursive Fisher information for the posterior Cramer-Rao lower bound.

The bound on the error covariance of any estimator of x_k is J_k^-1, where
the information matrix follows the recursion

    J_k = D22 - D12' (J_{k-1} + D11)^-1 D12,        J_0 = P_0^-1

with step terms, for additive Gaussian noise,

    D11 = E[F' Q^-1 F]      F: transition Jacobian at the time-(k-1) state
    D12 = -E[F'] Q^-1
    D22 = Q^-1 + E[H' R^-1 H]   H: measurement Jacobian at the time-k state.

Three engines build the step terms:

* ``true_fim_terms_mc``: expectations as Monte Carlo averages over true
  trajectories (the reference bound).
* ``mean_only_terms``: single-point evaluation at filter state estimates.
* ``mean_cov_terms``: single-point evaluation where the transition and
  measurement densities are replaced by Gaussians whose mean and covariance
  come from second-order Taylor propagation of the filter belief; the D terms
  are then the Gaussian information quadratic forms in the moment-map
  derivatives plus trace curvature terms.

``decompose_terms`` splits each mean+cov term into the mean-only part plus a
covariance-induced correction using the inversion-lemma split of the
propagated precisions; ``fim_via_decomposition`` rebuilds the recursion from
that split as J = theta + pi, where theta is the mean-only update and pi
collects every covariance correction.  The difference of two inverses in pi
and in the gap between the two approximate bounds is evaluated with the
product identity

    A^-1 - (A + S)^-1 = A^-1 S (A + S)^-1

(Henderson & Searle, SIAM Review 23(1), 1981), so nothing beyond the
inverses the recursion already holds is inverted and S may be singular:
``bound_difference`` gives the gap theta^-1 pi J^-1 and
``pcrlb_from_theta_pi`` the bound J^-1.

Every engine also takes stacks: beliefs, states and information matrices with
leading axes (..., n) / (..., n, n) give terms and states of the same leading
shape, computed for the whole stack in one batched pass.  The point and
Taylor engines (``mean_only_terms``, ``mean_cov_terms``, ``decompose_terms``)
also take the time index k as an integer array (..., 1) broadcast against the
stack, as ``pcrlb.model`` describes: the maps and their derivatives are
evaluated at each element's own k, and the time-constant noise precisions
are shared, so the terms of every step of a (R, T, n) stack of beliefs come
from one call; none of them depends on J.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .linalg import spd_inverse, symmetrize
from .model import GaussianPrior, SystemModel
from .moments import (GaussianBelief, measurement_moment_map_derivatives,
                      propagate_measurement_moments, propagate_state_moments,
                      state_moment_map_derivatives)

__all__ = [
    "FimTriple",
    "DecomposedFim",
    "FimState",
    "initial_fim",
    "fim_recursion_step",
    "true_fim_terms_mc",
    "mean_only_terms",
    "mean_cov_terms",
    "decompose_terms",
    "fim_via_decomposition",
    "pcrlb_from_theta_pi",
    "bound_difference",
]

# Signal covariances with Frobenius norm below this fraction of the noise
# covariance norm are treated as exactly zero when forming the lemma split.
PSI_ZERO_THRESHOLD = 1e-12


@dataclass(frozen=True)
class FimTriple:
    """The three step terms of the information recursion (each (..., n, n))."""

    d11: np.ndarray
    d12: np.ndarray
    d22: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "d11", symmetrize(np.atleast_2d(np.asarray(self.d11, float))))
        object.__setattr__(self, "d12", np.atleast_2d(np.asarray(self.d12, float)))
        object.__setattr__(self, "d22", symmetrize(np.atleast_2d(np.asarray(self.d22, float))))
        shape = self.d11.shape
        if shape[-1] != shape[-2] or self.d12.shape != shape or self.d22.shape != shape:
            raise ValueError("FIM term blocks must share one square shape")


@dataclass(frozen=True)
class DecomposedFim:
    """Mean+cov step terms split into mean-only blocks plus corrections.

    mean_* are the blocks the mean-only engine would produce from the same
    evaluation points; spread_* collect everything induced by the belief
    covariance (moment-map curvature, trace terms, and the psi corrections
    from the inversion-lemma split of the propagated precisions).  Block sums
    mean_* + spread_* reproduce the mean+cov terms exactly.

    psi_state and psi_meas are the corrections subtracted from the noise
    precisions: (P_state)^-1 = Q^-1 - psi_state and likewise for the
    measurement channel.
    """

    mean_11: np.ndarray
    mean_12: np.ndarray
    mean_22: np.ndarray
    spread_11: np.ndarray
    spread_12: np.ndarray
    spread_22: np.ndarray
    psi_state: np.ndarray
    psi_meas: np.ndarray

    def d11(self) -> np.ndarray:
        return self.mean_11 + self.spread_11

    def d12(self) -> np.ndarray:
        return self.mean_12 + self.spread_12

    def d22(self) -> np.ndarray:
        return self.mean_22 + self.spread_22


@dataclass(frozen=True)
class FimState:
    """Information state after one decomposed recursion step: j = theta + pi."""

    j: np.ndarray
    theta: np.ndarray
    pi: np.ndarray

    @property
    def pi_fallback(self) -> int:
        # always 0; read only by perfbench/tracing.py's fim_via_decomposition note
        return 0


def initial_fim(prior: GaussianPrior) -> np.ndarray:
    """J_0 for a Gaussian prior: the prior precision."""
    return spd_inverse(prior.cov)


def fim_recursion_step(j_prev: np.ndarray, terms: FimTriple) -> np.ndarray:
    """Advance the information matrix (or a stack of them) by one step."""
    j_prev = symmetrize(np.atleast_2d(np.asarray(j_prev, float)))
    inner = spd_inverse(symmetrize(j_prev + terms.d11))
    return symmetrize(terms.d22 - terms.d12.mT @ inner @ terms.d12)


def true_fim_terms_mc(model: SystemModel, k: int, states_prev: np.ndarray,
                      states_new: np.ndarray) -> FimTriple:
    """Monte Carlo step terms for advancing onto time k.

    Args:
        model: the system model.
        k: target time of the step (uses transition(k, .) and measure(k, .)).
        states_prev: true states at time k-1, shape (R, n).
        states_new: true states at time k, shape (R, n).

    Returns:
        FimTriple with the expectations replaced by sample means over the R
        trajectories.
    """
    states_prev = np.atleast_2d(np.asarray(states_prev, float))
    states_new = np.atleast_2d(np.asarray(states_new, float))
    if states_prev.shape != states_new.shape:
        raise ValueError("states_prev and states_new must have matching shapes")
    if states_prev.shape[0] < 1:
        raise ValueError("at least one trajectory sample is required")
    q_inv = model.process_precision
    r_inv = model.meas_precision
    f_jac = model.transition_jacobian(k, states_prev)
    h_jac = model.measurement_jacobian(k, states_new)
    f_bar = f_jac.mean(axis=0)
    return FimTriple(d11=(f_jac.mT @ q_inv @ f_jac).mean(axis=0),
                     d12=-f_bar.T @ q_inv,
                     d22=q_inv + (h_jac.mT @ r_inv @ h_jac).mean(axis=0))


def mean_only_terms(model: SystemModel, k, x_prev: np.ndarray,
                    x_new: Optional[np.ndarray] = None) -> FimTriple:
    """Step terms with expectations collapsed onto point estimates.

    Args:
        model: the system model.
        k: target time of the step, an int or an integer array (..., 1)
            giving each element of the stack its own.
        x_prev: state estimate at time k-1 (transition Jacobian point),
            shape (..., n).
        x_new: state estimate at time k (measurement Jacobian point); when
            omitted, the noise-free transition of x_prev is used.

    Returns:
        FimTriple of the point-evaluated terms.
    """
    x_prev = np.atleast_1d(np.asarray(x_prev, float))
    if x_new is None:
        x_new = model.transition(k, x_prev)
    x_new = np.atleast_1d(np.asarray(x_new, float))
    q_inv = model.process_precision
    r_inv = model.meas_precision
    f_jac = model.transition_jacobian(k, x_prev)
    h_jac = model.measurement_jacobian(k, x_new)
    return FimTriple(d11=f_jac.mT @ q_inv @ f_jac,
                     d12=-f_jac.mT @ q_inv,
                     d22=q_inv + h_jac.mT @ r_inv @ h_jac)


class _TaylorIngredients(NamedTuple):
    state_moments: object
    meas_moments: object
    state_derivs: object
    meas_derivs: object
    f_jac: np.ndarray
    h_jac: np.ndarray
    q_inv: np.ndarray
    r_inv: np.ndarray


def _ingredients(model: SystemModel, k, state_belief: GaussianBelief,
                 meas_belief: Optional[GaussianBelief]) -> _TaylorIngredients:
    sm = propagate_state_moments(model, k, state_belief)
    if meas_belief is None:
        meas_belief = GaussianBelief(sm.mean, sm.cov)
    zm = propagate_measurement_moments(model, k, meas_belief)
    return _TaylorIngredients(
        state_moments=sm,
        meas_moments=zm,
        state_derivs=state_moment_map_derivatives(model, k, state_belief),
        meas_derivs=measurement_moment_map_derivatives(model, k, meas_belief),
        f_jac=model.transition_jacobian(k, state_belief.mean),
        h_jac=model.measurement_jacobian(k, meas_belief.mean),
        q_inv=model.process_precision,
        r_inv=model.meas_precision,
    )


def _trace_gram(precision: np.ndarray, dcov: np.ndarray) -> np.ndarray:
    """Matrix with entries 0.5 tr(P^-1 dcov_i P^-1 dcov_j).

    precision has shape (..., m, m) and dcov (..., n_in, m, m).
    """
    prods = precision[..., None, :, :] @ dcov
    return 0.5 * np.einsum("...iab,...jba->...ij", prods, prods)


def mean_cov_terms(model: SystemModel, k, state_belief: GaussianBelief,
                   meas_belief: Optional[GaussianBelief] = None) -> FimTriple:
    """Step terms from the Gaussian densities fitted by Taylor propagation.

    Each conditional density is replaced by a Gaussian whose mean and
    covariance are functions of the conditioning point (belief covariance
    frozen); the information blocks are then the standard Gaussian quadratic
    forms in the moment-map derivatives plus the covariance trace terms.

    Args:
        model: the system model.
        k: target time of the step, an int or an integer array (..., 1).
        state_belief: belief about the state at time k-1 (state channel).
        meas_belief: belief about the state at time k feeding the measurement
            channel; defaults to the propagated state belief.

    Returns:
        FimTriple of the mean+cov terms.
    """
    ing = _ingredients(model, k, state_belief, meas_belief)
    px_inv = spd_inverse(ing.state_moments.cov)
    pz_inv = spd_inverse(ing.meas_moments.cov)
    dmean_x = ing.state_derivs.dmean
    dmean_z = ing.meas_derivs.dmean
    d11 = symmetrize(dmean_x.mT @ px_inv @ dmean_x
                     + _trace_gram(px_inv, ing.state_derivs.dcov))
    d12 = -dmean_x.mT @ px_inv
    d22 = symmetrize(px_inv + dmean_z.mT @ pz_inv @ dmean_z
                     + _trace_gram(pz_inv, ing.meas_derivs.dcov))
    return FimTriple(d11=d11, d12=d12, d22=d22)


def _psi(noise_cov: np.ndarray, signal_cov: np.ndarray) -> np.ndarray:
    """Correction term with (noise + signal)^-1 = noise^-1 - psi.

    A signal covariance negligible against the noise covariance yields an
    exactly zero correction instead of a grossly ill-conditioned inverse.
    """
    zero = (np.linalg.norm(signal_cov, axis=(-2, -1))
            < PSI_ZERO_THRESHOLD * np.linalg.norm(noise_cov, axis=(-2, -1)))[..., None, None]
    # zero elements invert the noise covariance instead and are discarded
    signal = np.where(zero, noise_cov, symmetrize(signal_cov))
    inner = symmetrize(noise_cov @ spd_inverse(signal) @ noise_cov)
    return np.where(zero, 0.0, spd_inverse(inner + noise_cov))


def decompose_terms(model: SystemModel, k, state_belief: GaussianBelief,
                    meas_belief: Optional[GaussianBelief] = None) -> DecomposedFim:
    """Split the mean+cov step terms into mean-only blocks plus corrections.

    The propagated precisions are expanded with the inversion-lemma split
    (P)^-1 = noise^-1 - psi, after which every term either depends only on
    the evaluation points (mean_* blocks, identical to what mean_only_terms
    produces there) or carries belief covariance (spread_* blocks).

    Args:
        model: the system model.
        k: target time of the step, an int or an integer array (..., 1).
        state_belief: belief about the state at time k-1.
        meas_belief: belief about the state at time k for the measurement
            channel; defaults to the propagated state belief.

    Returns:
        DecomposedFim whose block sums equal mean_cov_terms on the same
        beliefs up to rounding.
    """
    ing = _ingredients(model, k, state_belief, meas_belief)
    q_inv, r_inv = ing.q_inv, ing.r_inv
    f_jac, h_jac = ing.f_jac, ing.h_jac
    psi_state = _psi(model.process_cov, ing.state_moments.signal_cov)
    psi_meas = _psi(model.meas_cov, ing.meas_moments.signal_cov)

    dmean_x = ing.state_derivs.dmean
    dcurv_x = ing.state_derivs.dcurv_mean
    dmean_z = ing.meas_derivs.dmean
    dcurv_z = ing.meas_derivs.dcurv_mean
    px_inv = q_inv - psi_state
    pz_inv = r_inv - psi_meas

    mean_11 = symmetrize(f_jac.mT @ q_inv @ f_jac)
    mean_12 = -f_jac.mT @ q_inv
    mean_22 = symmetrize(q_inv + h_jac.mT @ r_inv @ h_jac)

    spread_11 = symmetrize(_trace_gram(px_inv, ing.state_derivs.dcov)
                           + dcurv_x.mT @ q_inv @ f_jac
                           + dmean_x.mT @ q_inv @ dcurv_x
                           - dmean_x.mT @ psi_state @ dmean_x)
    spread_12 = dmean_x.mT @ psi_state - dcurv_x.mT @ q_inv
    spread_22 = symmetrize(_trace_gram(pz_inv, ing.meas_derivs.dcov)
                           - psi_state
                           + dcurv_z.mT @ r_inv @ h_jac
                           + dmean_z.mT @ r_inv @ dcurv_z
                           - dmean_z.mT @ psi_meas @ dmean_z)
    return DecomposedFim(mean_11=mean_11, mean_12=mean_12, mean_22=mean_22,
                         spread_11=spread_11, spread_12=spread_12,
                         spread_22=spread_22,
                         psi_state=psi_state, psi_meas=psi_meas)


def fim_via_decomposition(j_prev: np.ndarray, parts: DecomposedFim) -> FimState:
    """Advance the information matrix through the decomposed form.

    Computes theta (the mean-only update of j_prev) and pi (the total
    covariance-induced correction) so that j = theta + pi.  pi needs
    anchor^-1 - (anchor + spread_11)^-1 with anchor = j_prev + mean_11, which
    is the product anchor^-1 spread_11 (j_prev + d11)^-1 of two inverses the
    step computes anyway, for any spread_11, singular ones included.

    Args:
        j_prev: previous information matrix, shape (..., n, n).
        parts: decomposed step terms.

    Returns:
        FimState with j, theta and pi.
    """
    j_prev = symmetrize(np.atleast_2d(np.asarray(j_prev, float)))
    anchor_inv = spd_inverse(symmetrize(j_prev + parts.mean_11))
    theta = symmetrize(parts.mean_22 - parts.mean_12.mT @ anchor_inv @ parts.mean_12)

    d12 = parts.d12()
    full_inv = spd_inverse(symmetrize(j_prev + parts.d11()))
    # (j_prev + d11)^-1 = anchor^-1 - shift
    shift = anchor_inv @ parts.spread_11 @ full_inv
    pi = symmetrize(parts.spread_22
                    - d12.mT @ full_inv @ parts.spread_12
                    - (parts.spread_12.mT @ full_inv - parts.mean_12.mT @ shift) @ parts.mean_12)
    return FimState(j=symmetrize(theta + pi), theta=theta, pi=pi)


def pcrlb_from_theta_pi(theta: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Bound (theta + pi)^-1 on the error covariance."""
    theta = np.atleast_2d(np.asarray(theta, float))
    return spd_inverse(symmetrize(theta + np.asarray(pi, float)))


def bound_difference(j_star: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, int]:
    """Gap between the mean-only bound and the mean+cov bound.

    Evaluates j_star^-1 - (j_star + pi)^-1 as the product
    j_star^-1 pi (j_star + pi)^-1, which needs no inverse of pi, is exactly
    zero where pi is, and carries no cancellation between two inverses.

    Returns:
        (gap matrix, 0).  The 0 is read only by perfbench/tracing.py's
        bound_difference note.
    """
    j_star = symmetrize(np.atleast_2d(np.asarray(j_star, float)))
    pi = symmetrize(np.atleast_2d(np.asarray(pi, float)))
    gap = spd_inverse(j_star) @ pi @ spd_inverse(symmetrize(j_star + pi))
    return symmetrize(gap), 0
