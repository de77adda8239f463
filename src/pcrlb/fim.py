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
collects every covariance correction.  ``pcrlb_from_theta_pi`` and
``bound_difference`` evaluate the bound and the gap between the two
approximations directly from (theta, pi) without subtracting two inverses.

Every engine also takes stacks: beliefs, states and information matrices with
leading axes (..., n) / (..., n, n) give terms and states of the same leading
shape, computed for the whole stack in one batched pass.  Per-element
fallbacks are decided element by element.  The point and Taylor engines
(``mean_only_terms``, ``mean_cov_terms``, ``decompose_terms``) also take the
time index k as an integer array (..., 1) broadcast against the stack, as
``pcrlb.model`` describes, so the terms of every step of a (R, T, n) stack of
beliefs come from one call; none of them depends on J.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .linalg import inv_lemma_split, spd_inverse, symmetrize
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
    "ill_conditioned",
    "spd_inverse",
    "inv_lemma_split",
]

# Signal covariances with Frobenius norm below this fraction of the noise
# covariance norm are treated as exactly zero when forming the lemma split.
PSI_ZERO_THRESHOLD = 1e-12

# Condition-number ceiling past which the explicit split/lemma paths fall
# back to direct formulas.
_COND_LIMIT = 1e12


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
    """Information state after one decomposed recursion step.

    fallback marks, per stack element, a pi that came from the direct
    recursion instead of the explicit formula; pi_fallback counts them.
    """

    j: np.ndarray
    theta: Optional[np.ndarray] = None
    pi: Optional[np.ndarray] = None
    fallback: np.ndarray = np.False_

    @property
    def pi_fallback(self) -> int:
        return int(np.count_nonzero(self.fallback))


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
    q_inv = model.process_precision_at(k)
    r_inv = model.meas_precision_at(k)
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
    q_inv = model.process_precision_at(k)
    r_inv = model.meas_precision_at(k)
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
        q_inv=model.process_precision_at(k),
        r_inv=model.meas_precision_at(k),
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


def _as_mask(mask: np.ndarray) -> np.ndarray:
    """Per-element flags broadcast against (..., n, n) matrices."""
    return mask[..., None, None]


def _psi(noise_cov: np.ndarray, signal_cov: np.ndarray) -> np.ndarray:
    """Correction term with (noise + signal)^-1 = noise^-1 - psi.

    A signal covariance negligible against the noise covariance yields an
    exactly zero correction instead of a grossly ill-conditioned inverse.
    """
    zero = _as_mask(np.linalg.norm(signal_cov, axis=(-2, -1))
                    < PSI_ZERO_THRESHOLD * np.linalg.norm(noise_cov, axis=(-2, -1)))
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
    psi_state = _psi(model.process_cov_at(k), ing.state_moments.signal_cov)
    psi_meas = _psi(model.meas_cov_at(k), ing.meas_moments.signal_cov)

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


def ill_conditioned(m: np.ndarray) -> np.ndarray:
    """Per-element flag: condition number above the explicit-formula ceiling.

    Singular elements (infinite or undefined condition number) count as ill
    conditioned.  This is the test that sends fim_via_decomposition,
    pcrlb_from_theta_pi and bound_difference to their direct fallbacks.
    """
    return ~(np.linalg.cond(m) <= _COND_LIMIT)


def fim_via_decomposition(j_prev: np.ndarray, parts: DecomposedFim) -> FimState:
    """Advance the information matrix through the decomposed form.

    Computes theta (the mean-only update of j_prev) and pi (the total
    covariance-induced correction) so that j = theta + pi.  The explicit pi
    formula needs spread_11 invertible; where it is singular or grossly
    ill-conditioned, pi falls back to the difference between the direct
    recursion and theta, and the element is flagged.

    Args:
        j_prev: previous information matrix, shape (..., n, n).
        parts: decomposed step terms.

    Returns:
        FimState with j, theta, pi, and the per-element fallback flags.
    """
    j_prev = symmetrize(np.atleast_2d(np.asarray(j_prev, float)))
    anchor = symmetrize(j_prev + parts.mean_11)
    anchor_inv = spd_inverse(anchor)
    theta = symmetrize(parts.mean_22 - parts.mean_12.mT @ anchor_inv @ parts.mean_12)

    d11, d12 = parts.d11(), parts.d12()
    full_inv = spd_inverse(symmetrize(j_prev + d11))

    fallback = ill_conditioned(parts.spread_11)
    # fallback elements run the lemma on the identity instead and are discarded
    spread_11 = np.where(_as_mask(fallback), np.eye(anchor.shape[-1]), parts.spread_11)
    # (j_prev + d11)^-1 = anchor^-1 - shift, via the lemma on anchor + spread_11.
    shift = np.linalg.inv(symmetrize(anchor @ np.linalg.inv(spread_11) @ anchor) + anchor)
    pi = symmetrize(parts.spread_22
                    - d12.mT @ full_inv @ parts.spread_12
                    - (parts.spread_12.mT @ full_inv - parts.mean_12.mT @ shift) @ parts.mean_12)
    j = symmetrize(theta + pi)
    if fallback.any():
        direct = fim_recursion_step(j_prev, FimTriple(d11, d12, parts.d22()))
        pi = np.where(_as_mask(fallback), symmetrize(direct - theta), pi)
        j = np.where(_as_mask(fallback), direct, j)
    return FimState(j=j, theta=theta, pi=pi, fallback=fallback)


def pcrlb_from_theta_pi(theta: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, int]:
    """Bound (theta + pi)^-1 evaluated through the inversion-lemma form.

    Uses J^-1 = theta^-1 - (pi^-1 theta + I)^-1 theta^-1 where pi is usable;
    a singular or ill-conditioned pi falls back to the direct inverse.

    Returns:
        (bound matrix, number of elements that took the direct fallback).
    """
    theta = symmetrize(np.atleast_2d(np.asarray(theta, float)))
    pi = symmetrize(np.atleast_2d(np.asarray(pi, float)))
    eye = np.eye(pi.shape[-1])
    theta_inv = spd_inverse(theta)
    fallback = ill_conditioned(pi)
    usable = np.where(_as_mask(fallback), eye, pi)
    ratio = np.linalg.solve(usable, theta)
    bound = theta_inv - np.linalg.inv(ratio + eye) @ theta_inv
    if fallback.any():
        direct = spd_inverse(symmetrize(theta + np.where(_as_mask(fallback), pi, 0.0)))
        bound = np.where(_as_mask(fallback), direct, bound)
    return symmetrize(bound), int(np.count_nonzero(fallback))


def bound_difference(j_star: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, int]:
    """Gap between the mean-only bound and the mean+cov bound.

    Evaluates (pi^-1 j_star + I)^-1 j_star^-1, which equals
    j_star^-1 - (j_star + pi)^-1 without the subtraction of two inverses.
    A singular pi (including the no-correction limit pi -> 0) falls back to
    the direct subtraction, which is then exactly zero in that limit.

    Returns:
        (gap matrix, number of elements that took the direct fallback).
    """
    j_star = symmetrize(np.atleast_2d(np.asarray(j_star, float)))
    pi = symmetrize(np.atleast_2d(np.asarray(pi, float)))
    eye = np.eye(pi.shape[-1])
    j_star_inv = spd_inverse(j_star)
    fallback = ill_conditioned(pi)
    usable = np.where(_as_mask(fallback), eye, pi)
    ratio = np.linalg.solve(usable, j_star)
    gap = np.linalg.inv(ratio + eye) @ j_star_inv
    if fallback.any():
        direct = j_star_inv - spd_inverse(
            symmetrize(j_star + np.where(_as_mask(fallback), pi, 0.0)))
        gap = np.where(_as_mask(fallback), direct, gap)
    return symmetrize(gap), int(np.count_nonzero(fallback))
