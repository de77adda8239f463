"""Recursive Fisher information for the posterior Cramer-Rao lower bound.

The bound on the error covariance of any estimator of x_k is J_k^-1, where
the information matrix follows the recursion

    J_k = D22 - D12' (J_{k-1} + D11)^-1 D12,        J_0 = P_0^-1

with step terms, for additive Gaussian noise, the expectations

    D11 = E[F' Q^-1 F]      F: transition Jacobian at the time-(k-1) state
    D12 = -E[F'] Q^-1
    D22 = Q^-1 + E[H' R^-1 H]   H: measurement Jacobian at the time-k state.

``_expected_terms`` takes them as equally weighted means over nodes (F at
nodes for time k-1, H at nodes for time k).  Each engine takes the beliefs or
states its caller gives it for the two times and supplies none of its own;
the experiment harness decides which filter beliefs those are.  The engines
differ in the measure:

* ``true_fim_terms_mc``: R equally weighted true states (the reference bound).
* ``mean_only_terms``: a point mass at each filter estimate, one node.
* ``mean_cov_terms``: each filter belief N(m, P) as the third-degree cubature
  rule, 2n equally weighted nodes m +- sqrt(n) S e_i with S S' = P, the
  derivative-free form of the second-order Taylor expectation over the
  belief.

``decompose_terms`` gives the two term triples of the same beliefs: point,
the mean-only terms at the belief means, and full, the mean+cov terms; the
spread full - point is everything the belief covariance adds.  There is one
recursion: each bound is ``fim_recursion_series`` over its own terms, the
mean+cov bound over full.  ``fim_via_decomposition`` analyses a step of that
chain from J_{k-1} and the pair: theta, the mean-only update of J_{k-1}, and
pi, every covariance correction, with theta + pi = J_k up to rounding; given
J_{k-1} for every step it splits a whole chain in one call.
The difference of two inverses in pi and in the gap between the two
approximate bounds is evaluated with the product identity

    A^-1 - (A + S)^-1 = A^-1 S (A + S)^-1

(Henderson & Searle, SIAM Review 23(1), 1981), so nothing beyond the
inverses the step already holds is inverted and S may be singular:
``bound_difference`` gives the gap theta^-1 pi J^-1 from the two inverses
its caller holds.  The bound itself is J^-1, ``spd_inverse`` of J.

``initial_fim`` starts the recursion at the precision of the model's prior,
a ``pcrlb.model.GaussianBelief`` like every belief the engines take.

Every engine also takes stacks: beliefs, states and information matrices with
leading axes (..., n) / (..., n, n) give terms and states of the same leading
shape, computed for the whole stack in one batched pass (``true_fim_terms_mc``
averages states (..., R, n) over R).  The term engines also take the time
index k as an integer array broadcast against the stack, as ``pcrlb.model``
describes ((..., 1) for beliefs (R, T, n), (T, 1, 1) for states (T, R, n)):
the maps and their derivatives are evaluated at each element's own k, and the
time-constant noise precisions are shared, so the terms of every step come
from one call; none of them depends on J.  ``fim_recursion_series`` runs the
recursion over such terms (..., T, n, n) along the step axis, with the
arithmetic and the checks of the one-step call; every leading axis is a batch
axis, so chains stacked on one more leading axis, (C, ..., T, n, n), all step
in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _check_finite, _spd_inverse, spd_inverse, symmetrize
from .model import GaussianBelief, SystemModel

__all__ = [
    "FimTriple",
    "DecomposedFim",
    "FimState",
    "initial_fim",
    "fim_recursion_step",
    "fim_recursion_series",
    "true_fim_terms_mc",
    "mean_only_terms",
    "mean_cov_terms",
    "decompose_terms",
    "fim_via_decomposition",
    "bound_difference",
]

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
    """The two term triples of one set of beliefs: point, the mean-only terms
    at the belief means, and full, the mean+cov terms.  full - point, block
    by block, is everything the belief covariance adds."""

    point: FimTriple
    full: FimTriple


@dataclass(frozen=True)
class FimState:
    """Information state of one step split as j = theta + pi."""

    j: np.ndarray
    theta: np.ndarray
    pi: np.ndarray

    @property
    def pi_fallback(self) -> int:
        # always 0: pi needs no fallback.  perfbench/tracing.py reads it on
        # every traced fim_via_decomposition call, so it stays.
        return 0


def initial_fim(prior: GaussianBelief) -> np.ndarray:
    """J_0 for a Gaussian prior: the prior precision."""
    return spd_inverse(prior.cov)


def _inverse(m: np.ndarray) -> np.ndarray:
    """spd_inverse of j_prev + d11 without the symmetry test: both terms are symmetric."""
    return _spd_inverse(_check_finite(m, "m"))


def _recursion_step(j_prev, d11, d12, d22) -> np.ndarray:
    return symmetrize(d22 - d12.mT @ _inverse(j_prev + d11) @ d12)


def fim_recursion_step(j_prev: np.ndarray, terms: FimTriple) -> np.ndarray:
    """Advance the information matrix (or a stack of them) by one step."""
    j_prev = symmetrize(np.atleast_2d(np.asarray(j_prev, float)))
    return _recursion_step(j_prev, terms.d11, terms.d12, terms.d22)


def fim_recursion_series(j0: np.ndarray, terms: FimTriple) -> np.ndarray:
    """J_1..J_T from J_0 and terms (..., T, n, n): fim_recursion_step over axis -3.

    Each step is one call over every leading axis, and every element recurses
    on its own, so a stack of independent chains, on any leading axes (chain,
    estimator, run), steps in T calls and gives each chain the bytes it gets
    alone.  A failing element raises what its step raises: a NumericError names
    the smallest eigenvalue of that step's whole stack.
    """
    j, series = symmetrize(np.atleast_2d(np.asarray(j0, float))), []
    for k in range(terms.d11.shape[-3]):
        j = _recursion_step(j, terms.d11[..., k, :, :], terms.d12[..., k, :, :],
                            terms.d22[..., k, :, :])
        series.append(j)
    return np.stack(series, axis=-3)


def _expected_terms(model: SystemModel, k, nodes_prev, nodes_new) -> FimTriple:
    """The step terms as equally weighted means over the nodes (..., M, n) on axis
    -2: F at nodes_prev (time k-1), H at nodes_new; k an int or array (..., 1, 1)."""
    q_inv = model.process_precision
    f_jac = model.transition_jacobian(k, nodes_prev)
    h_jac = model.measurement_jacobian(k, nodes_new)
    return FimTriple(d11=(f_jac.mT @ q_inv @ f_jac).mean(axis=-3),
                     d12=-f_jac.mean(axis=-3).mT @ q_inv,
                     d22=q_inv + (h_jac.mT @ model.meas_precision @ h_jac).mean(axis=-3))


def true_fim_terms_mc(model: SystemModel, k, states_prev: np.ndarray,
                      states_new: np.ndarray) -> FimTriple:
    """Monte Carlo step terms for advancing onto time k.

    Args:
        model: the system model.
        k: target time of the step (uses transition(k, .) and measure(k, .));
            an int or an integer array (..., 1, 1), one per step of a stack.
        states_prev: true states at time k-1, shape (..., R, n).
        states_new: true states at time k, shape (..., R, n).

    Returns:
        FimTriple (..., n, n) of the sample means over the R trajectories.
    """
    states_prev = np.atleast_2d(np.asarray(states_prev, float))
    states_new = np.atleast_2d(np.asarray(states_new, float))
    if states_prev.shape != states_new.shape:
        raise ValueError("states_prev and states_new must have matching shapes")
    if states_prev.shape[-2] < 1:
        raise ValueError("at least one trajectory sample is required")
    return _expected_terms(model, k, states_prev, states_new)


def mean_only_terms(model: SystemModel, k, x_prev: np.ndarray,
                    x_new: np.ndarray) -> FimTriple:
    """Step terms with expectations collapsed onto point estimates.

    Args:
        model: the system model.
        k: target time of the step, an int or an integer array (..., 1)
            giving each element of the stack its own.
        x_prev: state estimate at time k-1 (transition Jacobian point),
            shape (..., n).
        x_new: state estimate at time k (measurement Jacobian point),
            shape (..., n).

    Returns:
        FimTriple of the point-evaluated terms: _expected_terms on one node
        per estimate, whose mean over the length-1 node axis is exact.
    """
    x_prev = np.atleast_1d(np.asarray(x_prev, float))
    x_new = np.atleast_1d(np.asarray(x_new, float))
    k = np.asarray(k)[..., None] if np.ndim(k) else k
    return _expected_terms(model, k, x_prev[..., None, :], x_new[..., None, :])


def _cubature_nodes(belief: GaussianBelief) -> np.ndarray:
    """The 2n nodes mean +- sqrt(n) S e_i of each belief, (..., 2n, n), with
    S = V sqrt(max(w, 0)) from P = V diag(w) V': S S' = P for any PSD P, a
    rounding-negative eigenvalue is no spread, and a 1 x 1 P gives sqrt(P)."""
    eigs, vectors = np.linalg.eigh(belief.cov)
    root = vectors * np.sqrt(np.maximum(eigs, 0.0))[..., None, :]
    wings = np.sqrt(belief.dim) * root.mT  # row i is sqrt(n) S e_i
    center = belief.mean[..., None, :]
    return np.concatenate([center + wings, center - wings], axis=-2)


def mean_cov_terms(model: SystemModel, k, state_belief: GaussianBelief,
                   meas_belief: GaussianBelief) -> FimTriple:
    """Step terms as expectations over the two filter beliefs.

    Each belief N(m, P) is taken as the third-degree cubature rule
    (Arasaratnam & Haykin, IEEE TAC 54(6), 2009), the 2n nodes
    m +- sqrt(n) S e_i with S S' = P, each of weight 1/(2n): the unscented
    transform with alpha = 1, beta = kappa = 0 without its zero-weight
    centre.  In one dimension 0.5 [g(m + s) + g(m - s)] = g(m) + 0.5 g'' s^2
    + O(s^4) with s^2 = P, the second-order Taylor expectation.

    Args:
        model: the system model.
        k: target time of the step, an int or an integer array (..., 1).
        state_belief: belief about the state at time k-1 (state channel).
        meas_belief: belief about the state at time k (measurement channel).

    Returns:
        FimTriple of the mean+cov terms.
    """
    k = np.asarray(k)[..., None] if np.ndim(k) else k
    return _expected_terms(model, k, _cubature_nodes(state_belief),
                           _cubature_nodes(meas_belief))


def decompose_terms(model: SystemModel, k, state_belief: GaussianBelief,
                    meas_belief: GaussianBelief) -> DecomposedFim:
    """The point and full term triples of the same two beliefs.

    Args:
        model: the system model.
        k: target time of the step, an int or an integer array (..., 1).
        state_belief: belief about the state at time k-1.
        meas_belief: belief about the state at time k (measurement channel).

    Returns:
        DecomposedFim(mean_only_terms at the means, mean_cov_terms).
    """
    return DecomposedFim(mean_only_terms(model, k, state_belief.mean, meas_belief.mean),
                         mean_cov_terms(model, k, state_belief, meas_belief))


def fim_via_decomposition(j_prev: np.ndarray, parts: DecomposedFim) -> FimState:
    """Split the recursion step from j_prev over the point and full terms.

    Computes theta (the mean-only update of j_prev over parts.point) and pi
    (the total covariance-induced correction) so that j = theta + pi is the
    step fim_recursion_step takes over parts.full, up to rounding.  With
    spread_XY = full.dXY - point.dXY, pi needs anchor^-1 - (anchor +
    spread_11)^-1 with anchor = j_prev + point.d11, which is the product
    anchor^-1 spread_11 (j_prev + full.d11)^-1 of two inverses the step
    computes anyway, for any spread_11, singular ones included.  Every
    element of a stack is split on its own, so j_prev (R, T, n, n) holding
    J_0..J_{T-1} of a chain splits all its steps in one call.

    Args:
        j_prev: previous information matrix, shape (..., n, n).
        parts: the point and full step terms.

    Returns:
        FimState with j, theta and pi.
    """
    j_prev = symmetrize(np.atleast_2d(np.asarray(j_prev, float)))
    point, full = parts.point, parts.full
    spread_12 = full.d12 - point.d12
    anchor_inv = _inverse(j_prev + point.d11)
    theta = symmetrize(point.d22 - point.d12.mT @ anchor_inv @ point.d12)
    full_inv = _inverse(j_prev + full.d11)
    # (j_prev + d11)^-1 = anchor^-1 - shift
    shift = anchor_inv @ (full.d11 - point.d11) @ full_inv
    pi = symmetrize((full.d22 - point.d22) - full.d12.mT @ full_inv @ spread_12
                    - (spread_12.mT @ full_inv - point.d12.mT @ shift) @ point.d12)
    return FimState(theta + pi, theta, pi)


def bound_difference(theta_inv: np.ndarray, pi: np.ndarray,
                     j_inv: np.ndarray) -> tuple[np.ndarray, int]:
    """Gap between the mean-only bound and the mean+cov bound.

    Evaluates theta^-1 - (theta + pi)^-1 as the product theta^-1 pi J^-1
    with J = theta + pi, from the two inverses the caller holds: it needs no
    inverse of pi, is exactly zero where pi is, and carries no cancellation
    between two inverses.

    Args:
        theta_inv: theta^-1, shape (..., n, n).
        pi: the covariance correction, shape (..., n, n).
        j_inv: (theta + pi)^-1, shape (..., n, n).

    Returns:
        (gap matrix, 0).  The 0 counts fallbacks, of which there are none;
        perfbench/tracing.py reads it on every traced call, so it stays.
    """
    return symmetrize(theta_inv @ pi @ j_inv), 0
