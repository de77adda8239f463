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

``decompose_terms`` splits each mean+cov term into the mean-only part plus a
covariance-induced correction: the mean-only terms at the belief means, and
the spread, which is the mean+cov terms minus those point terms.
``fim_via_decomposition`` rebuilds the recursion from that split as
J = theta + pi, where theta is the mean-only update and pi collects every
covariance correction.  The difference of two inverses in pi and in the gap
between the two approximate bounds is evaluated with the product identity

    A^-1 - (A + S)^-1 = A^-1 S (A + S)^-1

(Henderson & Searle, SIAM Review 23(1), 1981), so nothing beyond the
inverses the recursion already holds is inverted and S may be singular:
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
from one call; none of them depends on J.  ``fim_recursion_series`` and
``fim_decomposition_series`` run the recursion over such terms (..., T, n, n)
along the step axis in one call per chain, with the arithmetic and the checks
of the one-step calls.
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
    "fim_decomposition_series",
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
    """Mean+cov step terms split into mean-only blocks plus corrections.

    mean_* are the blocks the mean-only engine produces at the belief means;
    spread_* are the mean+cov blocks minus those, i.e. everything the belief
    covariance adds.  Block sums mean_* + spread_* reproduce the mean+cov
    terms up to rounding.  The 11 and 22 blocks are symmetrized on construction.
    """

    mean_11: np.ndarray
    mean_12: np.ndarray
    mean_22: np.ndarray
    spread_11: np.ndarray
    spread_12: np.ndarray
    spread_22: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mean_11", "mean_22", "spread_11", "spread_22"):
            object.__setattr__(self, name, symmetrize(np.asarray(getattr(self, name), float)))

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


def initial_fim(prior: GaussianBelief) -> np.ndarray:
    """J_0 for a Gaussian prior: the prior precision."""
    return spd_inverse(prior.cov)


def _series(step, j0: np.ndarray, terms: tuple) -> list:
    """Run step(j_prev, *terms at step k) -> (J_k, *more) over the step axis -3
    of the terms from J_0; each output comes back stacked, (..., T, n, n)."""
    rows = [(symmetrize(np.atleast_2d(np.asarray(j0, float))),)]
    for k in range(terms[0].shape[-3]):
        rows.append(step(rows[-1][0], *(term[..., k, :, :] for term in terms)))
    return [np.stack(series, axis=-3) for series in zip(*rows[1:])]


def _inverse(m: np.ndarray) -> np.ndarray:
    """spd_inverse of j_prev + d11 without the symmetry test: both terms are symmetric."""
    return _spd_inverse(_check_finite(m, "m"))


def _recursion_step(j_prev, d11, d12, d22) -> tuple[np.ndarray]:
    return (symmetrize(d22 - d12.mT @ _inverse(j_prev + d11) @ d12),)


def fim_recursion_step(j_prev: np.ndarray, terms: FimTriple) -> np.ndarray:
    """Advance the information matrix (or a stack of them) by one step."""
    j_prev = symmetrize(np.atleast_2d(np.asarray(j_prev, float)))
    return _recursion_step(j_prev, terms.d11, terms.d12, terms.d22)[0]


def fim_recursion_series(j0: np.ndarray, terms: FimTriple) -> np.ndarray:
    """J_1..J_T from J_0 and terms (..., T, n, n): fim_recursion_step over axis -3."""
    return _series(_recursion_step, j0, (terms.d11, terms.d12, terms.d22))[0]


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
    """Split the mean+cov step terms into mean-only blocks plus corrections.

    The mean_* blocks are mean_only_terms at the two beliefs' means; each
    spread_* block is the mean+cov term minus its point term.  Both are
    symmetric where the term is: FimTriple symmetrizes d11 and d22, and the
    difference of two symmetric matrices is symmetric.

    Args:
        model: the system model.
        k: target time of the step, an int or an integer array (..., 1).
        state_belief: belief about the state at time k-1.
        meas_belief: belief about the state at time k (measurement channel).

    Returns:
        DecomposedFim whose block sums equal mean_cov_terms on the same
        beliefs up to rounding.
    """
    point = mean_only_terms(model, k, state_belief.mean, meas_belief.mean)
    full = mean_cov_terms(model, k, state_belief, meas_belief)
    return DecomposedFim(mean_11=point.d11, mean_12=point.d12, mean_22=point.d22,
                         spread_11=full.d11 - point.d11, spread_12=full.d12 - point.d12,
                         spread_22=full.d22 - point.d22)


def _decomposed_step(j_prev, mean_11, mean_12, mean_22, spread_11, spread_12, spread_22,
                     d11, d12) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    anchor_inv = _inverse(j_prev + mean_11)
    theta = symmetrize(mean_22 - mean_12.mT @ anchor_inv @ mean_12)
    full_inv = _inverse(j_prev + d11)
    # (j_prev + d11)^-1 = anchor^-1 - shift
    shift = anchor_inv @ spread_11 @ full_inv
    pi = symmetrize(spread_22 - d12.mT @ full_inv @ spread_12
                    - (spread_12.mT @ full_inv - mean_12.mT @ shift) @ mean_12)
    return theta + pi, theta, pi


def _decomposed_terms(parts: DecomposedFim) -> tuple:
    return (parts.mean_11, parts.mean_12, parts.mean_22, parts.spread_11, parts.spread_12,
            parts.spread_22, parts.d11(), parts.d12())


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
    return FimState(*_decomposed_step(j_prev, *_decomposed_terms(parts)))


def fim_decomposition_series(j0: np.ndarray, parts: DecomposedFim) -> FimState:
    """j, theta, pi (..., T, n, n) from J_0: fim_via_decomposition over axis -3."""
    return FimState(*_series(_decomposed_step, j0, _decomposed_terms(parts)))


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
        (gap matrix, 0).  The 0 is read only by perfbench/tracing.py's
        bound_difference note.
    """
    return symmetrize(theta_inv @ pi @ j_inv), 0
