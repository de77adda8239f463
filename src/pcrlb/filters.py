"""Bayesian filters: unscented Kalman filter and bootstrap particle filter.

Both filters report, at every step k = 1..T, the predicted belief (prior to
the measurement update) and the posterior belief.  The bound engines consume
these beliefs; which one feeds which channel is the harness's decision.

Every routine takes leading run axes: a UKF belief may be a stack of beliefs
(..., n) and (..., n, n), a particle cloud a stack of clouds (..., N, n), and
``run_ukf``/``run_pf`` take a stack of measurement sequences (..., T, m).  One
step is then one batched numpy call per operation for all runs, and each
element of a stack gets the bytes the single-run call gives it.  ``run_pf`` is
the particle filter's only entry: its step is a closure over the run's
invariants (Q's factor, R's ``_loglik_terms``, the generators and the
resampling kernel's work buffer, all made once per call) that carries the
clouds as plain (states, weights) arrays.  The step makes only the arrays its
result needs: scalar process noise is scaled in place (the one product of a
1 x 1 matmul), and all clouds are resampled by one exact O(N) count and scan
(``_resample_indices``) whose gather indices draw the particles straight from
the flattened stack; when every cloud resamples, the drawn particles are the
new clouds without a copy back.  Inputs are validated at the public boundary
only (``systematic_resample``, and ``run_pf``, which checks the resample
policy, the seeds and the particle count once per call); inside a run the
step trusts what it has just made.  Its weights are normalized by
construction, so the kernel runs without checks and clips only each cloud's
last column.  Non-finite log-weights are found on the per-cloud maxima that
the max subtraction needs (a NaN propagates to its cloud's maximum, and +inf
is it).  ``run_pf`` carries whether every cloud's weights are equal, as after
the prior draw and after a step where every cloud resampled; then one
logarithm per cloud serves.  A stack of 1 x 1 covariances is factored by one
square root behind potrf's own test, m > 0 (``linalg._cholesky``), so a
scalar particle filter runs LAPACK only on the prior and Q, once per call.
The sigma-point spread and weights are built once per (n, ``UTParams``) and
cached read-only (``_ut_weights``).  Every cloud's randomness comes from that
run's own Generator, in the order of the single-run filter (prior cloud, then
per step the process noise followed by the resampling uniform), so a run
never depends on the rest of its stack.  A stacked call raises the first
error of any of its runs, as a single-run call does; the harness reruns the
others without it (``pcrlb.experiment``).  The beliefs built inside skip the
public constructor's checks: their covariances have just been factored.

Both filters count their numeric health per run: covariance repairs by
``regularize_cov``, the package's only diagonal-jitter repair, and for the
particle filter resampling events, likelihood collapses and the smallest
effective sample size.  The particle likelihood whitens the residuals with
the inverse of R's Cholesky factor for m > 1, and for m = 1 divides by the
factor twice as LAPACK potrs does.  Everything runs on numpy alone.

A closed-form Kalman step for linear models rides along as the oracle used by
the CLI selftest.  Randomness is always drawn from a caller-supplied seed or
numpy Generator, so every routine is reproducible bit for bit.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import NumericError, _cholesky, _cholesky_inverse, spd_inverse, symmetrize
from .model import GaussianBelief, SystemModel, _unchecked

__all__ = [
    "UTParams",
    "SigmaPointSet",
    "FilterOutput",
    "sigma_points",
    "unscented_transform",
    "ukf_step",
    "run_ukf",
    "particle_moments",
    "systematic_resample",
    "run_pf",
    "kalman_step",
    "regularize_cov",
]

# Covariance repair: the jitter range, relative to trace/n, for filter
# covariances that lose positive definiteness to rounding, bounded so a
# genuinely broken covariance still errors out.
_REG_START = 1e-10
_REG_STOP = 1e-4

RESAMPLE_POLICIES = ("always", "adaptive")

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
    points: np.ndarray        # (..., 2n+1, n), row 0 is the center
    mean_weights: np.ndarray  # (2n+1,)
    cov_weights: np.ndarray   # (2n+1,)


@dataclass(frozen=True)
class FilterOutput:
    """Beliefs produced by one filter step, or by a filter run over steps 1..T.

    A step's beliefs are (..., n) and (..., n, n); a run's are (..., T, n)
    and (..., T, n, n).  health maps a counter to one value per run (the
    leading shape): "cov_repairs" (covariances regularize_cov repaired),
    and for the particle filter "resamples", "collapses" (steps whose
    likelihoods all vanished) and "min_ess" (smallest effective sample
    size).
    """

    posterior: GaussianBelief
    predicted: GaussianBelief
    health: dict = field(default_factory=dict)

    def __len__(self) -> int:
        """Beliefs per channel: T for one run, R * T for a stack of R runs.

        perfbench/tracing.py reads N * len(run_pf(...)) as the particle steps
        of the call.
        """
        return int(np.prod(self.posterior.mean.shape[:-1]))


def _factors(cov: np.ndarray) -> bool:
    """Whether every matrix of a finite stack passes a Cholesky factorization."""
    try:
        _cholesky(cov)
    except np.linalg.LinAlgError:
        return False
    return True


def regularize_cov(cov: np.ndarray, repairs: Optional[np.ndarray] = None) -> np.ndarray:
    """Return a Cholesky-factorable version of a symmetric covariance, or of each in a stack.

    Symmetrizes the stack and tests it in one batched factorization, a
    square root for 1 x 1 matrices (_cholesky).  Only the elements
    that fail go one by one up the jitter ladder: a diagonal jitter of
    1e-10 * trace(cov)/n, growing by decades while it stays within
    1e-4 * trace(cov)/n.  This is the package's only jitter repair, and each
    repaired element is counted.

    Args:
        cov: covariance (n, n) or stack (..., n, n).
        repairs: optional integer array with the stack's leading shape; the
            entry of each repaired element is incremented.

    Raises:
        NumericError: a covariance is not finite, or not repairable.
    """
    cov = symmetrize(np.asarray(cov, dtype=float))
    if not np.isfinite(cov).all():
        raise NumericError("filter covariance is not finite")
    if _factors(cov):
        return cov
    cov = cov.copy()
    eye = np.eye(cov.shape[-1])
    for index in np.ndindex(cov.shape[:-2]):
        element = cov[index]
        scale = float(np.trace(element)) / cov.shape[-1]
        if scale <= 0.0:
            scale = 1.0
        jitter = 0.0
        while not _factors(element + jitter * eye):
            jitter = _REG_START * scale if jitter == 0.0 else jitter * 10.0
            if jitter > _REG_STOP * scale:
                raise NumericError("filter covariance not repairable by jitter")
        if jitter:
            cov[index] = element + jitter * eye
            if repairs is not None:
                repairs[index] += 1
    return cov


@functools.cache
def _ut_weights(n: int, params: UTParams) -> tuple[float, np.ndarray, np.ndarray]:
    """The spread n + lambda and the read-only mean and covariance weights of
    n-dimensional sigma points, built once per (n, params).  A non-positive
    spread raises ValueError, and since a raising call is not cached, it
    raises on every call."""
    kappa = params.resolved_kappa(n)
    lam = params.alpha ** 2 * (n + kappa) - n
    spread = n + lam
    if spread <= 0.0:
        raise ValueError(f"non-positive spread n + lambda = {spread}")
    wm = np.full(2 * n + 1, 1.0 / (2.0 * spread))
    wc = wm.copy()
    wm[0] = lam / spread
    wc[0] = lam / spread + (1.0 - params.alpha ** 2 + params.beta)
    wm.flags.writeable = wc.flags.writeable = False
    return spread, wm, wc


def sigma_points(mean: np.ndarray, cov: np.ndarray,
                 params: UTParams = UTParams()) -> SigmaPointSet:
    """Scaled symmetric sigma points for N(mean, cov), or for each of a stack.

    cov is symmetrized and factored as given, so a covariance that is not
    positive definite raises LinAlgError; callers repair it first
    (regularize_cov), where the repair is counted.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    spread, wm, wc = _ut_weights(mean.shape[-1], params)
    wings = _cholesky(symmetrize(cov) * spread).mT  # row i is column i
    center = mean[..., None, :]
    points = np.concatenate([center, center + wings, center - wings], axis=-2)
    return SigmaPointSet(points=points, mean_weights=wm, cov_weights=wc)


def unscented_transform(fn, belief: GaussianBelief, noise_cov: np.ndarray,
                        params: UTParams = UTParams()):
    """Push a belief, or each belief of a stack, through fn and add noise_cov.

    Args:
        fn: map of a stack of points (..., n) -> (..., m).
        belief: input Gaussian belief, mean (..., n).
        noise_cov: additive noise covariance of the output, shape (m, m).
        params: sigma point spread parameters.

    Returns:
        (mean, cov, cross_cov): output mean (..., m), output covariance
        (..., m, m) including noise, and input-output cross covariance
        (..., n, m).
    """
    sp = sigma_points(belief.mean, belief.cov, params)
    # Each point as a 1 x n row, so a matmul map makes one vector-matrix
    # product per point, as when the points are mapped one at a time.
    mapped = np.asarray(fn(sp.points[..., None, :]), dtype=float)[..., 0, :]
    mean = sp.mean_weights @ mapped
    dev_out = mapped - mean[..., None, :]
    dev_in = sp.points - belief.mean[..., None, :]
    cov = symmetrize((dev_out * sp.cov_weights[:, None]).mT @ dev_out + noise_cov)
    cross = (dev_in * sp.cov_weights[:, None]).mT @ dev_out
    return mean, cov, cross


def ukf_step(model: SystemModel, k: int, belief: GaussianBelief, z: np.ndarray,
             params: UTParams = UTParams()) -> FilterOutput:
    """One predict/update cycle of the unscented Kalman filter at time k.

    belief may be a stack (..., n) with one measurement per element in z
    (..., m).  The innovation covariances are inverted once all of them
    pass a Cholesky factorization (_cholesky_inverse); one that does not
    factor raises LinAlgError.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    m_pred, p_pred, _ = unscented_transform(
        lambda x: model.transition(k, x), belief, model.process_cov, params)
    repairs = np.zeros(m_pred.shape[:-1], dtype=int)
    p_pred = regularize_cov(p_pred, repairs)
    predicted = _unchecked(m_pred, p_pred)
    z_mean, z_cov, cross = unscented_transform(
        lambda x: model.measure(k, x), predicted, model.meas_cov, params)
    gain = cross @ _cholesky_inverse(z_cov)
    post_mean = m_pred + (gain @ (z - z_mean)[..., None])[..., 0]
    post_cov = regularize_cov(p_pred - gain @ z_cov @ gain.mT, repairs)
    return FilterOutput(posterior=_unchecked(post_mean, post_cov), predicted=predicted,
                        health={"cov_repairs": repairs})


def _run_stack(model: SystemModel, measurements: np.ndarray, step, carry: tuple,
               health: dict) -> FilterOutput:
    """Drive a filter over steps 1..T for one run or a stack of runs.

    measurements (..., T, m) are flattened to R runs (one run is a stack of
    one) and carry holds the filter's state with one row per run.
    step(k, z, carry) filters every run at time k and returns (FilterOutput
    of the step, new carry).  health gives each counter's value before the
    first step: over the steps, counts add up and "min_ess" keeps the
    smallest.  The first error of any run is raised.
    """
    measurements = np.atleast_2d(np.asarray(measurements, dtype=float))
    lead, (horizon, _) = measurements.shape[:-2], measurements.shape[-2:]
    z = measurements.reshape((-1,) + measurements.shape[-2:])
    count, n = z.shape[0], model.state_dim
    series = [np.zeros((count, horizon, n)), np.zeros((count, horizon, n, n)),
              np.zeros((count, horizon, n)), np.zeros((count, horizon, n, n))]
    series += [np.full((count, horizon), start) for start in health.values()]
    for k in range(1, horizon + 1):
        out, carry = step(k, z[:, k - 1], carry)
        values = (out.posterior.mean, out.posterior.cov, out.predicted.mean, out.predicted.cov,
                  *(out.health[name] for name in health))
        for array, value in zip(series, values):
            array[:, k - 1] = value
    post_mean, post_cov, pred_mean, pred_cov = (
        array.reshape(lead + array.shape[1:]) for array in series[:4])
    totals = {name: (array.min(axis=1) if name == "min_ess" else array.sum(axis=1)).reshape(lead)
              for name, array in zip(health, series[4:])}
    return FilterOutput(posterior=_unchecked(post_mean, post_cov),
                        predicted=_unchecked(pred_mean, pred_cov),
                        health=totals)


def run_ukf(model: SystemModel, measurements: np.ndarray,
            params: UTParams = UTParams()) -> FilterOutput:
    """Run the UKF from the model prior over a measurement sequence (T, m),
    or over a stack of runs' sequences (..., T, m) at once."""
    count = int(np.prod(np.shape(measurements)[:-2]))
    n = model.state_dim
    carry = (np.broadcast_to(model.prior.mean, (count, n)).copy(),
             np.broadcast_to(model.prior.cov, (count, n, n)).copy())

    def step(k, z, belief):
        out = ukf_step(model, k, _unchecked(*belief), z, params)
        return out, (out.posterior.mean, out.posterior.cov)

    return _run_stack(model, measurements, step, carry, {"cov_repairs": 0})


# -- particle filter ---------------------------------------------------------


def _generators(seed) -> list:
    """One Generator per cloud: a list of seeds for a stack, else one seed."""
    if isinstance(seed, list):
        return [np.random.default_rng(s) for s in seed]
    return [np.random.default_rng(seed)]


def _standard_normal(generators: list, shape: tuple) -> np.ndarray:
    """Draw shape from each cloud's own generator, stacked as (clouds,) + shape."""
    draws = np.empty((len(generators),) + shape)
    for row, rng in enumerate(generators):
        rng.standard_normal(shape, out=draws[row])
    return draws


def particle_moments(states: np.ndarray, weights: np.ndarray,
                     repairs: Optional[np.ndarray] = None) -> GaussianBelief:
    """Weighted mean and covariance of a particle cloud, or of each cloud of a
    stack (no bias correction); repairs counts covariance repairs as in
    regularize_cov."""
    mean = (weights[..., None, :] @ states)[..., 0, :]
    dev = states - mean[..., None, :]
    return _unchecked(mean, regularize_cov((dev * weights[..., None]).mT @ dev, repairs))


def systematic_resample(weights: np.ndarray, u) -> np.ndarray:
    """Systematic resampling indices for normalized weights, or for each row of a stack.

    Positions (j + u) / N, j = 0..N-1, with one uniform u in [0, 1) per row
    (u has the stack's shape) are matched against the cumulative weight sum
    c: index j is #{i : c_i <= (j + u) / N}, clipped to N - 1.  This public
    entry validates its inputs and runs the unchecked kernel the particle
    filter's step calls directly (_resample_indices): one flat count and
    scan over all rows, exact to the rule above.  A negative weight is
    rejected: its count would land in the row before.

    Returns:
        Integer indices (..., N) into each row's particles.
    """
    weights = np.asarray(weights, dtype=float)
    u = np.asarray(u, dtype=float)
    if not ((0.0 <= u) & (u < 1.0)).all():
        raise ValueError("u must lie in [0, 1)")
    if not ((weights >= 0.0).all() and (np.abs(weights.sum(axis=-1) - 1.0) <= 1e-9).all()):
        raise ValueError("resampling weights must be non-negative and normalized")
    n = weights.shape[-1]
    flat = weights.reshape(-1, n)
    index = _resample_indices(flat, np.broadcast_to(u, weights.shape[:-1]).reshape(-1),
                              np.empty((2, flat.size + 1)))
    index -= n * np.arange(flat.shape[0])[:, None]
    return index.reshape(weights.shape)


def _resample_indices(flat: np.ndarray, u: np.ndarray, work: np.ndarray) -> np.ndarray:
    """systematic_resample of each row of flat (R, N), without its checks,
    as gather indices row * N + index into the rows' particles stacked as
    (R * N, n).

    flat holds non-negative weights, each row normalized, u (R,) lies in
    [0, 1), and work is a (2, R * N + 1) float buffer that the returned
    indices are a view of.  One ordered pass gives a row's indices (Kitagawa
    1996): particle i is first passed at position ceil(N c_i - u), and index
    j counts the particles passed by position j.  Rounding moves either side
    of that comparison by at most about N * 4.4e-16, so entries with
    N c_i - u within 1e-12 N of an integer are searched among the positions,
    and every index is the one a search gives.  The rows' bins lie end to
    end, bin row * N + j for position j and one more after the last row, and
    a first position past a row's end (N, or N + 1 where the cumulative sum
    rounds above 1) is counted at N, the next row's first bin.  So one count
    and one cumulative sum over all bins give row * N + index.  Only a row's
    last column can count all N of its particles, where (N - 1 + u) / N
    rounds to 1, so that column alone is clipped to (row + 1) * N - 1.
    """
    rows, n = flat.shape
    estimate = np.cumsum(flat, axis=-1, out=work[0, :-1].reshape(rows, n))
    np.maximum(estimate[:, -1], 1.0, out=estimate[:, -1])  # guard rounding of the final edge
    estimate *= n
    estimate -= u[:, None]
    first = np.ceil(estimate, out=work[1, :-1].reshape(rows, n))
    estimate -= first  # in (-1, 0]: near 0 or -1 where N c - u is near an integer
    estimate += 0.5  # near: |estimate + 1/2| >= 1/2 - 1e-12 N
    near = np.abs(estimate, out=estimate) >= 0.5 - 1e-12 * n
    for row in np.flatnonzero(near.any(axis=-1)):
        cumulative = np.cumsum(flat[row])
        cumulative[-1] = max(cumulative[-1], 1.0)
        positions = (np.arange(n) + u[row]) / n
        first[row, near[row]] = np.searchsorted(positions, cumulative[near[row]], side="left")
    if (first[:, -1] > n).any():  # first positions rise along a row: its last is its largest
        np.minimum(first, n, out=first)
    first += n * np.arange(rows, dtype=float)[:, None]
    bins, counts = work.view(np.intp)  # the estimates' buffer holds the bins
    np.copyto(bins[:-1], first.reshape(-1), casting="unsafe")
    counts.fill(0)
    np.add.at(counts, bins[:-1], 1)
    index = np.cumsum(counts, out=counts)[:-1].reshape(rows, n)
    np.minimum(index[:, -1], n * np.arange(1, rows + 1) - 1, out=index[:, -1])
    return index


def _loglik_terms(cov: np.ndarray) -> tuple[np.ndarray, float, float]:
    """What the log density of N(0, cov) needs of cov: the inverse of its
    Cholesky factor, its log determinant and m log(2 pi)."""
    factor = _cholesky(cov)
    return (np.linalg.inv(factor), 2.0 * float(np.sum(np.log(np.diag(factor)))),
            cov.shape[0] * np.log(2.0 * np.pi))


def _gaussian_loglik(resid: np.ndarray, cov: np.ndarray, terms: Optional[tuple] = None
                     ) -> np.ndarray:
    """Log density of N(0, cov) at each row of resid, shape (..., N, m) -> (..., N).

    terms is _loglik_terms(cov), which a caller evaluating the same cov at
    every step computes once; left out, it is computed here.  The quadratic
    form r' cov^-1 r is |L^-1 r|^2 for m > 1, and r s s r with s = 1/l for
    m = 1, the arithmetic of LAPACK potrs.  Bad residuals propagate to the
    log-weights, where run_pf's step raises a NumericError.
    """
    m = cov.shape[0]
    whiten, log_det, log_2pi = _loglik_terms(cov) if terms is None else terms
    columns = np.moveaxis(resid, -1, 0).reshape(m, -1)  # (m, ...N): one product for every run
    if m == 1:
        quad = columns[0] * whiten[0, 0]
        quad *= whiten[0, 0]
        quad *= columns[0]
    else:
        white = whiten @ columns
        quad = np.square(white, out=white).sum(axis=0)
    quad += log_det
    quad += log_2pi
    return np.multiply(quad, -0.5, out=quad).reshape(resid.shape[:-1])


def run_pf(model: SystemModel, measurements: np.ndarray, n_particles: int, seed,
           resample: str = "always", ess_threshold: float = 0.5) -> FilterOutput:
    """Run the bootstrap particle filter over a measurement sequence (T, m),
    or over a stack of runs' sequences (..., T, m) at once.

    Each run's cloud of n_particles is drawn from the model prior with equal
    weights.  At every step k the particles are propagated through the
    transition with fresh process noise, reweighted by the measurement
    likelihood in the log domain (max subtraction before exponentiation)
    and resampled systematically.  The reported beliefs are the weighted
    moments before resampling; the predicted belief uses the incoming
    weights on the propagated cloud.

    Args:
        seed: an int seed or Generator for one run; for a stack, a list with
            one per run (flattened in C order), each run drawing only from
            its own: the prior cloud, then per step the process noise
            followed by the resampling uniform.
        resample: "always" resamples every step; "adaptive" only the clouds
            whose effective sample size 1 / sum(w^2) is below
            ess_threshold * n_particles.
    """
    if resample not in RESAMPLE_POLICIES:
        raise ValueError(f"unknown resample policy {resample!r}")
    stacked = np.ndim(measurements) > 2
    generators = _generators(seed)
    if stacked != isinstance(seed, list) or len(generators) != np.prod(np.shape(measurements)[:-2]):
        raise ValueError("seed must be a list with one seed per run for a stack of runs")
    if n_particles < 1:
        raise ValueError("n_particles must be positive")
    clouds, n = len(generators), model.state_dim
    prior_chol = np.linalg.cholesky(model.prior.cov)
    states = model.prior.mean + _standard_normal(generators, (n_particles, n)) @ prior_chol.T
    noise_chol = np.linalg.cholesky(model.process_cov)
    loglik_terms = _loglik_terms(model.meas_cov)
    work = np.empty((2, clouds * n_particles + 1))  # the resampling kernel's buffer

    def step(k, z, cloud):
        # equal: every cloud's weights are equal, as after the prior draw and
        # after a step that resampled every cloud, so one logarithm per cloud serves
        states, incoming, equal = cloud
        propagated = _standard_normal(generators, (n_particles, n))
        if n == 1:  # draws @ noise_chol.T is one product per draw: scale in place
            propagated *= noise_chol[0, 0]
        else:
            propagated = propagated @ noise_chol.T
        propagated += model.transition(k, states)
        repairs = np.zeros(clouds, dtype=int)
        predicted = particle_moments(propagated, incoming, repairs)

        log_w = _gaussian_loglik(z[:, None, :] - model.measure(k, propagated), model.meas_cov,
                                 loglik_terms)
        log_w += np.log(incoming[:, :1] if equal else incoming)
        peak = log_w.max(axis=-1, keepdims=True)
        if not (peak < np.inf).all():  # a NaN propagates to its cloud's maximum; +inf is it
            raise NumericError(f"non-finite particle log-weights at step {k}")
        log_w -= peak
        weights = np.exp(log_w, out=log_w)
        total = weights.sum(axis=-1, keepdims=True)
        collapsed = ~((total > 0.0) & np.isfinite(total))[:, 0]
        weights /= total
        if collapsed.any():
            warnings.warn(f"all particle likelihoods vanished at step {k}; "
                          "falling back to uniform weights", RuntimeWarning)
            weights[collapsed] = 1.0 / n_particles
        posterior = particle_moments(propagated, weights, repairs)

        ess = 1.0 / np.sum(weights ** 2, axis=-1)
        if resample == "always":
            resampled = np.full(clouds, True)
        else:
            resampled = ess < ess_threshold * n_particles
        rows = np.flatnonzero(resampled)
        every = rows.size == clouds
        if rows.size:
            # one kernel call for all resampled clouds, each u from its own generator
            u = np.array([generators[row].random() for row in rows])
            picks = _resample_indices(weights if every else weights[rows], u,
                                      work[:, :rows.size * n_particles + 1])
            if not every:  # the kernel's row r is cloud rows[r]
                picks += n_particles * (rows - np.arange(rows.size))[:, None]
            chosen = np.take(propagated.reshape(-1, n), picks, axis=0, mode="clip")
            if every:  # the drawn particles are the new clouds
                propagated = chosen
            else:
                propagated[rows] = chosen
            weights[rows] = 1.0 / n_particles
        health = {"cov_repairs": repairs, "resamples": resampled.astype(int),
                  "collapses": collapsed.astype(int), "min_ess": ess}
        return (FilterOutput(posterior=posterior, predicted=predicted, health=health),
                (propagated, weights, every))

    return _run_stack(model, measurements, step,
                      (states, np.full((clouds, n_particles), 1.0 / n_particles), True),
                      {"cov_repairs": 0, "resamples": 0, "collapses": 0, "min_ess": np.inf})


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
