"""Monte Carlo experiment harness.

One experiment runs R independent trajectories of a model, filters each with
the configured estimators, and produces:

* the reference bound from Monte Carlo expectations over the same trajectory
  ensemble (paired design),
* the mean-only and mean+cov approximate bounds per estimator, recursed from
  each run's filter beliefs,
* per-step gap series between the two approximations, evaluated both through
  the closed-form difference and by direct subtraction on a shared
  information state, plus counts of steps where the direct gap loses positive
  semidefiniteness and where the closed form fell back to the subtraction,
* per-step RMSE per estimator.

The work runs in two stages.  Trajectory sampling and the filters run once
per run (``_single_run``), mapped over a process pool when ``workers`` > 1;
every run is a pure function of (config, run index), since run seeds come
from a splitmix64 avalanche of the master seed.  The bound engines then run
in the calling process over the completed runs' beliefs, stacked in
run-index order as (R, T, n) means and (R, T, n, n) covariances: each engine
makes one batched call per time step for all R runs.  A run whose own stack
element fails (for example a matrix past the jitter budget) is marked failed
with that error and left out of every aggregate; the other runs are
unaffected.  Because the bounds never leave the calling process, results are
bit-identical for any worker count by construction.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .filters import UTParams, run_pf, run_ukf
from .fim import (bound_difference, decompose_terms, fim_recursion_step,
                  fim_via_decomposition, ill_conditioned, initial_fim, mean_only_terms,
                  spd_inverse, true_fim_terms_mc)
from .linalg import NumericError, symmetrize
from .model import SystemModel, Trajectory, linear_gaussian_model, sample_trajectory, ungm_model
from .moments import GaussianBelief

__all__ = [
    "DEFAULT_SEED",
    "ExperimentConfig",
    "ExperimentError",
    "RunResult",
    "AggregateResult",
    "derive_run_seed",
    "build_model",
    "rmse_series",
    "aggregate_bounds",
    "gap_series",
    "true_bound_series",
    "run_experiment",
]

DEFAULT_SEED = 123456789

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

ALL_METHODS = ("true", "mean_only", "mean_cov")
ALL_ESTIMATORS = ("ukf", "pf")


class ExperimentError(RuntimeError):
    """The experiment could not produce a trustworthy aggregate."""


def derive_run_seed(master_seed: int, index: int) -> int:
    """Derive an independent 64-bit seed for one run.

    splitmix64-style avalanche of (master_seed, index): the input is the
    master seed advanced by (index + 1) golden-ratio increments, then mixed.
    Distinct indices under one master always map to distinct seeds.
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    z = (int(master_seed) + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    Construction raises ValueError for any value a run would trip over, so a
    bad config fails before the first run starts.
    """

    model_name: str = "ungm"
    model_params: dict = field(default_factory=dict)
    horizon: int = 50
    runs: int = 100
    particles: int = 1000
    master_seed: int = DEFAULT_SEED
    workers: int = 1
    ut: UTParams = UTParams()
    methods: tuple[str, ...] = ALL_METHODS
    estimators: tuple[str, ...] = ALL_ESTIMATORS
    averaging: str = "bounds"
    state_eval: str = "posterior"
    meas_eval: str = "predicted"
    resample: str = "always"
    ess_threshold: float = 0.5
    max_failure_fraction: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.particles < 1:
            raise ValueError("particles must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.averaging not in ("bounds", "fim"):
            raise ValueError(f"unknown averaging mode {self.averaging!r}")
        if self.state_eval not in ("posterior", "predicted"):
            raise ValueError(f"unknown state_eval {self.state_eval!r}")
        if self.meas_eval not in ("predicted", "posterior"):
            raise ValueError(f"unknown meas_eval {self.meas_eval!r}")
        unknown = set(self.methods) - set(ALL_METHODS)
        if unknown:
            raise ValueError(f"unknown bound methods: {sorted(unknown)}")
        unknown = set(self.estimators) - set(ALL_ESTIMATORS)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")
        if not 0.0 < self.ess_threshold <= 1.0:
            raise ValueError(f"ess_threshold must lie in (0, 1], got {self.ess_threshold}")
        for key in ("process_var", "meas_var", "prior_var"):
            value = self.model_params.get(key)
            if value is not None and np.ndim(value) == 0 and not value > 0.0:
                raise ValueError(f"{key} must be positive, got {value}")
        model = build_model(self)  # checks shapes and positive definiteness
        if "ukf" in self.estimators:
            n = model.state_dim
            spread = self.ut.alpha ** 2 * (n + self.ut.resolved_kappa(n))
            if not spread > 0.0:
                raise ValueError(
                    f"ut_alpha {self.ut.alpha} and ut_kappa {self.ut.kappa} give "
                    f"non-positive sigma-point spread n + lambda = {spread} "
                    f"for state dimension {n}")


def build_model(config: ExperimentConfig) -> SystemModel:
    """Construct the configured model."""
    params = dict(config.model_params)
    if config.model_name == "ungm":
        return ungm_model(**params)
    if config.model_name == "linear":
        return linear_gaussian_model(
            a=params.get("a", 0.9),
            h=params.get("h", 1.0),
            process_cov=params.get("process_var", 1.0),
            meas_cov=params.get("meas_var", 1.0),
            prior_mean=params.get("prior_mean", 0.0),
            prior_cov=params.get("prior_var", 1.0),
        )
    raise ValueError(f"unknown model {config.model_name!r}")


@dataclass
class RunResult:
    """What one run's trajectory sampling and filters produce.

    posterior and predicted map each estimator to its beliefs over steps
    1..T as one GaussianBelief stack: mean (T, n), cov (T, n, n).
    """

    index: int
    seed: int
    trajectory: Optional[Trajectory] = None
    posterior: dict = field(default_factory=dict)
    predicted: dict = field(default_factory=dict)
    failed: bool = False
    error: str = ""


# Errors that fail one run rather than the whole experiment.
_RUN_ERRORS = (NumericError, np.linalg.LinAlgError, ValueError)


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _belief_stack(beliefs) -> GaussianBelief:
    beliefs = list(beliefs)
    return GaussianBelief(np.stack([b.mean for b in beliefs]),
                          np.stack([b.cov for b in beliefs]))


def _single_run(config: ExperimentConfig, index: int) -> RunResult:
    model = build_model(config)
    seed = derive_run_seed(config.master_seed, index)
    result = RunResult(index=index, seed=seed)
    try:
        trajectory = sample_trajectory(model, config.horizon, derive_run_seed(seed, 0))
        result.trajectory = trajectory
        for estimator in config.estimators:
            if estimator == "ukf":
                outputs = run_ukf(model, trajectory.measurements, config.ut)
            else:
                outputs = run_pf(model, trajectory.measurements, config.particles,
                                 derive_run_seed(seed, 1), resample=config.resample,
                                 ess_threshold=config.ess_threshold)
            result.posterior[estimator] = _belief_stack(o.posterior for o in outputs)
            result.predicted[estimator] = _belief_stack(o.predicted for o in outputs)
    except _RUN_ERRORS as exc:
        result.failed = True
        result.error = _error_text(exc)
    return result


def _single_run_task(payload: tuple[ExperimentConfig, int]) -> RunResult:
    return _single_run(*payload)


class _AllRunsFailed(Exception):
    """No run is left for the bound engines."""


def _guarded_step(step, alive: np.ndarray, errors: dict) -> tuple[np.ndarray, tuple]:
    """Run one engine step over the alive runs, dropping runs that fail alone.

    step(idx) computes the step for the runs idx as one stack and returns a
    tuple of arrays with one row per run.  When the batched call raises,
    every alive run is retried as a stack of one: a run that raises again is
    marked failed (alive cleared, errors[position] set to its error text),
    and the others keep their own rows, which do not depend on the rest of
    the stack.

    Returns:
        (positions of the runs still alive, the step's outputs for them).
    """
    idx = np.flatnonzero(alive)
    try:
        return idx, step(idx)
    except _RUN_ERRORS:
        pass
    kept, outputs = [], []
    for position in idx:
        try:
            outputs.append(step(np.array([position])))
        except _RUN_ERRORS as exc:
            alive[position] = False
            errors[int(position)] = _error_text(exc)
        else:
            kept.append(position)
    if not kept:
        raise _AllRunsFailed
    return np.array(kept), tuple(np.concatenate(rows) for rows in zip(*outputs))


def _is_negative(matrix: np.ndarray) -> np.ndarray:
    """Per-element flag: the symmetric part has a clearly negative eigenvalue."""
    eigs = np.linalg.eigvalsh(symmetrize(matrix))
    return eigs[..., 0] < -1e-12 * np.maximum(1.0, np.abs(eigs).max(axis=-1))


def _engine_beliefs(config: ExperimentConfig, model: SystemModel, runs: list[RunResult],
                    estimator: str) -> tuple[GaussianBelief, GaussianBelief]:
    """Beliefs feeding the step onto time k, stacked (R, T, ...) with row k-1.

    The state channel takes the belief about time k-1 (the prior at k = 1);
    the measurement channel takes the belief about time k.
    """
    posterior = _belief_stack(r.posterior[estimator] for r in runs)
    predicted = _belief_stack(r.predicted[estimator] for r in runs)
    chosen = posterior if config.state_eval == "posterior" else predicted
    count, n = len(runs), model.state_dim
    state = GaussianBelief(
        np.concatenate([np.broadcast_to(model.prior.mean, (count, 1, n)),
                        chosen.mean[:, :-1]], axis=1),
        np.concatenate([np.broadcast_to(model.prior.cov, (count, 1, n, n)),
                        chosen.cov[:, :-1]], axis=1))
    meas = predicted if config.meas_eval == "predicted" else posterior
    return state, meas


def _bound_stage(config: ExperimentConfig, model: SystemModel,
                 runs: list[RunResult]) -> tuple[dict, np.ndarray, dict]:
    """Run the per-run bound engines once per time step over the stack of runs.

    Returns:
        (stacks, alive, errors).  stacks maps (quantity, estimator) to an
        array with one row per given run: "mean_only" and "mean_cov"
        information series, "pi" corrections (R, T, n, n), "pi_fallback"
        flags (R, T), "gap_analytic" and "gap_direct" gaps (R, T, n, n) and
        "gap_violation" flags (R, T).  alive marks the runs that completed;
        the rows of the others are meaningless.  errors maps the position of
        each failed run to its error text.
    """
    horizon, n, count = config.horizon, model.state_dim, len(runs)
    alive = np.ones(count, dtype=bool)
    errors: dict = {}
    stacks: dict = {}
    j0 = initial_fim(model.prior)

    def series(*tail) -> np.ndarray:
        return np.zeros((count, horizon) + tail)

    try:
        for estimator in config.estimators:
            state, meas = _engine_beliefs(config, model, runs, estimator)

            if "mean_only" in config.methods:
                j = np.broadcast_to(j0, (count, n, n)).copy()
                fims = series(n, n)
                for k in range(1, horizon + 1):
                    def step(idx):
                        terms = mean_only_terms(model, k, state.mean[idx, k - 1],
                                                meas.mean[idx, k - 1])
                        return (fim_recursion_step(j[idx], terms),)
                    idx, (j_new,) = _guarded_step(step, alive, errors)
                    j[idx] = fims[idx, k - 1] = j_new
                stacks[("mean_only", estimator)] = fims

            if "mean_cov" in config.methods:
                j = np.broadcast_to(j0, (count, n, n)).copy()
                out = {"mean_cov": series(n, n), "pi": series(n, n),
                       "pi_fallback": series().astype(bool),
                       "gap_analytic": series(n, n), "gap_direct": series(n, n),
                       "gap_violation": series().astype(bool)}
                for k in range(1, horizon + 1):
                    def step(idx):
                        prev = GaussianBelief(state.mean[idx, k - 1], state.cov[idx, k - 1])
                        point = GaussianBelief(meas.mean[idx, k - 1], meas.cov[idx, k - 1])
                        fim = fim_via_decomposition(
                            j[idx], decompose_terms(model, k, prev, point), k=k)
                        analytic, _ = bound_difference(fim.theta, fim.pi)
                        direct = spd_inverse(fim.theta) - spd_inverse(fim.j)
                        return (fim.j, fim.pi, fim.fallback, analytic, direct,
                                _is_negative(direct))
                    idx, rows = _guarded_step(step, alive, errors)
                    for name, row in zip(out, rows):
                        out[name][idx, k - 1] = row
                    j[idx] = rows[0]
                stacks.update({(name, estimator): value for name, value in out.items()})
    except _AllRunsFailed:
        pass
    return stacks, alive, errors


def true_bound_series(model: SystemModel, trajectories: list[Trajectory],
                      horizon: int) -> np.ndarray:
    """Reference information series from Monte Carlo averages over trajectories.

    Returns:
        J series of shape (T, n, n) for k = 1..T.
    """
    if not trajectories:
        raise ExperimentError("no trajectories available for the reference bound")
    states = np.stack([t.states for t in trajectories])  # (R, T+1, n)
    n = model.state_dim
    series = np.empty((horizon, n, n))
    j = initial_fim(model.prior)
    for k in range(1, horizon + 1):
        terms = true_fim_terms_mc(model, k, states[:, k - 1, :], states[:, k, :])
        j = fim_recursion_step(j, terms)
        series[k - 1] = j
    return series


def rmse_series(true_states: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """Per-step RMSE over runs.

    Args:
        true_states: shape (R, T+1, n) including the initial state.
        estimates: shape (R, T, n) for steps 1..T.

    Returns:
        (T,) array with sqrt(mean over runs of squared error norm) per step.
    """
    true_states = np.asarray(true_states, float)
    estimates = np.asarray(estimates, float)
    if true_states.shape[0] != estimates.shape[0]:
        raise ValueError("run counts disagree")
    if true_states.shape[1] != estimates.shape[1] + 1:
        raise ValueError("true_states must cover one more step than estimates")
    err = true_states[:, 1:, :] - estimates
    return np.sqrt(np.mean(np.sum(err * err, axis=2), axis=0))


def aggregate_bounds(fim_stack: np.ndarray, mode: str = "bounds") -> np.ndarray:
    """Collapse per-run information series into one bound series.

    Args:
        fim_stack: shape (R, T, n, n) of per-run information matrices.
        mode: "bounds" averages the per-run inverses; "fim" inverts the
            averaged information matrix.

    Returns:
        (T, n, n) bound series.
    """
    fim_stack = np.asarray(fim_stack, float)
    if mode == "bounds":
        return spd_inverse(fim_stack).mean(axis=0)
    if mode == "fim":
        return spd_inverse(fim_stack.mean(axis=0))
    raise ValueError(f"unknown averaging mode {mode!r}")


def gap_series(stacks: dict, estimator: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Average the per-run gap series of one estimator.

    Args:
        stacks: per-run series keyed (quantity, estimator), as in
            AggregateResult.run_stacks; reads "gap_analytic" and
            "gap_direct" (R, T, n, n) and "gap_violation" (R, T).
        estimator: which estimator's series to average.

    Returns:
        (analytic, direct, violations): per-step mean closed-form gap, mean
        direct-subtraction gap, and per-step counts of runs whose direct gap
        has a negative eigenvalue.
    """
    analytic = stacks.get(("gap_analytic", estimator))
    if analytic is None or len(analytic) == 0:
        raise ExperimentError(f"no successful runs carry gap data for {estimator!r}")
    direct = stacks[("gap_direct", estimator)]
    violations = stacks[("gap_violation", estimator)]
    return analytic.mean(axis=0), direct.mean(axis=0), violations.sum(axis=0)


@dataclass
class AggregateResult:
    """Aggregated output of one experiment."""

    config: ExperimentConfig
    bounds: dict                 # (method, estimator or None) -> (T, n, n)
    rmse: dict                   # estimator -> (T,)
    gaps: dict                   # estimator -> {"analytic", "direct", "violations"}
    pi_fallback_counts: dict     # estimator -> (T,) int
    gap_fallback_counts: dict    # estimator -> (T,) int
    runs_used: int
    failed_runs: list            # [(index, error), ...]
    run_stacks: dict             # per-run series of the completed runs, see _bound_stage

    @property
    def horizon(self) -> int:
        return self.config.horizon


def run_experiment(config: ExperimentConfig) -> AggregateResult:
    """Run the full Monte Carlo experiment described by the config."""
    model = build_model(config)
    payloads = [(config, i) for i in range(config.runs)]
    if config.workers == 1:
        results = [_single_run(config, i) for i in range(config.runs)]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_single_run_task, payloads))

    filtered = [r for r in results if not r.failed]
    stacks, alive, errors = _bound_stage(config, model, filtered) if filtered else ({}, None, {})
    for position, error in errors.items():
        filtered[position].failed = True
        filtered[position].error = error

    failed = [(r.index, r.error) for r in results if r.failed]
    if len(failed) > config.max_failure_fraction * config.runs:
        details = "; ".join(f"run {i}: {e}" for i, e in failed[:5])
        raise ExperimentError(
            f"{len(failed)} of {config.runs} runs failed "
            f"(threshold {config.max_failure_fraction:.0%}): {details}")
    ok = [r for r in results if not r.failed]
    if not ok:
        raise ExperimentError("every run failed")
    run_stacks = {key: value[alive] for key, value in stacks.items()}

    bounds: dict = {}
    if "true" in config.methods:
        true_fims = true_bound_series(model, [r.trajectory for r in ok], config.horizon)
        bounds[("true", None)] = spd_inverse(true_fims)
    for method in ("mean_only", "mean_cov"):
        if method not in config.methods:
            continue
        for estimator in config.estimators:
            bounds[(method, estimator)] = aggregate_bounds(run_stacks[(method, estimator)],
                                                           config.averaging)

    rmse = {}
    true_states = np.stack([r.trajectory.states for r in ok])
    for estimator in config.estimators:
        estimates = np.stack([r.posterior[estimator].mean for r in ok])
        rmse[estimator] = rmse_series(true_states, estimates)

    gaps = {}
    pi_fallback_counts = {}
    gap_fallback_counts = {}
    if "mean_cov" in config.methods:
        for estimator in config.estimators:
            analytic, direct, violations = gap_series(run_stacks, estimator)
            gaps[estimator] = {"analytic": analytic, "direct": direct,
                               "violations": violations}
            pi_fallback_counts[estimator] = run_stacks[("pi_fallback", estimator)].sum(axis=0)
            # bound_difference falls back exactly where pi is ill conditioned
            gap_fallback_counts[estimator] = ill_conditioned(
                run_stacks[("pi", estimator)]).sum(axis=0)

    return AggregateResult(config=config, bounds=bounds, rmse=rmse, gaps=gaps,
                           pi_fallback_counts=pi_fallback_counts,
                           gap_fallback_counts=gap_fallback_counts,
                           runs_used=len(ok), failed_runs=failed, run_stacks=run_stacks)
