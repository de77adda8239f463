"""Monte Carlo experiment harness.

One experiment runs R independent trajectories of a model, filters each with
the configured estimators, and produces:

* the reference bound from Monte Carlo expectations over the same trajectory
  ensemble (paired design),
* the mean-only and mean+cov approximate bounds per estimator, recursed from
  each run's filter beliefs,
* per-step gap series between the two approximations, evaluated both through
  the closed-form product theta^-1 pi J^-1 and by direct subtraction of the
  two inverses on a shared information state, plus counts of steps where the
  direct gap loses positive semidefiniteness,
* per-step RMSE per estimator.

The work runs in two stages.  First the runs are filtered in blocks
(``_filter_block``), mapped over a process pool when ``workers`` > 1: each
block samples its runs' trajectories in one stacked call, then runs each
estimator once over the block's stack of measurement sequences, and returns
(R, T, n) mean and (R, T, n, n) covariance stacks.  A block holds about
2^16 particle values (block x N x n), so at N = 1000 one block takes 65 runs
and at N = 20000 three, and there are at least ``workers`` blocks.  Every
run is a pure function of (config, run index): run seeds come from a
splitmix64 avalanche of the master seed, and the sampler and the particle
filter draw only from the run's own Generators, so the block split changes
no byte.  The bound engines then run in the calling process over the
completed runs' beliefs, stacked in run-index order as (R, T, ...).  The
step terms do not depend on J, so each estimator's mean-only and mean+cov
terms come from one call over all runs and steps, and so do its gaps; only
J is recursed one time step at a time, over all R runs at once.  Each stage
is guarded once (``_isolated``): when its stacked call raises, the runs are
halved and each half rerun, so a run that fails on its own, in sampling, a
filter or a bound engine, is marked failed with its first error (sampling,
then the estimators in config order; see _bound_stage for the order within
the bound engines) and left out of every aggregate.  A run's rows do not
depend on the rest of its stack, so the other runs are unaffected.  Results
are bit-identical for any worker count.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .filters import RESAMPLE_POLICIES, UTParams, run_pf, run_ukf
from .fim import (DecomposedFim, FimTriple, bound_difference, decompose_terms,
                  fim_recursion_step, fim_via_decomposition, initial_fim, mean_only_terms,
                  true_fim_terms_mc)
from .linalg import NumericError, spd_inverse
from .model import (GaussianBelief, SystemModel, _unchecked, linear_gaussian_model,
                    sample_trajectory, ungm_model)

__all__ = [
    "DEFAULT_SEED",
    "ExperimentConfig",
    "ExperimentError",
    "AggregateResult",
    "derive_run_seed",
    "run_seeds",
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
AVERAGING_MODES = ("bounds", "fim")
# the filter beliefs that may feed the state and the measurement channel
EVAL_BELIEFS = ("posterior", "predicted")
# Errors that fail one run rather than the whole experiment.
RUN_ERRORS = (NumericError, np.linalg.LinAlgError, ValueError)


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


def run_seeds(master_seed: int, index: int) -> tuple[int, int]:
    """The seeds of run ``index``: (trajectory sampler, particle filter), two
    streams derived from the run's own seed."""
    seed = derive_run_seed(master_seed, index)
    return derive_run_seed(seed, 0), derive_run_seed(seed, 1)


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
        for key in ("horizon", "runs", "particles", "workers"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1")
        for key, allowed in (("model_name", tuple(_MODEL_KEYS)), ("averaging", AVERAGING_MODES),
                             ("state_eval", EVAL_BELIEFS), ("meas_eval", EVAL_BELIEFS),
                             ("resample", RESAMPLE_POLICIES)):
            if getattr(self, key) not in allowed:
                raise ValueError(f"unknown {key} {getattr(self, key)!r}; allowed: {allowed}")
        for key, allowed in (("methods", ALL_METHODS), ("estimators", ALL_ESTIMATORS)):
            chosen = getattr(self, key)
            if not chosen:
                raise ValueError(f"{key} must not be empty")
            unknown = set(chosen) - set(allowed)
            if unknown:
                raise ValueError(f"unknown {key} {sorted(unknown)}; allowed: {allowed}")
        unknown = set(self.model_params) - set(_MODEL_KEYS[self.model_name])
        if unknown:
            raise ValueError(f"model keys {sorted(unknown)} do not apply to model "
                             f"{self.model_name!r}")
        if not 0.0 < self.ess_threshold <= 1.0:
            raise ValueError(f"ess_threshold must lie in (0, 1], got {self.ess_threshold}")
        if not 0.0 <= self.max_failure_fraction <= 1.0:
            raise ValueError(
                f"max_failure_fraction must lie in [0, 1], got {self.max_failure_fraction}")
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


# model name -> the model_params keys that apply to it
_MODEL_KEYS = {
    "ungm": ("process_var", "meas_var", "prior_mean", "prior_var"),
    "linear": ("process_var", "meas_var", "prior_mean", "prior_var", "a", "h"),
}


def build_model(config: ExperimentConfig) -> SystemModel:
    """Construct the configured model."""
    params = config.model_params
    if config.model_name == "ungm":
        return ungm_model(**params)
    return linear_gaussian_model(
        a=params.get("a", 0.9),
        h=params.get("h", 1.0),
        process_cov=params.get("process_var", 1.0),
        meas_cov=params.get("meas_var", 1.0),
        prior_mean=params.get("prior_mean", 0.0),
        prior_cov=params.get("prior_var", 1.0),
    )


# A block of runs holds at most about this many particle values (block x N x n).
# A particle-filter step has a fixed cost of about 0.25 ms per call (three
# clouds of ten particles), which larger blocks pay less often.  On pf-dense
# (N = 20,000) 2^15, one run per block, is about 8% slower than 2^16, three;
# 2^17, six, is within 2% of 2^16 and takes about 4 MiB more memory.
_BLOCK_VALUES = 2 ** 16


def _blocks(config: ExperimentConfig, state_dim: int) -> list[range]:
    """Consecutive blocks of run indices: within the particle budget, at least
    ``workers`` of them (as far as there are runs), and at least one run each."""
    size = max(1, _BLOCK_VALUES // (config.particles * state_dim))
    size = max(1, min(size, -(-config.runs // config.workers)))
    return [range(start, min(start + size, config.runs))
            for start in range(0, config.runs, size)]


def _isolated(compute, runs: np.ndarray, errors: dict) -> Optional[dict]:
    """compute over a stack of runs, leaving out the runs that fail on their own.

    compute(positions) takes positions into runs, the stack's run indices,
    and returns a dict of arrays with one row per position.  When it raises
    one of RUN_ERRORS, the positions are halved and each half computed anew;
    a single run that still raises gets errors[its run index] set to its
    error text and zero rows.  A run's rows do not depend on the rest of its
    stack, so the rerun rows are the ones the whole stack would give.

    Returns:
        compute's dict over every run of the stack, or None when every run
        failed.
    """
    pieces, pending = [], [np.arange(len(runs))]
    while pending:
        positions = pending.pop()
        try:
            pieces.append((positions, compute(positions)))
        except RUN_ERRORS as exc:
            if positions.size == 1:
                errors[int(runs[positions[0]])] = f"{type(exc).__name__}: {exc}"
            else:
                half = positions.size // 2
                pending += [positions[half:], positions[:half]]
    if not pieces:
        return None
    if pieces[0][0].size == len(runs):
        return pieces[0][1]
    out = {key: np.zeros((len(runs),) + value.shape[1:], value.dtype)
           for key, value in pieces[0][1].items()}
    for positions, rows in pieces:
        for key, value in rows.items():
            out[key][positions] = value
    return out


@dataclass
class _Block:
    """What filtering one block of runs produces, one row per run of the block.

    states (R, T+1, n) holds the sampled trajectories; posterior and
    predicted map each estimator to its GaussianBelief stack over steps 1..T,
    mean (R, T, n) and cov (R, T, n, n); health maps each estimator to its
    per-run counters (see filters.FilterOutput).  errors maps the run index
    of each failed run to its first error text, in the order sampling, then
    the estimators in config order; the rows of failed runs are zero.  When
    every run failed, states is None and the dicts are empty.
    """

    indices: np.ndarray
    states: Optional[np.ndarray]
    posterior: dict
    predicted: dict
    health: dict
    errors: dict


def _filter_block(config: ExperimentConfig, indices: range) -> _Block:
    """Sample the block's trajectories, then run each estimator over the block."""
    model = build_model(config)
    seeds = [run_seeds(config.master_seed, i) for i in indices]

    def compute(positions):
        picked = [seeds[p] for p in positions]
        trajectory = sample_trajectory(model, config.horizon, [s for s, _ in picked])
        rows = {"states": trajectory.states}
        for estimator in config.estimators:
            if estimator == "ukf":
                out = run_ukf(model, trajectory.measurements, config.ut)
            else:
                out = run_pf(model, trajectory.measurements, config.particles,
                             [s for _, s in picked], resample=config.resample,
                             ess_threshold=config.ess_threshold)
            for channel in EVAL_BELIEFS:
                belief = getattr(out, channel)
                rows[channel, estimator, "mean"], rows[channel, estimator, "cov"] = (
                    belief.mean, belief.cov)
            rows.update({("health", estimator, name): value
                         for name, value in out.health.items()})
        return rows

    block = _Block(np.asarray(indices), None, {}, {}, {}, {})
    rows = _isolated(compute, block.indices, block.errors)
    if rows is not None:
        block.states = rows.pop("states")
        for (kind, estimator, name), value in rows.items():
            if kind == "health":
                block.health.setdefault(estimator, {})[name] = value
        for estimator in config.estimators:
            for channel in EVAL_BELIEFS:
                getattr(block, channel)[estimator] = _unchecked(
                    rows[channel, estimator, "mean"], rows[channel, estimator, "cov"])
    return block


def _filter_block_task(payload: tuple[ExperimentConfig, range]) -> _Block:
    return _filter_block(*payload)


def _is_negative(matrix: np.ndarray) -> np.ndarray:
    """Per-element flag: the symmetric matrix has a clearly negative eigenvalue."""
    eigs = np.linalg.eigvalsh(matrix)
    return eigs[..., 0] < -1e-12 * np.maximum(1.0, np.abs(eigs).max(axis=-1))


def _engine_beliefs(config: ExperimentConfig, model: SystemModel, posterior: GaussianBelief,
                    predicted: GaussianBelief) -> tuple[GaussianBelief, GaussianBelief]:
    """Beliefs feeding the step onto time k, stacked (R, T, ...) with row k-1.

    The state channel takes the belief about time k-1 (the prior at k = 1);
    the measurement channel takes the belief about time k.
    """
    chosen = posterior if config.state_eval == "posterior" else predicted
    count, n = chosen.mean.shape[0], model.state_dim
    state = _unchecked(
        np.concatenate([np.broadcast_to(model.prior.mean, (count, 1, n)),
                        chosen.mean[:, :-1]], axis=1),
        np.concatenate([np.broadcast_to(model.prior.cov, (count, 1, n, n)),
                        chosen.cov[:, :-1]], axis=1))
    meas = predicted if config.meas_eval == "predicted" else posterior
    return state, meas


def _fields(terms) -> tuple:
    """The arrays of a step-terms dataclass, in the order its constructor takes them."""
    return tuple(getattr(terms, f.name) for f in dataclasses.fields(terms))


def _bound_stage(config: ExperimentConfig, model: SystemModel, runs: np.ndarray,
                 errors: dict, posterior: dict, predicted: dict) -> Optional[dict]:
    """Run the per-run bound engines over the stack of runs.

    The step terms depend only on the beliefs at k-1 and k, never on J, so
    per estimator mean_only_terms and decompose_terms each run once over the
    whole (R, T) belief stack, with k = 1..T along the step axis.  Only J is
    recursed one time step at a time (fim_recursion_step,
    fim_via_decomposition), over every run's slice of those terms.  The
    closed-form gap (the product theta^-1 pi J^-1, bound_difference), the
    direct gap theta^-1 - J^-1 and its violation flags then run once over
    the (R, T) theta, pi and J stacks.

    The whole stage is one _isolated computation, so a run whose own element
    fails is dropped with that error.  Its error is the first in the order
    of the passes, not of the time steps: per estimator (config order) the
    mean-only terms, the mean-only recursion step by step, the mean+cov
    terms, the mean+cov recursion step by step, then the gaps.  So a run
    whose recursion would fail at step k1 while its terms fail at a later
    step k2 reports the terms' error.

    Args:
        runs: the run index of each row of the belief stacks.
        errors: where each failed run's error text is set, by run index.
        posterior, predicted: each estimator's belief stacks over the runs,
            mean (R, T, n) and cov (R, T, n, n).

    Returns:
        stacks mapping (quantity, estimator) to an array with one row per
        given run: "mean_only" and "mean_cov" information series, "pi"
        corrections (R, T, n, n), "gap_analytic" and "gap_direct" gaps
        (R, T, n, n) and "gap_violation" flags (R, T); the rows of failed
        runs are zero.  None when every run failed.
    """
    horizon, n = config.horizon, model.state_dim
    j0 = initial_fim(model.prior)
    steps = np.arange(1, horizon + 1)[:, None]

    def recurse(advance, count: int) -> list:
        """J over steps 1..T: advance(j, k) gives (J_k, *more) for every run;
        returns the series (R, T, ...) of J and of each further output."""
        j = np.broadcast_to(j0, (count, n, n)).copy()
        rows = []
        for k in range(1, horizon + 1):
            rows.append(advance(j, k))
            j = rows[-1][0]
        return [np.stack(series, axis=1) for series in zip(*rows)]

    def compute(positions) -> dict:
        stacks: dict = {}
        for estimator in config.estimators:
            state, meas = _engine_beliefs(config, model, *(
                _unchecked(beliefs[estimator].mean[positions], beliefs[estimator].cov[positions])
                for beliefs in (posterior, predicted)))

            if "mean_only" in config.methods:
                terms = _fields(mean_only_terms(model, steps, state.mean, meas.mean))
                stacks[("mean_only", estimator)], = recurse(lambda j, k: (fim_recursion_step(
                    j, FimTriple(*(term[:, k - 1] for term in terms))),), positions.size)

            if "mean_cov" in config.methods:
                parts = _fields(decompose_terms(model, steps, state, meas))

                def advance(j, k):
                    fim = fim_via_decomposition(
                        j, DecomposedFim(*(part[:, k - 1] for part in parts)))
                    return fim.j, fim.theta, fim.pi

                fim_j, theta, pi = recurse(advance, positions.size)
                theta_inv, j_inv = spd_inverse(theta), spd_inverse(fim_j)
                analytic, _ = bound_difference(theta_inv, pi, j_inv)
                direct = theta_inv - j_inv
                names = ("mean_cov", "pi", "gap_analytic", "gap_direct", "gap_violation")
                stacks.update({(name, estimator): value for name, value in
                               zip(names, (fim_j, pi, analytic, direct, _is_negative(direct)))})
        return stacks

    return _isolated(compute, runs, errors)


def true_bound_series(model: SystemModel, states: np.ndarray, horizon: int) -> np.ndarray:
    """Reference information series from Monte Carlo averages over trajectories.

    Args:
        states: the trajectories' states, shape (R, T+1, n).

    Returns:
        J series of shape (T, n, n) for k = 1..T.
    """
    if len(states) == 0:
        raise ExperimentError("no trajectories available for the reference bound")
    states = np.asarray(states, dtype=float)
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
    filter_health: dict          # estimator -> counter -> value, see _summarize_health
    runs_used: int
    failed_runs: list            # [(index, error), ...]
    run_stacks: dict             # per-run series of the completed runs, see _bound_stage
    stage_seconds: dict          # stage -> wall seconds, see run_experiment

    @property
    def horizon(self) -> int:
        return self.config.horizon


def _summarize_health(health: dict, ok: np.ndarray) -> dict:
    """One estimator's filter counters over the completed runs: counts summed,
    the smallest effective sample size kept."""
    return {name: float(values[ok].min()) if name == "min_ess" else int(values[ok].sum())
            for name, values in health.items()}


def _failed_runs(config: ExperimentConfig, errors: dict) -> list:
    """The failed runs as [(index, error), ...] in index order.

    Raises:
        ExperimentError: more than the allowed fraction of runs, or every
            run, failed.
    """
    failed = sorted(errors.items())
    if len(failed) > config.max_failure_fraction * config.runs:
        details = "; ".join(f"run {i}: {e}" for i, e in failed[:5])
        raise ExperimentError(
            f"{len(failed)} of {config.runs} runs failed "
            f"(threshold {config.max_failure_fraction:.0%}): {details}")
    if len(failed) == config.runs:
        raise ExperimentError("every run failed")
    return failed


def run_experiment(config: ExperimentConfig) -> AggregateResult:
    """Run the full Monte Carlo experiment described by the config.

    The result's stage_seconds holds the wall seconds of its four stages:
    "filtering" (sampling and filtering the blocks and stacking their
    outputs), "bound_engines" (the mean-only and mean+cov engines over the
    stack of runs), "reference" (the reference bound) and "aggregation"
    (bounds, RMSE, gaps and counters over the completed runs).
    """
    clock = time.perf_counter()
    stage_seconds: dict = {}

    def lap(stage: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        stage_seconds[stage] = now - clock
        clock = now

    model = build_model(config)
    blocks = _blocks(config, model.state_dim)
    if config.workers == 1:
        parts = [_filter_block(config, block) for block in blocks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.workers) as pool:
            parts = list(pool.map(_filter_block_task, [(config, b) for b in blocks]))

    errors = {index: error for part in parts for index, error in part.errors.items()}
    parts = [part for part in parts if part.states is not None]
    if not parts:
        _failed_runs(config, errors)  # raises: every run failed
    runs = np.concatenate([part.indices for part in parts])
    filtered = np.array([i not in errors for i in runs])
    states = np.concatenate([part.states for part in parts])
    posterior, predicted, health = {}, {}, {}
    for estimator in config.estimators:
        for channel, name in ((posterior, "posterior"), (predicted, "predicted")):
            beliefs = [getattr(part, name)[estimator] for part in parts]
            channel[estimator] = _unchecked(np.concatenate([b.mean for b in beliefs]),
                                            np.concatenate([b.cov for b in beliefs]))
        health[estimator] = {counter: np.concatenate([part.health[estimator][counter]
                                                      for part in parts])
                             for counter in parts[0].health[estimator]}
    lap("filtering")

    stacks = None
    if filtered.any():
        stacks = _bound_stage(
            config, model, runs[filtered], errors,
            {e: _unchecked(b.mean[filtered], b.cov[filtered]) for e, b in posterior.items()},
            {e: _unchecked(b.mean[filtered], b.cov[filtered]) for e, b in predicted.items()})
    lap("bound_engines")

    failed = _failed_runs(config, errors)
    ok = np.array([i not in errors for i in runs])
    run_stacks = {key: value[ok[filtered]] for key, value in stacks.items()}

    bounds: dict = {}
    if "true" in config.methods:
        true_fims = true_bound_series(model, states[ok], config.horizon)
        bounds[("true", None)] = spd_inverse(true_fims)
    lap("reference")
    for method in ("mean_only", "mean_cov"):
        if method not in config.methods:
            continue
        for estimator in config.estimators:
            bounds[(method, estimator)] = aggregate_bounds(run_stacks[(method, estimator)],
                                                           config.averaging)

    rmse = {estimator: rmse_series(states[ok], posterior[estimator].mean[ok])
            for estimator in config.estimators}

    gaps = {}
    if "mean_cov" in config.methods:
        for estimator in config.estimators:
            analytic, direct, violations = gap_series(run_stacks, estimator)
            gaps[estimator] = {"analytic": analytic, "direct": direct,
                               "violations": violations}
    lap("aggregation")

    return AggregateResult(config=config, bounds=bounds, rmse=rmse, gaps=gaps,
                           filter_health={e: _summarize_health(h, ok) for e, h in health.items()},
                           runs_used=int(ok.sum()), failed_runs=failed, run_stacks=run_stacks,
                           stage_seconds=stage_seconds)
