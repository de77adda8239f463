"""Monte Carlo experiment harness.

One experiment runs R independent trajectories of a model, filters each with
the configured estimators, and produces:

* the reference bound from Monte Carlo expectations over the same trajectory
  ensemble (paired design),
* the mean-only and mean+cov approximate bounds per estimator, recursed from
  each run's filter beliefs: the step onto time k takes F at the posterior
  about time k-1 (the prior at k = 1) and H at the predicted belief about
  time k, the mean-only engine at their means,
* per-step gap series between the two approximations, from the theta/pi
  split of each step of the mean+cov chain, evaluated both through the
  closed-form product theta^-1 pi J^-1 and by direct subtraction of the two
  inverses, plus counts of steps where the direct gap loses positive
  semidefiniteness,
* per-step RMSE per estimator.

The runs are split into consecutive blocks, and each block does all of its
runs' work in one guarded pass (``_run_block``): it samples the block's
trajectories in one stacked call, runs each estimator once over the block's
stack of measurement sequences, then runs the bound engines over those filter
outputs.  A block holds about 2^16 particle values (block x N x n), so at
N = 1000 one block takes 65 runs and at N = 20000 three, and there are at
least ``workers`` blocks.  The blocks are split into ``workers``
consecutive shares, but no more than there are blocks, and one share
without ``os.fork``, and run fork-join (``_Fork``): the calling process
forks one child per share but the first, runs the first share itself, then
reads each child's parts back through a pipe.  So one share, as at
``workers`` = 1, is the same path with no child.

Every run is a pure function of (config, run index): run seeds come from a
splitmix64 avalanche of the master seed, the sampler and the particle filter
draw only from the run's own Generators, and every bound element is computed
on its own, so the block split changes no byte.  A block returns a run table:
a dict of arrays with one row per completed run in run-index order, keyed
"states", ("mean", estimator) for the posterior means, ("health", estimator,
counter), and (quantity, estimator) for the bound engines' stacks.  The pass
is guarded once (``_isolated``): when its stacked call raises, the runs are
halved and each half rerun, so a run that fails on its own, in sampling, a
filter or a bound engine, is marked failed with its first error (sampling,
then the estimators in config order, then the bound passes; see _bound_rows)
and has no rows.  The calling process joins the blocks' tables in block order
and runs only what needs every trajectory at once, the reference bound, and
the aggregation.  Results are bit-identical for any worker count and block
split.
"""

from __future__ import annotations

import collections.abc
import inspect
import operator
import os
import pickle
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from .filters import RESAMPLE_POLICIES, UTParams, _health_total, _ut_weights, run_pf, run_ukf
from .fim import (FimTriple, bound_difference, decompose_terms, fim_recursion_series,
                  fim_via_decomposition, initial_fim, mean_only_terms, true_fim_terms_mc)
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
# Errors that fail one run rather than the whole experiment.
RUN_ERRORS = (NumericError, np.linalg.LinAlgError, ValueError)


class ExperimentError(RuntimeError):
    """The experiment could not produce a trustworthy aggregate."""


def derive_run_seed(master_seed: int, index: int) -> int:
    """Derive an independent 64-bit seed for one run.

    splitmix64-style avalanche of (master_seed, index): the input is the
    master seed advanced by (index + 1) golden-ratio increments, then mixed.
    Distinct indices under one master always map to distinct seeds.  index
    may be any integer type, numpy's included; a float raises TypeError.
    """
    index = operator.index(index)
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
    resample: str = "always"
    ess_threshold: float = 0.5
    max_failure_fraction: float = 0.1

    def __post_init__(self) -> None:
        for key in ("horizon", "runs", "particles", "workers", "master_seed"):
            value = getattr(self, key)
            try:  # operator.index takes a bool as 0 or 1; no count or seed is a bool
                object.__setattr__(self, key, operator.index(None if isinstance(value, bool)
                                                             else value))
            except TypeError:
                raise ValueError(f"{key} must be an integer, got {value!r}") from None
            if key != "master_seed" and getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1")
        for key, allowed in (("model_name", tuple(_MODELS)), ("averaging", AVERAGING_MODES),
                             ("resample", RESAMPLE_POLICIES)):
            if getattr(self, key) not in allowed:
                raise ValueError(f"unknown {key} {getattr(self, key)!r}; allowed: {allowed}")
        for key, allowed in (("methods", ALL_METHODS), ("estimators", ALL_ESTIMATORS)):
            value = getattr(self, key)
            chosen = tuple(value) if np.iterable(value) and not isinstance(value, str) else None
            if chosen is None or not all(isinstance(name, str) for name in chosen):
                raise ValueError(f"{key} must be a sequence of names, got {value!r}")
            object.__setattr__(self, key, chosen)
            if not chosen:
                raise ValueError(f"{key} must not be empty")
            unknown = set(chosen) - set(allowed)
            if unknown:
                raise ValueError(f"unknown {key} {sorted(unknown)}; allowed: {allowed}")
            if len(set(chosen)) < len(chosen):
                raise ValueError(f"{key} must not repeat an entry, got {chosen}")
        if not isinstance(self.model_params, collections.abc.Mapping):
            raise ValueError(f"model_params must be a mapping of model keys to values, "
                             f"got {self.model_params!r}")
        unknown = set(self.model_params) - set(_model_keys(self.model_name))
        if unknown:
            raise ValueError(f"model keys {sorted(unknown, key=str)} do not apply to model "
                             f"{self.model_name!r}")
        if not isinstance(self.ut, UTParams):
            raise ValueError(f"ut must be a UTParams, got {self.ut!r}")
        # the model's values may be matrices where its table entry says so; ut_kappa None is 3 - n
        scalars = {"ess_threshold": self.ess_threshold,
                   "max_failure_fraction": self.max_failure_fraction,
                   **{f"ut_{name}": getattr(self.ut, name) for name in ("alpha", "beta", "kappa")}}
        if self.ut.kappa is None:
            del scalars["ut_kappa"]
        for key, value in {**scalars, **self.model_params}.items():
            try:
                array = np.asarray(value)
            except ValueError:  # a ragged nesting
                array = np.asarray(None)
            scalar = key in scalars or not _MODELS[self.model_name][1]
            if array.dtype.kind not in "iuf" or (scalar and array.ndim):
                kind = "a number" if scalar else "a number or a matrix of numbers"
                raise ValueError(f"{key} must be {kind}, got {value!r}")
            if not np.all(np.isfinite(array)):
                raise ValueError(f"{key} must be finite, got {value}")
            if key.endswith("_var") and array.ndim == 0 and array <= 0:  # a variance
                raise ValueError(f"{key} must be positive, got {value}")
        if not 0.0 < self.ess_threshold <= 1.0:
            raise ValueError(f"ess_threshold must lie in (0, 1], got {self.ess_threshold}")
        if not 0.0 <= self.max_failure_fraction <= 1.0:
            raise ValueError(
                f"max_failure_fraction must lie in [0, 1], got {self.max_failure_fraction}")
        model = build_model(self)  # checks shapes and positive definiteness
        if "ukf" in self.estimators:
            try:  # the spread the filter forms, not a rearrangement of it
                _ut_weights(model.state_dim, self.ut)
            except ValueError as err:
                raise ValueError(f"ut_alpha {self.ut.alpha} and ut_kappa {self.ut.kappa} give "
                                 f"{err} for state dimension {model.state_dim}") from None


# model name -> (builder, whether the model's values may be matrices).  A
# builder takes the model's [model] keys as keyword parameters, with their
# defaults, so a model is its builder and its entry here.
_MODELS = {"ungm": (ungm_model, False), "linear": (linear_gaussian_model, True)}


def _model_keys(name: str) -> tuple[str, ...]:
    """The [model] keys of the named model: its builder's parameters."""
    return tuple(inspect.signature(_MODELS[name][0]).parameters)


def build_model(config: ExperimentConfig) -> SystemModel:
    """Construct the configured model."""
    return _MODELS[config.model_name][0](**config.model_params)


# A block of runs holds at most about this many particle values (block x N x n).
# A particle-filter step has a fixed cost of about 0.11 ms per call without
# covariances and 0.13 ms with them (three clouds of ten particles), which
# larger blocks pay less often.  On pf-dense (N = 20,000, means only) 2^15,
# one run per block, is about 10% slower than 2^16, three; 2^17, six, is
# within 2% of 2^16, less than the spread of the runs, and takes about
# 4 MiB more memory.
_BLOCK_VALUES = 2 ** 16


def _blocks(config: ExperimentConfig, state_dim: int) -> list[range]:
    """Consecutive blocks of run indices: within the particle budget, at least
    ``workers`` of them (as far as there are runs), and at least one run each."""
    size = max(1, _BLOCK_VALUES // (config.particles * state_dim))
    size = max(1, min(size, -(-config.runs // config.workers)))
    return [range(start, min(start + size, config.runs))
            for start in range(0, config.runs, size)]


def _rows(tables: list) -> dict:
    """Run tables with the same keys, joined row by row in the given order; a
    single table is returned as is."""
    if len(tables) == 1:
        return tables[0]
    return {key: np.concatenate([table[key] for table in tables]) for key in tables[0]}


def _isolated(compute, runs: np.ndarray, errors: dict) -> dict:
    """compute over a stack of runs, leaving out the runs that fail on their own.

    compute(positions) takes positions into runs, the stack's run indices,
    and returns a run table: a dict of arrays with one row per position.
    When it raises one of RUN_ERRORS, the positions are halved and each half
    computed anew; a single run that still raises gets errors[its run index]
    set to its error text and no rows.  A run's rows do not depend on the
    rest of its stack, so the rerun rows are the ones the whole stack would
    give.  The lower half is computed first, so the pieces come in ascending
    position order.

    Returns:
        compute's table over the runs that did not fail, one row per run in
        ascending position order; an empty table when every run failed.
    """
    pieces, pending = [], [np.arange(len(runs))]
    while pending:
        positions = pending.pop()
        try:
            pieces.append(compute(positions))
        except RUN_ERRORS as exc:
            if positions.size == 1:
                errors[int(runs[positions[0]])] = f"{type(exc).__name__}: {exc}"
            else:
                half = positions.size // 2
                pending += [positions[half:], positions[:half]]
    return _rows(pieces) if pieces else {}


def _run_block(config: ExperimentConfig, indices: range) -> tuple[dict, dict, dict]:
    """Sample the block's trajectories in one stacked call, run each estimator
    once over them, then _bound_rows over the estimators' outputs.

    Returns:
        (table, errors, seconds): the completed runs' table, keyed "states"
        (R, T+1, n), ("mean", estimator) (R, T, n) for the posterior means,
        ("health", estimator, counter) (R,) (see filters.FilterOutput) and
        _bound_rows' (quantity, estimator) stacks; each failed run's first
        error text by run index; and the seconds spent in "filtering" and
        in "bound_engines", summed over every guarded computation.
    """
    model = build_model(config)
    seeds = [run_seeds(config.master_seed, i) for i in indices]
    seconds = {"filtering": 0.0, "bound_engines": 0.0}

    def compute(positions):
        picked = [seeds[p] for p in positions]
        start = time.perf_counter()
        try:
            trajectory = sample_trajectory(model, config.horizon, [s for s, _ in picked])
            table, outputs = {"states": trajectory.states}, []
            for estimator in config.estimators:
                if estimator == "ukf":
                    out = run_ukf(model, trajectory.measurements, config.ut)
                else:
                    out = run_pf(model, trajectory.measurements, config.particles,
                                 [s for _, s in picked], resample=config.resample,
                                 ess_threshold=config.ess_threshold,
                                 covariances="mean_cov" in config.methods)
                outputs.append(out)
                table["mean", estimator] = out.posterior.mean
                table.update({("health", estimator, name): value
                              for name, value in out.health.items()})
        finally:
            filtered = time.perf_counter()
            seconds["filtering"] += filtered - start
        try:
            return table | _bound_rows(config, model, outputs)
        finally:
            seconds["bound_engines"] += time.perf_counter() - filtered

    errors: dict = {}
    return _isolated(compute, np.asarray(indices), errors), errors, seconds


def _negative(eigs: np.ndarray) -> np.ndarray:
    return eigs[..., 0] < -1e-12 * np.maximum(1.0, np.abs(eigs).max(axis=-1))


def _is_negative(matrix: np.ndarray) -> np.ndarray:
    """Per-element flag: the symmetric matrix has a clearly negative eigenvalue,
    lambda_min < -1e-12 max(1, max |lambda|), with the eigenvalues eigvalsh gives.

    An element that an exact bound decides needs no eigenvalue: a 1 x 1
    matrix is its own eigenvalue (eigvalsh returns the entry), and where
    ||M||_F < 0.5e-12 every |lambda| lies below it, half the threshold of
    1e-12, a margin that the rounding of eigvalsh (of order eps ||M||)
    cannot cross, so the flag is False.  Only the other elements go to
    eigvalsh, so the flags are the eigvalsh rule's element by element."""
    if matrix.shape[-1] == 1:
        return _negative(matrix[..., 0])
    flags = np.zeros(matrix.shape[:-2], dtype=bool)
    undecided = ~(np.linalg.norm(matrix, axis=(-2, -1)) < 0.5e-12)  # NaN stays open
    if undecided.any():
        flags[undecided] = _negative(np.linalg.eigvalsh(matrix[undecided]))
    return flags


def _previous(first: np.ndarray, series: np.ndarray) -> np.ndarray:
    """The value about time k-1 at row k-1 of a series (..., T, *first.shape)
    over k = 1..T: first, the time-0 value, at k = 1, then the series' rows
    for k = 1..T-1."""
    axis = series.ndim - first.ndim - 1
    head = np.broadcast_to(first, series.shape[:axis] + (1,) + first.shape)
    return np.concatenate([head, series[(slice(None),) * axis + (slice(None, -1),)]], axis=axis)


def _engine_beliefs(model: SystemModel, outputs: list, covariances: bool
                    ) -> tuple[GaussianBelief, GaussianBelief]:
    """Beliefs feeding the step onto time k, from the estimators' filter
    outputs over a stack of runs, stacked (E, R, T, ...) in the order of
    outputs, with row k-1.  Without covariances only the means are stacked,
    and both beliefs' cov is None.

    This is the one place that decides which filter belief feeds each
    channel.  The state channel (F) takes the posterior about time k-1, the
    prior at k = 1; the measurement channel (H) takes the predicted belief
    about time k, before the measurement z_k enters it.
    """
    def stacked(channel, kind):
        return np.stack([getattr(getattr(out, channel), kind) for out in outputs])

    def state(kind):
        return _previous(getattr(model.prior, kind), stacked("posterior", kind))

    if not covariances:
        return _unchecked(state("mean"), None), _unchecked(stacked("predicted", "mean"), None)
    return (_unchecked(state("mean"), state("cov")),
            _unchecked(stacked("predicted", "mean"), stacked("predicted", "cov")))


def _bound_rows(config: ExperimentConfig, model: SystemModel, outputs: list) -> dict:
    """Run the per-run bound engines over the estimators' filter outputs.

    The estimators' beliefs are stacked (E, R, T, ...), and the step terms
    depend only on the beliefs at k-1 and k, never on J, so each term triple
    is evaluated once for every estimator, run and step, k = 1..T along the
    step axis: decompose_terms gives the point and full triples when
    mean_cov runs, mean_only_terms the point one otherwise.  The triples the
    approximate chains run on (point for mean_only, full for mean_cov) are
    stacked on a leading chain axis, so one fim_recursion_series call steps
    every chain of every estimator and run at once, (C, E, R, T, n, n).  One
    fim_via_decomposition call then splits every step of the mean+cov
    chains, each from its J_{k-1} and the (J_{k-1} + full.d11)^-1 the
    recursion formed there, and the closed-form gap theta^-1 pi
    (theta + pi)^-1 (bound_difference), the direct gap theta^-1 -
    (theta + pi)^-1 and its violation flags run once over the (E, R, T)
    stacks: the split's own sum theta + pi, J_k up to rounding, makes the
    closed form an identity.  Every element is computed on its own, so an
    estimator's or chain's rows are the ones it gets when run alone, and a
    run's rows do not depend on the other runs of its block.

    This runs inside _run_block's guarded pass, so a run whose own element
    fails is dropped with that error.  Its error is the first in the order
    of the passes: the terms for all estimators (mean-only, then mean+cov
    when mean_cov runs), the recursion step by step over all chains, the
    split, then the gaps; within a pass no estimator or chain comes first.
    So a run whose recursion would fail at step k1 while its terms fail at
    a later step k2 reports the terms' error, and a run that fails in two
    estimators or chains reports the earlier pass or step, whichever
    estimator or chain it is in.  The text is the one the failing element
    gives on its own, with one exception: a NumericError names the smallest
    eigenvalue of the stack that failed to factor, which holds every chain
    and estimator of the run, so where two of them fail in the same call it
    names the smaller of their two eigenvalues.

    Args:
        outputs: each estimator's FilterOutput over the stack of runs,
            (R, T, ...), in config order.

    Returns:
        The runs' table keyed (quantity, estimator): "mean_only" and
        "mean_cov" information series, "pi" corrections and "gap_analytic"
        and "gap_direct" gaps (R, T, n, n), and "gap_violation" flags (R, T),
        each the estimator's row of its quantity's stack over estimators;
        empty when no approximate chain runs.
    """
    estimators = config.estimators
    chains = [method for method in ("mean_only", "mean_cov") if method in config.methods]
    if not chains:
        return {}
    j0 = initial_fim(model.prior)
    steps = np.arange(1, config.horizon + 1)[:, None]
    state, meas = _engine_beliefs(model, outputs, "mean_cov" in chains)
    if "mean_cov" in chains:
        point, full = decompose_terms(model, steps, state, meas)
        terms = {"mean_only": point, "mean_cov": full}
    else:
        terms = {"mean_only": mean_only_terms(model, steps, state.mean, meas.mean)}
    series, inverses = fim_recursion_series(j0, FimTriple(
        *(np.stack([getattr(terms[chain], block) for chain in chains])
          for block in ("d11", "d12", "d22"))), inverses=True)
    named = dict(zip(chains, series))
    if "mean_cov" in chains:
        # the mean+cov chain comes last
        theta, pi = fim_via_decomposition(_previous(j0, series[-1]), point, full,
                                          full_inv=inverses[-1])
        theta_inv, j_inv = spd_inverse(theta), spd_inverse(theta + pi)
        analytic, _ = bound_difference(theta_inv, pi, j_inv)
        direct = theta_inv - j_inv
        named |= {"pi": pi, "gap_analytic": analytic, "gap_direct": direct,
                  "gap_violation": _is_negative(direct)}
    return {(name, estimator): stack[e] for name, stack in named.items()
            for e, estimator in enumerate(estimators)}


def true_bound_series(model: SystemModel, states: np.ndarray) -> np.ndarray:
    """Reference information series from Monte Carlo averages over trajectories.

    Args:
        states: the trajectories' states, shape (R, T+1, n); T is read from them.

    Returns:
        J series of shape (T, n, n) for k = 1..T.
    """
    if len(states) == 0:
        raise ExperimentError("no trajectories available for the reference bound")
    # (T+1, R, n): each step's R states contiguous, so each mean over them
    # sums in the order of a single step's (R, n) call
    states = np.ascontiguousarray(np.swapaxes(np.asarray(states, dtype=float), 0, 1))
    steps = np.arange(1, len(states))[:, None, None]
    terms = true_fim_terms_mc(model, steps, states[:-1], states[1:])
    return fim_recursion_series(initial_fim(model.prior), terms)


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
    run_stacks: dict             # per-run series of the completed runs, see _bound_rows
    stage_seconds: dict          # stage -> seconds, see run_experiment


def _summarize_health(table: dict, estimator: str) -> dict:
    """One estimator's filter counters over the table's runs, each combined
    by _health_total: counts summed, the smallest effective sample size kept."""
    return {key[2]: _health_total(key[2], values, 0).item()
            for key, values in table.items() if key[:2] == ("health", estimator)}


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


class _Fork:
    """A forked child process that runs _run_block over a share of the blocks
    and sends back its parts, or the error it raised, pickled through a pipe.

    The child ends in os._exit whatever happens, so it never returns into the
    caller's stack, and it exits with status 0 only once the whole pickle is
    written.  run_experiment starts one per share but the first; a test may
    put an in-process stand-in with the same three members in its place.
    """

    def __init__(self, config: ExperimentConfig, share: list) -> None:
        self.runs = f"runs {share[0].start}-{share[-1].stop - 1}"
        read, write = os.pipe()
        self.pipe = os.fdopen(read, "rb")
        try:
            self.pid = os.fork()
            if self.pid == 0:
                self._child(config, share, write)
        except BaseException:  # no child started: its end of the pipe goes too
            self.pipe.close()
            raise
        finally:
            os.close(write)

    @staticmethod
    def _child(config: ExperimentConfig, share: list, write: int) -> typing.NoReturn:
        """The child's whole life: run the share, write the reply, exit."""
        status = 1
        try:
            try:
                reply = ([_run_block(config, block) for block in share], None, None)
            except BaseException as exc:  # sent to the caller, which raises it
                import traceback  # loaded only where a child fails
                try:
                    error = pickle.dumps(exc)
                except Exception:
                    error = None
                reply = (None, error, traceback.format_exc())
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)

    def join(self) -> list:
        """Wait for the child and return its parts, or raise its error.

        Raises:
            ExperimentError: the child ended without a whole result.
            RuntimeError: the child's error did not pickle; carries its
                traceback text.
        """
        with self.pipe:
            data = self.pipe.read()  # before waiting: a full pipe holds the child
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise ExperimentError(f"the child process for {self.runs} {how} without a result")
        parts, error, text = pickle.loads(data)
        if text is None:
            return parts
        try:
            exc = pickle.loads(error)
        except Exception:  # None, or an exception class that does not rebuild
            raise RuntimeError(f"the child process for {self.runs} raised an error that "
                               f"does not pickle:\n{text}") from None
        raise exc from RuntimeError(f"in the child process for {self.runs}:\n{text}")

    def kill(self) -> None:
        """Kill and reap the child unless it is joined already."""
        import signal  # loaded only where a run forks

        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def run_experiment(config: ExperimentConfig) -> AggregateResult:
    """Run the full Monte Carlo experiment described by the config.

    The calling process forks one child per share of the blocks but the
    first and runs the first share itself (see the module docstring); with
    one share, at ``workers`` = 1 or where ``os.fork`` does not exist, it
    forks none.  A child's error is raised here, and whether this returns or
    raises, every child has ended and been reaped.

    The result's stage_seconds holds the seconds of its four stages:
    "filtering" (sampling and filtering) and "bound_engines" (the mean-only
    and mean+cov engines) sum the blocks' seconds in each part, over the
    calling process and its children when ``workers`` > 1 and over every
    guarded computation, those that raised included; "reference" (the
    reference bound) and "aggregation" (bounds, RMSE, gaps and counters over
    the completed runs) are wall seconds in the calling process.
    """
    model = build_model(config)
    blocks = _blocks(config, model.state_dim)
    count = min(config.workers if hasattr(os, "fork") else 1, len(blocks))
    cuts = [len(blocks) * i // count for i in range(count + 1)]
    shares = [blocks[start:stop] for start, stop in zip(cuts, cuts[1:])]
    children = []
    try:  # no child outlives this call, whatever it raises
        for share in shares[1:]:
            children.append(_Fork(config, share))
        parts = [_run_block(config, block) for block in shares[0]]
        for child in children:
            parts += child.join()
    finally:
        for child in children:
            child.kill()
    failed = _failed_runs(config, {index: error for _, errors, _ in parts
                                   for index, error in errors.items()})
    table = _rows([part[0] for part in parts if part[0]])
    stage_seconds = {stage: sum(part[2][stage] for part in parts)
                     for stage in ("filtering", "bound_engines")}

    clock = time.perf_counter()
    bounds: dict = {}
    if "true" in config.methods:
        bounds["true", None] = spd_inverse(true_bound_series(model, table["states"]))
    stage_seconds["reference"] = (lap := time.perf_counter()) - clock

    states = table.pop("states")
    rmse = {estimator: rmse_series(states, table.pop(("mean", estimator)))
            for estimator in config.estimators}
    health = {estimator: _summarize_health(table, estimator) for estimator in config.estimators}
    run_stacks = {key: value for key, value in table.items() if key[0] != "health"}
    bounds |= {(method, estimator): aggregate_bounds(run_stacks[method, estimator],
                                                     config.averaging)
               for method in ("mean_only", "mean_cov") if method in config.methods
               for estimator in config.estimators}
    gaps = {estimator: dict(zip(("analytic", "direct", "violations"),
                                gap_series(run_stacks, estimator)))
            for estimator in config.estimators if "mean_cov" in config.methods}
    stage_seconds["aggregation"] = time.perf_counter() - lap

    return AggregateResult(config=config, bounds=bounds, rmse=rmse, gaps=gaps,
                           filter_health=health, runs_used=len(states), failed_runs=failed,
                           run_stacks=run_stacks, stage_seconds=stage_seconds)
