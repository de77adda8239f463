import dataclasses
import errno
import hashlib
import json
import os
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pcrlb import experiment, filters, fim
from pcrlb.cli import (kalman_series, random_spd, write_bounds_csv, write_gap_csv, write_meta,
                       write_rmse_csv)
from pcrlb.linalg import symmetrize
from pcrlb import (ExperimentConfig, ExperimentError, GaussianBelief,
                   SystemModel, UTParams, build_model, decompose_terms,
                   fim_recursion_series, fim_recursion_step,
                   fim_via_decomposition, initial_fim,
                   mean_cov_terms, run_experiment, run_ukf,
                   sample_trajectory, spd_inverse, true_fim_terms_mc)
from pcrlb.experiment import (aggregate_bounds, derive_run_seed, gap_series, rmse_series,
                              true_bound_series)
from test_golden import CONFIGS as GOLDEN_CONFIGS

LINEAR_PARAMS = {"a": 0.9, "h": 1.0, "process_var": 0.6, "meas_var": 0.8,
                 "prior_mean": 0.0, "prior_var": 2.0}


def test_linear_config_reference_series_match_kalman():
    """On a linear model every engine gives the Kalman covariance, whatever
    the beliefs fed to it: the reference, and mean_only and mean_cov on the
    beliefs that the harness takes from each estimator."""
    config = ExperimentConfig(model_name="linear", model_params=LINEAR_PARAMS,
                              horizon=30, runs=3, particles=200, master_seed=5)
    result = run_experiment(config)
    model = build_model(config)
    kalman = np.stack([out.posterior.cov
                       for out in kalman_series(model, np.zeros((30, model.meas_dim)))])
    assert_allclose(result.bounds[("true", None)], kalman, atol=1e-12)
    for method in ("mean_only", "mean_cov"):
        for estimator in ("ukf", "pf"):
            assert_allclose(result.bounds[method, estimator], kalman, atol=1e-12,
                            err_msg=f"{method} {estimator}")


def test_linear_config_mean_cov_series_matches_rewired_recursion():
    """The harness feeds posterior state beliefs and predicted measurement
    beliefs into the covariance-aware engine; rebuild that chain by hand."""
    config = ExperimentConfig(model_name="linear", model_params=LINEAR_PARAMS,
                              horizon=12, runs=1, particles=200,
                              estimators=("ukf",), master_seed=5)
    result = run_experiment(config)
    model = build_model(config)
    run_seed = derive_run_seed(config.master_seed, 0)
    traj = sample_trajectory(model, config.horizon, derive_run_seed(run_seed, 0))
    outputs = run_ukf(model, traj.measurements, config.ut)
    j = initial_fim(model.prior)
    expected = []
    for k in range(1, config.horizon + 1):
        prev = (GaussianBelief(model.prior.mean, model.prior.cov) if k == 1
                else GaussianBelief(outputs.posterior.mean[k - 2], outputs.posterior.cov[k - 2]))
        meas = GaussianBelief(outputs.predicted.mean[k - 1], outputs.predicted.cov[k - 1])
        j = fim_recursion_step(j, mean_cov_terms(model, k, prev, meas))
        expected.append(spd_inverse(j))
    assert_allclose(result.bounds[("mean_cov", "ukf")], np.stack(expected),
                    rtol=1e-8, atol=1e-12)


def test_kalman_mse_respects_reference_bound():
    """Empirical MSE of the exact filter stays above the bound, up to MC noise."""
    config = ExperimentConfig(model_name="linear", model_params=LINEAR_PARAMS,
                              horizon=20, runs=100, estimators=("ukf",),
                              methods=("true",), master_seed=17)
    result = run_experiment(config)
    model = build_model(config)

    sq_errors = np.empty((config.runs, config.horizon))
    for i in range(config.runs):
        run_seed = derive_run_seed(config.master_seed, i)
        traj = sample_trajectory(model, config.horizon, derive_run_seed(run_seed, 0))
        outputs = run_ukf(model, traj.measurements, config.ut)
        est = outputs.posterior.mean
        sq_errors[i] = np.sum((traj.states[1:] - est) ** 2, axis=1)

    mse = sq_errors.mean(axis=0)
    sigma_mc = sq_errors.std(axis=0, ddof=1) / np.sqrt(config.runs)
    bound = result.bounds[("true", None)][:, 0, 0]
    assert np.all(mse >= bound - 3.0 * sigma_mc)


def test_worker_count_does_not_change_results():
    base = dict(model_name="ungm", horizon=8, runs=4, particles=50)
    serial = run_experiment(ExperimentConfig(**base, workers=1))
    parallel = run_experiment(ExperimentConfig(**base, workers=2))
    assert serial.runs_used == parallel.runs_used
    for key in serial.bounds:
        assert np.array_equal(serial.bounds[key], parallel.bounds[key])
    for est in serial.rmse:
        assert np.array_equal(serial.rmse[est], parallel.rmse[est])
    for est in serial.gaps:
        for field in ("analytic", "direct", "violations"):
            assert np.array_equal(serial.gaps[est][field], parallel.gaps[est][field])


def write_outputs(result, outdir):
    outdir.mkdir()
    for writer, name in ((write_rmse_csv, "rmse.csv"), (write_bounds_csv, "bounds.csv"),
                         (write_gap_csv, "gap.csv")):
        writer(outdir / name, result)
    return {name: (outdir / name).read_bytes() for name in ("rmse.csv", "bounds.csv", "gap.csv")}


def test_blocks_over_three_workers_give_the_same_csv_bytes(tmp_path, monkeypatch):
    """Blocks on three processes, and one run per block, give the CSV bytes,
    run stacks, bounds, failed runs and filter health of one block of every
    run: each block bounds its own runs, and a run's rows do not depend on
    the rest of its block.  On a 7-run ungm config and the golden configs."""
    base = ExperimentConfig(model_name="ungm", horizon=10, runs=7, particles=60, master_seed=11)
    # three blocks (3 + 3 + 1 runs) on three processes against one block of 7
    assert [len(b) for b in experiment._blocks(dataclasses.replace(base, workers=3), 1)] == [3, 3, 1]
    for name, config in {"base": base, **GOLDEN_CONFIGS}.items():
        serial = run_experiment(config)
        pooled = run_experiment(dataclasses.replace(config, workers=3))
        with monkeypatch.context() as patch:
            patch.setattr(experiment, "_BLOCK_VALUES", 1)
            assert len(experiment._blocks(config, build_model(config).state_dim)) == config.runs
            single = run_experiment(config)
        want = write_outputs(serial, tmp_path / f"{name}-serial")
        for split, got in (("pooled", pooled), ("single", single)):
            assert write_outputs(got, tmp_path / f"{name}-{split}") == want, (name, split)
            assert_same_runs(got, serial)
            assert got.failed_runs == serial.failed_runs


def test_block_size_follows_the_particle_budget():
    def sizes(**kwargs):
        config = ExperimentConfig(model_name="ungm", horizon=2, **kwargs)
        return [len(b) for b in experiment._blocks(config, 1)]

    assert sizes(runs=20, particles=1000) == [20]
    assert sizes(runs=100, particles=1000) == [65, 35]
    assert sizes(runs=3, particles=20000) == [3]
    assert sizes(runs=20, particles=1000, workers=2) == [10, 10]


def test_fork_join_starts_one_child_per_share_but_the_first(monkeypatch):
    """No child at workers = 1, one for two blocks whether workers is 2 or 4,
    two for the 7-run split into blocks of 3, 3 and 1 on three workers, and
    the results of one process each time.  The child is a stand-in that
    records its share and runs it in this process: no process starts."""
    shares = []

    class InProcessFork:
        def __init__(self, config, share):
            shares.append([list(block) for block in share])
            self.parts = [experiment._run_block(config, block) for block in share]

        def join(self):
            return self.parts

        def kill(self):
            pass

    monkeypatch.setattr(experiment, "_Fork", InProcessFork)
    for config, children in (
            (ExperimentConfig(model_name="ungm", horizon=5, runs=2, particles=40),
             {1: [], 2: [[[1]]], 4: [[[1]]]}),
            (ExperimentConfig(model_name="ungm", horizon=5, runs=7, particles=40),
             {1: [], 3: [[[3, 4, 5]], [[6]]]})):
        serial = run_experiment(config)
        for workers, want in children.items():
            shares.clear()
            assert_same_runs(run_experiment(dataclasses.replace(config, workers=workers)), serial)
            assert shares == want, workers


TINY_CONFIG = ExperimentConfig(horizon=5, runs=4, particles=50, workers=2)


def fail_blocks(monkeypatch, actions):
    """Make _run_block call actions[first]() for the block that starts at run
    first: run 2 is TINY_CONFIG's child, run 0 the calling process."""
    run_block = experiment._run_block
    assert [block.start for block in experiment._blocks(TINY_CONFIG, 1)] == [0, 2]

    def failing(config, indices):
        if indices[0] in actions:
            actions[indices[0]]()
        return run_block(config, indices)

    monkeypatch.setattr(experiment, "_run_block", failing)


def raising(error):
    def action():
        raise error
    return action


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the failure paths need a forked child")


@needs_fork
def test_an_error_in_a_child_reaches_the_caller(monkeypatch):
    """A RuntimeError, which is not a run error, keeps its type and message,
    and carries the child's traceback as its cause."""
    fail_blocks(monkeypatch, {2: raising(RuntimeError("boom in the child"))})
    with pytest.raises(RuntimeError) as info:
        run_experiment(TINY_CONFIG)
    assert type(info.value) is RuntimeError and str(info.value) == "boom in the child"
    assert "in the child process for runs 2-3" in str(info.value.__cause__)
    assert_no_child_left()


@needs_fork
def test_an_error_that_does_not_pickle_comes_back_as_its_traceback(monkeypatch):
    class Local(Exception):  # pickle cannot find a local class by name
        pass

    fail_blocks(monkeypatch, {2: raising(Local("local error"))})
    with pytest.raises(RuntimeError, match="runs 2-3 raised an error that does not pickle") as info:
        run_experiment(TINY_CONFIG)
    assert type(info.value) is RuntimeError and "Local: local error" in str(info.value)
    assert_no_child_left()


@needs_fork
def test_a_child_that_exits_without_a_result_raises_experiment_error(monkeypatch):
    fail_blocks(monkeypatch, {2: lambda: os._exit(3)})
    with pytest.raises(ExperimentError, match="runs 2-3 exited with status 3 without a result"):
        run_experiment(TINY_CONFIG)
    assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_the_callers_own_error_kills_and_reaps_the_child(monkeypatch, error):
    """The child sleeps far longer than the test takes, so only a kill ends it."""
    fail_blocks(monkeypatch, {0: raising(error("in the caller")), 2: lambda: time.sleep(60)})
    started = time.monotonic()
    with pytest.raises(error, match="in the caller"):
        run_experiment(TINY_CONFIG)
    assert time.monotonic() - started < 30
    assert_no_child_left()


def test_a_failed_fork_closes_both_pipe_ends_and_starts_no_process(monkeypatch):
    """os.fork raising EAGAIN reaches the caller as that OSError.  Both ends
    of the pipe the attempt opened are closed while the traceback still
    holds the half-built _Fork, and no process was started."""
    opened, forks = [], []
    pipe = os.pipe

    def recording_pipe():
        ends = pipe()
        opened.extend(ends)
        return ends

    def failing_fork():
        forks.append(1)
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, "fork", failing_fork, raising=False)
    with pytest.raises(OSError) as info:
        run_experiment(TINY_CONFIG)
    assert info.value.errno == errno.EAGAIN
    assert len(forks) == 1 and len(opened) == 2
    for end in opened:
        with pytest.raises(OSError) as closed:
            os.fstat(end)
        assert closed.value.errno == errno.EBADF
    assert_no_child_left()


def test_without_fork_every_block_runs_in_the_calling_process(monkeypatch):
    serial = run_experiment(dataclasses.replace(TINY_CONFIG, workers=1))
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(experiment, "_Fork", None)  # starting a child would raise
    assert_same_runs(run_experiment(TINY_CONFIG), serial)


def test_forced_collapse_counts_exactly_once_in_meta(monkeypatch, tmp_path):
    """A run whose particle likelihoods all vanish at one step completes and
    shows up as one collapse in meta.json's filter health."""
    config = ExperimentConfig(model_name="ungm", horizon=8, runs=3, particles=50,
                              estimators=("pf",), methods=("true", "mean_only"))
    target = derive_run_seed(derive_run_seed(config.master_seed, 1), 0)
    original = experiment.sample_trajectory

    def extreme(model, horizon, seeds):
        trajectory = original(model, horizon, seeds)
        if target in seeds:
            trajectory.measurements[seeds.index(target), 3] = 1e200
        return trajectory

    monkeypatch.setattr(experiment, "sample_trajectory", extreme)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run_experiment(config)
    assert result.runs_used == 3 and not result.failed_runs
    assert result.filter_health["pf"]["collapses"] == 1
    assert result.filter_health["pf"]["resamples"] == 3 * 8
    write_meta(tmp_path / "meta.json", config, {"dir": ".", "plots": False}, result)
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["filter_health"]["pf"]["collapses"] == 1


def test_non_finite_trajectory_fails_only_its_run(monkeypatch):
    """A run whose sampled state leaves the reals fails alone with the sampler's
    error; the block's other runs keep their single-run trajectories."""
    edge = SystemModel(state_dim=1, meas_dim=1,
                       transition_fn=lambda k, x: np.where(np.abs(x) > 2.5, np.inf, 0.5 * x),
                       measurement_fn=lambda k, x: x, process_cov=[[1.0]], meas_cov=[[0.01]],
                       prior=GaussianBelief([0.0], [[1.0]]),
                       transition_jacobian_fn=lambda k, x: np.full(x.shape + (1,), 0.5),
                       measurement_jacobian_fn=lambda k, x: np.ones(x.shape + (1,)))
    config = ExperimentConfig(horizon=10, runs=4, master_seed=4, estimators=("ukf",),
                              methods=("true",), max_failure_fraction=0.5)
    monkeypatch.setattr(experiment, "build_model", lambda config: edge)
    table, errors, _ = experiment._run_block(config, range(4))
    assert errors == {2: "NumericError: trajectory is not finite at step k = 5"}
    assert len(table["states"]) == 3
    for i, states in zip([0, 1, 3], table["states"]):
        seed = derive_run_seed(derive_run_seed(config.master_seed, i), 0)
        assert np.array_equal(states, sample_trajectory(edge, 10, seed).states)
    result = run_experiment(config)
    assert result.failed_runs == [(2, "NumericError: trajectory is not finite at step k = 5")]
    assert result.runs_used == 3


def test_same_seed_reproduces_everything():
    config = ExperimentConfig(model_name="ungm", horizon=6, runs=3, particles=40)
    a = run_experiment(config)
    b = run_experiment(config)
    for key in a.bounds:
        assert np.array_equal(a.bounds[key], b.bounds[key])
    for est in a.rmse:
        assert np.array_equal(a.rmse[est], b.rmse[est])


def test_derive_run_seed_properties():
    assert derive_run_seed(42, 7) == derive_run_seed(42, 7)
    rng = np.random.default_rng(0)
    masters = rng.integers(0, 2**63, size=100000)
    for s in masters[:1000]:
        assert derive_run_seed(int(s), 0) != derive_run_seed(int(s), 1)
    # all seeds for one master across many indices are distinct
    seeds = {derive_run_seed(12345, i) for i in range(100000)}
    assert len(seeds) == 100000
    # order independence
    a = derive_run_seed(9, 3)
    derive_run_seed(9, 2)
    assert derive_run_seed(9, 3) == a
    with pytest.raises(ValueError):
        derive_run_seed(1, -1)


def test_derive_run_seed_takes_numpy_integer_indices():
    """Run indices held in numpy arrays give the int seed of the Python index,
    without overflow warnings; a float index is not an index."""
    want = derive_run_seed(5, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for index in (np.int64(3), np.int32(3), np.uint64(3)):
            got = derive_run_seed(5, index)
            assert type(got) is int and got == want
    with pytest.raises(TypeError):
        derive_run_seed(5, 3.0)


def test_rmse_series_hand_values():
    truths = np.zeros((2, 4, 1))
    ests = np.zeros((2, 3, 1))
    assert_allclose(rmse_series(truths, ests), np.zeros(3))

    truths = np.zeros((2, 2, 1))
    ests = np.array([[[3.0]], [[4.0]]])
    assert_allclose(rmse_series(truths, ests), [np.sqrt(12.5)])
    assert_allclose(rmse_series(truths, ests), [3.5355339059327378])

    truths = np.zeros((1, 5, 1))
    ests = np.full((1, 4, 1), -2.5)
    assert_allclose(rmse_series(truths, ests), np.full(4, 2.5))


def test_rmse_series_validation():
    with pytest.raises(ValueError):
        rmse_series(np.zeros((2, 4, 1)), np.zeros((3, 3, 1)))
    with pytest.raises(ValueError):
        rmse_series(np.zeros((2, 4, 1)), np.zeros((2, 4, 1)))


def test_aggregate_bounds_modes():
    single = np.full((1, 3, 1, 1), 2.0)
    assert_allclose(aggregate_bounds(single, "bounds"), np.full((3, 1, 1), 0.5))

    twin = np.stack([np.full((3, 1, 1), 2.0), np.full((3, 1, 1), 2.0)])
    assert_allclose(aggregate_bounds(twin, "bounds"), np.full((3, 1, 1), 0.5))

    # information 1 and 1/3 so the bounds are 1 and 3
    stack = np.stack([np.full((2, 1, 1), 1.0), np.full((2, 1, 1), 1.0 / 3.0)])
    assert_allclose(aggregate_bounds(stack, "bounds"), np.full((2, 1, 1), 2.0))
    assert_allclose(aggregate_bounds(stack, "fim"), np.full((2, 1, 1), 1.5))
    with pytest.raises(ValueError):
        aggregate_bounds(stack, "median")


def synthetic_stacks(*runs):
    """Per-run ukf gap stacks from (analytic, direct, violation) triples."""
    analytic, direct, violation = (np.stack(parts) for parts in zip(*runs))
    return {("gap_analytic", "ukf"): analytic, ("gap_direct", "ukf"): direct,
            ("gap_violation", "ukf"): violation}


def test_gap_series_hand_values():
    # per-run gap 0.5 both ways, as for unit information and unit correction
    half = np.full((4, 1, 1), 0.5)
    flags = np.zeros(4, dtype=bool)
    runs = synthetic_stacks((half, half, flags), (half, half, flags))
    analytic, direct, violations = gap_series(runs, "ukf")
    assert_allclose(analytic, half)
    assert_allclose(direct, half)
    assert violations.tolist() == [0, 0, 0, 0]

    zero = np.zeros((4, 1, 1))
    runs = synthetic_stacks((zero, zero, flags))
    analytic, direct, _ = gap_series(runs, "ukf")
    assert_allclose(analytic, zero)
    assert_allclose(direct, zero)

    with pytest.raises(ExperimentError):
        gap_series(runs, "pf")


def test_gap_series_violation_counts():
    half = np.full((2, 1, 1), 0.5)
    runs = synthetic_stacks((half, half, np.array([True, False])),
                            (half, half, np.array([True, True])))
    _, _, violations = gap_series(runs, "ukf")
    assert violations.tolist() == [2, 1]


def test_gap_series_agreement_on_experiment():
    """Analytic and direct gaps agree at every step."""
    config = ExperimentConfig(model_name="ungm", horizon=15, runs=5,
                              particles=100, master_seed=3)
    result = run_experiment(config)
    for est in ("ukf", "pf"):
        a = result.gaps[est]["analytic"]
        d = result.gaps[est]["direct"]
        assert np.all(np.abs(a - d) <= 1e-8)


def check_bound_failure_drops_only_its_run(monkeypatch, estimator):
    """Run 2's posterior mean of the estimator blows up at step 3, so only
    that estimator's chains fail for it: the run is dropped with the error
    text it had when each estimator recursed on its own, and every other
    run keeps the bytes it has when run 2 is skipped."""
    config = ExperimentConfig(model_name="ungm", horizon=8, runs=4, particles=50,
                              max_failure_fraction=0.5)
    set_posterior_mean(monkeypatch, config, estimator, 2, 1e200)
    got = run_experiment(config)
    monkeypatch.undo()
    skip_runs(monkeypatch, [2])
    want = run_experiment(config)

    assert [index for index, _ in got.failed_runs] == [2]
    assert got.failed_runs[0][1] == "ValueError: m must be finite"
    assert got.runs_used == want.runs_used == 3
    assert got.bounds.keys() == want.bounds.keys()
    for key in want.bounds:
        assert np.array_equal(got.bounds[key], want.bounds[key])
    for est in want.rmse:
        assert np.array_equal(got.rmse[est], want.rmse[est])
        assert np.array_equal(got.gaps[est]["violations"], want.gaps[est]["violations"])
        assert np.array_equal(got.gaps[est]["analytic"], want.gaps[est]["analytic"])
    for key, stack in want.run_stacks.items():
        assert stack.shape == (3,) + stack.shape[1:]
        assert np.array_equal(got.run_stacks[key], stack)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_bound_failure_drops_only_its_run(monkeypatch):
    """A run whose own bound computation fails is dropped with its error and
    left out of every aggregate; the other runs' results do not change."""
    check_bound_failure_drops_only_its_run(monkeypatch, "ukf")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_bound_failure_in_the_pf_chains_drops_only_its_run(monkeypatch):
    """The same for a run that fails only in the PF's chains, which share
    their stacks with the UKF's: the UKF's elements of run 2 neither hide
    the failure nor change its text."""
    check_bound_failure_drops_only_its_run(monkeypatch, "pf")


def skip_runs(monkeypatch, skipped):
    """Make _run_block fail the given runs as "skipped", with no rows."""
    run_block = experiment._run_block

    def skipping(config, indices):
        table, errors, seconds = run_block(config, indices)
        runs = [i for i in indices if i not in errors]
        keep = ~np.isin(runs, skipped)
        errors.update({i: "skipped" for i in skipped if i in indices})
        return {key: value[keep] for key, value in table.items()}, errors, seconds

    monkeypatch.setattr(experiment, "_run_block", skipping)


def set_posterior_mean(monkeypatch, config, estimator, run, value):
    """Make the estimator's filter set the run's posterior mean at step 3 to
    value, before the bound engines read it.  The sampler's seeds tell which
    row of the stack the run is, if any."""
    target, stack = experiment.run_seeds(config.master_seed, run)[0], []
    sample, name = experiment.sample_trajectory, f"run_{estimator}"
    run_filter = getattr(experiment, name)

    def sampling(model, horizon, seeds):
        stack[:] = seeds
        return sample(model, horizon, seeds)

    def diverged(*args, **kwargs):
        out = run_filter(*args, **kwargs)
        if target in stack:
            out.posterior.mean[stack.index(target), 2] = value
        return out

    monkeypatch.setattr(experiment, "sample_trajectory", sampling)
    monkeypatch.setattr(experiment, name, diverged)


def nan_window_model(window: bool = True) -> SystemModel:
    """x' = 0.9 x + w, z = x + v with unit variances; with window, the
    measurement is NaN on 2 < x < 2.00002, where a particle now and then lands.
    The transition Jacobian is 0.9 at every finite x and NaN at a NaN x."""
    def measure(k, x):
        return np.where((x > 2.0) & (x < 2.00002), np.nan, x) if window else x

    return SystemModel(state_dim=1, meas_dim=1, transition_fn=lambda k, x: 0.9 * x,
                       measurement_fn=measure, process_cov=[[1.0]], meas_cov=[[1.0]],
                       prior=GaussianBelief([0.0], [[1.0]]),
                       transition_jacobian_fn=lambda k, x: 0.9 + 0.0 * x[..., None],
                       measurement_jacobian_fn=lambda k, x: np.ones(x.shape + (1,)))


# The particle filter fails runs 10, 14 and 16 of this config on nan_window_model().
FAILURE_CONFIG = ExperimentConfig(runs=40, particles=1000, master_seed=3,
                                  max_failure_fraction=0.5)
FAILURE_RUNS = [(10, "NumericError: non-finite particle log-weights at step 5"),
                (14, "NumericError: non-finite particle log-weights at step 33"),
                (16, "NumericError: non-finite particle log-weights at step 21")]


def assert_same_runs(got, want):
    """Equal run stacks, bounds and filter health, bit for bit."""
    assert got.run_stacks.keys() == want.run_stacks.keys()
    for key, stack in want.run_stacks.items():
        assert np.array_equal(got.run_stacks[key], stack)
    assert got.bounds.keys() == want.bounds.keys()
    for key in want.bounds:
        assert np.array_equal(got.bounds[key], want.bounds[key])
    assert got.filter_health == want.filter_health


def test_particle_filter_failures_drop_only_their_runs(monkeypatch):
    """Runs whose particle filter fails inside a block of 40 are dropped with
    their own errors; every other run keeps the bytes it has when the failing
    runs are skipped."""
    monkeypatch.setattr(experiment, "build_model", lambda config: nan_window_model())
    got = run_experiment(FAILURE_CONFIG)
    assert got.failed_runs == FAILURE_RUNS

    monkeypatch.setattr(experiment, "build_model", lambda config: nan_window_model(False))
    skip_runs(monkeypatch, [10, 14, 16])
    want = run_experiment(FAILURE_CONFIG)
    assert [index for index, _ in want.failed_runs] == [10, 14, 16]
    assert got.runs_used == want.runs_used == 37
    assert_same_runs(got, want)


def test_filter_and_bound_failures_in_one_experiment(monkeypatch):
    """Runs failing in filtering and a run failing in the bound stage are all
    dropped, each with its own stage's error; the rest keep the bytes they
    have when those four runs are skipped.  The model is linear, so its
    Jacobians ignore a diverged mean, but not a NaN one."""
    monkeypatch.setattr(experiment, "build_model", lambda config: nan_window_model())
    set_posterior_mean(monkeypatch, FAILURE_CONFIG, "ukf", 12, np.nan)
    got = run_experiment(FAILURE_CONFIG)
    assert got.failed_runs == sorted(FAILURE_RUNS + [(12, "ValueError: m must be finite")])
    assert got.runs_used == FAILURE_CONFIG.runs - 4

    monkeypatch.undo()
    monkeypatch.setattr(experiment, "build_model", lambda config: nan_window_model(False))
    skip_runs(monkeypatch, [10, 12, 14, 16])
    assert_same_runs(got, run_experiment(FAILURE_CONFIG))


def test_failing_runs_give_the_same_results_on_two_workers(monkeypatch):
    if not hasattr(os, "fork"):
        pytest.skip("the workers see the patched model only when they fork")
    monkeypatch.setattr(experiment, "build_model", lambda config: nan_window_model())
    serial = run_experiment(FAILURE_CONFIG)
    pooled = run_experiment(dataclasses.replace(FAILURE_CONFIG, workers=2))
    assert pooled.failed_runs == serial.failed_runs == FAILURE_RUNS
    assert_same_runs(pooled, serial)


def test_particle_filter_failures_are_the_same_without_mean_cov(monkeypatch):
    """Without mean_cov the particle filter forms no covariances, yet the same
    runs fail with the same errors, and the other runs keep their RMSE, their
    filter health and their mean-only stacks."""
    monkeypatch.setattr(experiment, "build_model", lambda config: nan_window_model())
    full = run_experiment(FAILURE_CONFIG)
    lean = run_experiment(dataclasses.replace(FAILURE_CONFIG, methods=("true", "mean_only")))
    assert lean.failed_runs == full.failed_runs == FAILURE_RUNS
    assert lean.filter_health == full.filter_health
    for estimator in FAILURE_CONFIG.estimators:
        assert np.array_equal(lean.rmse[estimator], full.rmse[estimator])
        assert np.array_equal(lean.run_stacks["mean_only", estimator],
                              full.run_stacks["mean_only", estimator])


@pytest.mark.parametrize("methods", [("true",), ("true", "mean_only"), ("mean_only", "mean_cov")])
def test_the_particle_filter_forms_covariances_only_for_mean_cov(monkeypatch, methods):
    """A PF-only experiment hands regularize_cov two covariance stacks per
    step (predicted and posterior) when mean_cov runs, and none otherwise."""
    calls = []
    regularize = filters.regularize_cov
    monkeypatch.setattr(filters, "regularize_cov",
                        lambda *args: calls.append(args[0].shape) or regularize(*args))
    config = ExperimentConfig(horizon=5, runs=4, particles=50, estimators=("pf",),
                              methods=methods)
    result = run_experiment(config)
    assert result.runs_used == config.runs
    assert calls == ([(config.runs, 1, 1)] * 2 * config.horizon if "mean_cov" in methods else [])
    assert result.filter_health["pf"]["cov_repairs"] == 0


def test_a_block_whose_runs_all_fail_leaves_the_other_blocks(monkeypatch):
    """At N = 20000 a block takes three runs: runs 0-2 form one block and run 3
    another, which fails whole; with every run failing the experiment raises."""
    config = ExperimentConfig(horizon=5, runs=4, particles=20000, methods=("true", "mean_only"),
                              max_failure_fraction=1.0)
    assert [list(block) for block in experiment._blocks(config, 1)] == [[0, 1, 2], [3]]
    clean = run_experiment(config)
    original = experiment.sample_trajectory

    def failing(*runs):
        bad = {experiment.run_seeds(config.master_seed, i)[0] for i in runs}

        def sample(model, horizon, seeds):
            if bad & set(seeds):
                raise ValueError("trajectory contains non-finite values")
            return original(model, horizon, seeds)
        return sample

    monkeypatch.setattr(experiment, "sample_trajectory", failing(3))
    got = run_experiment(config)
    assert got.failed_runs == [(3, "ValueError: trajectory contains non-finite values")]
    for key, stack in got.run_stacks.items():
        assert np.array_equal(stack, clean.run_stacks[key][:3])
    monkeypatch.setattr(experiment, "sample_trajectory", failing(0, 1, 2, 3))
    with pytest.raises(ExperimentError, match="every run failed"):
        run_experiment(config)


def test_isolated_reruns_without_the_failing_runs():
    """The kept runs' rows ascend and equal the clean stacked call
    bit for bit; the failing runs get their errors, by run index, and are
    not kept: failures at the ends, inside, at every odd position, in a stack
    of one run and everywhere."""
    for count, failing in ((9, [0, 8]), (9, [3, 5]), (9, [1, 3, 5, 7]), (1, []), (1, [0]),
                           (9, list(range(9)))):
        rng = np.random.default_rng(6)
        factors = rng.standard_normal((count, 3, 3))
        matrices = factors @ factors.mT + np.eye(3)
        runs = np.arange(20, 20 + count)
        clean = spd_inverse(matrices)
        matrices[failing, 1, 1] = np.nan

        def compute(positions):
            return {"inverse": spd_inverse(matrices[positions]), "run": runs[positions]}

        errors = {}
        rows = experiment._isolated(compute, runs, errors)
        assert sorted(errors) == runs[failing].tolist()
        assert set(errors.values()) <= {"ValueError: m must be finite"}
        # the rows' run column names the kept runs, in ascending position order
        kept = [p for p in range(count) if p not in failing]
        if kept:
            assert np.array_equal(rows["inverse"], clean[kept])
            assert rows["run"].tolist() == runs[kept].tolist()
        else:
            assert rows == {}


def test_bound_stage_computes_terms_and_gaps_once_per_stage(monkeypatch):
    """Every step's mean-only terms, mean+cov terms, theta/pi split and
    closed-form gaps come from one call over a block's stack of estimators,
    runs and steps, both approximate chains from one recursion over that
    stack, and the reference's terms and recursion from one call each over
    all runs.  The mean-only and mean+cov terms are each evaluated once per
    block (counted in pcrlb.experiment and in pcrlb.fim, where
    decompose_terms looks them up)."""
    calls = {}

    def count(module, name):
        def counted(*args, _engine=getattr(module, name), **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return _engine(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("mean_only_terms", "decompose_terms", "fim_via_decomposition",
                 "bound_difference", "true_fim_terms_mc", "fim_recursion_series"):
        count(experiment, name)
    # each patched name calls the unpatched engine, so nothing counts twice
    count(fim, "mean_only_terms")
    count(fim, "mean_cov_terms")
    config = ExperimentConfig(model_name="ungm", horizon=6, runs=3, particles=50)
    assert config.estimators == ("ukf", "pf")
    result = run_experiment(config)
    assert result.runs_used == 3
    # with mean_cov run, the mean-only chain takes decompose_terms' point triple;
    # fim_recursion_series runs the stacked chains and the reference
    assert calls == {"mean_only_terms": 1, "decompose_terms": 1, "mean_cov_terms": 1,
                     "fim_via_decomposition": 1, "bound_difference": 1,
                     "true_fim_terms_mc": 1, "fim_recursion_series": 2}

    calls.clear()
    run_experiment(dataclasses.replace(config, methods=("true", "mean_only")))
    assert calls == {"mean_only_terms": 1, "true_fim_terms_mc": 1, "fim_recursion_series": 2}

    calls.clear()
    run_experiment(dataclasses.replace(config, methods=("true",)))
    assert calls == {"true_fim_terms_mc": 1, "fim_recursion_series": 1}

    # two blocks, of three runs and one: each block's engines run once
    two_blocks = dataclasses.replace(config, runs=4, particles=20000)
    assert [len(block) for block in experiment._blocks(two_blocks, 1)] == [3, 1]
    calls.clear()
    assert run_experiment(two_blocks).runs_used == 4
    assert calls == {"mean_only_terms": 2, "decompose_terms": 2, "mean_cov_terms": 2,
                     "fim_via_decomposition": 2, "bound_difference": 2,
                     "true_fim_terms_mc": 1, "fim_recursion_series": 3}
    assert not hasattr(fim, "fim_decomposition_series")


@pytest.mark.parametrize("methods", [("true",), ("true", "mean_only"), ("true", "mean_cov"),
                                     ("mean_only", "mean_cov")],
                         ids=["true", "true-mean_only", "true-mean_cov", "mean_only-mean_cov"])
@pytest.mark.parametrize("name", ["ungm", "linear2d"])
def test_stacking_never_mixes_estimators_or_chains(name, methods):
    """Each estimator's run stacks, bounds, gaps, RMSE and filter health from
    an experiment with both estimators equal, bit for bit, those of the
    estimator run alone with the reference and one approximate chain at a
    time: the stacked engines act on every estimator and chain on its own."""
    config = dataclasses.replace(GOLDEN_CONFIGS[name], methods=methods)
    both = run_experiment(dataclasses.replace(config, estimators=("ukf", "pf")))
    chains = [method for method in methods if method != "true"]
    assert both.gaps.keys() == ({"ukf", "pf"} if "mean_cov" in chains else set())
    for estimator in ("ukf", "pf"):
        stacks, bounds = {}, {}
        for chain in chains or [None]:
            alone = run_experiment(dataclasses.replace(
                config, estimators=(estimator,), methods=("true",) + ((chain,) if chain else ())))
            assert alone.runs_used == both.runs_used == config.runs
            stacks |= alone.run_stacks
            bounds |= alone.bounds
            assert np.array_equal(both.rmse[estimator], alone.rmse[estimator])
            assert both.filter_health[estimator] == alone.filter_health[estimator]
            for quantity, gap in alone.gaps.get(estimator, {}).items():
                assert np.array_equal(both.gaps[estimator][quantity], gap)
        if "true" not in methods:
            del bounds[("true", None)]
        assert stacks.keys() == {key for key in both.run_stacks if key[1] == estimator}
        for key, stack in stacks.items():
            assert np.array_equal(both.run_stacks[key], stack), key
        assert bounds.keys() == {key for key in both.bounds if key[1] in (estimator, None)}
        for key, bound in bounds.items():
            assert np.array_equal(both.bounds[key], bound), key


def per_step_reference(model, states, horizon):
    """The reference series one step at a time, from each step's (R, n) slices."""
    j, series = initial_fim(model.prior), []
    for k in range(1, horizon + 1):
        j = fim_recursion_step(j, true_fim_terms_mc(model, k, states[:, k - 1], states[:, k]))
        series.append(j)
    return np.stack(series)


@pytest.mark.parametrize("runs", [7, 8, 9, 20, 100])
@pytest.mark.parametrize("name", ["ungm", "linear2d"])
def test_true_bound_series_equals_the_per_step_loop_bit_for_bit(name, runs):
    """From R = 8 on, numpy sums the R samples of a step pairwise, so a
    layout whose step means reduce over another axis order moves the ungm
    reference by an ulp; the golden configs (R = 6) cannot see that."""
    config = GOLDEN_CONFIGS[name]
    model = build_model(config)
    states = sample_trajectory(model, config.horizon, list(range(runs))).states
    assert np.array_equal(true_bound_series(model, states),
                          per_step_reference(model, states, config.horizon))


# SHA-256 of the CSVs of ExperimentConfig(runs=20) (ungm, T = 50, N = 1000,
# default seed), captured with numpy 2.4.6 on x86-64 Linux.  A change that
# moves a byte fails here; a different numpy, BLAS or libm may move them too.
PINNED_SHA256 = {
    "rmse.csv": "63f8e4a6423ee4008a8cf9e0f871cf82f211279ec89a5f1b3a8f6430e25cb042",
    "bounds.csv": "c0981dc7d7cedcd2988d4e366a768e55c9ec8f4d40ae540dc4544bbe783ee8dc",
    "gap.csv": "1ef5cbb293fb4782d773034143adf6bd9c9cb3c4244a72b91f73fc28def80d0b",
}

# The same for FAILURE_CONFIG on nan_window_model(), which fails runs 10, 14
# and 16 in the particle filter: a change to how failed runs are left out that
# moves a byte fails here.
PINNED_FAILURE_SHA256 = {
    "rmse.csv": "14e78a8b0c1bf0c36c4910c4ce676b5212395bafe99cb6615458e7e9e2444e39",
    "bounds.csv": "46b1fc207de2f5188c45a607d9e61f0c59913531034a71614dbb0e0718a32554",
    "gap.csv": "3a638c7410950db2d37d80571e92d4495010fa8d84c07ef51048b86ff606df1a",
}

# The same for GOLDEN_CONFIGS["linear2d"], the matrix path, captured with
# numpy 2.4.6 on x86-64 Linux: its 2 x 2 factorizations and inverses run on
# numpy's own LAPACK (OpenBLAS), so a different numpy build may move them.
PINNED_LINEAR2D_SHA256 = {
    "rmse.csv": "372d094e17fb44ef9bc6c7e85ee206b709a3d80b64cf7a2a74b0fbeb772d9f51",
    "bounds.csv": "00bc6f9621bb2496f96ad81235d03720dec2de403f685eb8ee77017d3e5dbf0e",
    "gap.csv": "64ba0731060b0d080384290a4a112abaabc6cfe46d23ff6855d33d0d37c85e6a",
}


def test_ungm_outputs_keep_their_pinned_bytes(tmp_path, monkeypatch):
    def digests(result, name):
        files = write_outputs(result, tmp_path / name)
        return {file: hashlib.sha256(data).hexdigest() for file, data in files.items()}

    assert digests(run_experiment(ExperimentConfig(runs=20)), "default") == PINNED_SHA256
    monkeypatch.setattr(experiment, "build_model", lambda config: nan_window_model())
    failing = run_experiment(FAILURE_CONFIG)
    assert failing.failed_runs == FAILURE_RUNS
    assert digests(failing, "failing") == PINNED_FAILURE_SHA256


def test_linear2d_outputs_keep_their_pinned_bytes(tmp_path):
    files = write_outputs(run_experiment(GOLDEN_CONFIGS["linear2d"]), tmp_path / "linear2d")
    digests = {file: hashlib.sha256(data).hexdigest() for file, data in files.items()}
    assert digests == PINNED_LINEAR2D_SHA256


def test_theta_plus_pi_equals_the_direct_mean_cov_chain(monkeypatch):
    """On the default benchmark (R = 20) the pipeline's mean+cov series is
    the direct recursion over mean_cov_terms on the same filter beliefs, bit
    for bit, and the split of each of its steps sums to it, theta + pi = J
    to 1e-12 relative: the split adds no cancellation that the bound can
    see."""
    config = ExperimentConfig(runs=20)
    model = build_model(config)
    outputs = {}
    for estimator in config.estimators:
        def kept(*args, _filter=getattr(experiment, f"run_{estimator}"), _name=estimator,
                 **kwargs):
            outputs[_name] = _filter(*args, **kwargs)
            return outputs[_name]
        monkeypatch.setattr(experiment, f"run_{estimator}", kept)
    result = run_experiment(config)
    assert experiment._blocks(config, 1) == [range(config.runs)]  # one call of each filter
    steps = np.arange(1, config.horizon + 1)[:, None]
    for estimator in config.estimators:
        # (1, R, T, ...): the estimator's beliefs stacked alone
        state, meas = experiment._engine_beliefs(model, [outputs[estimator]], True)
        direct = fim_recursion_series(initial_fim(model.prior),
                                      mean_cov_terms(model, steps, state, meas))[0]
        assert np.array_equal(result.run_stacks[("mean_cov", estimator)], direct), estimator
        j_prev = np.concatenate([np.broadcast_to(initial_fim(model.prior), (config.runs, 1, 1, 1)),
                                 direct[:, :-1]], axis=1)
        theta, pi = fim_via_decomposition(j_prev, *decompose_terms(model, steps, state, meas))
        theta, pi = theta[0], pi[0]
        assert np.array_equal(result.run_stacks[("pi", estimator)], pi), estimator
        assert np.all(np.abs(theta + pi - direct) <= 1e-12 * np.abs(direct)), estimator


def test_true_bound_series_requires_trajectories():
    model = build_model(ExperimentConfig())
    with pytest.raises(ExperimentError):
        true_bound_series(model, [])


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(horizon=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(runs=0)
    with pytest.raises(ValueError):
        ExperimentConfig(particles=0)
    with pytest.raises(ValueError):
        ExperimentConfig(workers=0)
    with pytest.raises(ValueError):
        ExperimentConfig(averaging="median")
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("true", "bogus"))
    with pytest.raises(ValueError):
        ExperimentConfig(estimators=("ekf",))
    with pytest.raises(ValueError, match="resample 'never'"):
        ExperimentConfig(resample="never")


# a 2-D linear model, and a singular matrix whose eigvalsh reads +1.1e-16
LINEAR_2D = {"a": [[0.5, 0], [0, 0.5]], "h": [[1, 0], [0, 1]], "process_var": [[1, 0], [0, 1]],
             "meas_var": [[1, 0], [0, 1]], "prior_mean": [0, 0], "prior_var": [[1, 0], [0, 1]]}
SINGULAR = [[1, 3], [3, 9]]


@pytest.mark.parametrize("fields, key", [
    ({"estimators": ()}, "estimators"),
    ({"methods": ()}, "methods"),
    ({"model_params": {"a": 0.5}}, "'a'"),
    ({"model_name": "linear", "model_params": {"velocity": 1.0}}, "'velocity'"),
    ({"model_params": {1: 2.0, "x": 1}}, r"keys \[1, 'x'\]"),
    ({"max_failure_fraction": -1.0}, "max_failure_fraction"),
    ({"max_failure_fraction": 1.5}, "max_failure_fraction"),
    ({"max_failure_fraction": float("nan")}, "max_failure_fraction"),
    ({"estimators": ("pf", "pf")}, "estimators"),
    ({"methods": ("true", "true")}, "methods"),
    ({"ut": UTParams(beta=float("nan"))}, "ut_beta"),
    ({"ut": UTParams(beta=-np.inf)}, "ut_beta"),
    ({"ut": UTParams(alpha=np.inf)}, "ut_alpha"),
    ({"ut": UTParams(kappa=np.inf)}, "ut_kappa"),
    ({"model_params": {"process_var": np.inf}}, "process_var"),
    ({"model_params": {"prior_mean": float("nan")}}, "prior_mean"),
    ({"runs": 2.5}, "runs"),
    ({"horizon": 3.5}, "horizon"),
    ({"particles": 10.5}, "particles"),
    ({"workers": 1.5}, "workers"),
    ({"model_params": None}, "model_params"),
    ({"model_params": [("process_var", 2.0)]}, "model_params"),
    ({"model_params": "process_var"}, "model_params"),
    ({"model_name": "linear", "model_params": {"process_var": [[-1.0]]}}, "process_var"),
    ({"model_name": "linear", "model_params": {"prior_var": [[1, 0], [0, 1]]}}, "prior_var"),
    ({"model_name": "linear", "model_params": {"meas_var": [[2, 0], [0, 2]]}}, "meas_var"),
    ({"model_name": "linear", "model_params": {"prior_mean": [1, 2]}}, "prior_mean"),
    *(({"model_name": "linear", "model_params": {**LINEAR_2D, key: cov}}, key)
      for key, cov in (("process_var", SINGULAR), ("meas_var", SINGULAR),
                       ("prior_var", SINGULAR), ("process_var", [[1, 0.5], [0, 1]]))),
], ids=["no-estimators", "no-methods", "ungm-a", "linear-velocity", "mixed-type-keys",
        "fraction-negative", "fraction-above-one", "fraction-nan",
        "repeated-estimator", "repeated-method", "ut-beta-nan", "ut-beta-neg-inf",
        "ut-alpha-inf", "ut-kappa-inf", "process-var-inf", "prior-mean-nan",
        "runs-float", "horizon-float", "particles-float", "workers-float",
        "model-params-none", "model-params-pairs", "model-params-string",
        "linear-process-var-negative", "linear-prior-var-shape", "linear-meas-var-shape",
        "linear-prior-mean-shape", "linear2d-process-var-singular",
        "linear2d-meas-var-singular", "linear2d-prior-var-singular",
        "linear2d-process-var-asymmetric"])
def test_config_rejects_values_a_run_would_misuse(fields, key):
    """Each value fails at construction, before any run starts, with a
    ValueError naming its key."""
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(**fields)


@pytest.mark.parametrize("fields, key", [
    ({"methods": "true"}, "methods"),
    ({"estimators": "pf"}, "estimators"),
    ({"model_params": {"process_var": "x"}}, "process_var"),
    ({"model_name": "linear", "model_params": {"a": "x"}}, "a"),
    ({"model_params": {"process_var": None}}, "process_var"),
    ({"model_params": {"process_var": [[2.0]]}}, "process_var"),
    ({"ess_threshold": "0.5"}, "ess_threshold"),
    ({"ut": None}, "ut"),
    ({"horizon": True}, "horizon"),
    ({"runs": True}, "runs"),
    ({"particles": True}, "particles"),
    ({"workers": True}, "workers"),
    ({"master_seed": False}, "master_seed"),
], ids=["methods-string", "estimators-string", "process-var-string", "linear-a-string",
        "process-var-none", "ungm-process-var-matrix", "ess-threshold-string", "ut-none",
        "horizon-bool", "runs-bool", "particles-bool", "workers-bool", "master-seed-bool"])
def test_config_rejects_values_of_the_wrong_type(fields, key):
    """A value of the wrong type, as a config built in Python can hold, fails
    at construction with a ValueError naming its key, not with an error from
    deeper in the package."""
    with pytest.raises(ValueError, match=f"^{key} must be "):
        ExperimentConfig(**fields)


def test_failure_fraction_bounds_are_allowed():
    for fraction in (0.0, 1.0):
        assert ExperimentConfig(max_failure_fraction=fraction).max_failure_fraction == fraction


def test_unknown_model_rejected():
    with pytest.raises(ValueError, match="model_name 'pendulum'"):
        ExperimentConfig(model_name="pendulum")


def test_bound_stage_inverts_each_step_once_and_the_anchor_once(monkeypatch):
    """The recursion inverts J_{k-1} + D11 once per step for every chain, and
    the split reuses the mean+cov chain's inverses, inverting only its
    anchor: T + 1 calls of fim._inverse in the bound stage."""
    config = ExperimentConfig(model_name="ungm", horizon=6, runs=3, particles=50)
    inverse, calls = fim._inverse, []
    monkeypatch.setattr(fim, "_inverse", lambda m: calls.append(m.shape) or inverse(m))
    # a block runs no reference, and the filters call no fim._inverse
    table, errors, _ = experiment._run_block(config, range(config.runs))
    assert not errors and len(table["states"]) == 3
    assert len(calls) == config.horizon + 1
    assert ("gap_analytic", "pf") in table


def eigvalsh_rule(matrix):
    """The violation flag written out: lambda_min < -1e-12 max(1, max |lambda|)."""
    eigs = np.linalg.eigvalsh(matrix)
    return eigs[..., 0] < -1e-12 * np.maximum(1.0, np.abs(eigs).max(axis=-1))


def violation_cases(rng, dim):
    """Symmetric (dim, dim) matrices on both sides of every decision of the
    violation flag: positive and negative definite, indefinite, zero, of Frobenius norm
    just below and above 0.5e-12, and with lambda_min within a few ulps-worth
    of -1e-12 max(1, max |lambda|) at unit and large scale."""
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]

    def with_eigs(values):
        return basis @ np.diag(values) @ basis.T

    cases = [random_spd(rng, dim), -random_spd(rng, dim),
             symmetrize(rng.standard_normal((dim, dim))), np.zeros((dim, dim)),
             -np.eye(dim) * 1e-13]
    for norm in (0.5e-12 * (1 - 1e-9), 0.5e-12 * (1 + 1e-9), 2e-12):
        for sign in (1.0, -1.0):
            tiny = symmetrize(rng.standard_normal((dim, dim)))
            tiny[0, 0] = -abs(tiny[0, 0]) if sign < 0 else tiny[0, 0]
            cases.append(tiny * (norm / np.linalg.norm(tiny)))
    for top in (0.5, 1.0, 3e3):
        for factor in (1 - 1e-6, 1 - 1e-13, 1.0, 1 + 1e-13, 1 + 1e-6):
            low = -1e-12 * max(1.0, top) * factor
            cases.append(with_eigs(np.r_[low, np.full(dim - 1, top)]) if dim > 1
                         else np.array([[low]]))
    return np.stack(cases)


def test_violation_flags_equal_the_eigvalsh_rule_and_solve_only_the_undecided(rng, monkeypatch):
    """_is_negative gives the eigvalsh rule's flag element by element for
    n = 1 to 4, and hands eigvalsh only the elements that neither n = 1 nor
    ||M||_F < 0.5e-12 decides: for n = 1 none."""
    eigvalsh, solved = np.linalg.eigvalsh, []
    for dim in (1, 2, 3, 4):
        stack = violation_cases(rng, dim).reshape(-1, 2, dim, dim)
        want = eigvalsh_rule(stack)
        assert want.any() and not want.all()
        solved.clear()
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solved.append(m) or eigvalsh(m))
        got = experiment._is_negative(stack)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        assert got.shape == want.shape and np.array_equal(got, want), dim
        undecided = np.linalg.norm(stack, axis=(-2, -1)) >= 0.5e-12
        if dim == 1:
            assert not solved
        else:
            assert len(solved) == 1 and np.array_equal(solved[0], stack[undecided])
            assert not undecided.all()


def linear4d_config():
    """A seeded 4-state linear config, the matrix path of the bound stage."""
    rng = np.random.default_rng(4)
    a = rng.uniform(-1.0, 1.0, size=(4, 4))
    a *= 0.9 / np.abs(np.linalg.eigvals(a)).max()
    params = {"a": a.tolist(), "h": rng.uniform(-1.5, 1.5, size=(4, 4)).tolist(),
              "process_var": random_spd(rng, 4).tolist(), "meas_var": random_spd(rng, 4).tolist(),
              "prior_mean": rng.standard_normal(4).tolist(),
              "prior_var": random_spd(rng, 4).tolist()}
    return ExperimentConfig(model_name="linear", model_params=params, horizon=20, runs=4,
                            particles=200)


@pytest.mark.parametrize("config", [ExperimentConfig(), linear4d_config()],
                         ids=["default", "linear4d"])
def test_bound_stage_runs_no_eigensolver(config, monkeypatch):
    """The bound stage takes its cubature roots from Cholesky factors and
    decides its violation flags without eigenvalues: no eigh and no eigvalsh
    call while _bound_rows runs, on the default ungm config and on a 4-D
    linear one."""
    calls, inside = [], []

    def watched(name):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *args, **kwargs: (inside and calls.append(name))
                            or solver(*args, **kwargs))

    for name in ("eigh", "eigvalsh"):
        watched(name)
    bound_rows = experiment._bound_rows

    def observed(*args):
        inside.append(True)
        try:
            return bound_rows(*args)
        finally:
            inside.clear()

    monkeypatch.setattr(experiment, "_bound_rows", observed)
    table, errors, _ = experiment._run_block(config, range(4))
    assert not errors and ("gap_violation", "pf") in table
    assert calls == []
