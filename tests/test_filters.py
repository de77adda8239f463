import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from pcrlb import (FilterOutput, GaussianBelief, NumericError, UTParams, kalman_step,
                   linear_gaussian_model, particle_moments, regularize_cov, run_pf, run_ukf,
                   sample_trajectory, sigma_points, systematic_resample, ukf_step, ungm_model,
                   unscented_transform)

from pcrlb import filters
from pcrlb.cli import kalman_series, random_stable_linear_model
from pcrlb.filters import RESAMPLE_POLICIES, _gaussian_loglik


def test_kalman_step_hand_values():
    """Posterior variances for the all-ones scalar model follow 2/3, 5/8, 13/21."""
    one = np.ones((1, 1))
    belief = GaussianBelief(np.zeros(1), one.copy())
    for expected in (2.0 / 3.0, 5.0 / 8.0, 13.0 / 21.0):
        out = kalman_step(one, one, one, one, belief, np.zeros(1))
        assert_allclose(out.posterior.cov, [[expected]], rtol=1e-14)
        belief = out.posterior


def test_sigma_points_shape_and_weights():
    belief = GaussianBelief(np.array([1.0, -2.0]), np.diag([4.0, 9.0]))
    pts = sigma_points(belief.mean, belief.cov, UTParams())
    assert pts.points.shape == (5, 2)
    assert_allclose(pts.mean_weights.sum(), 1.0, atol=1e-12)
    # wings come in +/- pairs around the center
    assert_allclose(pts.points[1:3] + pts.points[3:5],
                    np.tile(2.0 * belief.mean, (2, 1)), atol=1e-12)


def test_sigma_points_reject_a_covariance_that_does_not_factor():
    """No silent repair: a singular or indefinite covariance raises."""
    for cov in (np.ones((2, 2)), np.diag([1.0, -1.0])):
        with pytest.raises(np.linalg.LinAlgError):
            sigma_points(np.zeros(2), cov, UTParams())


def test_unscented_transform_identity():
    belief = GaussianBelief(np.array([0.3, -1.0]), np.diag([2.0, 0.5]))
    noise = np.eye(2) * 0.1
    mean, cov, cross = unscented_transform(lambda x: x, belief, noise, UTParams())
    assert_allclose(mean, belief.mean, atol=1e-12)
    assert_allclose(cov, belief.cov + noise, atol=1e-12)
    assert_allclose(cross, belief.cov, atol=1e-12)


def test_unscented_transform_linear_exact(rng):
    a = rng.standard_normal((2, 2))
    belief = GaussianBelief(rng.standard_normal(2), np.diag([1.5, 0.7]))
    noise = np.eye(2) * 0.3
    mean, cov, cross = unscented_transform(lambda x: x @ a.T, belief, noise, UTParams())
    assert_allclose(mean, a @ belief.mean, atol=1e-10)
    assert_allclose(cov, a @ belief.cov @ a.T + noise, atol=1e-10)
    assert_allclose(cross, belief.cov @ a.T, atol=1e-10)


def test_unscented_transform_quadratic_hand_value():
    # n=1, kappa=2: center weight 2/3, wings 1/6 at +-sqrt(3)
    belief = GaussianBelief(np.zeros(1), np.eye(1))
    mean, _, _ = unscented_transform(lambda x: x**2, belief, np.zeros((1, 1)),
                                     UTParams(alpha=1.0, kappa=2.0))
    assert_allclose(mean, [1.0], atol=1e-12)


def test_ukf_matches_kalman_over_50_steps(rng):
    for dim in (1, 2):
        model = random_stable_linear_model(rng, dim)
        traj = sample_trajectory(model, 50, rng.integers(2**32))
        kalman = kalman_series(model, traj.measurements)
        ukf = run_ukf(model, traj.measurements)
        for k, ko in enumerate(kalman):
            assert_allclose(ukf.posterior.mean[k], ko.posterior.mean, atol=1e-9)
            assert_allclose(ukf.posterior.cov[k], ko.posterior.cov, atol=1e-9)
            assert_allclose(ukf.predicted.mean[k], ko.predicted.mean, atol=1e-9)


def test_ukf_uninformative_measurement():
    model = ungm_model(meas_var=1e12)
    belief = GaussianBelief(np.array([0.5]), np.array([[2.0]]))
    out = ukf_step(model, 1, belief, np.array([0.3]))
    assert_allclose(out.posterior.mean, out.predicted.mean, rtol=1e-6)
    assert_allclose(out.posterior.cov, out.predicted.cov, rtol=1e-6)


def test_ukf_zero_innovation():
    """A measurement equal to its prediction leaves the mean at the prediction."""
    model = ungm_model()
    belief = GaussianBelief(np.array([1.2]), np.array([[0.5]]))
    pred_mean, pred_cov, _ = unscented_transform(
        lambda x: model.transition(1, x), belief, model.process_cov, UTParams())
    z_mean, _, _ = unscented_transform(
        lambda x: model.measure(1, x), GaussianBelief(pred_mean, pred_cov),
        model.meas_cov, UTParams())
    out = ukf_step(model, 1, belief, z_mean)
    assert_allclose(out.posterior.mean, out.predicted.mean, atol=1e-10)
    assert_allclose(out.predicted.mean, pred_mean, atol=1e-12)


def test_particle_moments_hand_values():
    states = np.array([[1.0], [3.0]])
    weights = np.array([0.5, 0.5])
    belief = particle_moments(states, weights)
    assert_allclose(belief.mean, [2.0])
    assert_allclose(belief.cov, [[1.0]], atol=1e-9)


def test_particle_moments_degenerate():
    states = np.array([[4.0], [9.0], [1.0]])
    w = np.array([0.0, 1.0, 0.0])
    belief = particle_moments(states, w)
    assert_allclose(belief.mean, [9.0])
    assert belief.cov[0, 0] <= 1e-8  # zero plus regularization


def test_systematic_resample_examples():
    assert systematic_resample(np.full(4, 0.25), 0.37).tolist() == [0, 1, 2, 3]
    assert systematic_resample(np.array([1.0, 0.0, 0.0, 0.0]), 0.9).tolist() == [0, 0, 0, 0]
    got = systematic_resample(np.array([0.5, 0.5, 0.0, 0.0]), 0.1)
    assert got.tolist() == [0, 0, 1, 1]


def test_systematic_resample_rejects_unnormalized():
    with pytest.raises(ValueError):
        systematic_resample(np.array([0.5, 0.6]), 0.1)
    with pytest.raises(ValueError):  # a negative weight would count into the row before
        systematic_resample(np.array([[0.5, 0.5], [-0.5, 1.5]]), np.array([0.1, 0.1]))


def searchsorted_resample(weights, u):
    """The 1-D systematic rule: a binary search of every position (j + u) / N."""
    n = weights.shape[0]
    positions = (np.arange(n) + u) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = max(cumulative[-1], 1.0)
    return np.minimum(cumulative.searchsorted(positions, side="right"), n - 1)


def resample_weights(rng, kind, runs, n):
    """Normalized weights (runs, n) of one of the shapes that stress the count rule."""
    if kind == "uniform":  # cumulative sums land on the position grid
        weights = np.full((runs, n), 1.0)
    elif kind == "one-hot":
        weights = np.zeros((runs, n))
        weights[np.arange(runs), rng.integers(0, n, runs)] = 1.0
    elif kind == "zero-ends":
        weights = rng.random((runs, n))
        weights[:, :n // 3] = 0.0
        weights[:, n - n // 3:] = 0.0
        weights[:, n // 3] += 1e-300
    elif kind == "skewed":
        weights = rng.random((runs, n)) ** rng.uniform(1.0, 200.0) + 1e-300
    else:  # a few distinct values, so many partial sums tie
        weights = rng.integers(0, 4, (runs, n)).astype(float)
        weights[:, 0] += 1.0
    return weights / weights.sum(axis=-1, keepdims=True)


def test_stacked_resample_matches_the_search_rule_exactly(monkeypatch):
    searches = []
    search = np.searchsorted
    monkeypatch.setattr(np, "searchsorted",
                        lambda *args, **kwargs: searches.append(1) or search(*args, **kwargs))
    rng = np.random.default_rng(13)
    kinds = ("uniform", "one-hot", "zero-ends", "skewed", "ties")
    cases = 0
    for n in (1, 2, 3, 7, 1000, 20000):
        for runs in range(1, 30):
            weights = resample_weights(rng, kinds[runs % len(kinds)], runs, n)
            u = rng.random(runs)
            u[::3] = 0.0
            u[1::3] = np.nextafter(1.0, 0.0)
            got = systematic_resample(weights, u)
            assert got.shape == (runs, n)
            for row in range(runs):
                assert np.array_equal(got[row], searchsorted_resample(weights[row], u[row]))
            cases += runs
    assert cases >= 2000
    assert searches  # entries within the margin of an integer count were searched
    assert np.array_equal(systematic_resample(weights[0], u[0]), got[0])


def test_the_resampling_kernel_gives_flat_gather_indices():
    """The step's unchecked kernel gives systematic_resample's indices offset
    by row * N, the rows of the (R * N, n) particle stack."""
    rng = np.random.default_rng(17)
    clipped = 0
    for n in (1, 2, 1000, 20000):
        for kind in ("uniform", "one-hot", "zero-ends", "skewed", "ties"):
            weights = resample_weights(rng, kind, 4, n)
            u = np.array([0.0, np.nextafter(1.0, 0.0), rng.random(), rng.random()])
            got = filters._resample_indices(weights, u, np.empty((2, weights.size + 1)))
            rows = n * np.arange(4)[:, None]
            assert np.array_equal(got, systematic_resample(weights, u) + rows)
            for row in range(4):
                assert np.array_equal(got[row] - rows[row],
                                      searchsorted_resample(weights[row], u[row]))
                # the search rule before its clip to N - 1: the kernel's last
                # column counted all N particles and was clipped
                positions = (np.arange(n) + u[row]) / n
                cumulative = np.cumsum(weights[row])
                cumulative[-1] = max(cumulative[-1], 1.0)
                clipped += int(cumulative.searchsorted(positions[-1], side="right") == n)
    assert clipped > 0
    # a cumulative sum above 1 by more than the rounding margin puts the last
    # first position at N + 1 (u = 0): it is counted at N, not in the next
    # row's second bin
    weights = np.full((3, 1000), (1.0 + 5e-10) / 1000)
    u = np.zeros(3)
    want = np.stack([searchsorted_resample(row, 0.0) for row in weights])
    assert np.array_equal(systematic_resample(weights, u), want)


def test_resampling_preserves_weighted_mean():
    """Average of 1000 seeded resampled means stays within 3 standard errors."""
    rng = np.random.default_rng(314)
    values = np.array([-2.0, -0.5, 0.1, 1.3, 4.0])
    weights = np.array([0.1, 0.15, 0.3, 0.25, 0.2])
    target = float(weights @ values)
    means = []
    for _ in range(1000):
        idx = systematic_resample(weights, rng.uniform())
        means.append(values[idx].mean())
    means = np.asarray(means)
    se = means.std(ddof=1) / np.sqrt(len(means))
    assert abs(means.mean() - target) < 3.0 * max(se, 1e-12)


def test_pf_single_particle_no_noise():
    tiny = 1e-30  # prior and process noise: the particle starts at 1 and moves by f alone
    model = ungm_model(process_var=tiny, meas_var=5.0, prior_mean=1.0, prior_var=tiny)
    out = run_pf(model, np.array([[0.5]]), 1, seed=0)
    assert_allclose(out.posterior.mean[0], model.transition(1, np.array([1.0])), atol=1e-9)


def test_pf_identical_particles():
    model = ungm_model(process_var=1e-30, prior_mean=2.0, prior_var=1e-30)
    out = run_pf(model, np.array([[1.0]]), 50, seed=3)
    assert_allclose(out.posterior.mean[0], model.transition(1, np.array([2.0])), atol=1e-6)
    assert out.posterior.cov[0, 0, 0] < 1e-8


def test_pf_converges_to_kalman(rng):
    model = random_stable_linear_model(rng, 1)
    traj = sample_trajectory(model, 10, 777)
    kalman = kalman_series(model, traj.measurements)
    k_mean = kalman[-1].posterior.mean
    k_var = kalman[-1].posterior.cov[0, 0]
    errors = {}
    for n in (100, 10000):
        outputs = run_pf(model, traj.measurements, n_particles=n, seed=2024)
        errors[n] = abs(outputs.posterior.mean[-1, 0] - k_mean[0])
    assert errors[10000] < errors[100]
    assert errors[10000] < 3.0 * np.sqrt(k_var / 10000)


def test_pf_large_sample_single_step():
    model = linear_gaussian_model(np.array([[0.8]]), np.array([[1.0]]),
                                  np.array([[0.5]]), np.array([[0.4]]),
                                  np.zeros(1), np.array([[1.0]]))
    n = 100000
    z = np.array([0.7])
    out = run_pf(model, z[None], n, seed=5, resample="adaptive", ess_threshold=0.0)
    kal = kalman_step(np.array([[0.8]]), np.array([[1.0]]), np.array([[0.5]]),
                      np.array([[0.4]]), GaussianBelief(np.zeros(1), np.array([[1.0]])), z)
    se = np.sqrt(kal.posterior.cov[0, 0] / out.health["min_ess"])
    assert abs(out.posterior.mean[0, 0] - kal.posterior.mean[0]) < 3.0 * se


def test_pf_reproducible():
    model = ungm_model()
    traj = sample_trajectory(model, 15, 42)
    a = run_pf(model, traj.measurements, n_particles=300, seed=9)
    b = run_pf(model, traj.measurements, n_particles=300, seed=9)
    assert np.array_equal(a.posterior.mean, b.posterior.mean)
    assert np.array_equal(a.posterior.cov, b.posterior.cov)


def test_pf_vanished_likelihood_warns():
    # measurement so extreme that every log-likelihood is -inf
    model = ungm_model(prior_var=1e-30)
    with pytest.warns(RuntimeWarning):
        out = run_pf(model, np.array([[1e200]]), 20, seed=1)
    assert np.all(np.isfinite(out.posterior.mean))
    assert out.health["collapses"] == 1


def test_pf_nan_measurement_raises():
    model = ungm_model(prior_var=1e-30)
    with pytest.raises(NumericError):
        run_pf(model, np.array([[np.nan]]), 20, seed=1)


def test_ukf_reproducible():
    model = ungm_model()
    traj = sample_trajectory(model, 20, 8)
    a = run_ukf(model, traj.measurements)
    b = run_ukf(model, traj.measurements)
    assert np.array_equal(a.posterior.mean, b.posterior.mean)
    assert np.array_equal(a.posterior.cov, b.posterior.cov)


def stacked_setup(name, runs, horizon=25):
    """A model, a stack of runs' measurements (R, T, m) and one PF seed per run."""
    if name == "ungm":
        model = ungm_model()
    else:
        model = linear_gaussian_model([[0.584, -0.178], [-0.726, 0.365]],
                                      [[1.077, 0.81], [0.499, -1.444]],
                                      [[0.8, 0.2], [0.2, 0.5]], [[1.2, -0.3], [-0.3, 0.9]],
                                      [0.5, -1.0], [[2.0, 0.4], [0.4, 1.5]])
    measurements = np.stack([sample_trajectory(model, horizon, 100 + i).measurements
                             for i in range(runs)])
    return model, measurements, [1000 + i for i in range(runs)]


def assert_same_output(got, want):
    for channel in ("posterior", "predicted"):
        for part in ("mean", "cov"):
            assert np.array_equal(getattr(getattr(got, channel), part),
                                  getattr(getattr(want, channel), part))
    assert got.health.keys() == want.health.keys()
    for name in want.health:
        assert np.array_equal(got.health[name], want.health[name])


def row_of(out, i):
    """Row i of a stacked filter output, shaped like a single-run output."""
    return FilterOutput(GaussianBelief(out.posterior.mean[i], out.posterior.cov[i]),
                        GaussianBelief(out.predicted.mean[i], out.predicted.cov[i]),
                        {name: value[i] for name, value in out.health.items()})


@pytest.mark.parametrize("resample", ["always", "adaptive"])
@pytest.mark.parametrize("name", ["ungm", "linear2d"])
def test_stacked_filters_match_single_runs_bit_for_bit(name, resample):
    model, measurements, seeds = stacked_setup(name, runs=4)
    ukf = run_ukf(model, measurements)
    pf = run_pf(model, measurements, 150, seeds, resample=resample, ess_threshold=0.6)
    assert ukf.posterior.mean.shape == (4, 25, model.state_dim)
    assert pf.posterior.cov.shape == (4, 25, model.state_dim, model.state_dim)
    assert len(pf) == 4 * 25
    for i in range(4):
        single = run_pf(model, measurements[i], 150, seeds[i], resample=resample,
                        ess_threshold=0.6)
        assert_same_output(row_of(pf, i), single)
        assert_same_output(row_of(ukf, i), run_ukf(model, measurements[i]))
    if resample == "adaptive":
        assert 0 < pf.health["resamples"].sum() < 4 * 25


@pytest.mark.parametrize("resample", ["always", "adaptive"])
def test_a_block_of_dense_clouds_matches_single_runs_bit_for_bit(resample):
    """Three runs of 20,000 particles, a block at the default particle budget."""
    model, measurements, seeds = stacked_setup("ungm", runs=3, horizon=6)
    pf = run_pf(model, measurements, 20000, seeds, resample=resample, ess_threshold=0.3)
    for i in range(3):
        single = run_pf(model, measurements[i], 20000, seeds[i], resample=resample,
                        ess_threshold=0.3)
        assert_same_output(row_of(pf, i), single)
    if resample == "adaptive":  # some steps resample only some of the clouds
        assert len(set(pf.health["resamples"].tolist())) > 1


def same_bytes(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning",
                            "ignore:all particle likelihoods vanished:RuntimeWarning")
@pytest.mark.parametrize("resample", RESAMPLE_POLICIES)
@pytest.mark.parametrize("name, particles, horizon",
                         [("ungm", 150, 25), ("linear2d", 150, 25), ("ungm", 20000, 6)],
                         ids=["ungm", "linear2d", "ungm-dense"])
def test_pf_without_covariances_keeps_means_and_counters_bit_for_bit(name, particles, horizon,
                                                                     resample):
    """Without covariances run_pf gives the posterior and predicted means and
    the resampling, collapse and ESS counters of the run with them, for a
    stack and for one of its runs alone; the covariances are None and no
    repair is counted.  Run 1's likelihoods all vanish at step 4."""
    model, measurements, seeds = stacked_setup(name, runs=3, horizon=horizon)
    measurements[1, 3] = 1e200
    for pf_input, pf_seed in ((measurements, seeds), (measurements[1], seeds[1])):
        full, lean = (run_pf(model, pf_input, particles, pf_seed, resample=resample,
                             ess_threshold=0.6, covariances=covariances)
                      for covariances in (True, False))
        for channel in ("posterior", "predicted"):
            assert same_bytes(getattr(lean, channel).mean, getattr(full, channel).mean)
            assert getattr(lean, channel).cov is None
        assert lean.health.keys() == full.health.keys()
        for counter in ("resamples", "collapses", "min_ess"):
            assert same_bytes(lean.health[counter], full.health[counter]), counter
        assert same_bytes(lean.health["cov_repairs"], np.zeros_like(full.health["cov_repairs"]))
        assert len(lean) == len(full)
        assert np.sum(full.health["collapses"]) == 1


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("covariances", [True, False])
def test_a_non_finite_cloud_fails_its_step_with_or_without_covariances(covariances, bad):
    """A transition that puts one particle of the last cloud at NaN or +-inf
    at step 3 fails that step with the same NumericError whether or not
    covariances are formed: its mean is not finite, and the step stops
    before it measures the cloud for the log-weights."""
    base = linear_gaussian_model(0.9, 1.0, 1.0, 1.0, 0.0, 1.0)
    calls = []

    def transition(k, x):
        calls.append(("transition", k))
        y = base.transition_fn(k, x)
        if k == 3:
            y[-1, 0] = bad
        return y

    def measure(k, x):
        calls.append(("measure", k))
        return base.measurement_fn(k, x)

    model = dataclasses.replace(base, transition_fn=transition, measurement_fn=measure)
    for measurements, seed in ((np.zeros((2, 5, 1)), [1, 2]), (np.zeros((5, 1)), 3)):
        calls.clear()
        with pytest.raises(NumericError, match="^filter mean is not finite$"):
            run_pf(model, measurements, 40, seed, covariances=covariances)
        assert calls[-2:] == [("measure", 2), ("transition", 3)]


def test_a_stacked_step_resamples_every_cloud_in_one_call(monkeypatch):
    calls = []
    resample = filters._resample_indices
    monkeypatch.setattr(filters, "_resample_indices",
                        lambda *args: calls.append(np.shape(args[0])) or resample(*args))
    model, measurements, seeds = stacked_setup("ungm", runs=3, horizon=5)
    run_pf(model, measurements, 40, seeds)
    assert calls == [(3, 40)] * 5


def sis_reference(model, measurements, n_particles, seed):
    """Sequential importance sampling without resampling, written out for the
    ungm model: per step the predicted and posterior means and variances and
    the effective sample size."""
    rng = np.random.default_rng(seed)
    states = model.prior.mean + rng.standard_normal((n_particles, 1)) * np.sqrt(model.prior.cov)
    weights = np.full(n_particles, 1.0 / n_particles)
    q, r = model.process_cov[0, 0], model.meas_cov[0, 0]
    rows = []
    for k, z in enumerate(measurements[:, 0], start=1):
        states = model.transition(k, states) + rng.standard_normal((n_particles, 1)) * np.sqrt(q)
        x = states[:, 0]
        pred_mean = weights @ x
        pred_var = weights @ (x - pred_mean) ** 2
        log_w = np.log(weights) - 0.5 * ((z - x ** 2 / 20.0) ** 2 / r + np.log(2.0 * np.pi * r))
        weights = np.exp(log_w - log_w.max())
        weights /= weights.sum()
        post_mean = weights @ x
        rows.append((pred_mean, pred_var, post_mean, weights @ (x - post_mean) ** 2,
                     1.0 / np.sum(weights ** 2)))
    return np.array(rows).T


def test_pf_weights_match_a_sequential_importance_sampling_reference():
    """Adaptive resampling at ESS threshold 0 never resamples, so from step 2
    on every cloud carries unequal weights, and each step weights every
    particle by its own incoming weight."""
    model, measurements, seeds = stacked_setup("ungm", runs=2, horizon=5)
    out = run_pf(model, measurements, 60, seeds, resample="adaptive", ess_threshold=0.0)
    assert out.health["resamples"].tolist() == [0, 0]
    for i, seed in enumerate(seeds):
        pred_mean, pred_var, post_mean, post_var, ess = sis_reference(
            model, measurements[i], 60, seed)
        assert_allclose(out.predicted.mean[i, :, 0], pred_mean, rtol=1e-12)
        assert_allclose(out.predicted.cov[i, :, 0, 0], pred_var, rtol=1e-12)
        assert_allclose(out.posterior.mean[i, :, 0], post_mean, rtol=1e-12)
        assert_allclose(out.posterior.cov[i, :, 0, 0], post_var, rtol=1e-12)
        assert ess.max() < 59.0  # the weights are far from equal
        assert_allclose(out.health["min_ess"][i], ess.min(), rtol=1e-12)


def test_an_unknown_resample_policy_raises_in_run_pf():
    model, measurements, seeds = stacked_setup("ungm", runs=2, horizon=3)
    with pytest.raises(ValueError, match="unknown resample policy 'never'"):
        run_pf(model, measurements, 10, seeds, resample="never")


@pytest.mark.parametrize("name", ["ungm", "linear2d"])
def test_splitting_a_stack_into_blocks_gives_the_same_bytes(name):
    model, measurements, seeds = stacked_setup(name, runs=5)
    whole = run_pf(model, measurements, 100, seeds, resample="adaptive")
    parts = [run_pf(model, measurements[block], 100, seeds[block], resample="adaptive")
             for block in (slice(0, 2), slice(2, 5))]
    for channel in ("posterior", "predicted"):
        for part in ("mean", "cov"):
            joined = np.concatenate([getattr(getattr(p, channel), part) for p in parts])
            assert np.array_equal(getattr(getattr(whole, channel), part), joined)
    ukf_parts = [run_ukf(model, measurements[block]) for block in (slice(0, 3), slice(3, 5))]
    assert np.array_equal(run_ukf(model, measurements).posterior.cov,
                          np.concatenate([p.posterior.cov for p in ukf_parts]))


def test_nan_measurement_of_one_run_fails_the_stack_with_its_error():
    """A stacked filter raises the error its failing run raises alone."""
    model, measurements, seeds = stacked_setup("ungm", runs=4)
    measurements[2, 5] = np.nan  # the measurement of step 6
    for pf_input, pf_seed in ((measurements, seeds), (measurements[2], seeds[2])):
        with pytest.raises(NumericError, match="^non-finite particle log-weights at step 6$"):
            run_pf(model, pf_input, 100, pf_seed)
    # the UKF absorbs the NaN into its mean and fails on the next covariance
    for ukf_input in (measurements, measurements[2]):
        with pytest.raises(NumericError, match="^filter covariance is not finite$"):
            run_ukf(model, ukf_input)


def test_scalar_cholesky_matches_numpy_bit_for_bit():
    """1 x 1 stacks are factored by a square root: the same bytes as
    np.linalg.cholesky, and LinAlgError for the same elements."""
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 5e-324, np.nan, 1e300, -1.0, np.inf, 1e-310]
    spanning = 10.0 ** rng.uniform(-304.0, 304.0, 20000)
    for values in [[v] for v in special] + [spanning, rng.uniform(0.0, 10.0, 1000),
                                             np.append(spanning, -0.0)]:
        cov = np.asarray(values, dtype=float)[:, None, None]
        try:
            want = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                filters._cholesky(cov)
        else:
            assert filters._cholesky(cov).tobytes() == want.tobytes()
    matrix = np.array([[4.0, 1.0], [1.0, 3.0]])
    assert np.array_equal(filters._cholesky(matrix), np.linalg.cholesky(matrix))


def test_regularize_cov_rejects_non_finite_covariance():
    with pytest.raises(NumericError, match="filter covariance is not finite"):
        regularize_cov(np.array([[np.nan]]))
    with pytest.raises(NumericError, match="filter covariance is not finite"):
        regularize_cov(np.stack([np.eye(2), np.full((2, 2), np.inf)]))


def test_regularize_cov_repairs_only_failing_elements():
    good = np.array([[2.0, 0.5], [0.5, 1.0]])
    rank_one = np.ones((2, 2))  # singular: needs the first rung of the ladder
    repairs = np.zeros(3, dtype=int)
    out = regularize_cov(np.stack([good, rank_one, good]), repairs)
    assert repairs.tolist() == [0, 1, 0]
    assert np.array_equal(out[[0, 2]], np.stack([good, good]))
    assert np.array_equal(out[1], rank_one + 1e-10 * np.eye(2))
    assert np.array_equal(regularize_cov(rank_one), out[1])
    with pytest.raises(NumericError, match="not repairable"):
        regularize_cov(np.array([[1.0, 0.0], [0.0, -1.0]]))


def cholesky_ladder(cov):
    """regularize_cov's ladder on a stack, with a np.linalg.cholesky trial of every element."""
    out, repairs = cov.copy(), np.zeros(len(cov), dtype=int)
    eye = np.eye(cov.shape[-1])
    for i, element in enumerate(cov):
        scale = float(np.trace(element)) / cov.shape[-1]
        scale = scale if scale > 0.0 else 1.0
        jitter = 0.0
        while True:
            try:
                np.linalg.cholesky(element + jitter * eye)
                break
            except np.linalg.LinAlgError:
                jitter = 1e-10 * scale if jitter == 0.0 else jitter * 10.0
                if jitter > 1e-4 * scale:
                    raise NumericError("filter covariance not repairable by jitter") from None
        if jitter:
            out[i], repairs[i] = element + jitter * eye, 1
    return out, repairs


def test_scalar_regularize_cov_decides_as_a_cholesky_trial():
    """1 x 1 stacks are decided by m > 0, potrf's own test, not by a trial factorization."""
    values = [0.0, -0.0, -1e-11, 5e-324, 2.5, 1e-300, 1e300, -2e-6]
    for stack in (np.array(values), np.array(values[3:5]), np.array([-0.0])):
        cov = stack[:, None, None]
        repairs = np.zeros(len(cov), dtype=int)
        got = regularize_cov(cov, repairs)
        want, want_repairs = cholesky_ladder(cov)
        assert got.tobytes() == want.tobytes()
        assert repairs.tolist() == want_repairs.tolist()
    assert repairs.tolist() == [1]
    for value in (-3.0, -1.0):  # beyond the ladder's reach
        with pytest.raises(NumericError, match="not repairable"):
            cholesky_ladder(np.array([[[value]]]))
        with pytest.raises(NumericError, match="not repairable"):
            regularize_cov(np.array([[[2.0]], [[value]]]))


@pytest.mark.parametrize("resample", RESAMPLE_POLICIES)
def test_scalar_pf_factors_only_the_model_matrices(monkeypatch, resample):
    """A scalar particle filter factors the prior and Q once each, never a stack,
    also when its clouds degenerate and regularize_cov repairs them."""
    _, measurements, seeds = stacked_setup("ungm", runs=3, horizon=10)
    models = (ungm_model(), ungm_model(process_var=1e-300, prior_var=1e-300))
    arguments = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda a: arguments.append(np.array(a)) or cholesky(a))
    for model, repaired in zip(models, (False, True)):
        arguments.clear()
        out = run_pf(model, measurements, 200, seeds, resample=resample)
        assert [a.tolist() for a in arguments] == [model.prior.cov.tolist(),
                                                   model.process_cov.tolist()]
        assert np.all(out.health["cov_repairs"] > 0) == repaired


def test_scalar_process_noise_scales_as_the_matmul_bit_for_bit():
    """For n = 1 the step scales its draws in place: draws * l + f(x) equals draws @ [[l]].T + f(x).

    The product alone differs only in the sign of an exact zero (the matmul
    adds its one product to +0.0), which adding a transition value that is
    not -0.0, as the ungm transition never is, makes equal again.
    """
    model = ungm_model()
    states = np.sqrt(20.0) * np.random.default_rng(7).standard_normal((3, 20000, 1))
    draws = np.stack([np.random.default_rng(s).standard_normal((20000, 1)) for s in range(3)])
    draws[0, :4, 0] = [0.0, -0.0, 5e-324, -1e200]
    states[0, :3, 0] = [0.0, -0.0, 1e-300]
    for variance in (1.0, 1e-30, 0.3, 7.0, 1e20):
        chol = np.linalg.cholesky(np.array([[variance]]))
        scaled, product = draws * chol[0, 0], draws @ chol.T
        assert np.array_equal(scaled, product)
        for k in (1, 4):
            moved = model.transition(k, states)
            assert (scaled + moved).tobytes() == (product + moved).tobytes()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_pf_collapse_counts_once_and_run_continues():
    model, measurements, seeds = stacked_setup("ungm", runs=2, horizon=8)
    measurements[1, 3] = 1e200  # every particle likelihood vanishes at step 4
    with pytest.warns(RuntimeWarning, match="vanished at step 4"):
        pf = run_pf(model, measurements, 50, seeds)
    assert pf.health["collapses"].tolist() == [0, 1]
    assert pf.health["resamples"].tolist() == [8, 8]
    assert np.all(np.isfinite(pf.posterior.mean))


def cho_solve_loglik(resid, cov):
    """The Gaussian log density through LAPACK potrf/potrs, for any m."""
    chol = sla.cho_factor(cov, lower=True)
    m = cov.shape[0]
    columns = np.moveaxis(resid, -1, 0)
    sol = sla.cho_solve(chol, columns.reshape(m, -1), check_finite=False)
    quad = np.sum(columns * sol.reshape(columns.shape), axis=0)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
    return -0.5 * (quad + logdet + m * np.log(2.0 * np.pi))


def test_scalar_loglik_matches_cho_solve_bit_for_bit(rng):
    for _ in range(300):
        cov = np.array([[10.0 ** rng.uniform(-3.0, 3.0)]])
        shape = tuple(int(d) for d in rng.integers(1, 40, size=2)) + (1,)
        resid = rng.standard_normal(shape) * 10.0 ** rng.uniform(-2.0, 2.0)
        assert np.array_equal(_gaussian_loglik(resid, cov), cho_solve_loglik(resid, cov))


@pytest.mark.parametrize("resample", RESAMPLE_POLICIES)
@pytest.mark.parametrize("name", ["ungm", "linear2d"])
def test_run_pf_factors_the_measurement_noise_once(monkeypatch, name, resample):
    """R is factored once per run_pf call, not once per step, and the
    likelihoods keep their bytes.  The filter's other factorizations are the
    moment tests of regularize_cov, one (3, n, n) stack per call."""
    model, measurements, seeds = stacked_setup(name, runs=3, horizon=12)
    want = run_pf(model, measurements, 60, seeds, resample=resample)
    factor, calls = filters._cholesky, []
    monkeypatch.setattr(filters, "_cholesky", lambda m: calls.append(m) or factor(m))
    got = run_pf(model, measurements, 60, seeds, resample=resample)
    assert [m.tolist() for m in calls if m.ndim == 2] == [model.meas_cov.tolist()]
    assert_same_output(got, want)


def ut_weights_formula(n, params):
    """The sigma-point spread and weights, written out."""
    lam = params.alpha ** 2 * (n + params.resolved_kappa(n)) - n
    wm = np.full(2 * n + 1, 1.0 / (2.0 * (n + lam)))
    wc = wm.copy()
    wm[0] = lam / (n + lam)
    wc[0] = lam / (n + lam) + (1.0 - params.alpha ** 2 + params.beta)
    return wm, wc


@pytest.mark.parametrize("params", [UTParams(), UTParams(alpha=0.5, beta=2.0, kappa=1.0)])
def test_ut_weights_are_cached_read_only_and_exact(params):
    for n in (1, 2, 4):
        first = sigma_points(np.zeros(n), np.eye(n), params)
        again = sigma_points(np.ones((3, n)), 2.0 * np.eye(n), params)
        wm, wc = ut_weights_formula(n, params)
        for got in (first, again):
            assert np.array_equal(got.mean_weights, wm)
            assert np.array_equal(got.cov_weights, wc)
        assert again.mean_weights is first.mean_weights
        for weights in (first.mean_weights, first.cov_weights):
            assert not weights.flags.writeable
            with pytest.raises(ValueError):
                weights[0] = 0.0


def test_a_non_positive_spread_raises_on_every_call():
    params = UTParams(alpha=1.0, kappa=-1.0)  # n + lambda = 0 at n = 1
    for _ in range(3):
        with pytest.raises(ValueError, match="non-positive spread"):
            sigma_points(np.zeros(1), np.eye(1), params)


@pytest.mark.parametrize("name", ["ungm", "linear2d"])
def test_stacked_ukf_under_non_default_params_matches_single_runs(name):
    params = UTParams(alpha=0.5, beta=2.0, kappa=1.0)
    model, measurements, _ = stacked_setup(name, runs=3)
    ukf = run_ukf(model, measurements, params)
    for i in range(3):
        assert_same_output(row_of(ukf, i), run_ukf(model, measurements[i], params))


def test_nan_residual_raises_in_pf_step():
    """A NaN residual in one cloud of a stack fails run_pf's step."""
    model = ungm_model()
    assert np.isnan(_gaussian_loglik(np.full((2, 30, 1), np.nan), model.meas_cov)).all()
    with pytest.raises(NumericError, match="non-finite particle log-weights at step 1"):
        run_pf(model, np.array([[[0.3]], [[np.nan]]]), 30, [5, 6])


@pytest.mark.parametrize("name", ["ungm", "linear"])
@pytest.mark.parametrize("resample", RESAMPLE_POLICIES)
def test_filter_beliefs_pass_the_public_checks(name, resample):
    """The filters build their beliefs without the checks; every one must pass them."""
    model, measurements, seeds = stacked_setup(name, runs=3, horizon=15)
    outputs = [run_ukf(model, measurements), run_ukf(model, measurements[0]),
               run_pf(model, measurements, 200, seeds, resample=resample),
               run_pf(model, measurements[0], 200, seeds[0], resample=resample)]
    for out in outputs:
        for belief in (out.posterior, out.predicted):
            rebuilt = GaussianBelief(belief.mean, belief.cov)
            assert np.array_equal(rebuilt.cov, belief.cov)
