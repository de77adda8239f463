import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from pcrlb import (FilterOutput, GaussianBelief, NumericError, ParticleSet, UTParams, init_particles,
                   kalman_step, linear_gaussian_model, particle_moments, pf_step,
                   regularize_cov, run_pf, run_ukf, sample_trajectory, sigma_points,
                   systematic_resample, ukf_step, ungm_model, unscented_transform)

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


def test_particle_set_validation():
    with pytest.raises(ValueError):
        ParticleSet(np.zeros((3, 1)), np.array([0.5, 0.2, 0.2]))
    ps = ParticleSet(np.zeros((4, 1)), np.full(4, 0.25))
    assert_allclose(ps.ess, 4.0)


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
    tiny = 1e-30
    model = ungm_model(process_var=tiny, meas_var=5.0)
    particles = ParticleSet(np.array([[1.0]]), np.array([1.0]))
    new, out = pf_step(model, 1, particles, np.array([0.5]), seed=0)
    assert_allclose(out.posterior.mean, model.transition(1, np.array([1.0])), atol=1e-9)


def test_pf_identical_particles():
    model = ungm_model(process_var=1e-30)
    states = np.full((50, 1), 2.0)
    particles = ParticleSet(states, np.full(50, 0.02))
    _, out = pf_step(model, 1, particles, np.array([1.0]), seed=3)
    assert_allclose(out.posterior.mean, model.transition(1, np.array([2.0])), atol=1e-6)
    assert out.posterior.cov[0, 0] < 1e-8


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
    particles = init_particles(model, n, seed=5)
    z = np.array([0.7])
    new, out = pf_step(model, 1, particles, z, seed=6,
                       resample="adaptive", ess_threshold=0.0)
    kal = kalman_step(np.array([[0.8]]), np.array([[1.0]]), np.array([[0.5]]),
                      np.array([[0.4]]), GaussianBelief(np.zeros(1), np.array([[1.0]])), z)
    se = np.sqrt(kal.posterior.cov[0, 0] / new.ess)
    assert abs(out.posterior.mean[0] - kal.posterior.mean[0]) < 3.0 * se


def test_pf_reproducible():
    model = ungm_model()
    traj = sample_trajectory(model, 15, 42)
    a = run_pf(model, traj.measurements, n_particles=300, seed=9)
    b = run_pf(model, traj.measurements, n_particles=300, seed=9)
    assert np.array_equal(a.posterior.mean, b.posterior.mean)
    assert np.array_equal(a.posterior.cov, b.posterior.cov)


def test_pf_vanished_likelihood_warns():
    # measurement so extreme that every log-likelihood is -inf
    model = ungm_model()
    particles = ParticleSet(np.zeros((20, 1)), np.full(20, 0.05))
    with pytest.warns(RuntimeWarning):
        _, out = pf_step(model, 1, particles, np.array([1e200]), seed=1)
    assert np.all(np.isfinite(out.posterior.mean))


def test_pf_nan_measurement_raises():
    from pcrlb import NumericError

    model = ungm_model()
    particles = ParticleSet(np.zeros((20, 1)), np.full(20, 0.05))
    with pytest.raises(NumericError):
        pf_step(model, 1, particles, np.array([np.nan]), seed=1)


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


def test_a_stacked_step_resamples_every_cloud_in_one_call(monkeypatch):
    calls = []
    resample = filters.systematic_resample
    monkeypatch.setattr(filters, "systematic_resample",
                        lambda *args: calls.append(np.shape(args[0])) or resample(*args))
    model, measurements, seeds = stacked_setup("ungm", runs=3, horizon=5)
    run_pf(model, measurements, 40, seeds)
    assert calls == [(3, 40)] * 5


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
    states = init_particles(model, 20000, [7, 8, 9]).states
    draws = filters._standard_normal([np.random.default_rng(s) for s in range(3)], (3,),
                                     (20000, 1))
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
    cov = random_stable_linear_model(rng, 3).meas_cov
    resid = rng.standard_normal((4, 50, 3))
    assert np.array_equal(_gaussian_loglik(resid, cov), cho_solve_loglik(resid, cov))
    for _ in range(50):  # m = 2, as the golden linear model has
        cov = random_stable_linear_model(rng, 2).meas_cov * 10.0 ** rng.uniform(-2.0, 2.0)
        resid = rng.standard_normal((3, 40, 2))
        assert np.array_equal(_gaussian_loglik(resid, cov), cho_solve_loglik(resid, cov))


def test_nan_residual_raises_in_pf_step():
    model = ungm_model()
    cloud = init_particles(model, 30, [5, 6])
    assert np.isnan(_gaussian_loglik(np.full((2, 30, 1), np.nan), model.meas_cov)).all()
    with pytest.raises(NumericError, match="non-finite particle log-weights at step 1"):
        pf_step(model, 1, cloud, np.array([[0.3], [np.nan]]), [5, 6])


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
