import numpy as np
import pytest
from numpy.testing import assert_allclose

from pcrlb import (GaussianBelief, SystemModel, linear_gaussian_model,
                   measurement_moment_map_derivatives, propagate_measurement_moments,
                   propagate_state_moments, state_moment_map_derivatives, ungm_model)

from pcrlb.cli import random_stable_linear_model


def scalar_square_model(q=1.0, r=1.0):
    """f(x) = x^2 with identity measurement, for hand-checkable moments."""
    return SystemModel(
        state_dim=1, meas_dim=1,
        transition_fn=lambda k, x: x * x,
        measurement_fn=lambda k, x: x,
        process_cov=np.array([[q]]), meas_cov=np.array([[r]]),
        prior=GaussianBelief(np.zeros(1), np.eye(1)),
        transition_jacobian_fn=lambda k, x: (2.0 * x)[..., None],
        transition_hessian_fn=lambda k, x: np.full(x.shape + (1, 1), 2.0),
        measurement_jacobian_fn=lambda k, x: np.ones(x.shape + (1,)),
        measurement_hessian_fn=lambda k, x: np.zeros(x.shape + (1, 1)))


def test_state_moments_quadratic_hand_values():
    pm = propagate_state_moments(scalar_square_model(), 1,
                                 GaussianBelief(np.zeros(1), np.eye(1)))
    assert_allclose(pm.mean, [1.0], atol=1e-9)
    assert_allclose(pm.cov, [[3.0]], rtol=1e-8)
    assert_allclose(pm.curvature_mean, [1.0], atol=1e-9)
    assert_allclose(pm.curvature_cov, [[2.0]], rtol=1e-8)


def test_state_moments_linear_exact(rng):
    model = random_stable_linear_model(rng, 2)
    belief = GaussianBelief(rng.standard_normal(2), np.diag([0.5, 2.0]))
    pm = propagate_state_moments(model, 3, belief)
    a = model.transition_jacobian(3, belief.mean)
    assert_allclose(pm.mean, a @ belief.mean, atol=1e-12)
    assert_allclose(pm.cov, a @ belief.cov @ a.T + model.process_cov, atol=1e-12)
    assert_allclose(pm.curvature_mean, np.zeros(2), atol=1e-12)
    assert_allclose(pm.curvature_cov, np.zeros((2, 2)), atol=1e-12)


def test_state_moments_zero_covariance():
    m = ungm_model()
    pm = propagate_state_moments(m, 1, GaussianBelief(np.array([2.0]), np.zeros((1, 1))))
    assert_allclose(pm.mean, m.transition(1, np.array([2.0])), atol=1e-14)
    assert_allclose(pm.cov, m.process_cov, atol=1e-14)


def test_ungm_state_moments():
    m = ungm_model()
    pm = propagate_state_moments(m, 1, GaussianBelief(np.zeros(1), np.eye(1)))
    assert_allclose(pm.mean, [8.0], atol=1e-12)
    assert_allclose(pm.cov, [[651.25]], rtol=1e-12)


def test_ungm_measurement_moments():
    m = ungm_model()
    pm = propagate_measurement_moments(m, 1, GaussianBelief(np.zeros(1), np.eye(1)))
    assert_allclose(pm.mean, [0.05], rtol=1e-12)
    assert_allclose(pm.cov, [[5.005]], rtol=1e-12)


def test_measurement_moments_linear(rng):
    model = random_stable_linear_model(rng, 2)
    belief = GaussianBelief(rng.standard_normal(2), np.eye(2) * 1.7)
    pm = propagate_measurement_moments(model, 2, belief)
    h = model.measurement_jacobian(2, belief.mean)
    assert_allclose(pm.mean, h @ belief.mean, atol=1e-12)
    assert_allclose(pm.cov, h @ belief.cov @ h.T + model.meas_cov, atol=1e-12)


def test_measurement_moments_zero_covariance():
    m = ungm_model()
    pm = propagate_measurement_moments(m, 1, GaussianBelief(np.array([3.0]), np.zeros((1, 1))))
    assert_allclose(pm.mean, [0.45], rtol=1e-14)
    assert_allclose(pm.cov, [[5.0]], rtol=1e-14)


def test_curvature_scaling():
    # curvature_mean scales linearly in P, the trace double sum quadratically
    m = ungm_model()
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(-20.0, 20.0, size=1)
        p = np.array([[rng.uniform(0.1, 10.0)]])
        c = rng.uniform(0.5, 4.0)
        base = propagate_state_moments(m, 1, GaussianBelief(x, p))
        scaled = propagate_state_moments(m, 1, GaussianBelief(x, c * p))
        assert_allclose(scaled.curvature_mean, c * base.curvature_mean, rtol=1e-10)
        assert_allclose(scaled.curvature_cov, c**2 * base.curvature_cov, rtol=1e-10)


def test_propagated_cov_symmetric_psd(rng):
    m = ungm_model()
    for _ in range(20):
        belief = GaussianBelief(rng.uniform(-25, 25, size=1),
                                np.array([[rng.uniform(0.0, 30.0)]]))
        pm = propagate_state_moments(m, int(rng.integers(1, 51)), belief)
        assert_allclose(pm.cov, pm.cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(pm.cov).min() >= -1e-10


def test_state_map_derivatives_linear(rng):
    model = random_stable_linear_model(rng, 2)
    belief = GaussianBelief(rng.standard_normal(2), np.eye(2))
    d = state_moment_map_derivatives(model, 1, belief)
    assert_allclose(d.dmean, model.transition_jacobian(1, belief.mean), atol=1e-7)
    assert_allclose(d.dcov, np.zeros((2, 2, 2)), atol=1e-6)
    assert_allclose(d.dcurv_mean, np.zeros((2, 2)), atol=1e-7)


def test_state_map_derivatives_quadratic():
    # constant Hessian makes the curvature mean independent of the state
    d = state_moment_map_derivatives(scalar_square_model(), 1,
                                     GaussianBelief(np.zeros(1), np.eye(1)))
    assert_allclose(d.dmean, [[0.0]], atol=1e-6)
    assert_allclose(d.dcurv_mean, [[0.0]], atol=1e-6)


def test_state_map_derivatives_ungm_third_order():
    m = ungm_model()
    d = state_moment_map_derivatives(m, 1, GaussianBelief(np.zeros(1), np.eye(1)))
    assert_allclose(d.dmean, [[-49.5]], rtol=1e-4)


def test_measurement_map_derivatives():
    m = ungm_model()
    d = measurement_moment_map_derivatives(m, 1, GaussianBelief(np.array([2.0]), np.eye(1)))
    assert_allclose(d.dmean, [[0.2]], rtol=1e-6)
    d0 = measurement_moment_map_derivatives(m, 1, GaussianBelief(np.array([2.0]),
                                                                 np.zeros((1, 1))))
    assert_allclose(d0.dmean, m.measurement_jacobian(1, np.array([2.0])), rtol=1e-6)


def test_map_derivatives_against_one_sided_oracle():
    """Central-difference outputs vs an independent forward-difference oracle."""
    m = ungm_model()
    rng = np.random.default_rng(3)
    step = 1e-7
    for _ in range(25):
        x = rng.uniform(-20.0, 20.0)
        p = rng.uniform(0.1, 20.0)
        k = int(rng.integers(1, 51))
        belief = GaussianBelief(np.array([x]), np.array([[p]]))
        got = state_moment_map_derivatives(m, k, belief)

        def mean_at(t):
            return propagate_state_moments(m, k, GaussianBelief(np.array([t]), belief.cov)).mean[0]

        def cov_at(t):
            return propagate_state_moments(m, k, GaussianBelief(np.array([t]), belief.cov)).cov[0, 0]

        fwd_mean = (mean_at(x + step) - mean_at(x)) / step
        fwd_cov = (cov_at(x + step) - cov_at(x)) / step
        assert_allclose(got.dmean[0, 0], fwd_mean, rtol=1e-4, atol=1e-4)
        assert_allclose(got.dcov[0][0, 0], fwd_cov, rtol=1e-4,
                        atol=1e-4 * max(1.0, abs(fwd_cov)))


def test_belief_validation():
    GaussianBelief(np.zeros(1), np.zeros((1, 1)))  # PSD accepted
    with pytest.raises(ValueError):
        GaussianBelief(np.zeros(1), np.array([[-1.0]]))
    with pytest.raises(ValueError):
        GaussianBelief(np.zeros(2), np.eye(3))


def test_belief_is_importable_from_moments():
    """perfbench imports GaussianBelief from pcrlb.moments; it is model's class."""
    import pcrlb.model
    import pcrlb.moments
    assert pcrlb.moments.GaussianBelief is pcrlb.model.GaussianBelief
