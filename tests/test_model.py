import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from finite_differences import fd_jacobian
from pcrlb import (GaussianBelief, linear_gaussian_model, sample_trajectory, spd_inverse,
                   ungm_model)

from pcrlb.cli import random_stable_linear_model


def test_ungm_transition_values():
    m = ungm_model()
    assert_allclose(m.transition(1, np.array([0.0])), [8.0], rtol=0, atol=1e-14)
    assert_allclose(m.transition(1, np.array([1.0])), [21.0], rtol=0, atol=1e-13)
    assert_allclose(m.transition(2, np.array([0.0])), [8.0 * np.cos(1.2)], rtol=1e-14)


def test_ungm_measurement_values():
    m = ungm_model()
    assert_allclose(m.measure(1, np.array([2.0])), [0.2], rtol=0, atol=1e-15)
    assert_allclose(m.measure(3, np.array([0.0])), [0.0], rtol=0, atol=0)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_ungm_maps_equal_the_textbook_expressions_bit_for_bit(rng):
    """The maps work in place on their own buffers, operation by operation as written."""
    m = ungm_model()
    grid = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, 1e154, -1e154, 1.0, -1.0],
                           rng.standard_normal(500) * 10.0 ** rng.uniform(-3.0, 3.0, 500)])
    for x in (grid[:, None], grid.reshape(4, -1, 1)):
        before = x.copy()
        for k in (1, 2, 7, 50):
            drift = 8.0 * np.cos(1.2 * (k - 1))
            assert same_bits(m.transition(k, x), 0.5 * x + 25.0 * x / (1.0 + x * x) + drift)
            assert same_bits(m.measure(k, x), x * x / 20.0)
        assert same_bits(x, before)


def test_ungm_defaults():
    m = ungm_model()
    assert m.state_dim == 1 and m.meas_dim == 1
    assert_allclose(m.process_cov, [[1.0]])
    assert_allclose(m.meas_cov, [[5.0]])
    assert_allclose(m.prior.cov, [[20.0]])


def test_ungm_transition_jacobian():
    m = ungm_model()
    assert_allclose(m.transition_jacobian(1, np.array([0.0])), [[25.5]], rtol=1e-14)
    assert_allclose(m.transition_jacobian(1, np.array([1.0])), [[0.5]], rtol=0, atol=1e-14)


def test_ungm_measurement_derivatives():
    m = ungm_model()
    assert_allclose(m.measurement_jacobian(1, np.array([2.0])), [[0.2]], rtol=1e-15)


def test_linear_model_derivatives():
    a = np.array([[0.4, 0.1], [0.0, 0.7]])
    h = np.array([[1.0, 0.0]])
    model = linear_gaussian_model(a, h, np.eye(2), np.eye(1), np.zeros(2), np.eye(2))
    assert model.state_dim == 2 and model.meas_dim == 1
    x = np.array([3.0, -2.0])
    assert_allclose(model.transition(5, x), a @ x, rtol=1e-15)
    assert_allclose(model.transition_jacobian(5, x), a)
    assert_allclose(model.measurement_jacobian(5, x), h)


def test_linear_identity_map():
    model = linear_gaussian_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2),
                                  np.zeros(2), np.eye(2))
    x = np.array([1.5, -0.5])
    assert_allclose(model.transition(1, x), x)
    assert_allclose(model.measure(1, x), x)


def test_dimension_mismatch_rejected():
    m = ungm_model()
    with pytest.raises(ValueError):
        m.transition(1, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        m.measure(1, np.array([1.0, 2.0]))


def test_fd_jacobian_simple():
    got = fd_jacobian(lambda x: x**2, np.array([1.0]))
    assert_allclose(got, [[2.0]], atol=1e-6)


def test_fd_jacobian_affine_exact():
    a = np.array([[2.0, -1.0], [0.5, 3.0]])
    got = fd_jacobian(lambda x: a @ x + 1.0, np.array([0.3, -0.7]))
    assert_allclose(got, a, atol=1e-9)


def test_fd_jacobian_matches_analytic_ungm():
    m = ungm_model()
    got = fd_jacobian(lambda x: m.transition(1, x), np.array([0.0]))
    assert_allclose(got, [[25.5]], rtol=1e-5)


def test_analytic_derivatives_match_fd():
    # every built-in model, 100 random points, 1e-5 relative
    rng = np.random.default_rng(42)
    ungm = ungm_model()
    lin = random_stable_linear_model(rng, 2)
    for _ in range(100):
        x1 = rng.uniform(-25.0, 25.0, size=1)
        k = int(rng.integers(1, 51))
        fd_f = fd_jacobian(lambda v: ungm.transition(k, v), x1)
        assert_allclose(ungm.transition_jacobian(k, x1), fd_f, rtol=1e-5, atol=1e-7)
        fd_h = fd_jacobian(lambda v: ungm.measure(k, v), x1)
        assert_allclose(ungm.measurement_jacobian(k, x1), fd_h, rtol=1e-5, atol=1e-7)
        x2 = rng.uniform(-5.0, 5.0, size=2)
        assert_allclose(lin.transition_jacobian(k, x2),
                        fd_jacobian(lambda v: lin.transition(k, v), x2),
                        rtol=1e-5, atol=1e-8)


def test_prior_validation():
    """The prior is a GaussianBelief, and the model asks it to be positive
    definite and of the state's dimension.  The linear builder checks its
    values before, under their parameter names."""
    eye = np.eye(2)
    model = linear_gaussian_model(eye, eye, eye, eye, np.zeros(2), eye)
    assert isinstance(model.prior, GaussianBelief)
    for prior_cov, message in ((np.diag([1.0, -1.0]), "semidefinite"),
                               (np.ones((2, 2)), "prior cov must be positive definite"),
                               (np.eye(3), "does not match")):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(model, prior=GaussianBelief(np.zeros(2), prior_cov))
        with pytest.raises(ValueError, match=r"^prior_var "):
            linear_gaussian_model(eye, eye, eye, eye, np.zeros(2), prior_cov)
    with pytest.raises(ValueError, match="prior cov shape"):
        dataclasses.replace(model, prior=GaussianBelief(np.zeros(3), np.eye(3)))
    with pytest.raises(ValueError, match=r"^prior_mean shape \(3,\)"):
        linear_gaussian_model(eye, eye, eye, eye, np.zeros(3), np.eye(3))


def test_a_model_covariance_is_valid_exactly_when_it_factors():
    """Q and R are checked by linalg's rules, in order: finite, symmetric,
    then a Cholesky factor, which the singular [[1, 3], [3, 9]] lacks (its
    eigvalsh reads +1.1e-16)."""
    eye = np.eye(2)
    model = linear_gaussian_model(0.5 * eye, eye, eye, eye, np.zeros(2), eye)
    for cov, rule in (([[np.nan, 0.0], [0.0, 1.0]], "finite"),
                      ([[1.0, 0.5], [0.0, 1.0]], "symmetric"),
                      ([[1.0, 3.0], [3.0, 9.0]], "positive definite")):
        for label in ("process_cov", "meas_cov"):
            with pytest.raises(ValueError, match=f"^{label} must be {rule}$"):
                dataclasses.replace(model, **{label: np.array(cov)})
    with pytest.raises(ValueError, match="^belief covariance must be symmetric$"):
        GaussianBelief(np.zeros(2), [[1.0, 0.5], [0.0, 1.0]])


def test_sample_trajectory_shapes_and_determinism():
    m = ungm_model()
    t1 = sample_trajectory(m, 50, 1234)
    t2 = sample_trajectory(m, 50, 1234)
    assert t1.states.shape == (51, 1)
    assert t1.measurements.shape == (50, 1)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.measurements, t2.measurements)
    t3 = sample_trajectory(m, 50, 1235)
    assert not np.array_equal(t1.states, t3.states)


def test_sample_trajectory_noise_free():
    """With all noise removed the recursion is the deterministic map."""
    tiny = 1e-30  # exact zeros would fail the SPD prior check
    m = ungm_model(process_var=tiny, meas_var=tiny, prior_var=tiny)
    t = sample_trajectory(m, 10, 99)
    for k in range(1, 11):
        expect = m.transition(k, t.states[k - 1])
        assert_allclose(t.states[k], expect, rtol=1e-9, atol=1e-9)
        assert_allclose(t.measurements[k - 1], m.measure(k, t.states[k]),
                        rtol=1e-9, atol=1e-9)


def stepwise_trajectory(model, horizon, rng):
    """The sampler as a loop over steps, drawing each noise vector on its own."""
    states = [model.prior.mean
              + np.linalg.cholesky(model.prior.cov) @ rng.standard_normal(model.state_dim)]
    measurements = []
    for k in range(1, horizon + 1):
        chol_q = np.linalg.cholesky(model.process_cov)
        chol_r = np.linalg.cholesky(model.meas_cov)
        states.append(model.transition(k, states[-1])
                      + chol_q @ rng.standard_normal(model.state_dim))
        measurements.append(model.measure(k, states[-1])
                            + chol_r @ rng.standard_normal(model.meas_dim))
    return np.stack(states), np.stack(measurements)


def sampling_models(rng):
    return {"ungm": ungm_model(), "linear2d": random_stable_linear_model(rng, 2),
            "linear4d": random_stable_linear_model(rng, 4)}


@pytest.mark.parametrize("name", ["ungm", "linear2d", "linear4d"])
def test_stacked_sample_trajectory_matches_single_runs_bit_for_bit(rng, name):
    model = sampling_models(rng)[name]
    seeds = [int(s) for s in rng.integers(2**63, size=6)]
    stack = sample_trajectory(model, 30, seeds)
    assert stack.states.shape == (6, 31, model.state_dim)
    assert stack.measurements.shape == (6, 30, model.meas_dim)
    for i, seed in enumerate(seeds):
        single = sample_trajectory(model, 30, seed)
        assert np.array_equal(stack.states[i], single.states)
        assert np.array_equal(stack.measurements[i], single.measurements)
        states, measurements = stepwise_trajectory(model, 30, np.random.default_rng(seed))
        assert np.array_equal(single.states, states)
        assert np.array_equal(single.measurements, measurements)


@pytest.mark.parametrize("name", ["ungm", "linear4d"])
def test_sample_trajectory_generator_ends_after_its_draws(rng, name):
    model = sampling_models(rng)[name]
    n, m, horizon = model.state_dim, model.meas_dim, 12
    generator, reference = np.random.default_rng(99), np.random.default_rng(99)
    sample_trajectory(model, horizon, generator)
    for _ in range(n + horizon * (n + m)):
        reference.standard_normal()
    assert generator.bit_generator.state == reference.bit_generator.state


def test_cached_noise_precisions_are_the_inverses_and_read_only(rng):
    """So are the factors of Q, R and the prior cov, with np.linalg.cholesky's
    bytes, and the model they were formed from is frozen."""
    for model in sampling_models(rng).values():
        q_inv, r_inv = model.process_precision, model.meas_precision
        assert np.array_equal(q_inv, spd_inverse(model.process_cov))
        assert np.array_equal(r_inv, spd_inverse(model.meas_cov))
        assert q_inv is model.process_precision
        factors = (model.process_chol, model.meas_chol, model.prior_chol)
        for factor, cov in zip(factors, (model.process_cov, model.meas_cov, model.prior.cov)):
            assert factor.tobytes() == np.linalg.cholesky(cov).tobytes()
        for cached in (q_inv, r_inv) + factors:
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):  # so none can go stale
            model.process_cov = 2.0 * model.process_cov


def test_stacked_maps_and_derivatives_match_pointwise(rng):
    """Maps and Jacobians take (..., n) stacks."""
    for model in (ungm_model(), random_stable_linear_model(rng, 2)):
        x = rng.uniform(-3.0, 3.0, size=(2, 3, model.state_dim))
        for name in ("transition", "measure", "transition_jacobian",
                     "measurement_jacobian"):
            fn = getattr(model, name)
            stacked = fn(4, x)
            for index in np.ndindex(x.shape[:-1]):
                # a stacked matrix product may round differently in the last bit
                assert_allclose(stacked[index], fn(4, x[index]), rtol=1e-14, atol=1e-14,
                                err_msg=name)
