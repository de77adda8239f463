import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pcrlb import (FimTriple, GaussianBelief, NumericError, SystemModel, bound_difference,
                   decompose_terms, fim_recursion_series, fim_recursion_step,
                   fim_via_decomposition, initial_fim, linear_gaussian_model,
                   mean_cov_terms, mean_only_terms, sample_trajectory, spd_inverse,
                   true_fim_terms_mc, ungm_model)
from pcrlb import fim
from pcrlb.linalg import symmetrize

from pcrlb.cli import kalman_series, random_spd, random_stable_linear_model, unscented_predicted

# frozen large-sample value of E[f'(x)^2] for the default scalar benchmark
# model under its prior, from a 1e7-sample run of an independent script
UNGM_D11_PRIOR = 44.300790


def unit_linear_model():
    one = np.ones((1, 1))
    return linear_gaussian_model(one, one, one, one, np.zeros(1), one)


def test_initial_fim_values():
    assert_allclose(initial_fim(unit_linear_model().prior), [[1.0]])
    model = ungm_model()  # prior variance 20
    assert_allclose(initial_fim(model.prior), [[0.05]])
    model2 = linear_gaussian_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2),
                                   np.zeros(2), np.eye(2))
    assert_allclose(initial_fim(model2.prior), np.eye(2))


def test_recursion_step_hand_value():
    terms = FimTriple(d11=np.array([[1.0]]), d12=np.array([[-1.0]]),
                      d22=np.array([[2.0]]))
    j1 = fim_recursion_step(np.array([[1.0]]), terms)
    assert_allclose(j1, [[1.5]], rtol=1e-14)
    # 1/1.5 is the Kalman posterior variance 2/3 for the all-ones model
    assert_allclose(1.0 / j1[0, 0], 2.0 / 3.0, rtol=1e-14)


def test_recursion_step_decoupled():
    terms = FimTriple(d11=np.diag([2.0, 3.0]), d12=np.zeros((2, 2)),
                      d22=np.diag([4.0, 5.0]))
    j1 = fim_recursion_step(np.eye(2), terms)
    assert_allclose(j1, np.diag([4.0, 5.0]))


def test_recursion_tracks_kalman_covariance(rng):
    """Inverse information equals the Kalman posterior covariance at every step."""
    for dim in (1, 2):
        model = random_stable_linear_model(rng, dim)
        x = model.prior.mean
        j = initial_fim(model.prior)
        kalman = kalman_series(model, np.zeros((50, model.meas_dim)))
        for k in range(1, 51):
            j = fim_recursion_step(j, mean_only_terms(model, k, x, model.transition(k, x)))
            assert_allclose(spd_inverse(j), kalman[k - 1].posterior.cov, atol=1e-8)


def test_true_terms_constant_for_linear_model(rng):
    model = random_stable_linear_model(rng, 2)
    states_prev = rng.standard_normal((40, 2))
    states_new = rng.standard_normal((40, 2))
    terms = true_fim_terms_mc(model, 3, states_prev, states_new)
    a = model.transition_jacobian(3, np.zeros(2))
    h = model.measurement_jacobian(3, np.zeros(2))
    q_inv = spd_inverse(model.process_cov)
    r_inv = spd_inverse(model.meas_cov)
    assert_allclose(terms.d11, a.T @ q_inv @ a, atol=1e-12)
    assert_allclose(terms.d12, -a.T @ q_inv, atol=1e-12)
    assert_allclose(terms.d22, q_inv + h.T @ r_inv @ h, atol=1e-12)


def test_true_terms_single_sample_equals_mean_only(rng):
    """A single sample is a point mass: the reference on one node per point
    gives the mean-only bytes, for one point and for an (R, T) stack of
    points with k = 1..T, on ungm and on a 4-D linear model's matrix path."""
    runs, horizon = 3, 5
    steps = np.arange(1, horizon + 1)[:, None]
    for model in (ungm_model(), random_stable_linear_model(rng, 4)):
        n = model.state_dim
        stack = rng.standard_normal((2, runs, horizon, n)) * 3.0
        for k, k_nodes, x_prev, x_new in ((2, 2, stack[0, 0, 0], stack[1, 0, 0]),
                                          (steps, steps[..., None], stack[0], stack[1])):
            mc = true_fim_terms_mc(model, k_nodes, x_prev[..., None, :], x_new[..., None, :])
            point = mean_only_terms(model, k, x_prev, x_new)
            for name in ("d11", "d12", "d22"):
                assert np.array_equal(getattr(mc, name), getattr(point, name)), (n, name)


def test_true_terms_large_sample_matches_frozen_value():
    model = ungm_model()
    rng = np.random.default_rng(19)
    samples = rng.normal(0.0, np.sqrt(20.0), size=(100000, 1))
    terms = true_fim_terms_mc(model, 1, samples, samples)
    assert abs(terms.d11[0, 0] - UNGM_D11_PRIOR) / UNGM_D11_PRIOR < 0.01


def test_stacked_true_terms_equal_per_step_calls_bit_for_bit(rng):
    """One true_fim_terms_mc call over (T, R, n) states with k = 1..T as
    (T, 1, 1) gives, step by step, the bytes of the per-step (R, n) calls;
    ungm's measurement Jacobian and the 2-D linear model's matrix path both
    reduce over the sample axis, not the step axis."""
    horizon = 5
    for model, count in ((ungm_model(), 20), (random_stable_linear_model(rng, 2), 9)):
        states = rng.standard_normal((horizon + 1, count, model.state_dim)) * 3.0
        steps = np.arange(1, horizon + 1)[:, None, None]
        stacked = true_fim_terms_mc(model, steps, states[:-1], states[1:])
        for k in range(1, horizon + 1):
            one = true_fim_terms_mc(model, k, states[k - 1], states[k])
            for name in ("d11", "d12", "d22"):
                assert np.array_equal(getattr(stacked, name)[k - 1], getattr(one, name)), (k, name)


def ungm_pair_model():
    """Two independent ungm components as one 2-D model: block-diagonal
    Jacobians and Hessians, Q = I, R = 5I, P_0 = 20I."""
    one = ungm_model()

    def diagonal(fn, order):
        """The derivative stack of order 1 or 2 with each component's scalar
        derivative at [..., i, i] or [..., i, i, i] and zeros elsewhere."""
        def derivative(k, x):
            out = np.zeros(x.shape + (2,) * order)
            for i in range(2):
                out[(..., i) + (i,) * order] = fn(k, x[..., i:i + 1])[(..., 0) + (0,) * order]
            return out
        return derivative

    return SystemModel(
        state_dim=2, meas_dim=2, transition_fn=one.transition_fn,
        measurement_fn=one.measurement_fn, process_cov=np.eye(2), meas_cov=5.0 * np.eye(2),
        prior=GaussianBelief(np.zeros(2), 20.0 * np.eye(2)),
        transition_jacobian_fn=diagonal(one.transition_jacobian_fn, 1),
        transition_hessian_fn=diagonal(one.transition_hessian_fn, 2),
        measurement_jacobian_fn=diagonal(one.measurement_jacobian_fn, 1),
        measurement_hessian_fn=diagonal(one.measurement_hessian_fn, 2))


def test_engines_on_two_independent_ungm_components(rng):
    """On a 2-D model made of two independent ungm components, each diagonal
    block of the mean-only terms is the scalar engine's term on that
    component, and every off-diagonal block is exactly zero.  The d11 and d12
    blocks are equal bit for bit; d22 holds R^-1, which the 2-D model inverts
    by LU as 1/5 and the scalar model through its factor as (1/sqrt(5))^2,
    so its blocks agree within 1e-15 of the term.  The reference
    sums (R, 2, 2) stacks where the scalar one sums (R, 1, 1) stacks, in
    another order, so its blocks agree within 1e-15 of the mean magnitude of
    the summands: the term itself for d11 and d22, the mean |F| for d12,
    whose mean of F may cancel.  On block-diagonal beliefs the mean+cov
    blocks are the scalar model's terms on the rule's marginal nodes: the
    four 2-D nodes m +- sqrt(2) S e_i put m + sqrt(2) s, m, m - sqrt(2) s, m
    on each component, summed in the order its eigenvalue takes, so they
    agree to the same tolerance."""
    horizon, runs = 6, 11
    pair, scalar = ungm_pair_model(), ungm_model()
    states = rng.standard_normal((horizon + 1, runs, 2)) * 4.0
    variances = rng.uniform(0.1, 30.0, (horizon + 1, runs, 2))
    covs = variances[..., None] * np.eye(2)
    steps = np.arange(1, horizon + 1)[:, None, None]
    point = mean_only_terms(pair, steps, states[:-1], states[1:])
    reference = true_fim_terms_mc(pair, steps, states[:-1], states[1:])
    full = mean_cov_terms(pair, steps, GaussianBelief(states[:-1], covs[:-1]),
                          GaussianBelief(states[1:], covs[1:]))
    for i in range(2):
        prev, new = states[:-1, :, i:i + 1], states[1:, :, i:i + 1]
        wing = np.sqrt(2.0) * np.sqrt(variances[..., i:i + 1])
        mean = states[..., i:i + 1]
        nodes = np.stack([mean + wing, mean, mean - wing, mean], axis=-2)
        point_one = mean_only_terms(scalar, steps, prev, new)
        reference_one = true_fim_terms_mc(scalar, steps, prev, new)
        full_one = true_fim_terms_mc(scalar, steps[..., None], nodes[:-1], nodes[1:])
        magnitudes = (np.abs(scalar.transition_jacobian(steps, prev)).mean(axis=-3),
                      np.abs(scalar.transition_jacobian(steps[..., None], nodes[:-1])).mean(axis=-3))
        for name in ("d11", "d12", "d22"):
            block, one = getattr(point, name)[..., i:i + 1, i:i + 1], getattr(point_one, name)
            if name == "d22":
                assert np.all(np.abs(block - one) <= 1e-15 * np.abs(one)), (i, name)
            else:
                assert np.array_equal(block, one), (i, name)
            for terms, one, f_magnitude in ((reference, reference_one, magnitudes[0]),
                                            (full, full_one, magnitudes[1])):
                one = getattr(one, name)
                scale = f_magnitude if name == "d12" else np.abs(one)
                error = np.abs(getattr(terms, name)[..., i:i + 1, i:i + 1] - one)
                assert np.all(error <= 1e-15 * scale), (i, name)
    for terms in (point, reference, full):
        for name in ("d11", "d12", "d22"):
            block = getattr(terms, name)
            assert np.all(block[..., 0, 1] == 0.0) and np.all(block[..., 1, 0] == 0.0), name


def test_true_terms_validation():
    model = ungm_model()
    with pytest.raises(ValueError):
        true_fim_terms_mc(model, 1, np.zeros((3, 1)), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        true_fim_terms_mc(model, 1, np.zeros((0, 1)), np.zeros((0, 1)))


def test_mean_only_linear_hand_values():
    terms = mean_only_terms(unit_linear_model(), 1, np.zeros(1), np.zeros(1))
    assert_allclose(terms.d11, [[1.0]])
    assert_allclose(terms.d12, [[-1.0]])
    assert_allclose(terms.d22, [[2.0]])


def test_mean_only_ungm_hand_values():
    model = ungm_model()
    terms = mean_only_terms(model, 1, np.array([1.0]), np.array([2.0]))
    assert_allclose(terms.d11, [[0.25]], atol=1e-14)  # slope 0.5 at x=1
    flat = mean_only_terms(model, 1, np.array([1.0]), np.array([0.0]))
    assert_allclose(flat.d22, [[1.0]], atol=1e-14)  # measurement slope 0 at 0


def test_mean_cov_linear_hand_values():
    """Unit scalar model with belief variances 1 and 2: the Jacobians are
    constant, so the expectations are the point terms, undamped."""
    terms = mean_cov_terms(unit_linear_model(), 1,
                           GaussianBelief(np.zeros(1), np.ones((1, 1))),
                           GaussianBelief(np.zeros(1), np.full((1, 1), 2.0)))
    assert_allclose(terms.d11, [[1.0]], atol=1e-12)
    assert_allclose(terms.d12, [[-1.0]], atol=1e-12)
    # state precision 1 plus measurement term 1
    assert_allclose(terms.d22, [[2.0]], atol=1e-12)


def test_mean_cov_tight_belief_recovers_mean_only(rng):
    """Zero belief covariance on both channels collapses onto the point
    terms: every node is the mean, so for n = 1 the mean of the two equal
    nodes' terms has the point terms' bytes."""
    for dim in (1, 2):
        model = random_stable_linear_model(rng, dim)
        x = rng.standard_normal(dim)
        zero = np.zeros((dim, dim))
        state = GaussianBelief(x, zero)
        meas_point = model.transition(1, x)
        meas = GaussianBelief(meas_point, zero)
        got = mean_cov_terms(model, 1, state, meas)
        want = mean_only_terms(model, 1, x, meas_point)
        for name in ("d11", "d12", "d22"):
            if dim == 1:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            else:
                assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-15, atol=1e-15)


def test_cubature_nodes_carry_the_belief_mean_and_covariance(rng):
    """The 2n equally weighted nodes have the belief's mean and covariance,
    for n = 1 to 4, on a stack holding a singular covariance: S S' = P."""
    for dim in (1, 2, 3, 4):
        covs = np.stack([random_spd(rng, dim, shift=0.5) for _ in range(3)])
        basis = rng.standard_normal((dim, 1))
        covs[1] = basis @ basis.T
        belief = GaussianBelief(rng.standard_normal((3, dim)), covs)
        nodes = fim._cubature_nodes(belief)
        assert nodes.shape == (3, 2 * dim, dim)
        spread = nodes - belief.mean[:, None, :]
        assert_allclose(spread.mean(axis=-2), 0.0, atol=1e-14)
        assert_allclose(spread.mT @ spread / (2 * dim), covs, rtol=1e-13, atol=1e-13)


def test_mean_cov_takes_a_rounding_negative_eigenvalue():
    """A covariance with an eigenvalue of -1e-12 of its scale, which
    GaussianBelief admits as positive semidefinite, spreads no node along
    that direction and gives finite terms."""
    model = ungm_pair_model()
    basis = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    cov = basis @ np.diag([-1e-12 * 8.0, 8.0]) @ basis.T
    belief = GaussianBelief(np.array([1.0, -2.0]), cov)
    terms = mean_cov_terms(model, 3, belief, belief)
    for name in ("d11", "d12", "d22"):
        assert np.all(np.isfinite(getattr(terms, name))), name
    scalar = mean_cov_terms(ungm_model(), 3, GaussianBelief(np.ones(1), np.full((1, 1), -1e-12)),
                            GaussianBelief(np.ones(1), np.zeros((1, 1))))
    assert np.array_equal(scalar.d11, mean_only_terms(ungm_model(), 3, np.ones(1), np.ones(1)).d11)


def test_cubature_nodes_of_a_factoring_stack_are_the_cholesky_nodes(rng):
    """Where every covariance factors, the wings are sqrt(n) L' with L the
    lower Cholesky factor of np.linalg.cholesky, bit for bit, for n = 1 to 4."""
    for dim in (1, 2, 3, 4):
        covs = np.stack([random_spd(rng, dim, shift=0.1) for _ in range(6)]).reshape(2, 3, dim, dim)
        belief = GaussianBelief(rng.standard_normal((2, 3, dim)), covs)
        wings = np.sqrt(dim) * np.linalg.cholesky(covs).mT
        center = belief.mean[..., None, :]
        want = np.concatenate([center + wings, center - wings], axis=-2)
        assert np.array_equal(fim._cubature_nodes(belief), want)


def test_cubature_nodes_decide_the_root_per_element(rng):
    """A stack mixing covariances that factor with singular and
    rounding-negative ones gives each element the nodes it gets alone: the
    Cholesky nodes where it factors, the eigen root's where it does not."""
    for dim in (1, 2, 3, 4):
        basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        scale = 8.0
        rounding_negative = basis @ np.diag(np.r_[-1e-12 * scale, np.full(dim - 1, scale)]) @ basis.T
        singular = np.diag(np.r_[np.ones(dim - 1), 0.0])
        covs = np.stack([random_spd(rng, dim, shift=0.5), singular, rounding_negative,
                         random_spd(rng, dim, shift=0.5), np.zeros((dim, dim)),
                         random_spd(rng, dim, shift=0.5)]).reshape(3, 2, dim, dim)
        belief = GaussianBelief(rng.standard_normal((3, 2, dim)), covs)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(covs)
        nodes = fim._cubature_nodes(belief)
        for index in np.ndindex(3, 2):
            alone = fim._cubature_nodes(GaussianBelief(belief.mean[index], covs[index]))
            assert np.array_equal(nodes[index], alone), (dim, index)
        spread = nodes - belief.mean[..., None, :]
        assert_allclose(spread.mT @ spread / (2 * dim), covs, rtol=1e-13, atol=1e-10)


def scalar_mean_cov_oracle(x, p, y, pz):
    """The ungm terms (q = 1, r = 5) under the two-node rule, written out:
    the means of f'^2 / q and f' / q at x +- sqrt(p), and of h'^2 / r at
    y +- sqrt(pz), with f'(t) = 1/2 + 25 (1 - t^2) / (1 + t^2)^2 and
    h'(t) = t / 10."""
    q, r = 1.0, 5.0

    def f_slope(t):
        return 0.5 + 25.0 * (1.0 - t * t) / (1.0 + t * t) ** 2

    def h_slope(t):
        return t / 10.0

    fp, fm = f_slope(x + np.sqrt(p)), f_slope(x - np.sqrt(p))
    hp, hm = h_slope(y + np.sqrt(pz)), h_slope(y - np.sqrt(pz))
    d11 = 0.5 * (fp * fp + fm * fm) / q
    d12 = -0.5 * (fp + fm) / q
    d22 = 1.0 / q + 0.5 * (hp * hp + hm * hm) / r
    return d11, d12, d22


def test_mean_cov_matches_independent_oracle():
    model = ungm_model()
    rng = np.random.default_rng(99)
    points = [(0.0, 1.0, 0.0, 1.0)] + [(rng.uniform(-20, 20), rng.uniform(0.1, 10.0),
                                        rng.uniform(-20, 20), rng.uniform(0.1, 30.0))
                                       for _ in range(25)]
    for x, p, y, pz in points:
        got = mean_cov_terms(model, 2, GaussianBelief(np.array([x]), np.array([[p]])),
                             GaussianBelief(np.array([y]), np.array([[pz]])))
        d11, d12, d22 = scalar_mean_cov_oracle(x, p, y, pz)
        assert_allclose(got.d11[0, 0], d11, rtol=1e-13)
        assert_allclose(got.d12[0, 0], d12, rtol=1e-13)
        assert_allclose(got.d22[0, 0], d22, rtol=1e-13)


def spreads(parts):
    """The spread blocks full - point, (d11, d12, d22): what the belief
    covariance adds to each term."""
    return [full - point for full, point in
            zip(dataclasses.astuple(parts.full), dataclasses.astuple(parts.point))]


def test_decompose_terms_are_the_engines_terms_bit_for_bit(rng):
    """decompose_terms' point and full triples are mean_only_terms at the
    beliefs' means and mean_cov_terms on the beliefs, bit for bit: on an
    (R, T) ungm stack with k = 1..T along the step axis and on a 4-D linear
    model."""
    ungm, linear = ungm_model(), random_stable_linear_model(rng, 4)
    cases = [(ungm, *belief_stack(rng, ungm, 3, 5)),
             (linear, GaussianBelief(rng.standard_normal(4), random_spd(rng, 4)),
              GaussianBelief(rng.standard_normal(4), random_spd(rng, 4)), 2)]
    for model, prev, new, k in cases:
        parts = decompose_terms(model, k, prev, new)
        assert [field.name for field in dataclasses.fields(parts)] == ["point", "full"]
        for got, want in ((parts.point, mean_only_terms(model, k, prev.mean, new.mean)),
                          (parts.full, mean_cov_terms(model, k, prev, new))):
            for block, expected in zip(dataclasses.astuple(got), dataclasses.astuple(want)):
                assert np.array_equal(block, expected)


def test_decompose_linear_hand_values():
    """On a linear model the belief spread changes no term: every spread
    block is 0."""
    parts = decompose_terms(unit_linear_model(), 1,
                            GaussianBelief(np.zeros(1), np.ones((1, 1))),
                            GaussianBelief(np.zeros(1), np.full((1, 1), 2.0)))
    for spread in spreads(parts):
        assert_allclose(spread, [[0.0]], atol=1e-12)
    assert_allclose(parts.point.d11, [[1.0]], atol=1e-12)
    assert_allclose(parts.full.d11, [[1.0]], atol=1e-12)


def test_decompose_zero_spread_limit(rng):
    model = random_stable_linear_model(rng, 2)
    x = rng.standard_normal(2)
    zero = np.zeros((2, 2))
    meas_point = model.transition(1, x)
    parts = decompose_terms(model, 1, GaussianBelief(x, zero),
                            GaussianBelief(meas_point, zero))
    point = mean_only_terms(model, 1, x, meas_point)
    for got, want in zip(dataclasses.astuple(parts.point), dataclasses.astuple(point)):
        assert_allclose(got, want, atol=1e-10)
    for spread in spreads(parts):
        assert_allclose(spread, zero, atol=1e-10)

    # a stack of zero-covariance ungm beliefs, each at its own step
    model = ungm_model()
    steps = np.arange(1, 51)[:, None]
    x = rng.uniform(-20.0, 20.0, size=(50, 1))
    zeros = np.zeros((50, 1, 1))
    parts = decompose_terms(model, steps, GaussianBelief(x, zeros),
                            GaussianBelief(model.transition(steps, x), zeros))
    for spread, point in zip(spreads(parts), dataclasses.astuple(parts.point)):
        assert np.all(np.abs(spread) <= 1e-15 * np.abs(point))


def block_sums(parts, full):
    """(point + spread, the full term) for the three blocks."""
    return [(point + spread, want) for point, spread, want in
            zip(dataclasses.astuple(parts.point), spreads(parts), dataclasses.astuple(full))]


def test_decompose_block_sums_match_full_terms():
    model = ungm_model()
    rng = np.random.default_rng(7)
    for _ in range(100):
        belief = GaussianBelief(np.array([rng.uniform(-25, 25)]),
                                np.array([[rng.uniform(0.1, 30.0)]]))
        predicted = unscented_predicted(model, 3, belief)
        parts = decompose_terms(model, 3, belief, predicted)
        full = mean_cov_terms(model, 3, belief, predicted)
        for got, want in block_sums(parts, full):
            assert_allclose(got, want, rtol=1e-8, atol=1e-12)

    # 4-D linear models and beliefs with eigenvalues 1e-9..10: the spread
    # blocks are small differences, and the block sums and the recursion
    # through them still match the direct terms to rounding
    rng = np.random.default_rng(5)

    def ill_conditioned_cov():
        basis, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        return symmetrize(basis @ np.diag(10.0 ** rng.uniform(-9.0, 1.0, 4)) @ basis.T)

    def relative(got, want):
        return float(np.abs(got - want).max() / np.abs(want).max())

    for _ in range(200):
        model = random_stable_linear_model(rng, 4)
        state = GaussianBelief(rng.standard_normal(4), ill_conditioned_cov())
        meas = GaussianBelief(rng.standard_normal(4), ill_conditioned_cov())
        parts = decompose_terms(model, 1, state, meas)
        full = mean_cov_terms(model, 1, state, meas)
        for got, want in block_sums(parts, full):
            assert relative(got, want) <= 1e-13
        j_prev = random_spd(rng, 4)
        assert relative(fim_via_decomposition(j_prev, parts).j,
                        fim_recursion_step(j_prev, full)) <= 1e-13


def test_fim_via_decomposition_linear_hand_values():
    model = unit_linear_model()
    belief = GaussianBelief(np.zeros(1), np.ones((1, 1)))
    predicted = GaussianBelief(np.zeros(1), np.full((1, 1), 2.0))
    parts = decompose_terms(model, 1, belief, predicted)
    state = fim_via_decomposition(np.array([[1.0]]), parts)
    assert_allclose(state.theta, [[1.5]], atol=1e-12)
    direct = fim_recursion_step(np.array([[1.0]]), mean_cov_terms(model, 1, belief, predicted))
    assert_allclose(state.j, direct, atol=1e-10)
    assert_allclose(state.pi, state.j - state.theta, atol=1e-10)
    assert_allclose(state.pi, [[0.0]], atol=1e-10)
    assert not state.pi_fallback


def test_fim_via_decomposition_zero_spread(rng):
    model = random_stable_linear_model(rng, 1)
    x = rng.standard_normal(1)
    zero = np.zeros((1, 1))
    parts = decompose_terms(model, 1, GaussianBelief(x, zero),
                            GaussianBelief(model.transition(1, x), zero))
    state = fim_via_decomposition(np.array([[2.0]]), parts)
    assert_allclose(state.pi, zero, atol=1e-10)
    assert_allclose(state.j, state.theta, atol=1e-10)


def test_fim_via_decomposition_matches_direct_path():
    model = ungm_model()
    rng = np.random.default_rng(11)
    for _ in range(50):
        belief = GaussianBelief(np.array([rng.uniform(-15, 15)]),
                                np.array([[rng.uniform(0.2, 20.0)]]))
        j_prev = np.array([[rng.uniform(0.05, 5.0)]])
        predicted = unscented_predicted(model, 2, belief)
        state = fim_via_decomposition(j_prev, decompose_terms(model, 2, belief, predicted))
        direct = fim_recursion_step(j_prev, mean_cov_terms(model, 2, belief, predicted))
        assert_allclose(state.j, direct, rtol=1e-8, atol=1e-12)
        assert_allclose(state.theta + state.pi, state.j, rtol=1e-12, atol=1e-14)


def test_bound_difference_hand_values():
    gap, _ = bound_difference(np.array([[1.0]]), np.array([[1.0]]), np.array([[0.5]]))
    assert_allclose(gap, [[0.5]], atol=1e-14)
    gap0, _ = bound_difference(np.array([[1.0]]), np.zeros((1, 1)), np.array([[1.0]]))
    assert_allclose(gap0, np.zeros((1, 1)), atol=1e-14)


def test_bound_difference_random(rng):
    for dim in (1, 2, 3):
        for _ in range(25):
            j_star = random_spd(rng, dim)
            pi = random_spd(rng, dim)
            gap, _ = bound_difference(spd_inverse(j_star), pi, spd_inverse(j_star + pi))
            direct = np.linalg.inv(j_star) - np.linalg.inv(j_star + pi)
            assert_allclose(gap, direct, atol=1e-10)


def test_bound_difference_matches_exact_rational_gap():
    """On the theta and pi of decomposed ungm steps (criterion 2's random
    beliefs), the gap equals theta^-1 - (theta + pi)^-1 evaluated exactly in
    rational arithmetic on the same float64 theta and pi, to 1e-13 of
    |theta^-1| + |(theta + pi)^-1|.  Where pi is close to -theta, a form that
    rounds anything before the sum theta + pi (which is then exact) loses
    about |theta| / |theta + pi| ulps."""
    model = ungm_model()
    rng = np.random.default_rng(20240818)
    worst = 0.0
    for _ in range(100):
        belief = GaussianBelief(np.array([rng.uniform(-25.0, 25.0)]),
                                np.array([[rng.uniform(0.1, 30.0)]]))
        k = int(rng.integers(1, 51))
        j_prev = np.array([[rng.uniform(0.05, 5.0)]])
        parts = decompose_terms(model, k, belief, unscented_predicted(model, k, belief))
        state = fim_via_decomposition(j_prev, parts)
        gap, _ = bound_difference(spd_inverse(state.theta), state.pi, spd_inverse(state.j))
        theta, pi = Fraction(state.theta[0, 0]), Fraction(state.pi[0, 0])
        exact = 1 / theta - 1 / (theta + pi)
        scale = abs(1 / theta) + abs(1 / (theta + pi))
        worst = max(worst, float(abs(Fraction(gap[0, 0]) - exact) / scale))
    assert worst <= 1e-13


def test_spd_inverse_values(rng):
    assert_allclose(spd_inverse(np.eye(3)), np.eye(3))
    assert_allclose(spd_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))
    m = random_spd(rng, 4)
    assert_allclose(spd_inverse(m) @ m, np.eye(4), atol=1e-9)


def test_spd_inverse_errors():
    with pytest.raises(NumericError):
        spd_inverse(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        spd_inverse(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        spd_inverse(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="m must be finite"):
        spd_inverse(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError, match="m must be finite"):
        spd_inverse(np.stack([np.eye(2), np.full((2, 2), np.nan)]))


def test_fim_triple_symmetrizes_and_validates():
    skew = np.array([[1.0, 2.0], [0.0, 1.0]])
    terms = FimTriple(d11=skew, d12=np.zeros((2, 2)), d22=np.eye(2))
    assert_allclose(terms.d11, terms.d11.T)
    assert_allclose(terms.d11, [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        FimTriple(d11=np.eye(2), d12=np.zeros((3, 3)), d22=np.eye(2))


def test_returned_fims_symmetric_psd():
    model = ungm_model()
    rng = np.random.default_rng(21)
    j = initial_fim(model.prior)
    x = np.array([0.0])
    for k in range(1, 30):
        belief = GaussianBelief(x, np.array([[rng.uniform(0.5, 5.0)]]))
        j = fim_recursion_step(j, mean_cov_terms(model, k, belief,
                                                 unscented_predicted(model, k, belief)))
        assert_allclose(j, j.T, atol=1e-10)
        assert np.all(np.linalg.eigvalsh(spd_inverse(j)) > -1e-12)
        x = np.array([rng.uniform(-10, 10)])


def test_stacked_engines_match_pointwise(rng):
    """An engine given a stack returns, element by element, what it returns
    for that element alone.  A stack is inverted by LU rather than Cholesky,
    so the two agree to rounding; the theta/pi split amplifies that rounding
    in j, pi and the gap (up to 2e-13 relative per entry seen over 20 seeds
    of these inputs), hence their tolerance."""
    count, k = 6, 3
    for model, dim in ((ungm_model(), 1), (random_stable_linear_model(rng, 2), 2)):
        x_prev = rng.uniform(-5.0, 5.0, size=(count, dim))
        x_new = rng.uniform(-5.0, 5.0, size=(count, dim))
        cov_prev = np.stack([random_spd(rng, dim, shift=0.5) for _ in range(count)])
        cov_new = np.stack([random_spd(rng, dim, shift=0.5) for _ in range(count)])
        j_prev = np.stack([random_spd(rng, dim) for _ in range(count)])
        prev, new = GaussianBelief(x_prev, cov_prev), GaussianBelief(x_new, cov_new)

        point = mean_only_terms(model, k, x_prev, x_new)
        full = mean_cov_terms(model, k, prev, new)
        parts = decompose_terms(model, k, prev, new)
        state = fim_via_decomposition(j_prev, parts)
        gap, _ = bound_difference(spd_inverse(state.theta), state.pi, spd_inverse(state.j))
        inverse = spd_inverse(j_prev)
        for i in range(count):
            one_prev = GaussianBelief(x_prev[i], cov_prev[i])
            one_new = GaussianBelief(x_new[i], cov_new[i])
            one_point = mean_only_terms(model, k, x_prev[i], x_new[i])
            one_full = mean_cov_terms(model, k, one_prev, one_new)
            one_parts = decompose_terms(model, k, one_prev, one_new)
            one_state = fim_via_decomposition(j_prev[i], one_parts)
            for name in ("d11", "d12", "d22"):
                assert_allclose(getattr(point, name)[i], getattr(one_point, name), rtol=1e-14)
                assert_allclose(getattr(full, name)[i], getattr(one_full, name), rtol=1e-12)
            assert_allclose(inverse[i], spd_inverse(j_prev[i]), rtol=1e-12)
            assert_allclose(state.theta[i], one_state.theta, rtol=1e-12)
            assert_allclose(parts.full.d11[i], one_parts.full.d11, rtol=1e-12)
            assert_allclose(state.j[i], one_state.j, rtol=1e-11)
            assert_allclose(state.pi[i], one_state.pi, rtol=1e-11)
            one_gap, _ = bound_difference(spd_inverse(one_state.theta), one_state.pi,
                                          spd_inverse(one_state.j))
            assert_allclose(gap[i], one_gap, rtol=1e-11)


def test_array_k_terms_equal_per_step_calls_bit_for_bit(rng):
    """mean_only_terms, mean_cov_terms and decompose_terms over an (R, T, n)
    stack with k = 1..T along the step axis give, element by element, the
    bytes of the per-step calls over the (R, n) slices.  ungm's transition
    has a k-dependent forcing, so each state must be mapped at its own k; the
    random 2-D linear model covers the matrix path."""
    count, horizon = 3, 4
    steps = np.arange(1, horizon + 1)[:, None]
    for model in (ungm_model(), random_stable_linear_model(rng, 2)):
        n = model.state_dim
        x_prev = rng.uniform(-3.0, 3.0, size=(count, horizon, n))
        x_new = rng.uniform(-3.0, 3.0, size=(count, horizon, n))
        cov_prev, cov_new = (np.array([[random_spd(rng, n, shift=0.5) for _ in range(horizon)]
                                       for _ in range(count)]) for _ in range(2))
        prev, new = GaussianBelief(x_prev, cov_prev), GaussianBelief(x_new, cov_new)
        point = mean_only_terms(model, steps, x_prev, x_new)
        full = mean_cov_terms(model, steps, prev, new)
        parts = decompose_terms(model, steps, prev, new)
        for k in range(1, horizon + 1):
            one_prev = GaussianBelief(x_prev[:, k - 1], cov_prev[:, k - 1])
            one_new = GaussianBelief(x_new[:, k - 1], cov_new[:, k - 1])
            one_point = mean_only_terms(model, k, x_prev[:, k - 1], x_new[:, k - 1])
            one_full = mean_cov_terms(model, k, one_prev, one_new)
            one_parts = decompose_terms(model, k, one_prev, one_new)
            for terms, one in ((point, one_point), (full, one_full),
                               (parts.point, one_parts.point), (parts.full, one_parts.full)):
                for field in dataclasses.fields(terms):
                    got = getattr(terms, field.name)[:, k - 1]
                    assert np.array_equal(got, getattr(one, field.name)), (k, field.name)


def test_stacked_bound_and_gap_with_a_singular_correction():
    """A stack holding a zero correction gives that element the bound
    theta^-1 and a zero gap, and the other elements their own values."""
    theta = np.stack([np.eye(1), np.eye(1), 2.0 * np.eye(1)])
    pi = np.stack([np.eye(1), np.zeros((1, 1)), np.eye(1)])
    gap, _ = bound_difference(spd_inverse(theta), pi, spd_inverse(theta + pi))
    assert_allclose(gap[:, 0, 0], [0.5, 0.0, 0.5 - 1.0 / 3.0], atol=1e-14)
    bound = spd_inverse(theta + pi)
    assert_allclose(bound[:, 0, 0], [0.5, 1.0, 1.0 / 3.0], atol=1e-14)


def test_spd_inverse_repairs_nothing():
    """A matrix that does not factor raises, single or in a stack; nothing is
    jittered into factoring."""
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])  # PSD, but not definite
    for bad in (singular, np.stack([np.diag([2.0, 4.0]), singular]),
                np.stack([np.eye(2), np.diag([1.0, -1.0])])):
        with pytest.raises(NumericError, match="min eigenvalue"):
            spd_inverse(bad)


def chained(j0, terms):
    """J series by chaining the public one-step call over axis -3 of the terms."""
    j, rows = j0, []
    for k in range(terms.d11.shape[-3]):
        j = fim_recursion_step(j, FimTriple(*(t[..., k, :, :] for t in dataclasses.astuple(terms))))
        rows.append(j)
    return np.stack(rows, axis=-3)


def belief_stack(rng, model, count, horizon):
    """Random state and measurement beliefs (count, horizon, ...) and the steps k."""
    n = model.state_dim

    def cov():
        return np.array([[random_spd(rng, n, shift=0.5) for _ in range(horizon)]
                         for _ in range(count)])

    prev = GaussianBelief(rng.uniform(-3.0, 3.0, (count, horizon, n)), cov())
    new = GaussianBelief(rng.uniform(-3.0, 3.0, (count, horizon, n)), cov())
    return prev, new, np.arange(1, horizon + 1)[:, None]


def belief_terms(rng, model, count, horizon):
    """Mean-only and mean+cov terms over a random (count, horizon) belief stack."""
    prev, new, steps = belief_stack(rng, model, count, horizon)
    return (mean_only_terms(model, steps, prev.mean, new.mean),
            mean_cov_terms(model, steps, prev, new))


def test_series_equal_chained_one_step_calls_bit_for_bit(rng):
    """The series gives the bytes of chaining the one-step calls: over the
    point and the mean+cov terms of a stack of runs for n = 1 (R = 20) and
    n = 4 (R = 10), and on the reference's single (T, n, n) chain, which
    keeps the Cholesky inverse."""
    horizon = 12
    for model, count in ((ungm_model(), 20), (random_stable_linear_model(rng, 4), 10)):
        j0 = initial_fim(model.prior)
        for terms in belief_terms(rng, model, count, horizon):
            series = fim_recursion_series(j0, terms)
            assert series.shape == (count, horizon) + j0.shape
            assert np.array_equal(series, chained(j0, terms))

        states = sample_trajectory(model, horizon, list(range(count))).states.swapaxes(0, 1)
        reference = true_fim_terms_mc(model, np.arange(1, horizon + 1)[:, None, None],
                                      np.ascontiguousarray(states[:-1]),
                                      np.ascontiguousarray(states[1:]))
        assert np.array_equal(fim_recursion_series(j0, reference), chained(j0, reference))


def test_series_failures_raise_what_the_chained_steps_raise(rng):
    """An element that stops being positive definite at step k, or turns
    non-finite, fails the series with the exception type and text of the
    chained one-step calls."""
    horizon, k = 8, 5
    for model, count in ((ungm_model(), 20), (random_stable_linear_model(rng, 4), 10)):
        j0 = initial_fim(model.prior)
        point, _ = belief_terms(rng, model, count, horizon)
        indefinite = point.d11.copy()
        indefinite[3, k] -= 1e6 * np.eye(model.state_dim)
        non_finite = point.d22.copy()
        non_finite[3, k, 0, 0] = np.nan
        cases = [(NumericError, dataclasses.replace(point, d11=indefinite)),
                 (ValueError, dataclasses.replace(point, d22=non_finite))]
        for error, terms in cases:
            with pytest.raises(error) as want:
                chained(j0, terms)
            with pytest.raises(error) as got:
                fim_recursion_series(j0, terms)
            assert str(got.value) == str(want.value)
            assert type(got.value) is type(want.value)


def test_split_of_a_chain_equals_per_step_calls_bit_for_bit(rng):
    """fim_via_decomposition over an (R, T) stack, each step from its own
    J_{k-1} of the mean+cov chain, gives the bytes of the per-step calls on
    the (R,) slices, for n = 1 (R = 20) and n = 4 (R = 10); and theta + pi
    is the chain's J_k to 1e-12 relative."""
    horizon = 12
    for model, count in ((ungm_model(), 20), (random_stable_linear_model(rng, 4), 10)):
        n = model.state_dim
        j0 = initial_fim(model.prior)
        prev, new, steps = belief_stack(rng, model, count, horizon)
        parts = decompose_terms(model, steps, prev, new)
        j = fim_recursion_series(j0, parts.full)
        j_prev = np.concatenate([np.broadcast_to(j0, (count, 1, n, n)), j[:, :-1]], axis=1)
        split = fim_via_decomposition(j_prev, parts)
        for k in range(1, horizon + 1):
            one = fim_via_decomposition(j_prev[:, k - 1], decompose_terms(
                model, k, GaussianBelief(prev.mean[:, k - 1], prev.cov[:, k - 1]),
                GaussianBelief(new.mean[:, k - 1], new.cov[:, k - 1])))
            for name in ("j", "theta", "pi"):
                assert np.array_equal(getattr(split, name)[:, k - 1], getattr(one, name)), name
        assert np.all(np.abs(split.j - j) <= 1e-12 * np.abs(j).max(axis=(-2, -1), keepdims=True))


def test_split_reads_the_recursions_inverses_bit_for_bit(rng):
    """fim_recursion_series hands back the (J_{k-1} + D11)^-1 it forms, with
    the same series as without them, and the split given those inverses
    equals the split that computes them: on an (E, R, T) ungm stack and a
    4-D linear model."""
    ungm, linear = ungm_model(), random_stable_linear_model(rng, 4)
    for model, lead in ((ungm, (2, 3)), (linear, (3,))):
        prev, new, steps = belief_stack(rng, model, int(np.prod(lead)), 5)
        prev, new = (GaussianBelief(b.mean.reshape(lead + b.mean.shape[1:]),
                                    b.cov.reshape(lead + b.cov.shape[1:])) for b in (prev, new))
        parts = decompose_terms(model, steps, prev, new)
        j0 = initial_fim(model.prior)
        series, inverses = fim_recursion_series(j0, parts.full, inverses=True)
        assert np.array_equal(series, fim_recursion_series(j0, parts.full))
        assert inverses.shape == series.shape
        j_prev = np.concatenate([np.broadcast_to(j0, lead + (1,) + j0.shape),
                                 series[..., :-1, :, :]], axis=-3)
        given = fim_via_decomposition(j_prev, parts, full_inv=inverses)
        computed = fim_via_decomposition(j_prev, parts)
        for name in ("j", "theta", "pi"):
            assert np.array_equal(getattr(given, name), getattr(computed, name))
