"""Acceptance checks for the released behavior of the package.

Each check prints one ACCEPTANCE line and then asserts.  The printer suspends
pytest's output capture for the write, so the lines are always visible on
stderr no matter which capture mode is active.

Check 5b passes: at the default seed the covariance-aware bound, whose terms
are cubature expectations over each filter belief, misses the reference by
0.30 (UKF) and 0.26 (PF), the point-estimate bound by 49.61 and 13.06.
Check 5a's UKF mean+cov fraction sits at its 0.9 threshold (0.90 at the
default seed, 0.88 and 0.86 at master seeds 1 and 2): an expectation over a
Gaussian filter belief is not bound to lie above the reference, and neither
the rule nor the threshold is chosen to move that figure.
"""

import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from finite_differences import fd_hessians, fd_jacobian
from pcrlb import (ExperimentConfig, GaussianBelief, cli, propagate_state_moments,
                   run_experiment, state_moment_map_derivatives, ungm_model)

BENCHMARK_CONFIG = ExperimentConfig()  # ungm, horizon 50, 100 runs, 1000 particles


@pytest.fixture
def report(capfd):
    def _report(label, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        line = f"ACCEPTANCE {label} ({name}): {status}"
        if detail:
            line += f" [{detail}]"
        with capfd.disabled():
            print(line, file=sys.stderr, flush=True)
        assert ok, line
    return _report


@pytest.fixture(scope="module")
def full_experiment():
    started = time.perf_counter()
    result = run_experiment(BENCHMARK_CONFIG)
    elapsed = time.perf_counter() - started
    return result, elapsed


@pytest.fixture(scope="module")
def per_run_results(full_experiment):
    """Per-run Pi and gap stacks (R, T, n, n) behind the full experiment's
    aggregates, by estimator: the same batched computation, not a rerun."""
    result, _ = full_experiment
    assert result.runs_used == BENCHMARK_CONFIG.runs, result.failed_runs
    return {est: (result.run_stacks[("pi", est)], result.run_stacks[("gap_analytic", est)],
                  result.run_stacks[("gap_direct", est)])
            for est in ("ukf", "pf")}


def scalar_series(result, key):
    return result.bounds[key][:, 0, 0]


def test_criterion_1_kalman_oracle(report):
    """All three bound engines reproduce the Kalman posterior covariance.

    mean_cov is fed the Kalman filter's own beliefs, the posterior about k-1
    and the predicted belief about k with their covariances, as the harness
    feeds it the UKF's and the particle filter's."""
    worst = cli.kalman_oracle_deviation(np.random.default_rng(20240817),
                                        dims=(1,) * 5 + (2,) * 5, horizon=50)
    report(1, "kalman-oracle", worst <= 1e-8, f"max deviation {worst:.2e}")


def test_criterion_2_decomposition_identities(report):
    """The split's two triples are the engines' own terms; a split step sums
    to the direct step."""
    worst_block, worst_path = cli.decomposition_deviation(
        np.random.default_rng(20240818), trials=100)
    ok = worst_block <= 1e-8 and worst_path <= 1e-8
    report(2, "decomposition-identities", ok,
           f"block rel {worst_block:.2e}, path rel {worst_path:.2e}")


def test_criterion_3_lemma_identities(report):
    """Theta/Pi bound and closed-form gap match dense inverses."""
    worst = cli.lemma_deviation(np.random.default_rng(20240819), trials=100)
    report(3, "lemma-identities", worst <= 1e-10, f"max deviation {worst:.2e}")


def test_criterion_4_gap_formula(per_run_results, report):
    """Closed-form gap equals direct subtraction at every run-step of the
    full benchmark experiment.

    Tolerance is the allclose reading of 1e-8 (absolute plus relative floor),
    since the gap legitimately spans eight orders of magnitude over
    filter-divergence steps.
    """
    worst_abs = 0.0
    worst_scaled = 0.0
    checked = 0
    for pis, analytic, direct in per_run_results.values():
        assert pis.shape[0] == BENCHMARK_CONFIG.runs
        for run in range(pis.shape[0]):
            for k in range(pis.shape[1]):
                diff = float(np.abs(analytic[run, k] - direct[run, k]).max())
                scale = 1.0 + float(np.abs(direct[run, k]).max())
                worst_abs = max(worst_abs, diff)
                worst_scaled = max(worst_scaled, diff / scale)
                checked += 1
    report(4, "gap-formula", checked > 0 and worst_scaled <= 1e-8,
           f"{checked} steps checked, worst scaled deviation {worst_scaled:.2e}, "
           f"worst absolute {worst_abs:.2e} (at bound-blowup steps)")


def test_criterion_5a_reference_below_approximations(full_experiment, report):
    result, _ = full_experiment
    true = scalar_series(result, ("true", None))
    fractions = []
    for method in ("mean_only", "mean_cov"):
        for est in ("ukf", "pf"):
            approx = scalar_series(result, (method, est))
            fractions.append(float(np.mean(true <= approx)))
    ok = all(f >= 0.9 for f in fractions)
    report("5a", "reference-bound-lowest", ok,
           "fractions " + ", ".join(f"{f:.2f}" for f in fractions))


def test_criterion_5b_covariance_aware_bound_closer(full_experiment, report):
    result, _ = full_experiment
    true = scalar_series(result, ("true", None))
    details = []
    ok = True
    for est in ("ukf", "pf"):
        dev_mo = float(np.mean(np.abs(scalar_series(result, ("mean_only", est)) - true)))
        dev_mc = float(np.mean(np.abs(scalar_series(result, ("mean_cov", est)) - true)))
        details.append(f"{est}: point-estimate dev {dev_mo:.2f}, "
                       f"covariance-aware dev {dev_mc:.2f}")
        ok = ok and dev_mc < dev_mo
    report("5b", "covariance-aware-bound-closer", ok,
           "; ".join(details) + "; the covariance-aware terms are cubature "
           "expectations over each filter belief")


def test_criterion_5c_pf_rmse_below_ukf(full_experiment, report):
    result, _ = full_experiment
    rmse_ukf = float(result.rmse["ukf"].mean())
    rmse_pf = float(result.rmse["pf"].mean())
    report("5c", "pf-rmse-below-ukf", rmse_pf < rmse_ukf,
           f"pf {rmse_pf:.4f} vs ukf {rmse_ukf:.4f}")


def test_criterion_5d_pf_bounds_closer_to_reference(full_experiment, report):
    result, _ = full_experiment
    true = scalar_series(result, ("true", None))
    fractions = []
    for method in ("mean_only", "mean_cov"):
        dev_ukf = np.abs(scalar_series(result, (method, "ukf")) - true)
        dev_pf = np.abs(scalar_series(result, (method, "pf")) - true)
        fractions.append(float(np.mean(dev_pf < dev_ukf)))
    ok = all(f > 0.5 for f in fractions)
    report("5d", "pf-bounds-closer", ok,
           "fractions " + ", ".join(f"{f:.2f}" for f in fractions))


def test_criterion_6_determinism(tmp_path, report):
    """Byte-identical CSVs for one config and seed, any worker count."""
    outputs = {}
    for workers in (1, 2):
        config_path = tmp_path / f"w{workers}.ini"
        config_path.write_text(f"""\
[model]
name = ungm

[experiment]
horizon = 50
runs = 6
workers = {workers}

[filters]
particles = 150
""")
        outdir = tmp_path / f"out{workers}"
        code = cli.main(["run", "--config", str(config_path),
                         "--out", str(outdir), "--quiet"])
        assert code == 0
        outputs[workers] = {name: (outdir / name).read_bytes()
                            for name in ("rmse.csv", "bounds.csv", "gap.csv")}
    ok = outputs[1] == outputs[2]
    report(6, "determinism", ok, "rmse/bounds/gap byte-identical across workers")


def test_criterion_7_derivative_checks(report):
    model = ungm_model()
    rng = np.random.default_rng(20240820)
    ok = True
    for _ in range(100):
        x = rng.uniform(-25.0, 25.0, size=1)
        k = int(rng.integers(1, 51))
        assert_allclose(model.transition_jacobian(k, x),
                        fd_jacobian(lambda v: model.transition(k, v), x),
                        rtol=1e-5, atol=1e-7)
        assert_allclose(model.measurement_jacobian(k, x),
                        fd_jacobian(lambda v: model.measure(k, v), x),
                        rtol=1e-5, atol=1e-7)
        assert_allclose(model.transition_hessians(k, x),
                        fd_hessians(lambda v: model.transition(k, v), x),
                        rtol=1e-5, atol=1e-4)
        assert_allclose(model.measurement_hessians(k, x),
                        fd_hessians(lambda v: model.measure(k, v), x),
                        rtol=1e-5, atol=1e-6)

    step = 1e-7
    for _ in range(100):
        x = rng.uniform(-20.0, 20.0)
        p = rng.uniform(0.1, 20.0)
        k = int(rng.integers(1, 51))
        belief = GaussianBelief(np.array([x]), np.array([[p]]))
        got = state_moment_map_derivatives(model, k, belief)

        def mean_at(t):
            return propagate_state_moments(
                model, k, GaussianBelief(np.array([t]), belief.cov)).mean[0]

        def cov_at(t):
            return propagate_state_moments(
                model, k, GaussianBelief(np.array([t]), belief.cov)).cov[0, 0]

        fwd_mean = (mean_at(x + step) - mean_at(x)) / step
        fwd_cov = (cov_at(x + step) - cov_at(x)) / step
        assert_allclose(got.dmean[0, 0], fwd_mean, rtol=1e-4, atol=1e-4)
        assert_allclose(got.dcov[0][0, 0], fwd_cov, rtol=1e-4,
                        atol=1e-4 * max(1.0, abs(fwd_cov)))
    report(7, "derivative-checks", ok, "jacobians, hessians, moment maps")


def test_criterion_8_runtime(full_experiment, report):
    _, elapsed = full_experiment
    started = time.perf_counter()
    assert cli.main(["selftest", "--quiet"]) == 0
    selftest_elapsed = time.perf_counter() - started
    ok = elapsed < 300.0 and selftest_elapsed < 60.0
    report(8, "runtime", ok,
           f"experiment {elapsed:.1f}s < 300s, selftest {selftest_elapsed:.1f}s < 60s")
