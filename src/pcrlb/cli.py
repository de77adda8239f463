"""Command-line interface.

Subcommands:

    run       full experiment: rmse.csv, bounds.csv, gap.csv, meta.json,
              gnuplot scripts
    bounds    bound pipeline only: bounds.csv, meta.json
    simulate  sample the run-0 trajectory: trajectory.csv, meta.json
    selftest  built-in numeric checks, no config required

Configuration is a sectioned key-value text file; see CONFIG_REFERENCE or the
README for every key.  Floats in CSV output carry 17 significant digits so
they round-trip exactly; reruns with the same config and seed are
byte-identical regardless of worker count.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from .experiment import (DEFAULT_SEED, AggregateResult, ExperimentConfig, ExperimentError,
                         build_model, derive_run_seed, run_experiment)
from .filters import UTParams, kalman_step, run_ukf
from .fim import (bound_difference, decompose_terms, fim_recursion_step,
                  fim_via_decomposition, initial_fim, inv_lemma_split, mean_cov_terms,
                  mean_only_terms, pcrlb_from_theta_pi, spd_inverse, true_fim_terms_mc)
from .linalg import NumericError
from .model import sample_trajectory
from .moments import GaussianBelief

__all__ = ["main", "parse_config", "ConfigError", "CONFIG_REFERENCE"]


class ConfigError(ValueError):
    """A config file could not be parsed or validated."""


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_choice(*options: str):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {options}, got {raw!r}")
        return raw
    return parse


def _parse_list(*options: str):
    def parse(raw: str) -> tuple[str, ...]:
        items = tuple(part.strip() for part in raw.split(",") if part.strip())
        unknown = set(items) - set(options)
        if unknown:
            raise ValueError(f"unknown entries {sorted(unknown)}; allowed: {options}")
        if not items:
            raise ValueError("list must not be empty")
        return items
    return parse


def _parse_kappa(raw: str) -> Optional[float]:
    return None if raw.lower() == "auto" else float(raw)


# section -> key -> parser.  The parsed dict mirrors this structure.
_SCHEMA = {
    "model": {
        "name": _parse_choice("ungm", "linear"),
        "process_var": float,
        "meas_var": float,
        "prior_mean": float,
        "prior_var": float,
        "a": float,
        "h": float,
    },
    "experiment": {
        "horizon": int,
        "runs": int,
        "seed": int,
        "workers": int,
        "averaging": _parse_choice("bounds", "fim"),
    },
    "filters": {
        "particles": int,
        "ut_alpha": float,
        "ut_beta": float,
        "ut_kappa": _parse_kappa,
        "state_eval": _parse_choice("posterior", "predicted"),
        "meas_eval": _parse_choice("predicted", "posterior"),
        "resample": _parse_choice("always", "adaptive"),
        "ess_threshold": float,
    },
    "bounds": {
        "methods": _parse_list("true", "mean_only", "mean_cov"),
        "estimators": _parse_list("ukf", "pf"),
    },
    "output": {
        "dir": str,
        "plots": _parse_bool,
    },
}

CONFIG_REFERENCE = """\
# Experiment configuration: sectioned key = value lines, '#' starts a comment.
# Every key is optional; omitted keys take the defaults shown.

[model]
name = ungm            # ungm | linear
process_var = 1.0      # process noise variance
meas_var = 5.0         # measurement noise variance
prior_mean = 0.0
prior_var = 20.0       # ungm default; linear model defaults to 1.0
# a = 0.9              # linear model only: state coefficient
# h = 1.0              # linear model only: measurement coefficient

[experiment]
horizon = 50           # steps per run
runs = 100             # Monte Carlo runs
seed = 123456789       # master seed; every run seed derives from it
workers = 1            # process count; results identical for any value
averaging = bounds     # bounds: average per-run inverses | fim: invert mean FIM

[filters]
particles = 1000
ut_alpha = 1.0
ut_beta = 2.0
ut_kappa = auto        # auto = 3 - state_dim
state_eval = posterior # belief feeding the state channel of the bounds
meas_eval = predicted  # belief feeding the measurement channel
resample = always      # always | adaptive
ess_threshold = 0.5    # adaptive resampling trigger, fraction of N

[bounds]
methods = true, mean_only, mean_cov
estimators = ukf, pf

[output]
dir = .                # output directory (the --out flag overrides)
plots = true           # emit gnuplot scripts with `run`
"""


def parse_config(path) -> dict:
    """Parse a config file into {section: {key: value}} with typed values.

    Unknown sections or keys, malformed lines, and bad literals raise
    ConfigError naming the offending line.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parsed: dict = {section: {} for section in _SCHEMA}
    section = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in section [{section}]")
        try:
            parsed[section][key] = _SCHEMA[section][key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return parsed


def config_from_file(path, seed: Optional[int] = None, runs: Optional[int] = None
                     ) -> tuple[ExperimentConfig, dict]:
    """Build an ExperimentConfig from a config file plus CLI overrides.

    Returns:
        (config, output options dict with keys 'dir' and 'plots').
    """
    parsed = parse_config(path)
    model_section = parsed["model"]
    model_name = model_section.get("name", "ungm")
    model_params = {}
    param_keys = {
        "ungm": ("process_var", "meas_var", "prior_mean", "prior_var"),
        "linear": ("process_var", "meas_var", "prior_mean", "prior_var", "a", "h"),
    }[model_name]
    for key in model_section:
        if key == "name":
            continue
        if key not in param_keys:
            raise ConfigError(f"model key {key!r} does not apply to model {model_name!r}")
        model_params[key] = model_section[key]

    exp = parsed["experiment"]
    filt = parsed["filters"]
    bnd = parsed["bounds"]
    ut = UTParams(alpha=filt.get("ut_alpha", 1.0), beta=filt.get("ut_beta", 2.0),
                  kappa=filt.get("ut_kappa", None))
    try:
        config = ExperimentConfig(
            model_name=model_name,
            model_params=model_params,
            horizon=exp.get("horizon", 50),
            runs=runs if runs is not None else exp.get("runs", 100),
            particles=filt.get("particles", 1000),
            master_seed=seed if seed is not None else exp.get("seed", DEFAULT_SEED),
            workers=exp.get("workers", 1),
            ut=ut,
            methods=bnd.get("methods", ("true", "mean_only", "mean_cov")),
            estimators=bnd.get("estimators", ("ukf", "pf")),
            averaging=exp.get("averaging", "bounds"),
            state_eval=filt.get("state_eval", "posterior"),
            meas_eval=filt.get("meas_eval", "predicted"),
            resample=filt.get("resample", "always"),
            ess_threshold=filt.get("ess_threshold", 0.5),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    output = {"dir": parsed["output"].get("dir", "."),
              "plots": parsed["output"].get("plots", True)}
    return config, output


# -- output writers -----------------------------------------------------------


def _fmt(value: float) -> str:
    value = float(value)
    return "nan" if np.isnan(value) else format(value, ".17g")


def _scalarize(matrix: np.ndarray) -> float:
    """Matrix bounds reported as scalars: the value itself in 1-D, else the trace."""
    matrix = np.atleast_2d(matrix)
    return float(np.trace(matrix))


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_rmse_csv(path: Path, result: AggregateResult) -> None:
    rows = []
    for k in range(1, result.horizon + 1):
        row = [str(k)]
        for estimator in ("ukf", "pf"):
            series = result.rmse.get(estimator)
            row.append(_fmt(series[k - 1]) if series is not None else "nan")
        rows.append(row)
    _write_csv(path, ["k", "rmse_ukf", "rmse_pf"], rows)


def write_bounds_csv(path: Path, result: AggregateResult) -> None:
    columns = [("true", None), ("mean_only", "ukf"), ("mean_only", "pf"),
               ("mean_cov", "ukf"), ("mean_cov", "pf")]
    rows = []
    for k in range(1, result.horizon + 1):
        row = [str(k)]
        for key in columns:
            series = result.bounds.get(key)
            row.append(_fmt(_scalarize(series[k - 1])) if series is not None else "nan")
        rows.append(row)
    _write_csv(path, ["k", "true", "meanonly_ukf", "meanonly_pf",
                      "meancov_ukf", "meancov_pf"], rows)


def write_gap_csv(path: Path, result: AggregateResult) -> None:
    rows = []
    for k in range(1, result.horizon + 1):
        row = [str(k)]
        for estimator in ("ukf", "pf"):
            gap = result.gaps.get(estimator)
            if gap is None:
                row.extend(["nan", "nan"])
            else:
                row.append(_fmt(_scalarize(gap["analytic"][k - 1])))
                row.append(_fmt(_scalarize(gap["direct"][k - 1])))
        rows.append(row)
    _write_csv(path, ["k", "gap26_ukf", "gapdirect_ukf", "gap26_pf", "gapdirect_pf"], rows)


def write_meta(path: Path, config: ExperimentConfig, output: dict,
               result: Optional[AggregateResult] = None, **extra) -> None:
    meta = {
        "command": extra.pop("command", "run"),
        "config": {
            "model_name": config.model_name,
            "model_params": config.model_params,
            "horizon": config.horizon,
            "runs": config.runs,
            "particles": config.particles,
            "master_seed": config.master_seed,
            "workers": config.workers,
            "ut": {"alpha": config.ut.alpha, "beta": config.ut.beta,
                   "kappa": config.ut.kappa},
            "methods": list(config.methods),
            "estimators": list(config.estimators),
            "averaging": config.averaging,
            "state_eval": config.state_eval,
            "meas_eval": config.meas_eval,
            "resample": config.resample,
            "ess_threshold": config.ess_threshold,
        },
        "output": output,
    }
    if result is not None:
        meta["runs_used"] = result.runs_used
        meta["failed_runs"] = [{"index": i, "error": e} for i, e in result.failed_runs]
        meta["gap_ordering_violations"] = {
            est: [int(v) for v in data["violations"]] for est, data in result.gaps.items()}
        meta["pi_fallback_counts"] = {
            est: [int(v) for v in counts] for est, counts in result.pi_fallback_counts.items()}
        meta["gap_fallback_counts"] = {
            est: [int(v) for v in counts] for est, counts in result.gap_fallback_counts.items()}
        meta["filter_health"] = result.filter_health
    meta.update(extra)
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


_PLOT_TEMPLATES = {
    "plot_rmse.gp": """\
# RMSE per step for each estimator.  Render with: gnuplot plot_rmse.gp
set datafile separator ","
set terminal png size 900,600
set output "rmse.png"
set title "Filter RMSE per step"
set xlabel "step k"
set ylabel "RMSE"
set key top right
plot "rmse.csv" using 1:2 with lines lw 2 title "UKF", \\
     "rmse.csv" using 1:3 with lines lw 2 title "PF"
""",
    "plot_bounds.gp": """\
# Reference bound and both approximations per estimator.
# Render with: gnuplot plot_bounds.gp
set datafile separator ","
set terminal png size 900,600
set output "bounds.png"
set title "Error lower bounds per step"
set xlabel "step k"
set ylabel "bound on error variance"
set key top right
plot "bounds.csv" using 1:2 with lines lw 3 title "reference", \\
     "bounds.csv" using 1:3 with lines lw 2 title "mean-only (UKF)", \\
     "bounds.csv" using 1:4 with lines lw 2 title "mean-only (PF)", \\
     "bounds.csv" using 1:5 with lines lw 2 title "mean+cov (UKF)", \\
     "bounds.csv" using 1:6 with lines lw 2 title "mean+cov (PF)"
""",
    "plot_gap.gp": """\
# Gap between the two approximate bounds: closed form vs direct subtraction.
# Render with: gnuplot plot_gap.gp
set datafile separator ","
set terminal png size 900,600
set output "gap.png"
set title "Approximation gap per step"
set xlabel "step k"
set ylabel "mean-only bound minus mean+cov bound"
set key top right
plot "gap.csv" using 1:2 with lines lw 2 title "closed form (UKF)", \\
     "gap.csv" using 1:3 with points pt 6 title "direct (UKF)", \\
     "gap.csv" using 1:4 with lines lw 2 title "closed form (PF)", \\
     "gap.csv" using 1:5 with points pt 6 title "direct (PF)"
""",
}


def write_plot_scripts(outdir: Path) -> list[str]:
    for name, body in _PLOT_TEMPLATES.items():
        (outdir / name).write_text(body)
    return sorted(_PLOT_TEMPLATES)


# -- subcommands --------------------------------------------------------------


def _resolve_outdir(args, output: dict) -> Path:
    outdir = Path(args.out) if args.out else Path(output["dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def cmd_run(args) -> int:
    config, output = config_from_file(args.config, seed=args.seed, runs=args.runs)
    outdir = _resolve_outdir(args, output)
    started = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - started
    write_rmse_csv(outdir / "rmse.csv", result)
    write_bounds_csv(outdir / "bounds.csv", result)
    write_gap_csv(outdir / "gap.csv", result)
    write_meta(outdir / "meta.json", config, output, result,
               command="run", elapsed_seconds=round(elapsed, 3))
    written = ["rmse.csv", "bounds.csv", "gap.csv", "meta.json"]
    if output["plots"]:
        written += write_plot_scripts(outdir)
    if not args.quiet:
        print(f"experiment: {result.runs_used}/{config.runs} runs used, "
              f"{elapsed:.1f} s, seed {config.master_seed}")
        for estimator, series in result.rmse.items():
            print(f"  mean RMSE {estimator}: {series.mean():.4f}")
        for estimator, data in result.gaps.items():
            print(f"  gap ordering violations {estimator}: {int(data['violations'].sum())}")
        print(f"  wrote {', '.join(written)} to {outdir}")
    return 0


def cmd_bounds(args) -> int:
    config, output = config_from_file(args.config, seed=args.seed, runs=args.runs)
    outdir = _resolve_outdir(args, output)
    result = run_experiment(config)
    write_bounds_csv(outdir / "bounds.csv", result)
    write_meta(outdir / "meta.json", config, output, result, command="bounds")
    if not args.quiet:
        print(f"bounds: {result.runs_used}/{config.runs} runs used, wrote bounds.csv to {outdir}")
    return 0


def cmd_simulate(args) -> int:
    config, output = config_from_file(args.config, seed=args.seed, runs=args.runs)
    outdir = _resolve_outdir(args, output)
    model = build_model(config)
    # Identical derivation chain to run 0 of the experiment.
    run_seed = derive_run_seed(config.master_seed, 0)
    trajectory = sample_trajectory(model, config.horizon, derive_run_seed(run_seed, 0))
    n, m = model.state_dim, model.meas_dim
    header = (["k"] + [f"x{i + 1}" for i in range(n)] + [f"z{i + 1}" for i in range(m)])
    rows = [["0"] + [_fmt(v) for v in trajectory.states[0]] + ["nan"] * m]
    for k in range(1, config.horizon + 1):
        rows.append([str(k)] + [_fmt(v) for v in trajectory.states[k]]
                    + [_fmt(v) for v in trajectory.measurements[k - 1]])
    _write_csv(outdir / "trajectory.csv", header, rows)
    write_meta(outdir / "meta.json", config, output, command="simulate")
    if not args.quiet:
        print(f"simulate: wrote trajectory.csv ({config.horizon} steps) to {outdir}")
    return 0


# -- selftest -----------------------------------------------------------------


def _check_kalman_hand_values() -> None:
    belief = GaussianBelief(np.zeros(1), np.ones((1, 1)))
    expected = [2.0 / 3.0, 5.0 / 8.0, 13.0 / 21.0]
    one = np.ones((1, 1))
    for target in expected:
        out = kalman_step(one, one, one, one, belief, np.zeros(1))
        if abs(out.posterior.cov[0, 0] - target) > 1e-12:
            raise AssertionError(f"posterior variance {out.posterior.cov[0, 0]} != {target}")
        belief = out.posterior


def _random_linear_setup(rng, dim: int):
    from .model import linear_gaussian_model

    a = rng.uniform(-0.9, 0.9, size=(dim, dim))
    a *= 0.95 / max(1.0, np.max(np.abs(np.linalg.eigvals(a))))
    basis = rng.standard_normal((dim, dim))
    q = basis @ basis.T + dim * np.eye(dim)
    basis = rng.standard_normal((dim, dim))
    r = basis @ basis.T + dim * np.eye(dim)
    h = rng.uniform(-1.5, 1.5, size=(dim, dim))
    basis = rng.standard_normal((dim, dim))
    p0 = basis @ basis.T + dim * np.eye(dim)
    return linear_gaussian_model(a, h, q, r, np.zeros(dim), p0)


def _kalman_series(model, measurements):
    belief = GaussianBelief(model.prior.mean, model.prior.cov)
    a = model.transition_jacobian(1, model.prior.mean)
    h = model.measurement_jacobian(1, model.prior.mean)
    outputs = []
    for z in measurements:
        out = kalman_step(a, h, model.process_cov, model.meas_cov, belief, z)
        outputs.append(out)
        belief = out.posterior
    return outputs


def _check_ukf_matches_kalman() -> None:
    rng = np.random.default_rng(7)
    for dim in (1, 2):
        model = _random_linear_setup(rng, dim)
        trajectory = sample_trajectory(model, 30, rng)
        kalman = _kalman_series(model, trajectory.measurements)
        ukf = run_ukf(model, trajectory.measurements).posterior
        for k, ko in enumerate(kalman):
            if (np.abs(ko.posterior.mean - ukf.mean[k]).max() > 1e-9
                    or np.abs(ko.posterior.cov - ukf.cov[k]).max() > 1e-9):
                raise AssertionError(f"sigma-point filter deviates from closed form (dim {dim})")


def _check_bound_engines_match_kalman() -> None:
    rng = np.random.default_rng(11)
    for dim in (1, 2):
        model = _random_linear_setup(rng, dim)
        trajectory = sample_trajectory(model, 30, rng)
        kalman = _kalman_series(model, trajectory.measurements)
        j_true = j_mean = j_cov = initial_fim(model.prior)
        prev_mean = model.prior.mean
        zero = np.zeros((dim, dim))
        for k, out in enumerate(kalman, start=1):
            states_prev = prev_mean[None, :]
            states_new = out.posterior.mean[None, :]
            j_true = fim_recursion_step(
                j_true, true_fim_terms_mc(model, k, states_prev, states_new))
            j_mean = fim_recursion_step(
                j_mean, mean_only_terms(model, k, prev_mean, out.predicted.mean))
            j_cov = fim_recursion_step(
                j_cov, mean_cov_terms(model, k, GaussianBelief(prev_mean, zero),
                                      GaussianBelief(out.predicted.mean, zero)))
            target = out.posterior.cov
            for label, j in (("reference", j_true), ("mean-only", j_mean),
                             ("mean+cov", j_cov)):
                if np.abs(spd_inverse(j) - target).max() > 1e-8:
                    raise AssertionError(
                        f"{label} bound deviates from closed form at step {k} (dim {dim})")
            prev_mean = out.posterior.mean
    # The covariance-aware engine must also reduce to the mean-only terms in
    # the zero-spread limit on the nonlinear model.
    from .model import ungm_model

    model = ungm_model()
    belief = GaussianBelief(np.array([1.0]), np.zeros((1, 1)))
    lhs = mean_cov_terms(model, 1, belief)
    rhs = mean_only_terms(model, 1, np.array([1.0]))
    if np.abs(lhs.d11 - rhs.d11).max() > 1e-8:
        raise AssertionError("zero-spread limit does not recover point terms")


def _check_decomposition_identity() -> None:
    from .model import ungm_model

    model = ungm_model()
    rng = np.random.default_rng(23)
    for _ in range(20):
        belief = GaussianBelief(rng.uniform(-25.0, 25.0, size=1),
                                np.array([[rng.uniform(0.1, 30.0)]]))
        k = int(rng.integers(1, 51))
        parts = decompose_terms(model, k, belief)
        direct = mean_cov_terms(model, k, belief)
        for got, want in ((parts.d11(), direct.d11), (parts.d12(), direct.d12),
                          (parts.d22(), direct.d22)):
            if np.abs(got - want).max() > 1e-8 * max(1.0, np.abs(want).max()):
                raise AssertionError("block sums deviate from direct terms")


def _check_recursion_path_identity() -> None:
    from .model import ungm_model

    model = ungm_model()
    rng = np.random.default_rng(29)
    for _ in range(20):
        belief = GaussianBelief(rng.uniform(-25.0, 25.0, size=1),
                                np.array([[rng.uniform(0.1, 30.0)]]))
        k = int(rng.integers(1, 51))
        j_prev = np.array([[rng.uniform(0.01, 10.0)]])
        state = fim_via_decomposition(j_prev, decompose_terms(model, k, belief))
        direct = fim_recursion_step(j_prev, mean_cov_terms(model, k, belief))
        if np.abs(state.j - direct).max() > 1e-8 * max(1.0, np.abs(direct).max()):
            raise AssertionError("decomposed recursion deviates from direct recursion")


def _check_lemma_identities() -> None:
    rng = np.random.default_rng(31)
    for _ in range(20):
        dim = int(rng.integers(1, 5))
        basis = rng.standard_normal((dim, dim))
        a = basis @ basis.T + dim * np.eye(dim)
        basis = rng.standard_normal((dim, dim))
        b = basis @ basis.T + dim * np.eye(dim)
        direct = np.linalg.inv(a + b)
        if np.abs(inv_lemma_split(a, b) - direct).max() > 1e-10:
            raise AssertionError("inversion-lemma split deviates from dense inverse")
        bound, fallback = pcrlb_from_theta_pi(a, b)
        if fallback or np.abs(bound - direct).max() > 1e-10:
            raise AssertionError("theta/pi bound deviates from dense inverse")
        gap, fallback = bound_difference(a, b)
        target = np.linalg.inv(a) - direct
        if fallback or np.abs(gap - target).max() > 1e-10:
            raise AssertionError("closed-form gap deviates from direct subtraction")


def _check_seed_derivation() -> None:
    seeds = {derive_run_seed(0, i) for i in range(10000)}
    if len(seeds) != 10000:
        raise AssertionError("derived run seeds collide")
    if derive_run_seed(1, 0) == derive_run_seed(0, 0):
        raise AssertionError("master seed does not influence derived seeds")


_SELFTEST_CHECKS = [
    ("closed-form filter hand values", _check_kalman_hand_values),
    ("sigma-point filter matches closed form", _check_ukf_matches_kalman),
    ("bound engines match closed form on linear models", _check_bound_engines_match_kalman),
    ("term decomposition identity", _check_decomposition_identity),
    ("decomposed recursion identity", _check_recursion_path_identity),
    ("inversion-lemma identities", _check_lemma_identities),
    ("run seed derivation", _check_seed_derivation),
]


def cmd_selftest(args) -> int:
    failures = 0
    for name, check in _SELFTEST_CHECKS:
        started = time.perf_counter()
        try:
            check()
        except Exception as exc:  # report every failure, then exit nonzero
            failures += 1
            print(f"FAIL {name}: {exc}")
            continue
        if not args.quiet:
            print(f"PASS {name} ({time.perf_counter() - started:.2f} s)")
    if failures:
        print(f"selftest: {failures} of {len(_SELFTEST_CHECKS)} checks failed")
        return 1
    if not args.quiet:
        print(f"selftest: all {len(_SELFTEST_CHECKS)} checks passed")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcrlb",
        description="Recursive posterior Cramer-Rao lower bounds for "
                    "nonlinear Gaussian state-space models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, needs_config in (
            ("run", cmd_run, True),
            ("bounds", cmd_bounds, True),
            ("simulate", cmd_simulate, True),
            ("selftest", cmd_selftest, False)):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True, help="path to the config file")
            p.add_argument("--out", default=None, help="output directory")
            p.add_argument("--seed", type=int, default=None, help="override the master seed")
            p.add_argument("--runs", type=int, default=None, help="override the run count")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ExperimentError, NumericError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
