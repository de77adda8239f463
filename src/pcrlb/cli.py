"""Command-line interface.

Subcommands:

    run       full experiment: rmse.csv, bounds.csv, gap.csv, meta.json,
              gnuplot scripts
    bounds    bound pipeline only: bounds.csv, meta.json
    simulate  sample the run-0 trajectory: trajectory.csv, meta.json
    selftest  built-in numeric checks, no config required

Configuration is a sectioned key-value text file; see CONFIG_REFERENCE or the
README for every key.  A key the file leaves out takes its ExperimentConfig
default.  Floats in CSV output carry 17 significant digits so they round-trip
exactly; reruns with the same config and seed are byte-identical regardless
of worker count.

The selftest and acceptance criteria 1-3 (tests/test_acceptance.py) run the
same check routines; each returns its worst deviation, and the caller picks
the seeds, sizes and tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from .experiment import (_MODELS, ALL_ESTIMATORS, AggregateResult, ExperimentConfig,
                         ExperimentError, _model_keys, build_model, derive_run_seed,
                         run_experiment, run_seeds)
from .filters import FilterOutput, UTParams, kalman_step, run_ukf, unscented_transform
from .fim import (bound_difference, decompose_terms, fim_recursion_step,
                  fim_via_decomposition, initial_fim, mean_cov_terms, mean_only_terms,
                  true_fim_terms_mc)
from .linalg import NumericError, spd_inverse
from .model import (GaussianBelief, SystemModel, linear_gaussian_model, sample_trajectory,
                    ungm_model)

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


def _parse_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _parse_kappa(raw: str) -> Optional[float]:
    return None if raw.lower() == "auto" else float(raw)


# section -> key -> literal parser.  The parsed dict mirrors this structure;
# ExperimentConfig decides which parsed values are allowed.
_SCHEMA = {
    "model": {"name": str,
              **{key: float for name in _MODELS for key in _model_keys(name)}},
    "experiment": {
        "horizon": int,
        "runs": int,
        "seed": int,
        "workers": int,
        "averaging": str,
    },
    "filters": {
        "particles": int,
        "ut_alpha": float,
        "ut_beta": float,
        "ut_kappa": _parse_kappa,
        "resample": str,
        "ess_threshold": float,
    },
    "bounds": {
        "methods": _parse_list,
        "estimators": _parse_list,
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
meas_var = 5.0         # measurement noise variance, ungm default;
                       # linear model defaults to 1.0
prior_mean = 0.0
prior_var = 20.0       # ungm default; linear model defaults to 1.0
# a = 0.9              # linear model only: state coefficient
# h = 1.0              # linear model only: measurement coefficient

[experiment]
horizon = 50           # steps per run
runs = 100             # Monte Carlo runs
seed = 123456789       # master seed; every run seed derives from it
workers = 1            # process count, the calling one included; same results for any value
averaging = bounds     # bounds: average per-run inverses | fim: invert mean FIM

[filters]
particles = 1000
ut_alpha = 1.0
ut_beta = 2.0
ut_kappa = auto        # auto = 3 - state_dim
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

    Unknown sections or keys, a key given twice in one section, malformed
    lines, and bad literals raise ConfigError naming the offending line.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parsed: dict = {section: {} for section in _SCHEMA}
    first_seen: dict = {}  # (section, key) -> line number
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
        if (section, key) in first_seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} in section [{section}] "
                              f"already given on line {first_seen[section, key]}")
        first_seen[section, key] = lineno
        try:
            parsed[section][key] = _SCHEMA[section][key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return parsed


def config_from_file(path, seed: Optional[int] = None, runs: Optional[int] = None
                     ) -> tuple[ExperimentConfig, dict]:
    """Build an ExperimentConfig from a config file plus CLI overrides.

    Only the keys the file sets are passed on, so every other field keeps its
    ExperimentConfig (or UTParams) default.  A value ExperimentConfig rejects
    raises ConfigError with its message, which names the key but no line.

    Returns:
        (config, output options dict with keys 'dir' and 'plots').
    """
    parsed = parse_config(path)
    model_params = dict(parsed["model"])
    model_name = model_params.pop("name", ExperimentConfig.model_name)
    fields = {("master_seed" if key == "seed" else key): value
              for section in ("experiment", "filters", "bounds")
              for key, value in parsed[section].items()}
    ut = {key[3:]: fields.pop(key) for key in ("ut_alpha", "ut_beta", "ut_kappa") if key in fields}
    for key, value in (("master_seed", seed), ("runs", runs)):
        if value is not None:
            fields[key] = value
    try:
        config = ExperimentConfig(model_name=model_name, model_params=model_params,
                                  ut=UTParams(**ut), **fields)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config, {"dir": ".", "plots": True, **parsed["output"]}


# -- output writers -----------------------------------------------------------


def _fmt(value: float) -> str:
    value = float(value)
    return "nan" if np.isnan(value) else format(value, ".17g")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_series(path: Path, horizon: int, columns: dict) -> None:
    """One row per step k = 1..horizon, one column per entry of `columns`.

    A column is a (T,) series, a (T, n, n) matrix series reported as its
    trace (the value itself in 1-D), or None for a series the config left
    out, written as nan.
    """
    cells = []
    for series in columns.values():
        if series is None:
            series = np.full(horizon, np.nan)
        elif series.ndim == 3:
            series = np.trace(series, axis1=1, axis2=2)
        cells.append([_fmt(value) for value in series])
    _write_csv(path, ["k", *columns],
               [[str(k), *row] for k, row in enumerate(zip(*cells), start=1)])


def write_rmse_csv(path: Path, result: AggregateResult) -> None:
    _write_series(path, result.config.horizon,
                  {f"rmse_{est}": result.rmse.get(est) for est in ALL_ESTIMATORS})


def write_bounds_csv(path: Path, result: AggregateResult) -> None:
    columns = {"true": result.bounds.get(("true", None))}
    for method in ("mean_only", "mean_cov"):
        for est in ALL_ESTIMATORS:
            columns[f"{method.replace('_', '')}_{est}"] = result.bounds.get((method, est))
    _write_series(path, result.config.horizon, columns)


def write_gap_csv(path: Path, result: AggregateResult) -> None:
    columns = {}
    for est in ALL_ESTIMATORS:
        gap = result.gaps.get(est, {})
        columns[f"gap26_{est}"] = gap.get("analytic")
        columns[f"gapdirect_{est}"] = gap.get("direct")
    _write_series(path, result.config.horizon, columns)


def _json_value(value):
    """A numpy array or scalar, such as a model matrix of a config built in
    Python, as the nested lists and numbers it holds."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_meta(path: Path, config: ExperimentConfig, output: dict,
               result: Optional[AggregateResult] = None, **extra) -> None:
    meta = {
        "command": extra.pop("command", "run"),
        "config": dataclasses.asdict(config),
        "output": output,
    }
    if result is not None:
        meta["runs_used"] = result.runs_used
        meta["failed_runs"] = [{"index": i, "error": e} for i, e in result.failed_runs]
        meta["gap_ordering_violations"] = {
            est: [int(v) for v in data["violations"]] for est, data in result.gaps.items()}
        meta["filter_health"] = result.filter_health
        meta["stage_seconds"] = {stage: "stage_seconds" for stage in result.stage_seconds}
    meta.update(extra)
    text = json.dumps(meta, indent=2, sort_keys=True, default=_json_value)
    if result is not None:
        # fixed-width numbers, so that the file's size does not vary with the timings
        for stage, seconds in result.stage_seconds.items():
            text = text.replace(f'"{stage}": "stage_seconds"', f'"{stage}": {seconds:.6e}', 1)
    path.write_text(text + "\n")


# CSV stem -> (header comment, title, y label, one plot clause per curve)
_PLOTS = {
    "rmse": ("RMSE per step for each estimator.  Render with: gnuplot plot_rmse.gp",
             "Filter RMSE per step", "RMSE",
             ['using 1:2 with lines lw 2 title "UKF"', 'using 1:3 with lines lw 2 title "PF"']),
    "bounds": ("Reference bound and both approximations per estimator.\n"
               "# Render with: gnuplot plot_bounds.gp",
               "Error lower bounds per step", "bound on error variance",
               ['using 1:2 with lines lw 3 title "reference"',
                'using 1:3 with lines lw 2 title "mean-only (UKF)"',
                'using 1:4 with lines lw 2 title "mean-only (PF)"',
                'using 1:5 with lines lw 2 title "mean+cov (UKF)"',
                'using 1:6 with lines lw 2 title "mean+cov (PF)"']),
    "gap": ("Gap between the two approximate bounds: closed form vs direct subtraction.\n"
            "# Render with: gnuplot plot_gap.gp",
            "Approximation gap per step", "mean-only bound minus mean+cov bound",
            ['using 1:2 with lines lw 2 title "closed form (UKF)"',
             'using 1:3 with points pt 6 title "direct (UKF)"',
             'using 1:4 with lines lw 2 title "closed form (PF)"',
             'using 1:5 with points pt 6 title "direct (PF)"']),
}

_PLOT_SCRIPT = """\
# {comment}
set datafile separator ","
set terminal png size 900,600
set output "{stem}.png"
set title "{title}"
set xlabel "step k"
set ylabel "{ylabel}"
set key top right
plot {plot}
"""


def write_plot_scripts(outdir: Path) -> list[str]:
    """One gnuplot script per CSV, rendering it to <stem>.png."""
    for stem, (comment, title, ylabel, curves) in _PLOTS.items():
        plot = ", \\\n     ".join(f'"{stem}.csv" {curve}' for curve in curves)
        (outdir / f"plot_{stem}.gp").write_text(_PLOT_SCRIPT.format(
            comment=comment, stem=stem, title=title, ylabel=ylabel, plot=plot))
    return sorted(f"plot_{stem}.gp" for stem in _PLOTS)


# -- subcommands --------------------------------------------------------------


def _make_outdir(args, output: dict) -> Path:
    outdir = Path(args.out) if args.out else Path(output["dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def cmd_run(args) -> int:
    """`run` and `bounds`: run the experiment and write the subcommand's files."""
    config, output = config_from_file(args.config, seed=args.seed, runs=args.runs)
    started = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - started
    outdir = _make_outdir(args, output)
    full = args.command == "run"
    writers = ({"rmse.csv": write_rmse_csv, "bounds.csv": write_bounds_csv,
                "gap.csv": write_gap_csv} if full else {"bounds.csv": write_bounds_csv})
    for name, writer in writers.items():
        writer(outdir / name, result)
    timing = {"elapsed_seconds": round(elapsed, 3)} if full else {}
    write_meta(outdir / "meta.json", config, output, result, command=args.command, **timing)
    written = [*writers, "meta.json"]
    if full and output["plots"]:
        written += write_plot_scripts(outdir)
    if not args.quiet:
        print(f"{args.command}: {result.runs_used}/{config.runs} runs used, "
              f"{elapsed:.1f} s, seed {config.master_seed}")
        for estimator, series in result.rmse.items():
            print(f"  mean RMSE {estimator}: {series.mean():.4f}")
        for estimator, data in result.gaps.items():
            print(f"  gap ordering violations {estimator}: {int(data['violations'].sum())}")
        print(f"  wrote {', '.join(written)} to {outdir}")
    return 0


def cmd_simulate(args) -> int:
    config, output = config_from_file(args.config, seed=args.seed, runs=args.runs)
    model = build_model(config)
    sample_seed, _ = run_seeds(config.master_seed, 0)  # run 0's trajectory
    trajectory = sample_trajectory(model, config.horizon, sample_seed)
    outdir = _make_outdir(args, output)
    n, m = model.state_dim, model.meas_dim
    header = (["k"] + [f"x{i + 1}" for i in range(n)] + [f"z{i + 1}" for i in range(m)])
    # no measurement at k = 0
    measurements = np.vstack([np.full((1, m), np.nan), trajectory.measurements])
    rows = [[str(k)] + [_fmt(v) for v in (*x, *z)]
            for k, (x, z) in enumerate(zip(trajectory.states, measurements))]
    _write_csv(outdir / "trajectory.csv", header, rows)
    write_meta(outdir / "meta.json", config, output, command="simulate")
    if not args.quiet:
        print(f"simulate: wrote trajectory.csv ({config.horizon} steps) to {outdir}")
    return 0


# -- numeric checks, shared by the selftest and acceptance criteria 1-3 --------


def random_spd(rng: np.random.Generator, dim: int, shift: Optional[float] = None) -> np.ndarray:
    """B B^T + shift I for a standard normal B; shift defaults to dim."""
    basis = rng.standard_normal((dim, dim))
    return basis @ basis.T + (dim if shift is None else shift) * np.eye(dim)


def random_stable_linear_model(rng: np.random.Generator, dim: int) -> SystemModel:
    """Linear-Gaussian model with spectral radius < 1 and SPD noises."""
    a = rng.uniform(-1.0, 1.0, size=(dim, dim))
    radius = max(1.0, np.max(np.abs(np.linalg.eigvals(a))))
    a *= rng.uniform(0.5, 0.95) / radius
    h = rng.uniform(-1.5, 1.5, size=(dim, dim))
    q = random_spd(rng, dim)
    r = random_spd(rng, dim)
    p0 = random_spd(rng, dim)
    return linear_gaussian_model(a, h, q, r, rng.standard_normal(dim), p0)


def kalman_series(model: SystemModel, measurements: np.ndarray) -> list[FilterOutput]:
    """Closed-form filter outputs of a time-invariant linear model, one per measurement."""
    belief = GaussianBelief(model.prior.mean, model.prior.cov)
    a = model.transition_jacobian(1, model.prior.mean)
    h = model.measurement_jacobian(1, model.prior.mean)
    outputs = []
    for z in measurements:
        outputs.append(kalman_step(a, h, model.process_cov, model.meas_cov, belief, z))
        belief = outputs[-1].posterior
    return outputs


def kalman_oracle_deviation(rng: np.random.Generator, dims, horizon: int) -> float:
    """Worst absolute deviation of the reference, mean-only and mean+cov bounds
    from the Kalman posterior covariance, over one random stable linear model
    per entry of dims, each run for horizon steps.

    Every engine is fed the Kalman filter's beliefs at the harness's
    alignment: the posterior about k-1 (the prior at k = 1) and the predicted
    belief about k, means and, for mean_cov, covariances."""
    worst = 0.0
    for dim in dims:
        model = random_stable_linear_model(rng, dim)
        trajectory = sample_trajectory(model, horizon, int(rng.integers(2**32)))
        j_true = j_mean = j_cov = initial_fim(model.prior)
        prev = model.prior
        for k, out in enumerate(kalman_series(model, trajectory.measurements), start=1):
            j_true = fim_recursion_step(j_true, true_fim_terms_mc(
                model, k, prev.mean[None, :], out.posterior.mean[None, :]))
            j_mean = fim_recursion_step(j_mean, mean_only_terms(
                model, k, prev.mean, out.predicted.mean))
            j_cov = fim_recursion_step(j_cov, mean_cov_terms(model, k, prev, out.predicted))
            for j in (j_true, j_mean, j_cov):
                worst = max(worst, float(np.abs(spd_inverse(j) - out.posterior.cov).max()))
            prev = out.posterior
    return worst


def unscented_predicted(model: SystemModel, k, belief: GaussianBelief) -> GaussianBelief:
    """The belief about the state at time k from a belief about time k-1: the
    unscented transform through the transition, plus the process noise."""
    mean, cov, _ = unscented_transform(lambda x: model.transition(k, x), belief,
                                       model.process_cov)
    return GaussianBelief(mean, cov)


def _relative_deviation(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max()) / max(1e-12, float(np.abs(want).max()))


def decomposition_deviation(rng: np.random.Generator, trials: int) -> tuple[float, float]:
    """Worst relative deviations over random ungm beliefs and steps: of the
    decomposition's point and full triples from mean_only_terms and
    mean_cov_terms on the same beliefs, and of the split step theta + pi from
    the direct recursion step, as (blocks, recursion).  The measurement
    channel takes the state belief's unscented prediction."""
    model = ungm_model()
    worst_block = worst_path = 0.0
    for _ in range(trials):
        belief = GaussianBelief(np.array([rng.uniform(-25.0, 25.0)]),
                                np.array([[rng.uniform(0.1, 30.0)]]))
        k = int(rng.integers(1, 51))
        predicted = unscented_predicted(model, k, belief)
        parts = decompose_terms(model, k, belief, predicted)
        point = mean_only_terms(model, k, belief.mean, predicted.mean)
        full = mean_cov_terms(model, k, belief, predicted)
        for got, want in zip(parts, (point, full)):
            worst_block = max(worst_block, *map(_relative_deviation, dataclasses.astuple(got),
                                                 dataclasses.astuple(want)))
        j_prev = np.array([[rng.uniform(0.05, 5.0)]])
        theta, pi = fim_via_decomposition(j_prev, *parts)
        worst_path = max(worst_path, _relative_deviation(theta + pi,
                                                         fim_recursion_step(j_prev, full)))
    return worst_block, worst_path


def lemma_deviation(rng: np.random.Generator, trials: int) -> float:
    """Worst absolute deviation from dense inverses, over random SPD pairs
    (a, b) of dimension 1 to 4, of the Theta/Pi bound (the pipeline's
    spd_inverse of a + b) and the closed-form gap (the product
    a^-1 b (a + b)^-1)."""
    worst = 0.0
    for trial in range(trials):
        dim = 1 + trial % 4
        a = random_spd(rng, dim)
        b = random_spd(rng, dim)
        direct = np.linalg.inv(a + b)
        bound = spd_inverse(a + b)
        gap, _ = bound_difference(spd_inverse(a), b, bound)
        for got, want in ((bound, direct), (gap, np.linalg.inv(a) - direct)):
            worst = max(worst, float(np.abs(got - want).max()))
    return worst


def _within(deviation: float, tolerance: float) -> None:
    if not deviation <= tolerance:
        raise AssertionError(f"worst deviation {deviation:.2e} exceeds {tolerance:.0e}")


def _check_kalman_hand_values() -> None:
    one = np.ones((1, 1))
    belief = GaussianBelief(np.zeros(1), one)
    for target in (2.0 / 3.0, 5.0 / 8.0, 13.0 / 21.0):
        belief = kalman_step(one, one, one, one, belief, np.zeros(1)).posterior
        _within(abs(belief.cov[0, 0] - target), 1e-12)


def _check_ukf_matches_kalman() -> None:
    rng = np.random.default_rng(7)
    for dim in (1, 2):
        model = random_stable_linear_model(rng, dim)
        trajectory = sample_trajectory(model, 30, int(rng.integers(2**32)))
        ukf = run_ukf(model, trajectory.measurements).posterior
        for k, out in enumerate(kalman_series(model, trajectory.measurements)):
            _within(max(np.abs(out.posterior.mean - ukf.mean[k]).max(),
                        np.abs(out.posterior.cov - ukf.cov[k]).max()), 1e-9)


def _check_zero_spread_limit() -> None:
    belief = GaussianBelief(np.array([1.0]), np.zeros((1, 1)))
    model = ungm_model()
    # the unscented prediction of a belief without spread, whose zero
    # covariance has no Cholesky factor: every sigma point sits at m
    predicted = GaussianBelief(model.transition(1, belief.mean), model.process_cov)
    point, full = decompose_terms(model, 1, belief, predicted)
    _within(float(np.abs(full.d11 - point.d11).max()), 1e-8)


def _check_seed_derivation() -> None:
    seeds = {derive_run_seed(0, i) for i in range(10000)}
    if len(seeds) != 10000:
        raise AssertionError("derived run seeds collide")
    if derive_run_seed(1, 0) == derive_run_seed(0, 0):
        raise AssertionError("master seed does not influence derived seeds")


_SELFTEST_CHECKS = [
    ("closed-form filter hand values", _check_kalman_hand_values),
    ("sigma-point filter matches closed form", _check_ukf_matches_kalman),
    ("bound engines match closed form on linear models",
     lambda: _within(kalman_oracle_deviation(np.random.default_rng(11), (1, 2), 30), 1e-8)),
    ("mean+cov terms reduce to mean-only terms at zero spread", _check_zero_spread_limit),
    ("term decomposition identities",
     lambda: _within(max(decomposition_deviation(np.random.default_rng(23), 20)), 1e-8)),
    ("Theta/Pi bound and closed-form gap identities",
     lambda: _within(lemma_deviation(np.random.default_rng(31), 20), 1e-10)),
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
            ("bounds", cmd_run, True),
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
