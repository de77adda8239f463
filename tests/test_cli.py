import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pcrlb import DEFAULT_SEED, cli, experiment
from pcrlb.cli import (CONFIG_REFERENCE, ConfigError, config_from_file, parse_config,
                       write_bounds_csv, write_gap_csv, write_meta, write_rmse_csv, _write_csv)
from pcrlb.experiment import ExperimentConfig, build_model, run_experiment
from pcrlb.filters import UTParams

from test_golden import CONFIGS as GOLDEN_CONFIGS


TINY = """\
[model]
name = ungm

[experiment]
horizon = 6
runs = 3

[filters]
particles = 40

[bounds]
"""


def write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_config_gives_benchmark_defaults(tmp_path):
    path = write(tmp_path, "[model]\nname = ungm\n")
    config, output = config_from_file(path)
    assert config.model_name == "ungm"
    assert config.model_params == {}
    assert config.horizon == 50
    assert config.runs == 100
    assert config.particles == 1000
    assert config.master_seed == DEFAULT_SEED
    assert config.methods == ("true", "mean_only", "mean_cov")
    assert config.estimators == ("ukf", "pf")
    assert output == {"dir": ".", "plots": True}


def test_config_overrides(tmp_path):
    path = write(tmp_path, """\
[model]
name = ungm
meas_var = 2.5

[experiment]
horizon = 10
seed = 7
averaging = fim

[filters]
particles = 5000
ut_kappa = 2.0

[bounds]
methods = true, mean_only
estimators = ukf

[output]
dir = results
plots = false
""")
    config, output = config_from_file(path)
    assert config.particles == 5000
    assert config.horizon == 10
    assert config.master_seed == 7
    assert config.averaging == "fim"
    assert config.model_params == {"meas_var": 2.5}
    assert config.ut.kappa == 2.0
    assert config.methods == ("true", "mean_only")
    assert config.estimators == ("ukf",)
    assert output == {"dir": "results", "plots": False}


def test_config_comments_and_blanks(tmp_path):
    path = write(tmp_path, "# leading comment\n\n[model]\nname = ungm  # trailing\n")
    assert parse_config(path)["model"]["name"] == "ungm"


@pytest.mark.parametrize("section, line", [
    ("model", "velocity = 3"),
    # the filter beliefs feeding the bounds are fixed, so these keys are gone
    ("filters", "state_eval = posterior"),
    ("filters", "meas_eval = predicted"),
])
def test_unknown_key_names_key_and_line(tmp_path, section, line):
    path = write(tmp_path, f"[model]\nname = ungm\n[{section}]\n{line}\n")
    key = line.split()[0]
    with pytest.raises(ConfigError, match=rf":4: unknown key '{key}' in section \[{section}\]"):
        parse_config(path)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 2


def test_duplicate_key_names_key_and_line(tmp_path):
    path = write(tmp_path, "[experiment]\nruns = 5\n\n[filters]\nparticles = 9\n"
                           "[experiment]\nruns = 7\n")
    with pytest.raises(ConfigError, match=r":7:.*'runs'.*\[experiment\].*line 2"):
        parse_config(path)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 2


def test_config_reference_restates_the_defaults(tmp_path):
    """The three copies of the defaults agree: ExperimentConfig/UTParams,
    CONFIG_REFERENCE and the README's ini block."""
    config, output = config_from_file(write(tmp_path, CONFIG_REFERENCE))
    default = ExperimentConfig()
    for field in dataclasses.fields(ExperimentConfig):
        if field.name != "model_params":
            assert getattr(config, field.name) == getattr(default, field.name), field.name
    assert output == {"dir": ".", "plots": True}
    got, want = build_model(config), build_model(default)
    for attr in ("process_cov", "meas_cov"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))
    assert np.array_equal(got.prior.mean, want.prior.mean)
    assert np.array_equal(got.prior.cov, want.prior.cov)
    x = np.linspace(-20.0, 20.0, 41)[:, None]
    for k in (1, 2, 7):
        assert np.array_equal(got.transition(k, x), want.transition(k, x))
        assert np.array_equal(got.measure(k, x), want.measure(k, x))

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert CONFIG_REFERENCE[CONFIG_REFERENCE.index("[model]"):] == block


def test_linear_model_defaults_from_a_config_file(tmp_path):
    """A file naming only the linear model builds A = 0.9, H = 1,
    Q = R = P0 = 1 and m0 = 0: the linear defaults that CONFIG_REFERENCE
    annotates beside the ungm ones."""
    config, _ = config_from_file(write(tmp_path, "[model]\nname = linear\n"))
    model = build_model(config)
    x = np.zeros((1, 1))
    assert np.array_equal(model.transition_jacobian(1, x), [[[0.9]]])
    assert np.array_equal(model.measurement_jacobian(1, x), [[[1.0]]])
    for cov in (model.process_cov, model.meas_cov, model.prior.cov):
        assert np.array_equal(cov, [[1.0]])
    assert np.array_equal(model.prior.mean, [0.0])


def test_unknown_section(tmp_path):
    path = write(tmp_path, "[turbo]\nx = 1\n")
    with pytest.raises(ConfigError, match="turbo"):
        parse_config(path)


def test_bad_literal_reports_line(tmp_path):
    path = write(tmp_path, "[experiment]\nhorizon = soon\n")
    with pytest.raises(ConfigError, match=":2:"):
        parse_config(path)


def test_key_outside_section(tmp_path):
    path = write(tmp_path, "horizon = 5\n")
    with pytest.raises(ConfigError, match="outside"):
        parse_config(path)


def test_malformed_line(tmp_path):
    path = write(tmp_path, "[model]\nname ungm\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(path)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/config.ini")


def test_linear_only_key_rejected_for_ungm(tmp_path):
    path = write(tmp_path, "[model]\nname = ungm\na = 0.9\n")
    with pytest.raises(ConfigError, match="'a'"):
        config_from_file(path)


def test_negative_horizon_rejected(tmp_path):
    path = write(tmp_path, "[model]\nname = ungm\n\n[experiment]\nhorizon = -1\n")
    with pytest.raises(ConfigError):
        config_from_file(path)


def test_write_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    _write_csv(path, ["k", "value"], [])
    assert path.read_text() == "k,value\n"


def test_csv_round_trip_is_bit_exact(tmp_path):
    config = ExperimentConfig(model_name="ungm", horizon=5, runs=2, particles=30)
    result = run_experiment(config)
    write_rmse_csv(tmp_path / "rmse.csv", result)
    write_bounds_csv(tmp_path / "bounds.csv", result)
    write_gap_csv(tmp_path / "gap.csv", result)

    rows = [line.split(",") for line in
            (tmp_path / "rmse.csv").read_text().splitlines()[1:]]
    for k, row in enumerate(rows):
        assert float(row[1]) == result.rmse["ukf"][k]
        assert float(row[2]) == result.rmse["pf"][k]

    rows = [line.split(",") for line in
            (tmp_path / "bounds.csv").read_text().splitlines()[1:]]
    for k, row in enumerate(rows):
        assert float(row[1]) == result.bounds[("true", None)][k, 0, 0]
        assert float(row[2]) == result.bounds[("mean_only", "ukf")][k, 0, 0]
        assert float(row[5]) == result.bounds[("mean_cov", "pf")][k, 0, 0]

    rows = [line.split(",") for line in
            (tmp_path / "gap.csv").read_text().splitlines()[1:]]
    for k, row in enumerate(rows):
        assert float(row[1]) == result.gaps["ukf"]["analytic"][k, 0, 0]
        assert float(row[2]) == result.gaps["ukf"]["direct"][k, 0, 0]
        assert float(row[4]) == result.gaps["pf"]["direct"][k, 0, 0]


def test_bounds_csv_fills_missing_series_with_nan(tmp_path):
    config = ExperimentConfig(model_name="ungm", horizon=4, runs=2, particles=30,
                              methods=("true", "mean_only"), estimators=("ukf",))
    result = run_experiment(config)
    write_bounds_csv(tmp_path / "bounds.csv", result)
    lines = (tmp_path / "bounds.csv").read_text().splitlines()
    assert lines[0] == "k,true,meanonly_ukf,meanonly_pf,meancov_ukf,meancov_pf"
    first = lines[1].split(",")
    assert first[3] == "nan" and first[4] == "nan" and first[5] == "nan"
    assert first[1] != "nan" and first[2] != "nan"


def test_cmd_run_writes_all_outputs(tmp_path):
    config_path = write(tmp_path, TINY)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(config_path), "--out", str(out), "--quiet"])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["bounds.csv", "gap.csv", "meta.json", "plot_bounds.gp",
                     "plot_gap.gp", "plot_rmse.gp", "rmse.csv"]
    assert len((out / "bounds.csv").read_text().splitlines()) == 7  # header + 6
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["horizon"] == 6
    assert meta["runs_used"] == 3
    assert "gap_ordering_violations" in meta
    health = meta["filter_health"]
    assert sorted(health) == ["pf", "ukf"]
    assert health["ukf"] == {"cov_repairs": 0}
    assert sorted(health["pf"]) == ["collapses", "cov_repairs", "min_ess", "resamples"]
    assert health["pf"]["resamples"] == 3 * 6  # resample = always, 3 runs x 6 steps
    assert health["pf"]["collapses"] == 0
    assert 1.0 <= health["pf"]["min_ess"] <= 40.0
    assert "elapsed_seconds" in meta
    stages = meta["stage_seconds"]
    assert sorted(stages) == ["aggregation", "bound_engines", "filtering", "reference"]
    assert all(seconds >= 0.0 for seconds in stages.values())


def test_meta_size_does_not_depend_on_stage_timings(tmp_path):
    config = ExperimentConfig(horizon=4, runs=2, particles=30)
    result = run_experiment(config)
    sizes = set()
    for scale in (0.0, 1e-7, 1.0, 123.0):
        result.stage_seconds = {stage: scale * (i + 1) / 3
                                for i, stage in enumerate(result.stage_seconds)}
        write_meta(tmp_path / "meta.json", config, {}, result)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["stage_seconds"] == pytest.approx(result.stage_seconds, rel=1e-6)
        sizes.add((tmp_path / "meta.json").stat().st_size)
    assert len(sizes) == 1


def test_meta_writes_array_model_params_as_nested_lists(tmp_path):
    """A linear config built in Python with numpy matrices is written as the
    nested lists that perfbench's linear_params hands over, and the written
    config reads back as one that gives the same results."""
    params = {"a": np.array([[0.9, 0.1], [0.0, 0.8]]), "h": np.eye(2),
              "process_var": np.diag([0.6, 0.5]), "meas_var": np.array([[0.8, 0.1], [0.1, 0.7]]),
              "prior_mean": np.array([0.5, -1.0]), "prior_var": 2.0 * np.eye(2)}
    config = ExperimentConfig(model_name="linear", model_params=params, horizon=4, runs=2,
                              particles=30)
    result = run_experiment(config)
    write_meta(tmp_path / "meta.json", config, {}, result)
    written = json.loads((tmp_path / "meta.json").read_text())["config"]
    assert written["model_params"] == {key: value.tolist() for key, value in params.items()}
    again = run_experiment(ExperimentConfig(**{**written, "ut": UTParams(**written["ut"])}))
    assert again.bounds.keys() == result.bounds.keys()
    for key, bound in result.bounds.items():
        assert np.array_equal(again.bounds[key], bound)


def test_cmd_run_is_deterministic(tmp_path):
    config_path = write(tmp_path, TINY)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(config_path), "--out", str(out1), "--quiet"]) == 0
    assert cli.main(["run", "--config", str(config_path), "--out", str(out2), "--quiet"]) == 0
    for name in ("rmse.csv", "bounds.csv", "gap.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cmd_run_seed_override_changes_output(tmp_path):
    config_path = write(tmp_path, TINY)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(config_path), "--out", str(out1),
                     "--seed", "1", "--quiet"]) == 0
    assert cli.main(["run", "--config", str(config_path), "--out", str(out2),
                     "--seed", "2", "--quiet"]) == 0
    assert (out1 / "rmse.csv").read_bytes() != (out2 / "rmse.csv").read_bytes()
    assert json.loads((out1 / "meta.json").read_text())["config"]["master_seed"] == 1


def test_cmd_run_runs_override(tmp_path):
    config_path = write(tmp_path, TINY)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config_path), "--out", str(out),
                     "--runs", "2", "--quiet"]) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["runs"] == 2
    assert meta["runs_used"] == 2


def test_cmd_bounds_writes_subset(tmp_path):
    config_path = write(tmp_path, TINY)
    out = tmp_path / "out"
    assert cli.main(["bounds", "--config", str(config_path), "--out", str(out),
                     "--quiet"]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["bounds.csv", "meta.json"]


def test_cmd_simulate_trajectory_shape(tmp_path):
    config_path = write(tmp_path, TINY)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(out),
                     "--quiet"]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "k,x1,z1"
    assert len(lines) == 8  # header + initial state + 6 steps
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "nan"
    for row in lines[2:]:
        cells = row.split(",")
        assert cells[2] != "nan"
        assert np.isfinite(float(cells[1]))


def test_simulate_writes_run_0_trajectory_bit_for_bit(tmp_path):
    """trajectory.csv holds the states that run 0 of the experiment samples."""
    config_path = write(tmp_path, TINY)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(out),
                     "--quiet"]) == 0
    rows = [line.split(",") for line in (out / "trajectory.csv").read_text().splitlines()[1:]]
    written = np.array([[float(row[1])] for row in rows])  # k, x1, z1
    config, _ = config_from_file(config_path)
    table, errors, _ = experiment._run_block(config, range(config.runs))
    assert not errors and len(table["states"]) == config.runs
    assert np.array_equal(written, table["states"][0])
    assert not np.array_equal(written, table["states"][1])


def test_config_error_exits_2(tmp_path):
    config_path = write(tmp_path, "[model]\nname = pendulum\n")
    assert cli.main(["run", "--config", str(config_path), "--quiet"]) == 2
    assert cli.main(["run", "--config", str(tmp_path / "missing.ini"), "--quiet"]) == 2


@pytest.mark.parametrize("section, line", [
    ("model", "process_var = -1"),
    ("model", "meas_var = 0"),
    ("model", "prior_var = nan"),
    ("filters", "ut_alpha = 0"),
    ("filters", "ut_kappa = -1"),  # n + kappa = 0 on the scalar model
    # alpha^2 (n + kappa) = 1e-17 > 0, but the filter's n + lambda rounds to 0
    ("filters", "ut_alpha = 0.001\nut_kappa = -0.99999999999"),
    ("filters", "ess_threshold = 7.5"),
    ("filters", "ess_threshold = 0"),
    ("filters", "resample = never"),
    ("experiment", "averaging = foo"),
    ("bounds", "methods = ,"),
    ("bounds", "estimators = ukf, ekf"),
    ("bounds", "estimators = pf, pf"),
    ("filters", "ut_beta = nan"),
    ("filters", "ut_beta = -inf"),
    ("filters", "ut_alpha = inf"),
    ("filters", "ut_kappa = inf"),
    ("model", "process_var = inf"),
    ("model", "prior_mean = nan"),
    ("experiment", "workers = 1.5"),
])
def test_bad_config_value_exits_2(tmp_path, capsys, section, line):
    """Values a run would trip over are rejected while the config is read."""
    config_path = write(tmp_path, TINY.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config_path), "--out", str(out), "--quiet"]) == 2
    assert line.split()[0] in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_dir_exits_1(tmp_path):
    config_path = write(tmp_path, TINY)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    code = cli.main(["run", "--config", str(config_path),
                     "--out", str(blocker / "sub"), "--quiet"])
    assert code == 1


def test_selftest_passes():
    assert cli.main(["selftest", "--quiet"]) == 0


def test_selftest_reports_a_failing_check(monkeypatch, capsys):
    name, _ = cli._SELFTEST_CHECKS[2]

    def broken():
        raise AssertionError("deliberately broken")

    checks = list(cli._SELFTEST_CHECKS)
    checks[2] = (name, broken)
    monkeypatch.setattr(cli, "_SELFTEST_CHECKS", checks)
    assert cli.main(["selftest", "--quiet"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL {name}: deliberately broken" in out
    assert f"1 of {len(cli._SELFTEST_CHECKS)} checks failed" in out


RUN_IN_FRESH_INTERPRETER = """\
import dataclasses, importlib.abc, json, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is refused in this interpreter", name=name)

sys.meta_path.insert(0, RefuseScipy())
import pcrlb.cli as cli
config_path, out, params = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
codes = {"selftest": cli.main(["selftest", "--quiet"])} if sys.argv[4] == "selftest" else {}
if params:  # the config file format is scalar-only, so matrices come in here
    from_file = cli.config_from_file
    def with_matrices(*args, **kwargs):
        config, output = from_file(*args, **kwargs)
        return dataclasses.replace(config, model_params=params), output
    cli.config_from_file = with_matrices
codes["code"] = cli.main(["run", "--config", config_path, "--out", out, "--quiet"])
print(json.dumps({**codes, "scipy": sorted(
    name for name in sys.modules if name.split(".")[0] == "scipy")}))
"""


def run_fresh(tmp_path, text, params=None, selftest=False):
    """`pcrlb run`, after `pcrlb selftest` if asked, in a new interpreter that
    refuses to import scipy; returns their exit codes and the scipy modules
    loaded."""
    config_path = write(tmp_path, text)
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", RUN_IN_FRESH_INTERPRETER, str(config_path),
         str(tmp_path / "out"), json.dumps(params or {}), "selftest" if selftest else "-"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_scalar_run_loads_no_scipy(tmp_path):
    text = "[model]\nname = ungm\n\n[experiment]\nhorizon = 5\nruns = 3\n\n[filters]\nparticles = 50\n"
    assert run_fresh(tmp_path, text) == {"code": 0, "scipy": []}


MATRIX_RUN = "[model]\nname = linear\n\n[experiment]\nhorizon = 5\nruns = 3\n\n[filters]\nparticles = 50\n"


def test_matrix_run_completes_in_fresh_interpreter(tmp_path):
    """import pcrlb, `pcrlb selftest` (whose checks run 1-D and 2-D models)
    and a 2-D linear `pcrlb run` succeed where importing scipy fails."""
    params = GOLDEN_CONFIGS["linear2d"].model_params
    assert run_fresh(tmp_path, MATRIX_RUN, params, selftest=True) == {
        "selftest": 0, "code": 0, "scipy": []}
    assert len((tmp_path / "out" / "bounds.csv").read_text().splitlines()) == 6
