"""Golden-output regression test.

The files under tests/golden/ were written by the per-run bound pipeline
(commit 057b38e, before the bound engines were batched over runs) with

    PYTHONPATH=src python tests/test_golden.py tests/golden

and are compared column by column at the tolerances below:

* rmse.csv byte-identical: the filters are the same code;
* the ``true`` and ``meanonly_*`` bounds within rtol 1e-12;
* the ``meancov_*`` bounds and every gap.csv column within rtol 1e-12.
  These columns, and the gap-ordering counts of meta.json, were re-captured
  when the mean+cov step terms became cubature expectations over the filter
  beliefs; the other columns and counts kept their text;
* the meta.json counts (runs used, failed runs, gap-ordering violations)
  exactly.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pcrlb.cli import write_bounds_csv, write_gap_csv, write_meta, write_rmse_csv
from pcrlb.experiment import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"

CONFIGS = {
    "ungm": ExperimentConfig(model_name="ungm", horizon=50, runs=6, particles=150),
    "linear2d": ExperimentConfig(
        model_name="linear",
        model_params={"a": [[0.584, -0.178], [-0.726, 0.365]],
                      "h": [[1.077, 0.81], [0.499, -1.444]],
                      "process_var": [[0.8, 0.2], [0.2, 0.5]],
                      "meas_var": [[1.2, -0.3], [-0.3, 0.9]],
                      "prior_mean": [0.5, -1.0],
                      "prior_var": [[2.0, 0.4], [0.4, 1.5]]},
        horizon=30, runs=6, particles=150, master_seed=20261018),
}

COUNT_KEYS = ("runs_used", "failed_runs", "gap_ordering_violations")


def produce(config: ExperimentConfig, outdir: Path) -> None:
    """Run one experiment and write its CSVs and meta.json into outdir."""
    outdir.mkdir(parents=True, exist_ok=True)
    result = run_experiment(config)
    write_rmse_csv(outdir / "rmse.csv", result)
    write_bounds_csv(outdir / "bounds.csv", result)
    write_gap_csv(outdir / "gap.csv", result)
    write_meta(outdir / "meta.json", config, {"dir": ".", "plots": False}, result)


def read_columns(path: Path) -> dict:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {name: rows[:, i] for i, name in enumerate(header)}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden(name, tmp_path):
    produce(CONFIGS[name], tmp_path)
    golden = GOLDEN / name
    assert (tmp_path / "rmse.csv").read_bytes() == (golden / "rmse.csv").read_bytes()

    got = read_columns(tmp_path / "bounds.csv")
    want = read_columns(golden / "bounds.csv")
    assert list(got) == list(want)
    for column in want:
        assert_allclose(got[column], want[column], rtol=1e-12, atol=0, err_msg=column)

    got = read_columns(tmp_path / "gap.csv")
    want = read_columns(golden / "gap.csv")
    assert list(got) == list(want)
    for column in want:
        assert_allclose(got[column], want[column], rtol=1e-12, atol=0, err_msg=column)

    got = json.loads((tmp_path / "meta.json").read_text())
    want = json.loads((golden / "meta.json").read_text())
    for key in COUNT_KEYS:
        assert got[key] == want[key], key


if __name__ == "__main__":
    root = Path(sys.argv[1])
    for name, config in CONFIGS.items():
        produce(config, root / name)
