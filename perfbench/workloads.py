"""The benchmark's workloads and the experiment config each one hands the program.

Every workload runs the `pcrlb run` pipeline with horizon 50.  Its inputs come
from the workload seed alone: the seed is the experiment's master seed, and for
`linear-4d` it also draws the model matrices.  The program only ever sees the
built config.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

HORIZON = 50
ALL_METHODS = ("true", "mean_only", "mean_cov")
BOTH_ESTIMATORS = ("ukf", "pf")
LINEAR_DIM = 4
# R is a fifth of the program's default of 100 runs (a tenth on the slower
# linear-4d): large enough that work batched over runs can show
# (spd_inverse alone is called about 1,700 times per run; 20 pf-dense clouds
# of 20 000 particles hold 3.2 MB, more than a 2 MB L2 cache) and that pool
# start-up is a small part of a two-process repetition, and small enough for
# several 3-4 s repetitions in one run.  ungm-workers2 must run exactly
# ungm-default's experiment, so they share R.
UNGM_RUNS = 20
LINEAR_RUNS = 10


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str          # "ungm" or "linear"
    runs: int           # Monte Carlo runs R in one repetition of the pipeline
    particles: int      # particle count N
    estimators: tuple[str, ...]
    methods: tuple[str, ...]
    workers: int = 1


WORKLOADS = {w.name: w for w in (
    Workload("ungm-default",
             "the paper benchmark (ungm, N=1000, ukf+pf, all methods); the bound "
             "engines take most of the time, so per-call overhead and batching show",
             model="ungm", runs=UNGM_RUNS, particles=1000,
             estimators=BOTH_ESTIMATORS, methods=ALL_METHODS),
    Workload("pf-dense",
             "ungm with pf only, N=20000, no mean_cov: run_pf dominates, so a "
             "bound-engine change should not move it and a particle-filter change should",
             model="ungm", runs=UNGM_RUNS, particles=20000,
             estimators=("pf",), methods=("true", "mean_only")),
    Workload("linear-4d",
             "seeded 4-state linear-Gaussian model: the matrix path, and the only "
             "workload with an exact oracle (the Kalman covariance)",
             model="linear", runs=LINEAR_RUNS, particles=200,
             estimators=BOTH_ESTIMATORS, methods=ALL_METHODS),
    Workload("ungm-workers2",
             "ungm-default on a 2-process pool: the only workload through the "
             "process-pool path, whose CSVs must equal the one-process ones",
             model="ungm", runs=UNGM_RUNS, particles=1000,
             estimators=BOTH_ESTIMATORS, methods=ALL_METHODS, workers=2),
)}


def config_text(workload: Workload, seed: int, outdir: Path) -> str:
    """The workload's config file, in the format `pcrlb run --config` reads."""
    return (
        f"[model]\nname = {workload.model}\n\n"
        f"[experiment]\nhorizon = {HORIZON}\nruns = {workload.runs}\n"
        f"seed = {seed}\nworkers = {workload.workers}\n\n"
        f"[filters]\nparticles = {workload.particles}\n\n"
        f"[bounds]\nmethods = {', '.join(workload.methods)}\n"
        f"estimators = {', '.join(workload.estimators)}\n\n"
        f"[output]\ndir = {outdir}\nplots = false\n"
    )


def _random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    basis = rng.standard_normal((dim, dim))
    return basis @ basis.T + dim * np.eye(dim)


def linear_params(seed: int, dim: int = LINEAR_DIM) -> dict:
    """Stable A, measurement map H and SPD Q, R, P0 drawn from the seed.

    Values are nested lists so the config stays JSON-serialisable for meta.json.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, dim]))
    a = rng.uniform(-1.0, 1.0, size=(dim, dim))
    a *= 0.9 / max(np.abs(np.linalg.eigvals(a)).max(), 1e-12)
    h = rng.uniform(-1.5, 1.5, size=(dim, dim))
    return {"a": a.tolist(), "h": h.tolist(),
            "process_var": _random_spd(rng, dim).tolist(),
            "meas_var": _random_spd(rng, dim).tolist(),
            "prior_mean": rng.standard_normal(dim).tolist(),
            "prior_var": _random_spd(rng, dim).tolist()}


def seeded_config(workload: Workload, seed: int, config):
    """The parsed config with the seeded matrices for the linear model.

    The scalar-only config format cannot carry matrices, so for the linear
    model the seeded matrices replace the parsed model parameters.
    """
    if workload.model == "linear":
        return dataclasses.replace(config, model_params=linear_params(seed))
    return config
