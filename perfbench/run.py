"""pcrlb benchmark: throughput, set-up time and memory of the `pcrlb run` pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]     # every workload

One repetition is what `pcrlb run` does after set-up: `run_experiment`, then
the rmse/bounds/gap CSV writers and `write_meta`.  An untraced run
(`--trace 0`) repeats it for about S seconds and reports the end-to-end
metrics; a traced run (`--trace 1`) times the calls into each module from
outside (see tracing.py) and reports the per-layer metrics.  Either way the
outputs are checked, and the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0 only
when every check passed.  README.md in this directory explains the output.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in every child process
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
CSV_FILES = ("rmse.csv", "bounds.csv", "gap.csv")
SETUP_PROBES = 7
KALMAN_TOLERANCE = 1e-8

# name -> unit.  The end-to-end metrics come from untraced runs.
END_TO_END = {
    "runs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "completed_run_frac": "frac",
}
# Reported beside the end-to-end metrics but not bounded: failed runs are
# also in the result's `failed` field, and the bound deviations change
# several-fold between seeds, even at R = 100 (see README.md).
REPORTED = {
    "failed_run_frac": "frac",
    "bound_dev.mean_only": "ratio",
    "bound_dev.mean_cov": "ratio",
}
SELF_TIMED = (
    "model.sample_trajectory", "filters.run_ukf", "filters.run_pf", "moments.propagate",
    "moments.map_derivatives", "fim.true_fim_terms_mc", "fim.mean_only_terms",
    "fim.fim_recursion_step", "fim.decompose_terms", "fim.fim_via_decomposition",
    "fim.bound_difference", "linalg.spd_inverse", "experiment.run_experiment",
    "experiment.true_bound_series", "experiment.aggregate_bounds", "experiment.rmse_series",
    "experiment.gap_series", "cli.write",
)
COUNTED = (
    "filters.systematic_resample", "filters.regularize_cov", "fim.true_fim_terms_mc",
    "fim.mean_only_terms", "fim.fim_recursion_step", "fim.decompose_terms",
    "fim.fim_via_decomposition", "fim.bound_difference", "linalg.spd_inverse",
)
# metric name -> span whose summed notes it reports (see tracing.LAYERS)
NOTE_COUNTS = {
    "filters.regularize_cov.repairs": "filters.regularize_cov",
    "fim.pi_fallbacks": "fim.fim_via_decomposition",
    "fim.gap_fallbacks": "fim.bound_difference",
    "fim.gap_violations": "experiment.run_experiment",
    "cli.write.bytes": "cli.write",
}
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"{name}.calls": "count" for name in COUNTED},
    **{name: ("B" if name == "cli.write.bytes" else "count") for name in NOTE_COUNTS},
    "filters.pf.particle_steps_per_s": "1/s",
    "cli.config.self_s": "s",
    "setup.import_s": "s",
    "trace.overhead": "frac",
    "trace.residual_frac": "frac",
    "bound_dev.mean_only": "ratio",
    "bound_dev.mean_cov": "ratio",
}
ENGINE_PREFIXES = ("model.", "filters.", "moments.", "fim.")


@dataclasses.dataclass
class Rep:
    """One repetition of the pipeline."""

    wall_s: float        # wall time of the work, without the speed sampler's share
    factor: float        # speed factor, see speed.py
    runs: int
    failed: int
    hashes: tuple
    spans: list = None

    @property
    def seconds(self) -> float:
        """Wall time scaled to the reference speed."""
        return self.wall_s / self.factor

    @property
    def runs_per_s(self) -> float:
        return (self.runs - self.failed) / self.seconds


class Bench:
    """One workload at one seed: its config, output directory and checks."""

    def __init__(self, workload, seed: int, out_root: Path = OUT_ROOT):
        import pcrlb.cli
        import pcrlb.experiment
        import speed
        import workloads

        self.speed = speed.Speed()
        self.cli = pcrlb.cli
        self.experiment = pcrlb.experiment
        self.workload = workload
        self.seed = seed
        self.outdir = out_root / f"{workload.name}-{seed}"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.config_file = self.outdir / "config.ini"
        self.config_file.write_text(workloads.config_text(workload, seed, self.outdir))
        config, self.output = self.cli.config_from_file(self.config_file)
        self.config = workloads.seeded_config(workload, seed, config)
        self.checks: list[tuple[str, bool, str]] = []
        # (CSV hashes, result) of the first repetition; every later one must match
        self.reference = None
        self.environment = environment(self)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def pipeline(self, config):
        """What `pcrlb run` does after set-up.  Names are looked up at call time,
        so a running tracer sees every call."""
        result = self.experiment.run_experiment(config)
        self.cli.write_rmse_csv(self.outdir / "rmse.csv", result)
        self.cli.write_bounds_csv(self.outdir / "bounds.csv", result)
        self.cli.write_gap_csv(self.outdir / "gap.csv", result)
        self.cli.write_meta(self.outdir / "meta.json", self.config, self.output, result,
                            command="run")
        return result

    def warm_up(self) -> None:
        """One untimed one-run pipeline, so that lazy imports are done before timing."""
        self.pipeline(dataclasses.replace(self.config, runs=1))

    def rep(self, workers: int, tracer=None) -> Rep:
        import speed

        config = dataclasses.replace(self.config, workers=workers)
        self.speed.before(pin=workers == 1)
        sampler = speed.Sampler()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed())
            with sampler.running():
                started = time.perf_counter()
                with tracer.span("bench.rep") if tracer else contextlib.nullcontext():
                    result = self.pipeline(config)
                wall = time.perf_counter() - started - sampler.spent_s
        self.speed.release()
        factor = sampler.factor()
        hashes = tuple(hashlib.sha256((self.outdir / f).read_bytes()).hexdigest()
                       for f in CSV_FILES)
        if self.reference is None:
            self.reference = (hashes, result)
        return Rep(wall, factor, config.runs, len(result.failed_runs), hashes,
                   tracer.spans if tracer else None)

    def measure(self, kinds: list[tuple[int, bool]], seconds: float,
                min_cycles: int) -> list[list[Rep]]:
        """Cycle through the (workers, traced) kinds of repetition until another
        cycle would pass `seconds`; interleaving exposes every kind to the same
        drift in machine speed.  Returns the repetitions of each kind."""
        import tracing

        reps: list[list[Rep]] = [[] for _ in kinds]
        begin = time.perf_counter()
        while True:
            for (workers, traced), out in zip(kinds, reps):
                out.append(self.rep(workers, tracing.Tracer() if traced else None))
            spent = time.perf_counter() - begin
            cycles = len(reps[0])
            if cycles >= min_cycles and spent * (cycles + 1) / cycles > seconds:
                return reps

    def check_hashes(self, reps: list[Rep], label: str) -> None:
        same = all(r.hashes == self.reference[0] for r in reps)
        self.check(f"{label}: CSV SHA-256 equal to the first one-process repetition", same,
                   f"{len(reps)} repetitions")

    def check_kalman(self, result) -> dict:
        """Bounds on the linear model against the closed-form Kalman covariance."""
        import numpy as np
        from pcrlb.filters import kalman_step
        from pcrlb.moments import GaussianBelief

        model = self.experiment.build_model(self.config)
        a = model.transition_jacobian(1, model.prior.mean)
        h = model.measurement_jacobian(1, model.prior.mean)
        belief = GaussianBelief(model.prior.mean, model.prior.cov)
        covs = []
        for _ in range(self.config.horizon):
            # the covariance recursion does not depend on the measurement value
            belief = kalman_step(a, h, model.process_cov, model.meas_cov, belief,
                                 np.zeros(model.meas_dim)).posterior
            covs.append(belief.cov)
        covs = np.stack(covs)
        deviations = {key: float(np.abs(series - covs).max())
                      for key, series in result.bounds.items()}
        for key in [("true", None)] + [("mean_only", e) for e in self.config.estimators]:
            self.check(f"linear-4d: {key[0]}{'/' + key[1] if key[1] else ''} bound within "
                       f"{KALMAN_TOLERANCE:g} of Kalman", deviations[key] <= KALMAN_TOLERANCE,
                       f"max abs deviation {deviations[key]:.3e}")
        return deviations

    def setup_probes(self, count: int) -> list[dict]:
        """Set up the pipeline `count` times in fresh interpreters (pinned like a
        one-process repetition); times are scaled to the reference speed."""
        probes = []
        for _ in range(count):
            calibrated = self.speed.before(pin=True)
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), self.workload.name,
                 str(self.seed), str(self.config_file)],
                capture_output=True, text=True, timeout=120, cwd=ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
            factor = self.speed.after(calibrated)
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            probes.append({"setup_s": (probe["built_at"] - started) / factor,
                           "import_s": probe["import_s"] / factor,
                           "config_s": probe["config_s"] / factor,
                           "factor": factor})
        return probes


def bound_deviation(result, method: str) -> float:
    """Mean over steps and estimators of |approx - reference| / reference.

    Bounds are scalarised as in bounds.csv (the trace).  0.0 when the workload
    does not run the method.
    """
    import numpy as np

    reference = np.trace(result.bounds[("true", None)], axis1=1, axis2=2)
    devs = [np.abs(np.trace(series, axis1=1, axis2=2) - reference) / reference
            for (m, _), series in result.bounds.items() if m == method]
    return float(np.mean(devs)) if devs else 0.0


def peak_rss_mb(pool_workers: int) -> float:
    """Peak RSS of this process plus, with a pool, `pool_workers` times the
    largest pool child.  Pages a forked child shares with this process count
    in both, so with a pool this is an upper bound."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pool_workers > 1:
        own += pool_workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0


def environment(bench: Bench) -> dict:
    """Versions, commit, seed, sizes and CPU count; call it before any pinning."""
    import numpy
    import scipy

    commit = "unknown"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    w = bench.workload
    return {"workload": w.name, "seed": bench.seed, "runs": w.runs,
            "horizon": bench.config.horizon, "particles": w.particles,
            "workers": w.workers, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def throughput(reps: list[Rep]) -> float:
    """Completed runs per scaled second over all the repetitions."""
    return sum(r.runs - r.failed for r in reps) / sum(r.seconds for r in reps)


def untraced(bench: Bench, seconds: float) -> tuple[dict, list[Rep]]:
    workers = bench.workload.workers
    (reps,) = bench.measure([(workers, False)], seconds, min_cycles=3)
    bench.check_hashes(reps, f"workers={workers}")
    (bench.outdir / "reps.json").write_text(json.dumps(
        [{"wall_s": r.wall_s, "factor": r.factor, "runs": r.runs} for r in reps]))
    rss = peak_rss_mb(workers)
    probes = bench.setup_probes(SETUP_PROBES)
    attempted = sum(r.runs for r in reps)
    failed = sum(r.failed for r in reps)
    rates = sorted(r.runs_per_s for r in reps)
    setups = sorted(p["setup_s"] for p in probes)
    wall_rate = (attempted - failed) / sum(r.wall_s for r in reps)
    print(f"runs_per_s: {throughput(reps):.4f} over {len(rates)} repetitions of "
          f"{bench.workload.runs} runs (per repetition: median {statistics.median(rates):.4f}, "
          f"min {rates[0]:.4f}, max {rates[-1]:.4f}); wall-clock {wall_rate:.4f}, "
          f"speed factor median {statistics.median(r.factor for r in reps):.3f}")
    print(f"setup_s: median {statistics.median(setups):.4f}, min {setups[0]:.4f}, "
          f"max {setups[-1]:.4f} over {len(setups)} fresh interpreters; "
          f"speed factor median {statistics.median(p['factor'] for p in probes):.3f}")
    metrics = {
        "runs_per_s": throughput(reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "completed_run_frac": 1.0 - failed / attempted,
        "failed_run_frac": failed / attempted,
        "bound_dev.mean_only": bound_deviation(bench.reference[1], "mean_only"),
        "bound_dev.mean_cov": bound_deviation(bench.reference[1], "mean_cov"),
    }
    return metrics, reps


def traced(bench: Bench, seconds: float) -> tuple[dict, list[Rep]]:
    """Untraced and traced repetitions in turn, on the workload's own worker count.

    With a pool only the benchmark process's spans are kept, so a two-process
    workload reports the parent's side of the pool path: orchestration inside
    run_experiment, the reference bound, aggregation and output writing.
    """
    import tracing

    workers = bench.workload.workers
    untraced_reps, with_trace = bench.measure([(workers, False), (workers, True)], seconds,
                                              min_cycles=2)
    for reps, label in ((untraced_reps, f"workers={workers}"),
                        (with_trace, f"traced, workers={workers}")):
        bench.check_hashes(reps, label)
    probes = bench.setup_probes(3)

    stats = [{name: s._replace(total_s=s.total_s / r.factor, self_s=s.self_s / r.factor)
              for name, s in tracing.layer_stats(r.spans).items()} for r in with_trace]
    counts = [{name: (s.calls, s.notes) for name, s in st.items()} for st in stats]
    bench.check("traced call counts repeat exactly across repetitions",
                all(c == counts[0] for c in counts), f"{len(counts)} traced repetitions")
    first = stats[0]

    def self_s(name: str) -> float:
        return statistics.median(st[name].self_s if name in st else 0.0 for st in stats)

    def notes(name: str) -> int:
        return first[name].notes if name in first else 0

    pf_rates = [st["filters.run_pf"].notes / st["filters.run_pf"].total_s
                for st in stats if "filters.run_pf" in st]
    untraced_rate = throughput(untraced_reps)
    metrics = {f"{name}.self_s": self_s(name) for name in SELF_TIMED}
    metrics.update({f"{name}.calls": first[name].calls if name in first else 0
                    for name in COUNTED})
    metrics.update({metric: notes(span) for metric, span in NOTE_COUNTS.items()})
    metrics.update({
        "filters.pf.particle_steps_per_s": statistics.median(pf_rates) if pf_rates else 0.0,
        "cli.config.self_s": statistics.median(p["config_s"] for p in probes),
        "setup.import_s": statistics.median(p["import_s"] for p in probes),
        "trace.overhead": 1.0 - throughput(with_trace) / untraced_rate,
        "trace.residual_frac": statistics.median(
            st["bench.rep"].self_s / st["bench.rep"].total_s for st in stats),
        "bound_dev.mean_only": bound_deviation(bench.reference[1], "mean_only"),
        "bound_dev.mean_cov": bound_deviation(bench.reference[1], "mean_cov"),
    })
    print_layers(stats[len(stats) // 2])
    write_trace(bench, with_trace[-1].spans, metrics)
    return metrics, untraced_reps + with_trace


def print_layers(stats: dict) -> None:
    wall = stats["bench.rep"].total_s
    print(f"{'span':32} {'calls':>8} {'incl s':>9} {'self s':>9} {'self %':>7}")
    for name, s in sorted(stats.items(), key=lambda item: -item[1].self_s):
        print(f"{name:32} {s.calls:8d} {s.total_s:9.4f} {s.self_s:9.4f} "
              f"{100.0 * s.self_s / wall:6.1f}%")
    covered = sum(s.self_s for name, s in stats.items() if name != "bench.rep")
    print(f"layer self times cover {covered:.4f} s of {wall:.4f} s traced wall time; "
          f"residual (bench.rep self) {100.0 * (1.0 - covered / wall):.2f}%")
    engines = {n: s for n, s in stats.items() if n.startswith(ENGINE_PREFIXES)}
    if engines:
        largest = max(engines, key=lambda n: engines[n].total_s)
        print(f"largest engine span by inclusive time: {largest} "
              f"({engines[largest].total_s:.4f} s)")


def write_trace(bench: Bench, spans: list, metrics: dict) -> None:
    path = bench.outdir / "trace.json"
    path.write_text(json.dumps({
        "environment": bench.environment,
        "metrics": metrics,
        "span_fields": ["id", "parent", "name", "start", "end", "note"],
        "spans": [list(s) for s in spans],
    }))
    print(f"spans of the last traced repetition written to {path}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    bench = Bench(workloads.WORKLOADS[name], seed)
    print("environment: " + json.dumps(bench.environment, sort_keys=True))
    bench.warm_up()
    # The first one-process repetition's CSV hashes are the reference every
    # later repetition must match.  A pooled workload makes it untimed first.
    first = [bench.rep(1)] if bench.workload.workers > 1 else []
    metrics, reps = (traced if trace else untraced)(bench, seconds)
    reps = first + reps
    if bench.workload.model == "linear":
        deviations = bench.check_kalman(bench.reference[1])
        print("max abs deviation from Kalman: " + ", ".join(
            f"{m}{'/' + e if e else ''} {d:.3e}" for (m, e), d in deviations.items()))

    if not trace:
        for metric, unit in {**END_TO_END, **REPORTED}.items():
            tag = "" if metric in END_TO_END else "  (reported, not bounded)"
            print(f"{metric:22} {metrics[metric]:14.6g} {unit}{tag}")
    for label, ok, detail in bench.checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {label} [{detail}]")
    correct = all(ok for _, ok, _ in bench.checks)
    reported = PER_LAYER if trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.runs for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in reported.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process, then one summary."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=900, cwd=ROOT)
        print(f"== {name} (exit {proc.returncode})")
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    correct = all(r is not None and r["correct"] for r in results.values())
    summary = {"correct": correct, "workloads": results}
    if not trace and results["ungm-default"] and results["ungm-workers2"]:
        rate = {n: results[n]["metrics"]["runs_per_s"]["value"]
                for n in ("ungm-default", "ungm-workers2")}
        summary["scaling_efficiency"] = rate["ungm-workers2"] / (2.0 * rate["ungm-default"])
        print(f"scaling efficiency (ungm-workers2 / 2 x ungm-default): "
              f"{summary['scaling_efficiency']:.4f}")
    print(json.dumps(summary))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default) for every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pcrlb" / "__init__.py").is_file():
        print(f"error: no pcrlb package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
