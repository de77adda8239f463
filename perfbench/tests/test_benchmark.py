"""Tests of the benchmark's own code: span arithmetic, tracer rebinding,
repeatable traced counts, the linear-4d inputs and BENCHMARK.json."""

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from tracing import Span


def test_self_time_nested_and_sibling_spans():
    spans = [
        Span(0, -1, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 1, "a.leaf", 2.0, 3.0),
        Span(3, 0, "b", 5.0, 7.0),
        Span(4, 0, "b", 6.0, 8.0),    # overlaps its sibling: covered once
        Span(5, 0, "c", 9.5, 11.0),   # runs past its parent: clipped
        Span(6, -1, "other", 20.0, 21.0),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 3.0 - 0.5)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(2.0)
    assert own[6] == pytest.approx(1.0)

    stats = tracing.layer_stats(spans)
    assert stats["b"].calls == 2
    assert stats["b"].total_s == pytest.approx(4.0)
    assert stats["b"].self_s == pytest.approx(4.0)


def test_self_times_of_sequential_calls_sum_to_the_wall_time():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(5)])
    with tracer.span("root"):
        outer()
        inner()
    stats = tracing.layer_stats(tracer.spans)
    assert stats["inner"].calls == 6 and stats["outer"].calls == 1
    parents = {s.name: s.parent for s in tracer.spans}
    ids = {s.name: s.id for s in tracer.spans}
    assert parents["outer"] == ids["root"] and parents["root"] == -1
    total = sum(s.self_s for s in stats.values())
    assert total == pytest.approx(stats["root"].total_s, rel=1e-9)


def test_install_rebinds_every_import_site_and_uninstall_restores():
    import pcrlb.cli
    import pcrlb.experiment
    import pcrlb.fim
    import pcrlb.linalg

    original = pcrlb.linalg.spd_inverse
    decompose = pcrlb.fim.decompose_terms
    tracer = tracing.Tracer()
    with tracer.installed():
        for module in (pcrlb.linalg, pcrlb.fim, pcrlb.experiment, pcrlb.cli):
            assert module.spd_inverse is not original
        assert pcrlb.experiment.decompose_terms is pcrlb.fim.decompose_terms
        assert pcrlb.experiment.decompose_terms is not decompose
        pcrlb.fim.initial_fim(pcrlb.ungm_model().prior)
    for module in (pcrlb.linalg, pcrlb.fim, pcrlb.experiment, pcrlb.cli):
        assert module.spd_inverse is original
    assert pcrlb.experiment.decompose_terms is decompose
    assert [s.name for s in tracer.spans] == ["linalg.spd_inverse"]


def _small(name, runs):
    return dataclasses.replace(workloads.WORKLOADS[name], runs=runs)


def _traced_counts(workload, tmp_path, tag):
    bench = run.Bench(workload, seed=5, out_root=tmp_path / tag)
    stats = tracing.layer_stats(bench.rep(1, tracing.Tracer()).spans)
    return {name: (s.calls, s.notes) for name, s in stats.items()}


@pytest.mark.parametrize("name", ["ungm-default", "linear-4d"])
def test_traced_counts_repeat_exactly_across_two_runs(name, tmp_path):
    workload = _small(name, runs=2)
    first = _traced_counts(workload, tmp_path, "a")
    second = _traced_counts(workload, tmp_path, "b")
    assert first == second
    assert first["linalg.spd_inverse"][0] > 0
    assert first["experiment.run_experiment"][0] == 1
    assert first["cli.write"][0] == 4


def test_linear_4d_inputs_follow_the_seed_and_meet_the_kalman_oracle(tmp_path):
    assert workloads.linear_params(3) == workloads.linear_params(3)
    assert workloads.linear_params(3) != workloads.linear_params(4)
    a = np.array(workloads.linear_params(3)["a"])
    assert np.abs(np.linalg.eigvals(a)).max() == pytest.approx(0.9)

    bench = run.Bench(_small("linear-4d", runs=1), seed=3, out_root=tmp_path)
    bench.rep(1)
    deviations = bench.check_kalman(bench.reference[1])
    assert all(ok for _, ok, _ in bench.checks), bench.checks
    assert deviations[("true", None)] <= run.KALMAN_TOLERANCE


def test_pinned_repetitions_leave_the_cpu_affinity_and_recorded_nproc_whole(tmp_path):
    allowed = os.sched_getaffinity(0)
    bench = run.Bench(_small("ungm-default", runs=1), seed=2, out_root=tmp_path)
    bench.rep(1)
    bench.setup_probes(1)
    assert os.sched_getaffinity(0) == allowed
    assert bench.environment["nproc"] == len(allowed)
    assert run.environment(bench)["nproc"] == len(allowed)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]
