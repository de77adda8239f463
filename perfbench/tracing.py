"""Outside-in tracing of the pcrlb pipeline.

The tracer wraps each traced public function of the package and rebinds the
wrapper under every name a `pcrlb` module holds the original by.  For example
`spd_inverse` is defined in `pcrlb.linalg` and imported into `pcrlb.fim`,
`pcrlb.filters`, `pcrlb.experiment` and `pcrlb.cli`; all five names point at
the wrapper while the tracer is installed.  The package source is untouched.

A span records one call: an id, the id of the span that was open when the
call began (its parent, -1 for none), the span name, start and end times from
`time.perf_counter`, and a note (an integer some spans count, see `LAYERS`).
Spans are kept in memory; the caller writes them out when the run ends.

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

import numpy as np


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float
    note: int = 0


def _regularize_repaired(result, args, kwargs) -> int:
    """1 when regularize_cov returned something other than its symmetrised input."""
    cov = np.asarray(args[0] if args else kwargs["cov"], dtype=float)
    return int(not np.array_equal(result, 0.5 * (cov + cov.T)))


def _particle_steps(result, args, kwargs) -> int:
    """Particle steps N * T of one run_pf call."""
    n_particles = args[2] if len(args) > 2 else kwargs["n_particles"]
    return int(n_particles) * len(result)


def _bytes_written(result, args, kwargs) -> int:
    return (args[0] if args else kwargs["path"]).stat().st_size


def _gap_violations(result, args, kwargs) -> int:
    return sum(int(g["violations"].sum()) for g in result.gaps.values())


# span name -> (defining module, function names, note).  A span name covers
# several functions where the layer has one function per channel.
LAYERS: dict[str, tuple[str, tuple[str, ...], Optional[Callable]]] = {
    "model.sample_trajectory": ("pcrlb.model", ("sample_trajectory",), None),
    "filters.run_ukf": ("pcrlb.filters", ("run_ukf",), None),
    "filters.run_pf": ("pcrlb.filters", ("run_pf",), _particle_steps),
    "filters.systematic_resample": ("pcrlb.filters", ("systematic_resample",), None),
    "filters.regularize_cov": ("pcrlb.filters", ("regularize_cov",), _regularize_repaired),
    "moments.propagate": ("pcrlb.moments", ("propagate_state_moments",
                                            "propagate_measurement_moments"), None),
    "moments.map_derivatives": ("pcrlb.moments", ("state_moment_map_derivatives",
                                                  "measurement_moment_map_derivatives"), None),
    "fim.true_fim_terms_mc": ("pcrlb.fim", ("true_fim_terms_mc",), None),
    "fim.mean_only_terms": ("pcrlb.fim", ("mean_only_terms",), None),
    "fim.fim_recursion_step": ("pcrlb.fim", ("fim_recursion_step",), None),
    "fim.decompose_terms": ("pcrlb.fim", ("decompose_terms",), None),
    "fim.fim_via_decomposition": ("pcrlb.fim", ("fim_via_decomposition",),
                                  lambda result, args, kwargs: int(result.pi_fallback)),
    "fim.bound_difference": ("pcrlb.fim", ("bound_difference",),
                             lambda result, args, kwargs: int(result[1])),
    "linalg.spd_inverse": ("pcrlb.linalg", ("spd_inverse",), None),
    "experiment.run_experiment": ("pcrlb.experiment", ("run_experiment",), _gap_violations),
    "experiment.true_bound_series": ("pcrlb.experiment", ("true_bound_series",), None),
    "experiment.aggregate_bounds": ("pcrlb.experiment", ("aggregate_bounds",), None),
    "experiment.rmse_series": ("pcrlb.experiment", ("rmse_series",), None),
    "experiment.gap_series": ("pcrlb.experiment", ("gap_series",), None),
    "cli.config": ("pcrlb.cli", ("config_from_file",), None),
    "cli.write": ("pcrlb.cli", ("write_rmse_csv", "write_bounds_csv",
                                "write_gap_csv", "write_meta"), _bytes_written),
}


class Tracer:
    """Collects spans from the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._rebound: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: int, name: str, start: float, end: float,
               note: int = 0) -> None:
        self._stack.pop()
        self.spans.append(Span(span_id, parent, name, start, end, note))

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call records a span; note(result, args, kwargs) fills its note."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span_id, parent, name, start, time.perf_counter())
                raise
            end = time.perf_counter()
            self._close(span_id, parent, name, start, end,
                        note(result, args, kwargs) if note else 0)
            return result
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the caller's own code."""
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, name, start, time.perf_counter())

    def install(self) -> None:
        """Rebind every traced function under each name a pcrlb module uses."""
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "pcrlb" or n.startswith("pcrlb.")) and m is not None]
        for name, (module_name, functions, note) in LAYERS.items():
            for function in functions:
                original = getattr(sys.modules[module_name], function)
                wrapper = self.wrap(name, original, note)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._rebound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus the union of its children.

    Child intervals are clipped to the parent's interval and merged before
    subtraction, so overlapping children are not counted twice.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = (span.end - span.start) - covered
    return result


class LayerStats(NamedTuple):
    calls: int
    total_s: float   # inclusive time: the sum of the span durations
    self_s: float
    notes: int


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Per span name: call count, inclusive time, self time and summed notes."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    notes: dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span.name] += 1
        total[span.name] += span.end - span.start
        self_s[span.name] += own[span.id]
        notes[span.name] += span.note
    return {name: LayerStats(calls[name], total[name], self_s[name], notes[name])
            for name in calls}
