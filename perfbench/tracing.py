"""Layer tracing from outside the program: wrap evopid's public functions where callers look them up.

Boundary calls (CLI entry, experiment runner, EP loop, one fitness evaluation,
one route simulation, exports) become spans that carry a parent and the run id
of the operation they belong to. Per-sample functions (``pid_step``,
``plant_step``, ``route_setpoint``) are only counted and timed in aggregate,
because a span per sample would cost more than the sample itself.

A per-sample wrapper costs about as much as the function it wraps, so every
operation is traced in two passes. The boundary pass installs the span
wrappers only, and every span time and call count comes from it. The sampled
pass installs the per-sample wrappers only, and their counts and busy times
come from it. A span's self time is its duration minus the part of it that
child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
import os
import statistics
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# layer name -> the (module, attribute) pairs its callers look it up from
SPAN_TARGETS = {
    "cli.main": [("evopid.cli", "cli_main")],
    "harness.run_experiment": [("evopid.cli", "run_experiment")],
    "harness.build_spec": [("evopid.cli", "build_experiment_spec"), ("evopid.cli", "build_environment")],
    "harness.grid_oracle": [("evopid.cli", "grid_oracle"), ("evopid.harness", "grid_oracle")],
    "harness.export_generations": [("evopid.harness", "export_generations")],
    "harness.export_trace": [("evopid.harness", "export_trace"), ("evopid.cli", "export_trace")],
    "ep.run_ep": [("evopid.harness", "run_ep"), ("evopid.ep", "run_ep")],
    "metrics.fitness_of": [("evopid.harness", "fitness_of"), ("evopid.metrics", "fitness_of")],
    "metrics.average_error": [("evopid.metrics", "average_error")],
    "metrics.step_metrics": [("evopid.harness", "step_metrics"), ("evopid.cli", "step_metrics")],
    "plant.simulate_route": [
        ("evopid.metrics", "simulate_route"),
        ("evopid.harness", "simulate_route"),
        ("evopid.cli", "simulate_route"),
        ("evopid.plant", "simulate_route"),
    ],
}
PER_SAMPLE_TARGETS = {
    "pid.pid_step": [("evopid.plant", "pid_step")],
    "plant.plant_step": [("evopid.plant", "plant_step")],
    "plant.route_setpoint": [("evopid.plant", "route_setpoint")],
}

# per-layer metric -> (unit, kind); counts repeat exactly for a seed, times do not
LAYER_METRICS = {
    "cli.main.self_s": ("s", "time"),
    "harness.run_experiment.self_s": ("s", "time"),
    "harness.grid_oracle.self_s": ("s", "time"),
    "harness.build_spec_s": ("s", "time"),
    "harness.export_generations_s": ("s", "time"),
    "harness.export_generations_bytes": ("bytes", "count"),
    "harness.export_trace_s": ("s", "time"),
    "harness.export_trace_rows": ("count", "count"),
    "ep.run_ep.self_s": ("s", "time"),
    "ep.generations": ("count", "count"),
    "ep.evaluations": ("count", "count"),
    "ep.distinct_ratio": ("ratio", "count"),
    "metrics.fitness_of.calls": ("count", "count"),
    "metrics.fitness_of.self_s": ("s", "time"),
    "metrics.average_error.calls": ("count", "count"),
    "metrics.average_error_s": ("s", "time"),
    "metrics.diverged": ("count", "count"),
    "metrics.step_metrics_s": ("s", "time"),
    "plant.simulate_route.calls": ("count", "count"),
    "plant.simulate_route.self_s": ("s", "time"),
    "plant.sample_channels": ("count", "count"),
    "plant.us_per_sample_channel": ("us", "time"),
    "plant.plant_step_s": ("s", "time"),
    "plant.route_setpoint_s": ("s", "time"),
    "pid.pid_step.calls": ("count", "count"),
    "pid.pid_step_s": ("s", "time"),
}


@dataclass(slots=True)
class Span:
    run_id: str
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    error: str | None = None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
    return {
        s.span_id: (s.end - s.start) - _covered(s.start, s.end, [(k.start, k.end) for k in children.get(s.span_id, [])])
        for s in spans
    }


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def clock_cost(repeats: int = 20_001) -> float:
    """Median time between two back-to-back clock reads: the clock's own share of each per-sample timing."""
    gaps = []
    for _ in range(repeats):
        t0 = perf_counter()
        gaps.append(perf_counter() - t0)
    return statistics.median(gaps)


class Tracer:
    """One pass: spans if not ``per_sample``, per-sample aggregates if it is; restores every patch on exit."""

    def __init__(self, per_sample: bool):
        self.per_sample = per_sample
        self.spans: list[Span] = []
        self.samples = {name: [0, 0.0] for name in PER_SAMPLE_TARGETS}
        self.counts: Counter = Counter()
        # targets absent from the program: their metrics read 0 because nothing was measured
        self.unwrapped: set[str] = set()
        self._clock_cost = clock_cost() if per_sample else 0.0
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._run_id = ""

    @contextmanager
    def recording(self, run_id: str):
        """Install the wrappers for one operation; its spans share ``run_id``."""
        self._run_id = run_id
        table, wrap = (PER_SAMPLE_TARGETS, self._sample_wrapper) if self.per_sample else (SPAN_TARGETS, self._span_wrapper)
        saved = []
        try:
            for name, targets in table.items():
                for module_name, attr in targets:
                    module = importlib.import_module(module_name)
                    if hasattr(module, attr):
                        fn = getattr(module, attr)
                        saved.append((module, attr, fn))
                        setattr(module, attr, wrap(name, fn))
                    else:
                        self.unwrapped.add(f"{module_name}.{attr}")
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _span_wrapper(self, name, fn):
        call = _HOOKS.get(name, _plain)(self, fn)
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            span = Span(self._run_id, next(self._ids), stack[-1] if stack else None, name, 0.0)
            stack.append(span.span_id)
            span.start = perf_counter()
            try:
                return call(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                spans.append(span)

        return wrapper

    def _sample_wrapper(self, name, fn):
        acc, cost = self.samples[name], self._clock_cost

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            acc[1] += perf_counter() - t0 - cost
            acc[0] += 1
            return result

        return wrapper


def layer_metrics(boundary: Tracer, sampled: Tracer) -> dict[str, float]:
    """Every per-layer metric of the same operations, traced once by a boundary pass and once by a sampled pass."""
    own = self_times(boundary.spans)
    calls: Counter = Counter()
    incl: Counter = Counter()
    self_s: Counter = Counter()
    for s in boundary.spans:
        calls[s.name] += 1
        incl[s.name] += s.end - s.start
        self_s[s.name] += own[s.span_id]
    by_id = {s.span_id: s for s in boundary.spans}
    diverged = sum(
        1
        for s in boundary.spans
        if s.name == "plant.simulate_route"
        and s.error == "SimulationDiverged"
        and s.parent_id is not None
        and by_id[s.parent_id].name == "metrics.fitness_of"
    )
    counts, samples = boundary.counts, sampled.samples
    sample_channels = samples["plant.plant_step"][0]
    evaluations = counts["ep.evaluations"]
    return {
        "cli.main.self_s": self_s["cli.main"],
        "harness.run_experiment.self_s": self_s["harness.run_experiment"],
        "harness.grid_oracle.self_s": self_s["harness.grid_oracle"],
        "harness.build_spec_s": incl["harness.build_spec"],
        "harness.export_generations_s": incl["harness.export_generations"],
        "harness.export_generations_bytes": counts["harness.export_generations_bytes"],
        "harness.export_trace_s": incl["harness.export_trace"],
        "harness.export_trace_rows": counts["harness.export_trace_rows"],
        "ep.run_ep.self_s": self_s["ep.run_ep"],
        "ep.generations": counts["ep.generations"],
        "ep.evaluations": evaluations,
        "ep.distinct_ratio": counts["ep.distinct"] / evaluations if evaluations else 0.0,
        "metrics.fitness_of.calls": calls["metrics.fitness_of"],
        "metrics.fitness_of.self_s": self_s["metrics.fitness_of"],
        "metrics.average_error.calls": calls["metrics.average_error"],
        "metrics.average_error_s": incl["metrics.average_error"],
        "metrics.diverged": diverged,
        "metrics.step_metrics_s": incl["metrics.step_metrics"],
        "plant.simulate_route.calls": calls["plant.simulate_route"],
        "plant.simulate_route.self_s": self_s["plant.simulate_route"],
        "plant.sample_channels": sample_channels,
        "plant.us_per_sample_channel": incl["plant.simulate_route"] / sample_channels * 1e6 if sample_channels else 0.0,
        "plant.plant_step_s": samples["plant.plant_step"][1],
        "plant.route_setpoint_s": samples["plant.route_setpoint"][1],
        "pid.pid_step.calls": samples["pid.pid_step"][0],
        "pid.pid_step_s": samples["pid.pid_step"][1],
    }


def combine_cycles(per_cycle: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first cycle (they repeat exactly for a seed), times as the median over cycles."""
    return {
        name: per_cycle[0][name] if kind == "count" else statistics.median(c[name] for c in per_cycle)
        for name, (_, kind) in LAYER_METRICS.items()
    }


def write_spans(tracers: list[Tracer], path: os.PathLike) -> None:
    """The spans of every boundary pass as CSV, written once when the benchmark ends."""
    with open(path, "w") as fh:
        fh.write("run_id,span_id,parent_id,name,start_s,end_s,error\n")
        for cycle, tracer in enumerate(tracers):
            for s in tracer.spans:
                parent = "" if s.parent_id is None else f"{cycle}.{s.parent_id}"
                fh.write(f"{s.run_id},{cycle}.{s.span_id},{parent},{s.name},{s.start!r},{s.end!r},{s.error or ''}\n")


def _plain(tracer: Tracer, fn):
    return fn


def _count_run_ep(tracer: Tracer, fn):
    counts = tracer.counts

    def run_ep(config, evaluator, *args, **kwargs):
        seen = set()

        def counted(individual):
            counts["ep.evaluations"] += 1
            seen.add(individual.as_flat())
            return evaluator(individual)

        result = fn(config, counted, *args, **kwargs)
        counts["ep.distinct"] += len(seen)
        counts["ep.generations"] += len(result.history)
        return result

    return run_ep


def _count_export_generations(tracer: Tracer, fn):
    def export_generations(history, path, *args, **kwargs):
        fn(history, path, *args, **kwargs)
        tracer.counts["harness.export_generations_bytes"] += os.path.getsize(path)

    return export_generations


def _count_export_trace(tracer: Tracer, fn):
    def export_trace(trace, path, *args, **kwargs):
        fn(trace, path, *args, **kwargs)
        tracer.counts["harness.export_trace_rows"] += len(trace.linear)

    return export_trace


_HOOKS = {
    "ep.run_ep": _count_run_ep,
    "harness.export_generations": _count_export_generations,
    "harness.export_trace": _count_export_trace,
}
