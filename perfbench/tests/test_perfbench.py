"""Self-checks of the benchmark: exact layer counts, self-time arithmetic, metric names.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import evopid.plant  # noqa: E402
import run  # noqa: E402
from tracing import LAYER_METRICS, Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, Op, Tune  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def traced_tune_preset2_seed0(tmp_path):
    op = Tune(0, tmp_path).op(1)
    assert op.key == "p2-s0"
    passes = (Tracer(per_sample=False), Tracer(per_sample=True))
    original = evopid.plant.pid_step
    for tracer in passes:
        with tracer.recording("tune-0-1"):
            result = op.run()
        assert evopid.plant.pid_step is original
        assert tracer.unwrapped == set()
        scored, _, problems = op.inspect(result)
        assert problems == []
        assert scored == 1000
    # each pass installs only its own wrappers
    assert passes[0].samples["pid.pid_step"] == [0, 0.0]
    assert passes[1].spans == []
    return layer_metrics(*passes)


def test_exact_counts_repeat_for_tune_preset2_seed0(tmp_path):
    first = traced_tune_preset2_seed0(tmp_path)
    second = traced_tune_preset2_seed0(tmp_path)
    counts = {name for name, (_, kind) in LAYER_METRICS.items() if kind == "count"}
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["ep.evaluations"] == 1000
    assert first["ep.generations"] == 100
    # 1000 train-route evaluations plus the test-route score of the winner
    assert first["metrics.fitness_of.calls"] == 1001
    assert first["metrics.average_error.calls"] == 2002
    assert first["ep.distinct_ratio"] == pytest.approx(0.919, abs=1e-12)
    # the two replays for the trace CSVs are the other two simulations
    assert first["plant.simulate_route.calls"] == 1003
    assert first["pid.pid_step.calls"] == 601800
    assert first["plant.sample_channels"] == 601800
    assert first["harness.export_trace_rows"] == 600
    assert first["metrics.diverged"] == 0


def test_self_time_subtracts_child_coverage():
    spans = [
        Span("r", 0, None, "root", 0.0, 10.0),
        Span("r", 1, 0, "a", 1.0, 4.0),
        Span("r", 2, 0, "b", 3.0, 6.0),  # overlaps a: coverage is the union 1..6
        Span("r", 3, 1, "c", 1.5, 2.0),
        Span("r", 4, 0, "d", 9.5, 11.0),  # runs past its parent: only 9.5..10 counts
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.5)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(0.5)
    assert own[4] == pytest.approx(1.5)


def test_layer_metrics_take_span_times_from_the_boundary_pass_and_busy_times_from_the_sampled_pass():
    boundary, sampled = Tracer(per_sample=False), Tracer(per_sample=True)
    boundary.spans = [Span("r", 0, None, "plant.simulate_route", 0.0, 3.0)]
    sampled.samples["plant.plant_step"] = [1000, 2.0]
    metrics = layer_metrics(boundary, sampled)
    assert metrics["plant.simulate_route.self_s"] == pytest.approx(3.0)
    assert metrics["plant.us_per_sample_channel"] == pytest.approx(3000.0)
    assert metrics["plant.sample_channels"] == 1000
    assert metrics["plant.plant_step_s"] == 2.0


def test_missing_target_is_listed_as_unwrapped(monkeypatch):
    monkeypatch.delattr(evopid.plant, "route_setpoint")
    tracer = Tracer(per_sample=True)
    with tracer.recording("r"):
        pass
    assert tracer.unwrapped == {"evopid.plant.route_setpoint"}


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    overheads = {"trace.span_overhead_s": "s", "trace.sample_overhead_s": "s"}
    assert per_layer == {**{n: unit for n, (unit, _) in LAYER_METRICS.items()}, **overheads}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    for name in [*end_to_end, *per_layer, *run.WORKLOAD_NAMES]:
        assert NAME.fullmatch(name), name


def test_tail_keeps_ten_operations_beyond_it():
    times = [float(i) for i in range(20)]
    assert run.tail(times) == "9 s (p50.0)"
    assert run.tail(times[:11]) == "0 s (p9.1)"
    assert run.tail(times[:10]).startswith("n/a")


def test_output_differing_from_its_record_fails():
    op = Op("k", lambda: None, lambda result: (1, "digest", []))
    assert run.execute(op, {"k": "digest"})[1:] == (1, [])
    assert run.execute(op, {"k": "other"})[2] == ["output of k differs from records.json"]
    assert run.execute(op, {})[2] == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_input_of_any_seed_has_a_record(name, tmp_path):
    records = json.loads((BENCH / "records.json").read_text())[name]
    cls = WORKLOADS[name]
    for seed in (0, 7, 10**12 + 7):
        workload = cls(seed, tmp_path)
        keys = {workload.op(k).key for k in range(2 * cls.instances * cls.cycle)}
        assert keys == set(records)
