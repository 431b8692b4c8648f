#!/usr/bin/env python3
"""evopid benchmark: run one workload for a fixed time, check every output, print metrics.

    python3 perfbench/run.py --workload tune --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced and traced

With ``--trace 0`` the last stdout line is a JSON object holding the end-to-end
metrics, measured with tracing off. With ``--trace 1`` it holds the per-layer
metrics of a traced run, which runs each operation untraced, with span
wrappers only, and with per-sample wrappers only (see tracing.py), and
reports the tracing overhead of each traced pass. Run from the repository
root or anywhere else; the program is imported from ``src/`` next to this
directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("tune", "sweep", "oracle", "step_long")

# a tail needs at least ten operations beyond it
TAIL_BEYOND = 10
SETUP_REPEATS = 9
# Set-up is gated in seconds on a host where a fresh interpreter imports NumPy in SETUP_REF_S.
# Interpreter start-up drifts with this host by up to 1.5x, and a pure-Python loop does not
# track it, but the NumPy-import child does; see README.md.
SETUP_REF_CODE = "import numpy"
SETUP_REF_S = 0.15

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ref.mean": "ref",
    "scored_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}
REFERENCE_STEPS = 30_000


def _reference_step(state, error, dt):
    integral, prev = state
    integral += error * dt
    return (integral, error), 0.5 * error + 0.05 * integral + 0.001 * (error - prev) / dt


def reference_s() -> float:
    """Wall time of a fixed pure-Python PID-and-lag loop that shares no code with evopid.

    This host's speed drifts by a factor of up to two over minutes. Timed between
    operations, the loop measures that drift, and dividing by it cancels it; see README.md.
    """
    velocity, state, dt = 0.0, (0.0, 0.0), 0.02
    decay = math.exp(-dt / 0.5)
    t0 = time.perf_counter()
    for k in range(REFERENCE_STEPS):
        error = (-0.3 if k < REFERENCE_STEPS // 2 else 0.3) - velocity
        state, command = _reference_step(state, error, dt)
        command = 2.0 if command > 2.0 else -2.0 if command < -2.0 else command
        velocity = command + (velocity - command) * decay
    return time.perf_counter() - t0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="evopid benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_metadata(seed: int) -> dict:
    """Recorded next to the numbers, never gated."""
    import numpy

    commit = "unknown"
    # only this checkout's own history; a bare copy of the files must not pick up an enclosing repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_commit": commit,
        "workload_seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def _child_s(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def measure_setup(workload) -> tuple[float, float, float]:
    """Set-up time of a fresh interpreter that imports evopid and builds the workload's inputs.

    Each set-up child runs between two reference children that only import NumPy,
    evopid's one dependency. Returns the median of set-up over the mean of its
    two neighbouring references, scaled to seconds at ``SETUP_REF_S``, and, not
    gated, the median set-up and reference times in seconds.
    """
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n" + workload.setup_code
    # the first child compiles bytecode, which users pay once per install, not per call
    _child_s(code)
    refs, times = [_child_s(SETUP_REF_CODE)], []
    for _ in range(SETUP_REPEATS):
        times.append(_child_s(code))
        refs.append(_child_s(SETUP_REF_CODE))
    ratios = [t / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:])]
    return statistics.median(ratios) * SETUP_REF_S, statistics.median(times), statistics.median(refs)


def execute(op, records: dict, tracer=None, run_id: str = ""):
    """Time one operation, then check it; returns (seconds, gain sets scored, problems)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            with tracer.recording(run_id):
                result = op.run()
    except Exception as exc:  # an operation that raises counts as failed, the run goes on
        return time.perf_counter() - t0, 0, [f"raised {exc!r}"]
    elapsed = time.perf_counter() - t0
    try:
        scored, fingerprint, problems = op.inspect(result)
    except Exception as exc:
        return elapsed, 0, [f"output check raised {exc!r}"]
    expected = records.get(op.key)
    if expected is not None and fingerprint != expected:
        problems.append(f"output of {op.key} differs from records.json")
    return elapsed, scored, problems


def tail(times: list[float]) -> str:
    """The highest percentile with at least ten operations beyond it, with that percentile."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return f"n/a (needs more than {TAIL_BEYOND} operations)"
    return f"{sorted(times)[n - TAIL_BEYOND - 1]:.6g} s (p{100.0 * (n - TAIL_BEYOND) / n:.1f})"


def report_problem(k: int, problems: list[str]) -> None:
    for p in problems:
        print(f"op {k} FAILED: {p}", file=sys.stderr)


def untraced_run(workload, records, seconds: float, seed: int) -> tuple[dict, int, int]:
    setup_s, setup_wall_s, setup_ref_s = measure_setup(workload)
    times, refs, in_refs, scored, failed = [], [reference_s()], [], 0, 0
    deadline = time.perf_counter() + seconds
    k = 0
    # whole cycles only, so every run sees the same mix of operations
    while k % workload.cycle or time.perf_counter() < deadline:
        elapsed, n, problems = execute(workload.op(k), records)
        refs.append(reference_s())
        report_problem(k, problems)
        failed += bool(problems)
        times.append(elapsed)
        # the host's speed during the operation, from the reference runs either side of it
        in_refs.append(elapsed / ((refs[-2] + refs[-1]) / 2))
        scored += n
        k += 1
    # Seconds are printed, not gated: they drift with the host's speed by more than any bound allows.
    print(
        f"{workload.name}: n={k} operations, op_s.mean = {statistics.fmean(times):.6g} s, "
        f"op_s.p50 = {statistics.median(times):.6g} s, op_s.tail = {tail(times)}, "
        f"scored_per_s = {scored / sum(times):.6g} 1/s, ref = {statistics.fmean(refs):.6g} s, "
        f"setup wall = {setup_wall_s:.6g} s, NumPy-import child = {setup_ref_s:.6g} s"
    )
    metrics = {
        "setup_s": setup_s,
        "op_ref.mean": statistics.fmean(in_refs),
        "scored_per_ref": scored / sum(in_refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}, k, failed


def traced_run(workload, records, seconds: float, seed: int) -> tuple[dict, int, int]:
    from tracing import LAYER_METRICS, Tracer, combine_cycles, layer_metrics, write_spans

    passes, per_cycle, failed = [], [], 0
    times = {"plain": [], "boundary": [], "sampled": []}
    deadline = time.perf_counter() + seconds
    k = 0
    while k % workload.cycle or not per_cycle or time.perf_counter() < deadline:
        if k % workload.cycle == 0:
            passes.append((Tracer(per_sample=False), Tracer(per_sample=True)))
        op = workload.op(k)
        # untraced, then with span wrappers only, then with per-sample wrappers only
        for kind, tracer in zip(times, (None, *passes[-1])):
            elapsed, _, problems = execute(op, records, tracer, f"{workload.name}-{seed}-{k}")
            report_problem(k, problems)
            failed += bool(problems)
            times[kind].append(elapsed)
        k += 1
        if k % workload.cycle == 0:
            per_cycle.append(layer_metrics(*passes[-1]))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.csv"
    write_spans([boundary for boundary, _ in passes], spans_path)
    print(f"{workload.name}: {len(per_cycle)} traced cycles of {workload.cycle} operations, spans in {spans_path}")
    # a metric whose target is missing reads 0 because nothing was measured, not because nothing was done
    unwrapped = sorted(set().union(*(tracer.unwrapped for pair in passes for tracer in pair)))
    print("unwrapped: " + json.dumps(unwrapped))
    metrics = {name: (value, LAYER_METRICS[name][0]) for name, value in combine_cycles(per_cycle).items()}
    plain = statistics.fmean(times["plain"])
    metrics["trace.span_overhead_s"] = (statistics.fmean(times["boundary"]) - plain, "s")
    metrics["trace.sample_overhead_s"] = (statistics.fmean(times["sampled"]) - plain, "s")
    return metrics, len(times) * k, failed


def run_one(args) -> int:
    if not (SRC / "evopid" / "__init__.py").is_file():
        print(f"error: no evopid sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import evopid

    if Path(evopid.__file__).resolve().parent != SRC / "evopid":
        print(f"error: imported evopid from {evopid.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    records = json.loads((HERE / "records.json").read_text())[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        run = traced_run if args.trace else untraced_run
        metrics, attempted, failed = run(workload, records, args.seconds, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("meta: " + json.dumps(run_metadata(args.seed)))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; summary in .perfbench/summary.json."""
    summary = {"meta": run_metadata(args.seed), "workloads": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("meta: ")))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"error: {name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= not result["correct"]
            summary["workloads"].setdefault(name, {})[kind] = result
            for line in lines:
                if line.startswith("unwrapped: "):
                    summary["workloads"][name]["unwrapped"] = json.loads(line.removeprefix("unwrapped: "))
    OUT.mkdir(exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {OUT / 'summary.json'}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    # single-threaded numerics, set before numpy loads and inherited by every child
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
