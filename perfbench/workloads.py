"""The four benchmark workloads, each driven through evopid's public entry points.

Operation ``k`` of a workload run with workload seed ``s`` uses input number
``(s + k) mod instances`` (EP seed ``(s + k // 3) mod instances`` for ``tune``),
so the same seed always gives the same inputs. ``records.json`` holds the exact
output of every input, so every operation of every seed is compared with it.
Every operation must also pass the invariant checks here.

Calls go through module attributes (``evopid.cli.cli_main``,
``evopid.ep.run_ep``, ...) at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import evopid.cli
import evopid.ep
import evopid.harness
import evopid.metrics

TUNE_FILES = ("generations.csv", "best_train_trace.csv", "best_test_trace.csv")
MAX_GENERATIONS = 100
STEP_LONG_PHASE = 300.0
STEP_LONG_ROWS = 30_000
# grid points per oracle call: 11 kp x 7 ki x 4 kd = 308, about 0.4 s, so a 20 s run holds
# enough calls for the speed reference between them to track the host (see README.md)
ORACLE_SHAPE = (11, 7, 4)
ORACLE_SPOT_CHECKS = 8


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``inspect`` checks its output afterwards.

    ``inspect`` returns (gain sets scored, fingerprint compared with the record, problems).
    """

    key: str
    run: Callable[[], Any]
    inspect: Callable[[Any], tuple[int, Any, list[str]]]


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``evopid`` in-process with its console output captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = evopid.cli.cli_main(argv)
    return code, err.getvalue()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def history_problems(generations: list[list[tuple[float, float]]], population: int) -> list[str]:
    """Invariants of any EP history: shape, finite nonnegative AEs, elitist best never worsens."""
    problems = []
    if not 1 <= len(generations) <= MAX_GENERATIONS:
        problems.append(f"{len(generations)} generations, expected 1..{MAX_GENERATIONS}")
    best_prev = (math.inf, math.inf)
    for g, members in enumerate(generations):
        if len(members) != population:
            problems.append(f"generation {g} has {len(members)} members, expected {population}")
        if not all(math.isfinite(ae) and ae >= 0.0 for pair in members for ae in pair):
            problems.append(f"generation {g} has a nonfinite or negative AE")
            continue
        best = (min(m[0] for m in members), min(m[1] for m in members))
        if best[0] > best_prev[0] or best[1] > best_prev[1]:
            problems.append(f"generation {g} best AE {best} worse than before {best_prev}")
        best_prev = best
    return problems


class Tune:
    """``evopid tune`` for presets 1, 2, 3 in turn; the EP seed is the workload seed plus the cycle index, mod 20."""

    name = "tune"
    cycle = 3
    instances = 20
    setup_code = (
        "import evopid.cli\n"
        "from evopid.harness import build_experiment_spec\n"
        "for p in (1, 2, 3):\n"
        "    build_experiment_spec(p)\n"
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def op(self, k: int) -> Op:
        preset, ep_seed = 1 + k % 3, (self.seed + k // 3) % self.instances
        out = self.workdir / f"tune-{k}"
        argv = ["tune", "--experiment", str(preset), "--seed", str(ep_seed), "--out", str(out)]
        population = evopid.harness.EXPERIMENT_TABLE[preset][1]
        return Op(f"p{preset}-s{ep_seed}", lambda: call_cli(argv), lambda r: self._inspect(r, out, population))

    @staticmethod
    def _inspect(result, out: Path, population: int):
        code, err = result
        if code != 0:
            return 0, None, [f"exit code {code}: {err.strip()}"]
        try:
            fingerprint = {name: sha256_file(out / name) for name in TUNE_FILES}
            generations: dict[int, list[tuple[float, float]]] = {}
            with open(out / "generations.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            for row in rows:
                generations.setdefault(int(row[0]), []).append((float(row[8]), float(row[9])))
            problems = history_problems([generations[g] for g in sorted(generations)], population)
            # result.json embeds the output path, so it is checked for consistency, not digested
            result_json = json.loads((out / "result.json").read_text())
            if result_json["generations_run"] != len(generations):
                problems.append("result.json generations_run disagrees with generations.csv")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return len(rows), fingerprint, problems


class Sweep:
    """``run_ep`` with experiment-2 settings over consecutive EP seeds, no I/O."""

    name = "sweep"
    cycle = 1
    instances = 64
    setup_code = "import evopid\nevopid.build_experiment_spec(2)\n"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.spec = evopid.harness.build_experiment_spec(2)

    def op(self, k: int) -> Op:
        spec = self.spec
        config = dataclasses.replace(spec.ep, rng_seed=(self.seed + k) % self.instances)

        def evaluator(individual):
            return evopid.metrics.fitness_of(individual, spec.train_route, spec.plant, spec.sim)

        return Op(f"s{config.rng_seed}", lambda: evopid.ep.run_ep(config, evaluator), self._inspect)

    def _inspect(self, result):
        generations = [[(m.ae_linear, m.ae_angular) for m in rec.members] for rec in result.history]
        best_per_generation = [
            (rec.members[rec.fittest_linear_index].ae_linear, rec.members[rec.fittest_angular_index].ae_angular)
            for rec in result.history
        ]
        fingerprint = {
            "best": list(result.best.as_flat()),
            "generations": len(result.history),
            "best_ae_sha256": hashlib.sha256(repr(best_per_generation).encode()).hexdigest(),
        }
        scored = sum(len(members) for members in generations)
        return scored, fingerprint, history_problems(generations, self.spec.ep.population_size)


def oracle_grid(index: int) -> evopid.harness.GainGrid:
    """Dense kp x ki x kd grid whose axis ranges are drawn from ``index``."""
    rng = random.Random(index)
    kp_max, ki_max, kd_max = rng.uniform(1.0, 3.0), rng.uniform(0.1, 0.5), rng.uniform(0.01, 0.05)
    n_kp, n_ki, n_kd = ORACLE_SHAPE
    return evopid.harness.GainGrid(
        kp_values=tuple(kp_max * j / (n_kp - 1) for j in range(n_kp)),
        ki_values=tuple(ki_max * j / (n_ki - 1) for j in range(n_ki)),
        kd_values=tuple(kd_max * j / (n_kd - 1) for j in range(n_kd)),
    )


class Oracle:
    """``grid_oracle`` on the train route over a fresh dense grid per operation; never calls ``ep``."""

    name = "oracle"
    cycle = 1
    instances = 32
    setup_code = (
        "import evopid\n"
        "evopid.build_environment()\n"
        "evopid.GainGrid(tuple(j / 10 for j in range(11)), tuple(j / 60 for j in range(7)), "
        "tuple(j / 300 for j in range(4)))\n"
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.plant, self.sim, routes = evopid.harness.build_environment()
        self.route = routes["train"]

    def op(self, k: int) -> Op:
        index = (self.seed + k) % self.instances
        grid = oracle_grid(index)
        return Op(
            f"g{index}",
            lambda: evopid.harness.grid_oracle(self.route, self.plant, self.sim, grid),
            lambda r: self._inspect(r, grid, index),
        )

    def _evaluate(self, linear, angular):
        individual = evopid.ep.Individual(linear, angular)
        return evopid.metrics.fitness_of(individual, self.route, self.plant, self.sim)

    def _inspect(self, result, grid, index: int):
        fingerprint = list(result.linear_gains.as_tuple() + result.angular_gains.as_tuple()) + [
            result.ae_linear,
            result.ae_angular,
        ]
        problems = []
        axes = (grid.kp_values, grid.ki_values, grid.kd_values)
        for gains in (result.linear_gains, result.angular_gains):
            if not all(v in axis for v, axis in zip(gains.as_tuple(), axes)):
                problems.append(f"{gains} is not a grid point")
        if not all(math.isfinite(ae) and ae >= 0.0 for ae in (result.ae_linear, result.ae_angular)):
            problems.append("nonfinite or negative oracle AE")
        again = self._evaluate(result.linear_gains, result.angular_gains)
        if (again.ae_linear, again.ae_angular) != (result.ae_linear, result.ae_angular):
            problems.append("oracle AE does not match a fresh evaluation of its gains")
        rng = random.Random(-1 - index)
        for _ in range(ORACLE_SPOT_CHECKS):
            gains = evopid.ep.Gains(*(rng.choice(axis) for axis in axes))
            point = self._evaluate(gains, gains)
            if point.ae_linear < result.ae_linear or point.ae_angular < result.ae_angular:
                problems.append(f"grid point {gains} beats the oracle")
        return len(grid.kp_values) * len(grid.ki_values) * len(grid.kd_values), fingerprint, problems


class StepLong:
    """``evopid step`` on a 300 s-per-phase test route, writing the 30,000-row trace CSV."""

    name = "step_long"
    cycle = 1
    instances = 256
    setup_code = (
        "import evopid.cli\n"
        "from evopid.harness import build_environment\n"
        f"build_environment({{'route.test.phase_duration': {STEP_LONG_PHASE!r}}})\n"
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.config = workdir / "step_long.cfg"
        self.config.write_text(f"route.test.phase_duration = {STEP_LONG_PHASE!r}\n")

    @staticmethod
    def gains(index: int) -> list[float]:
        rng = random.Random(index)
        return [rng.uniform(0.0, high) for high in (1.0, 0.1, 0.01, 1.0, 0.1, 0.01)]

    def op(self, k: int) -> Op:
        index = (self.seed + k) % self.instances
        out = self.workdir / f"step-{k}.csv"
        argv = [
            "step",
            "--gains",
            ",".join(repr(g) for g in self.gains(index)),
            "--route",
            "test",
            "--out",
            str(out),
            "--config",
            str(self.config),
        ]
        return Op(f"g{index}", lambda: call_cli(argv), lambda r: self._inspect(r, out))

    @staticmethod
    def _inspect(result, out: Path):
        code, err = result
        if code != 0:
            return 0, None, [f"exit code {code}: {err.strip()}"]
        try:
            fingerprint = sha256_file(out)
            with open(out, newline="") as fh:
                rows = list(csv.reader(fh))
        finally:
            out.unlink(missing_ok=True)
        route = evopid.harness.DEFAULT_TEST_ROUTE
        problems = []
        if len(rows) != STEP_LONG_ROWS + 1:
            problems.append(f"{len(rows) - 1} trace rows, expected {STEP_LONG_ROWS}")
        for row in rows[1:]:
            values = [float(v) for v in row]
            if len(values) != 5 or not all(math.isfinite(v) for v in values):
                problems.append(f"bad trace row {row}")
                break
            expected = route.start if values[0] < STEP_LONG_PHASE else route.end
            if values[1] != expected or values[3] != expected:
                problems.append(f"setpoint at t={values[0]} is not {expected}")
                break
        return 1, fingerprint, problems


WORKLOADS = {w.name: w for w in (Tune, Sweep, Oracle, StepLong)}
