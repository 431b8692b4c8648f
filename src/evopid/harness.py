"""Experiment runner and persistence: preset experiments, CSV/JSON logging, grid-search baseline."""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
import operator
from array import array
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from .ep import (
    FLAT_GAIN_FIELDS,
    EPConfig,
    EvaluationError,
    GenerationRecord,
    Gains,
    Individual,
    MutationKind,
    MutationSpec,
    StopReason,
    _MAX_MEMBERS,
    _require_finite,
    _require_gains,
    evolve,
)
from .metrics import DIVERGENCE_AE, StepMetrics, _fitness_rows, step_metrics
from .plant import FitnessRecord, PlantParams, RouteSpec, SimConfig, _prepare, check_step_route, simulate_route

DEFAULT_TRAIN_ROUTE = RouteSpec(start=-0.3, end=0.3)
DEFAULT_TEST_ROUTE = RouteSpec(start=0.1, end=0.7)

# experiment id -> (mutation kind, population size)
EXPERIMENT_TABLE = {
    1: (MutationKind.ABSOLUTE, 10),
    2: (MutationKind.SCALED, 10),
    3: (MutationKind.SCALED, 20),
}

GENERATIONS_HEADER = ("generation", "member", *FLAT_GAIN_FIELDS, "ae_linear", "ae_angular")

# grid points per batched kernel call in grid_oracle; bounds its memory on large grids
_ORACLE_CHUNK = 4096
# rows per formatting pass in _write_csv; small, so its temporaries stay small
_CSV_CHUNK = 512

TRACE_HEADER = ("t", "desired_linear", "actual_linear", "desired_angular", "actual_angular")

# Every setting a run takes from outside: dotted config key -> (parsed type, path to the field
# in an ExperimentSpec; an int step indexes a tuple). The order is the order of result.json.
CONFIG_TABLE: dict[str, tuple[type, tuple[str | int, ...]]] = {
    "plant.linear.dc_gain": (float, ("plant", "linear", "dc_gain")),
    "plant.linear.time_constant": (float, ("plant", "linear", "time_constant")),
    "plant.linear.actuator_limit": (float, ("plant", "linear", "actuator_limit")),
    "plant.linear.initial_velocity": (float, ("plant", "linear", "initial_velocity")),
    "plant.angular.dc_gain": (float, ("plant", "angular", "dc_gain")),
    "plant.angular.time_constant": (float, ("plant", "angular", "time_constant")),
    "plant.angular.actuator_limit": (float, ("plant", "angular", "actuator_limit")),
    "plant.angular.initial_velocity": (float, ("plant", "angular", "initial_velocity")),
    "route.train.start": (float, ("train_route", "start")),
    "route.train.end": (float, ("train_route", "end")),
    "route.train.phase_duration": (float, ("train_route", "phase_duration")),
    "route.test.start": (float, ("test_route", "start")),
    "route.test.end": (float, ("test_route", "end")),
    "route.test.phase_duration": (float, ("test_route", "phase_duration")),
    "sim.sample_rate": (float, ("sim", "sample_rate")),
    "ep.population_size": (int, ("ep", "population_size")),
    "ep.max_generations": (int, ("ep", "max_generations")),
    "ep.ae_target": (float, ("ep", "ae_target")),
    "mutation.sigma_absolute": (float, ("ep", "mutation", "sigma_absolute")),
    "mutation.sigma_scaled": (float, ("ep", "mutation", "sigma_scaled")),
    "init.kp.low": (float, ("ep", "init", "kp_bounds", 0)),
    "init.kp.high": (float, ("ep", "init", "kp_bounds", 1)),
    "init.ki.low": (float, ("ep", "init", "ki_bounds", 0)),
    "init.ki.high": (float, ("ep", "init", "ki_bounds", 1)),
    "init.kd.low": (float, ("ep", "init", "kd_bounds", 0)),
    "init.kd.high": (float, ("ep", "init", "kd_bounds", 1)),
}


class ConfigError(ValueError):
    """A config or grid file could not be parsed or used an unknown key; ``key`` is the first key a spec rejected."""

    key: str | None = None


def _check_experiment_id(experiment_id) -> None:
    # `in` alone would take True or 1.0 for experiment 1
    if type(experiment_id) is not int or experiment_id not in EXPERIMENT_TABLE:
        raise ValueError(f"experiment id must be one of {sorted(EXPERIMENT_TABLE)}, got {experiment_id!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One preset tuning run: EP settings, plant, routes, and where to write outputs."""

    experiment_id: int
    ep: EPConfig
    plant: PlantParams
    sim: SimConfig
    train_route: RouteSpec
    test_route: RouteSpec
    output_dir: Path

    def __post_init__(self):
        _check_experiment_id(self.experiment_id)
        kind, _ = EXPERIMENT_TABLE[self.experiment_id]
        if self.ep.mutation.kind is not kind:
            raise ValueError(
                f"experiment {self.experiment_id} uses the {kind.value} mutation, "
                f"got {self.ep.mutation.kind.value}"
            )


@dataclass(frozen=True)
class ResultRecord:
    """The composite best gains, their AE on each route's replay, and step metrics per route and channel."""

    experiment_id: int
    best: Individual
    ae_train: FitnessRecord
    ae_test: FitnessRecord
    step: dict[str, dict[str, StepMetrics]]
    stop_reason: StopReason
    generations_run: int


@dataclass(frozen=True)
class GainGrid:
    """Candidate values per gain for the exhaustive baseline."""

    kp_values: tuple[float, ...]
    ki_values: tuple[float, ...]
    kd_values: tuple[float, ...]

    def __post_init__(self):
        for name in ("kp_values", "ki_values", "kd_values"):
            values = getattr(self, name)
            if len(values) == 0:
                raise ValueError(f"{name} must be nonempty")
            _require_finite(self, name)
            if any(v < 0 for v in values):
                raise ValueError(f"{name} must be nonnegative")
        points = len(self.kp_values) * len(self.ki_values) * len(self.kd_values)
        if points > _MAX_MEMBERS:
            raise ValueError(f"a grid of {points:,} points is more than the limit of {_MAX_MEMBERS:,}")


@dataclass(frozen=True)
class GridOracleResult:
    linear_gains: Gains
    angular_gains: Gains
    ae_linear: float
    ae_angular: float


def _read_assignments(path: Path) -> dict[str, tuple[int, str]]:
    """A file's `key = value` lines as key -> (line number, value text); `#` comments and blank lines are skipped.

    Raises ConfigError, naming the file and line, on a read error, a line without `=` and a repeated key.
    """
    try:
        # universal newlines end a line only at \n, \r\n or \r; splitlines() would also split at U+2028 and kin
        lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    assignments: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw.strip()!r}")
        if key in assignments:
            raise ConfigError(f"{path}:{lineno}: {key} is given again; line {assignments[key][0]} gave it first")
        assignments[key] = (lineno, value.strip())
    return assignments


def parse_config_file(path: Path, lines: dict[str, int] | None = None) -> dict[str, float]:
    """Read a flat `key = value` override file (# comments and blank lines allowed); ``lines`` gets each key's line."""
    overrides: dict[str, float] = {}
    for key, (lineno, value) in _read_assignments(path).items():
        if key not in CONFIG_TABLE:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} (valid keys: {', '.join(sorted(CONFIG_TABLE))})")
        try:
            overrides[key] = CONFIG_TABLE[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
        if not math.isfinite(overrides[key]):
            raise ConfigError(f"{path}:{lineno}: {key} must be finite, got {value!r}")
        if lines is not None:
            lines[key] = lineno
    return overrides


def parse_grid_file(path: Path) -> GainGrid:
    """Read per-gain value lists: lines `kp = v1, v2, ...`; a missing gain defaults to 0."""
    axes: dict[str, tuple[float, ...]] = {}
    for key, (lineno, value) in _read_assignments(path).items():
        if key not in ("kp", "ki", "kd"):
            raise ConfigError(f"{path}:{lineno}: expected `kp|ki|kd = values`, got key {key!r}")
        try:
            values = tuple(float(v) for v in value.replace(",", " ").split())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
        if not values:
            raise ConfigError(f"{path}:{lineno}: {key} lists no values")
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            raise ConfigError(f"{path}:{lineno}: {key} values must be finite and nonnegative, got {value!r}")
        axes[key] = values
    if not axes:
        raise ConfigError(f"{path}: grid file defines no gain values")
    try:
        return GainGrid(*(axes.get(key, (0.0,)) for key in ("kp", "ki", "kd")))
    except ValueError as exc:  # the point cap: the values are finite and nonnegative
        raise ConfigError(f"{path}: {exc}") from None


def _field(node, path: tuple[str | int, ...]):
    """The value at a CONFIG_TABLE path inside nested dataclasses and tuples."""
    for step in path:
        node = node[step] if isinstance(step, int) else getattr(node, step)
    return node


def _replace_fields(node, values: Mapping[tuple[str | int, ...], tuple[str, object]]):
    """A copy of ``node`` with the value at each path replaced; ``values`` maps a path to (config key, value).

    Each dataclass or tuple on the paths is rebuilt once with all of its new values, so its checks see only the
    final combination (a low bound may pass the old high one); a check that fails names that object's keys.
    """
    by_step: dict[str | int, dict[tuple[str | int, ...], tuple[str, object]]] = {}
    for (step, *rest), item in values.items():
        by_step.setdefault(step, {})[tuple(rest)] = item
    new = {
        step: sub[()][1] if () in sub else _replace_fields(_field(node, (step,)), sub)
        for step, sub in by_step.items()
    }
    if isinstance(node, tuple):
        return tuple(new.get(i, old) for i, old in enumerate(node))
    try:
        return replace(node, **new)
    except ValueError as exc:
        error = ConfigError(f"{', '.join(key for key, _ in values.values())}: {exc}")
        error.key = next(iter(values.values()))[0]
        raise error from None


def build_environment(
    overrides: Mapping[str, float] | None = None,
) -> tuple[PlantParams, SimConfig, dict[str, RouteSpec]]:
    """Plant, sim settings, and the train/test routes, with config overrides applied."""
    # every preset shares the plant, sim and routes; the EP overrides are checked all the same
    spec = build_experiment_spec(1, overrides=overrides)
    return spec.plant, spec.sim, {"train": spec.train_route, "test": spec.test_route}


def build_experiment_spec(
    experiment_id: int,
    seed: int = 0,
    output_dir: Path | str | None = None,
    overrides: Mapping[str, float] | None = None,
) -> ExperimentSpec:
    """Assemble a preset experiment; config overrides may adjust everything but the mutation kind.

    Raises ConfigError, naming the key as parse_config_file does, on a key not in CONFIG_TABLE, on a value that is
    not a finite real number (a bool, a string, a NaN), on one an int key would truncate (2.7 for a population size)
    and on one the spec object it sets rejects (a dc_gain of 0), naming every key given to that object; and, naming
    the route, on a route _prepare rejects: no samples, over its sample cap, or an overflowing first error. Its
    ``key`` is then the first override, in CONFIG_TABLE order, among that route's keys, sim.sample_rate and the two
    initial velocities, or None where none of them is overridden.
    """
    _check_experiment_id(experiment_id)
    kind, population_size = EXPERIMENT_TABLE[experiment_id]
    if output_dir is None:
        output_dir = Path("results") / f"experiment_{experiment_id}"
    preset = ExperimentSpec(
        experiment_id=experiment_id,
        ep=EPConfig(population_size=population_size, mutation=MutationSpec(kind), rng_seed=seed),
        plant=PlantParams(),
        sim=SimConfig(),
        train_route=DEFAULT_TRAIN_ROUTE,
        test_route=DEFAULT_TEST_ROUTE,
        output_dir=Path(output_dir),
    )
    values = {}
    for key, value in (overrides or {}).items():
        if key not in CONFIG_TABLE:
            raise ConfigError(f"unknown config key {key!r} (valid keys: {', '.join(sorted(CONFIG_TABLE))})")
        parse, path = CONFIG_TABLE[key]
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        try:
            number = parse(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
        if not math.isfinite(number):
            raise ConfigError(f"{key} must be finite, got {value!r}")
        if parse is int and number != value:
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        values[path] = (key, number)
    spec = _replace_fields(preset, values)
    for name, route in (("train", spec.train_route), ("test", spec.test_route)):
        try:
            _prepare(route, spec.plant, spec.sim)
        except ValueError as exc:
            error = ConfigError(f"route.{name}: {exc}")
            # the key is the first override, in CONFIG_TABLE order, of a value this check reads
            initial = ("plant.linear.initial_velocity", "plant.angular.initial_velocity")
            read, given = (f"route.{name}.", "sim.sample_rate", *initial), {key for key, _ in values.values()}
            error.key = next((key for key in CONFIG_TABLE if key in given and key.startswith(read)), None)
            raise error from None
    return spec


def _write_csv(path: Path, header: Sequence[str], columns: Sequence[array]) -> None:
    """The one CSV format: the header, then one `\\n` line per row of the equal-length array("d")
    or array("q") columns, each cell the `repr` of its Python number, comma-joined.

    It formats _CSV_CHUNK rows at a time, column by column, and a chunk whose values all have the
    bits of its first once (bits, so that 0.0 and -0.0 stay apart).
    """
    width = len(columns)
    line = ["", ","] * (width - 1) + ["", "\n"]  # one row: its cells go in the even slots
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK):
            rows = min(_CSV_CHUNK, len(columns[0]) - start)
            cells = line * rows
            for j, column in enumerate(columns):
                chunk = column[start : start + rows]
                raw = chunk.tobytes()
                constant = raw == raw[: chunk.itemsize] * rows
                cells[2 * j :: 2 * width] = [repr(chunk[0])] * rows if constant else list(map(repr, chunk))
            fh.write("".join(cells))


def _write_json(path: Path, payload) -> None:
    """The one JSON format: indent 2 and a final newline, UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def export_generations(history: Sequence[GenerationRecord], path: Path) -> None:
    """One CSV row per (generation, member), floats at full round-trip precision."""
    if len(history) == 0:
        raise ValueError("history is empty")
    # each record's rows are the eight doubles of its CSV rows, so a library caller's int gain is written 1.0, not 1
    values = array("d", b"".join(record.rows for record in history))
    sizes = [len(record.rows) // 64 for record in history]
    indices = [record.generation_index for record in history]
    generations = array("q", itertools.chain.from_iterable(map(itertools.repeat, indices, sizes)))
    members = array("q", itertools.chain.from_iterable(map(range, sizes)))
    _write_csv(path, GENERATIONS_HEADER, (generations, members, *(values[j::8] for j in range(8))))


def load_generations(path: Path) -> list[GenerationRecord]:
    """Rebuild the nonempty history export_generations wrote, in its row order; an error names the file and line."""
    groups: list[array] = []  # per generation, its members' rows
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is not None and tuple(header) != GENERATIONS_HEADER:
                raise ValueError(f"{path}: unexpected header {header!r}")
            for row in reader:
                try:
                    if len(row) != len(GENERATIONS_HEADER):
                        raise ValueError(f"expected {len(GENERATIONS_HEADER)} columns, got {len(row)}")
                    values = [float(v) for v in row[2:8]]
                    _require_gains(values)
                    values += float(row[8]), float(row[9])
                    generation, index = int(row[0]), int(row[1])
                    # the next row holds (0, 0) first, then (g, m + 1) or (g + 1, 0)
                    allowed = ((len(groups) - 1, len(groups[-1]) // 8), (len(groups), 0)) if groups else ((0, 0),)
                    if (generation, index) not in allowed:
                        expected = " or ".join(map(str, allowed))
                        raise ValueError(f"expected (generation, member) {expected}, got {(generation, index)}")
                except ValueError as exc:
                    raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
                if index == 0:
                    groups.append(array("d"))
                groups[-1].extend(values)
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    if not groups:
        raise ValueError(f"{path}: the file holds no generations")
    try:
        return [GenerationRecord._from_rows(number, rows) for number, rows in enumerate(groups)]
    except EvaluationError as exc:
        raise EvaluationError(f"{path}: {exc}", generation=exc.generation) from None


def export_trace(trace, path: Path) -> None:
    """Both channels' sampled route run as CSV (columns: t, desired/actual per channel)."""
    columns = (
        trace.linear.time,
        trace.linear.desired,
        trace.linear.actual,
        trace.angular.desired,
        trace.angular.actual,
    )
    # repr of a Python float round-trips at full precision and never needs CSV quoting
    _write_csv(path, TRACE_HEADER, [array("d", column) for column in columns])


def result_as_dict(record: ResultRecord, spec: ExperimentSpec) -> dict:
    return {
        # the run's settings: build_experiment_spec(id, seed=seed, overrides=config) rebuilds the spec
        "experiment": {
            "id": spec.experiment_id,
            "seed": spec.ep.rng_seed,
            "mutation": spec.ep.mutation.kind.value,
            "config": {key: _field(spec, path) for key, (_, path) in CONFIG_TABLE.items()},
            "output_dir": str(spec.output_dir),
        },
        "result": {
            name: {**asdict(getattr(record.best, name)), "ae_train": record.ae_train[i], "ae_test": record.ae_test[i]}
            for i, name in enumerate(("linear", "angular"))
        },
        "step_metrics": {
            route: {name: asdict(metrics) for name, metrics in channels.items()}
            for route, channels in record.step.items()
        },
        "stop_reason": record.stop_reason.value,
        "generations_run": record.generations_run,
    }


def render_result_table(records: Sequence[ResultRecord]) -> str:
    """Fixed-width summary, one Linear and one Angular row per experiment."""
    header = ("Experiment", "Type", "kp", "ki", "kd", "AE train", "AE test")
    rows = [header]
    for record in records:
        for i, name in enumerate(("linear", "angular")):
            numbers = (*getattr(record.best, name).as_tuple(), record.ae_train[i], record.ae_test[i])
            rows.append((str(record.experiment_id), name.capitalize(), *(f"{v:.6g}" for v in numbers)))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)


def run_experiment(spec: ExperimentSpec) -> ResultRecord:
    """Tune on the train route, replay the winner on both routes, log everything.

    Writes generations.csv, best_train_trace.csv, best_test_trace.csv, and
    result.json into the spec's output directory. Raises EvaluationError, and
    writes nothing, when every member of every generation diverged.
    """
    routes = {"train": spec.train_route, "test": spec.test_route}
    for name, route in routes.items():
        check_step_route(name, route, spec.plant, spec.sim)

    def score(batch):
        results = _fitness_rows(batch, spec.train_route, spec.plant, spec.sim)
        return zip(results[0::4], results[1::4])

    best, history, stop_reason = evolve(spec.ep, score)
    values = array("d", b"".join(record.rows for record in history))
    if values[6::8].count(DIVERGENCE_AE) == values[7::8].count(DIVERGENCE_AE) == len(values) // 8:
        raise EvaluationError(
            f"all {spec.ep.population_size * len(history)} members of {len(history)} generations diverged "
            "on the train route; there are no gains to replay"
        )

    # each route is simulated once: its replay gives the trace, the AE and the step metrics
    traces, step = {}, {}
    for name, route in routes.items():
        trace = traces[name] = simulate_route(best, route, spec.plant, spec.sim)
        step[name] = {"linear": step_metrics(trace.linear, route), "angular": step_metrics(trace.angular, route)}
    ae_train, ae_test = traces["train"].ae, traces["test"].ae
    record = ResultRecord(spec.experiment_id, best, ae_train, ae_test, step, stop_reason, len(history))

    out = spec.output_dir
    out.mkdir(parents=True, exist_ok=True)
    export_generations(history, out / "generations.csv")
    for name, trace in traces.items():
        export_trace(trace, out / f"best_{name}_trace.csv")
    _write_json(out / "result.json", result_as_dict(record, spec))
    return record


def _window(values: bytes, block: int, low: int, high: int) -> bytes:
    """Points low to high - 1 of a grid column, as packed doubles: the column holds each of ``values`` (packed
    doubles) for ``block`` consecutive points, one after the other, and then starts over."""
    cells = [values[i : i + 8] for i in range(0, len(values), 8)]
    n, first, last = len(cells), low // block, -(-high // block)  # the window touches blocks first to last - 1
    blocks = [cells[k % n] for k in range(first, min(last, first + n))]
    if last - first <= n:
        # each block once, the first and the last cut to the window
        runs = [block] * len(blocks)
        runs[0] -= low - first * block
        runs[-1] -= last * block - high
        return b"".join(map(operator.mul, blocks, runs))
    # a period of n whole blocks, tiled: the window spans more than n blocks, so the period is shorter than it
    skip = low - first * block
    period = b"".join([cell * block for cell in blocks])
    return (period * -(-(last - first) // n))[8 * skip : 8 * (skip + high - low)]


def grid_oracle(
    route: RouteSpec, params: PlantParams, sim: SimConfig, grid: GainGrid
) -> GridOracleResult:
    """Exhaustive per-channel argmin over the gain grid; ties go to the smallest gains.

    Every grid point is simulated with the same gains on both channels, which is
    enough because the channels never couple. Points are scored in batches of
    _ORACLE_CHUNK, so memory stays flat however large the grid.
    """
    axes = [sorted(values) for values in (grid.kp_values, grid.ki_values, grid.kd_values)]
    kp_count, ki_count, kd_count = map(len, axes)
    size = kp_count * ki_count * kd_count
    # each axis as the doubles the kernel reads, and how many consecutive points of (kp, ki, kd) row-major order
    # hold each of its values; the reported gains stay the caller's own values
    columns = list(zip((array("d", axis).tobytes() for axis in axes), (ki_count * kd_count, kd_count, 1)))
    best: list[tuple[float, int] | None] = [None, None]  # per channel (AE, flat index of the point)
    for offset in range(0, size, _ORACLE_CHUNK):
        rows = min(_ORACLE_CHUNK, size - offset)
        # the chunk's points, each run as the row [g, g]: the same gains on both channels
        gains = array("d", bytes(48 * rows))
        for j, (values, block) in enumerate(columns):
            column = array("d", _window(values, block, offset, offset + rows))
            gains[j::6] = gains[j + 3 :: 6] = column
        results = _fitness_rows(gains, route, params, sim)
        for c in range(2):
            ae = results[c::4]
            low = min(ae)
            # strict < keeps an earlier chunk's point, and within the chunk the first point of the lowest AE wins,
            # so ties go to the lexicographically smallest gains. An AE is never NaN or -0.0 (the divergence
            # stand-in is finite), so equal AEs have equal bits: the first 8-byte-aligned hit of low's is its point.
            if best[c] is None or low < best[c][0]:
                raw, bits = ae.tobytes(), array("d", [low]).tobytes()
                at = raw.find(bits)
                while at % 8:
                    at = raw.find(bits, at + 1)
                best[c] = (low, offset + at // 8)
    (ae_linear, linear), (ae_angular, angular) = best

    def point(flat: int) -> Gains:
        kp, rest = divmod(flat, ki_count * kd_count)
        ki, kd = divmod(rest, kd_count)
        return Gains(axes[0][kp], axes[1][ki], axes[2][kd])

    return GridOracleResult(point(linear), point(angular), ae_linear=ae_linear, ae_angular=ae_angular)
