"""Plain reference implementations that the tests check the program against; no module of evopid calls them.

numpy_step_metrics, numpy_write_csv and numpy_grid_oracle are the program's NumPy versions as they stood before
evopid dropped NumPy, kept so that the written-out reductions that replaced them are checked bit for bit.
evolve_reference is the EP loop over objects, one Individual and one MemberRecord per member, written from the
public types alone: it draws, mutates and selects with code of its own, and nothing in this module calls the
program's EP.
"""

import itertools
import math
import random
from array import array

import numpy as np

from evopid import (
    ChannelTrace,
    EvaluationError,
    GainGrid,
    Gains,
    GenerationRecord,
    GridOracleResult,
    Individual,
    MemberRecord,
    MutationKind,
    RouteSpec,
    StopReason,
)
from evopid.ep import EPResult
from evopid.harness import _CSV_CHUNK, _ORACLE_CHUNK
from evopid.metrics import StepMetrics, _fitness_rows


def average_error(channel: ChannelTrace) -> float:
    """Mean |desired - actual| over every sample of the run, streamed in order."""
    n = len(channel)
    if n == 0:
        raise ValueError("average_error needs at least one sample")
    total = 0.0
    for d, a in zip(channel.desired, channel.actual):
        total += abs(d - a)
    return float(total / n)


def write_csv_rows(path, header, columns) -> None:
    """The CSV format one row at a time: the header, then each row's cells `repr`'d and comma-joined."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*(column.tolist() for column in columns)):
            fh.write(",".join(map(repr, row)) + "\n")


def _check_mutation_args(value: float, sigma: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"value must be finite and >= 0, got {value!r}")
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma!r}")


def _halved_until_nonnegative(value: float, step: float, sigma: float) -> float:
    """value + step, the step halved until the sum is >= 0; from 0 a negative step gives its limit, 0.

    Halving never ends on -inf, so a nonfinite step is an error.
    """
    if not math.isfinite(step):
        raise ValueError(f"mutating {value!r} with sigma {sigma!r} drew a nonfinite step {step!r}")
    if value == 0.0 and step < 0.0:
        return 0.0
    while value + step < 0.0:
        step *= 0.5
    return value + step


def mutate_absolute(value: float, sigma: float, rng) -> float:
    """Additive Gaussian mutation of one gain: value + N(0, sigma), the step halved until the result is >= 0."""
    _check_mutation_args(value, sigma)
    return _halved_until_nonnegative(value, rng.gauss(0.0, sigma), sigma)


def mutate_scaled(value: float, sigma: float, rng) -> float:
    """Value-proportional mutation of one gain: value + value * N(0, sigma), the step halved likewise.

    A value of exactly 0 is absorbing: the step is 0 for every draw, and the draw is consumed all the same.
    """
    _check_mutation_args(value, sigma)
    return _halved_until_nonnegative(value, value * rng.gauss(0.0, sigma), sigma)


def numpy_step_metrics(channel: ChannelTrace, route: RouteSpec) -> StepMetrics:
    """Rise time, overshoot, and steady-state error of the start->end step."""
    step = route.end - route.start
    if step == 0.0:
        raise ValueError("step metrics undefined: route start equals end")
    in_phase = channel.time >= route.phase_duration
    if not in_phase.any():
        raise ValueError("trace does not cover the route's end phase")
    actual = channel.actual[in_phase]
    t = channel.time[in_phase]

    sign = 1.0 if step > 0 else -1.0
    progress = sign * actual
    level_10 = sign * (route.start + 0.1 * step)
    level_90 = sign * (route.start + 0.9 * step)
    reached_90 = np.nonzero(progress >= level_90)[0]
    if reached_90.size == 0:
        rise_time = None
    else:
        # crossing 90% implies 10% was crossed at or before the same sample
        i10 = int(np.nonzero(progress >= level_10)[0][0])
        rise_time = float(t[reached_90[0]] - t[i10])

    overshoot = max(0.0, float(np.max(sign * (actual - route.end)))) / abs(step)

    dt = float(channel.time[1] - channel.time[0]) if len(channel) > 1 else route.phase_duration
    n_tail = min(len(actual), max(1, int(round(0.5 / dt))))
    steady_state_error = route.end - float(np.mean(actual[-n_tail:]))

    return StepMetrics(rise_time=rise_time, overshoot=overshoot, steady_state_error=steady_state_error)


def numpy_write_csv(path, header, columns) -> None:
    """The CSV format from 1-D float64 or int64 ndarrays, each run of bit-equal values in a chunk's column formatted
    once."""
    width = len(columns)
    line = ["", ","] * (width - 1) + ["", "\n"]  # one row: its cells go in the even slots
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK):
            rows = min(_CSV_CHUNK, len(columns[0]) - start)
            cells = line * rows
            for j, column in enumerate(columns):
                chunk = column[start : start + rows]
                bits = chunk.view(np.int64)
                firsts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
                texts = list(map(repr, chunk[firsts].tolist()))
                if len(texts) < rows:
                    texts = np.repeat(np.array(texts, dtype=object), np.diff(np.append(firsts, rows))).tolist()
                cells[2 * j :: 2 * width] = texts
            fh.write("".join(cells))


def numpy_grid_oracle(route, params, sim, grid: GainGrid) -> GridOracleResult:
    """Exhaustive per-channel argmin over the gain grid, packed with unravel_index and reduced with np.argmin."""
    axes = [sorted(values) for values in (grid.kp_values, grid.ki_values, grid.kd_values)]
    shape = tuple(map(len, axes))
    doubles = [np.array(axis, dtype=np.float64) for axis in axes]
    size = math.prod(shape)
    best = [None, None]  # per channel (AE, flat index of the point)
    for offset in range(0, size, _ORACLE_CHUNK):
        index = np.unravel_index(np.arange(offset, min(offset + _ORACLE_CHUNK, size)), shape)
        points = np.column_stack([axis[i] for axis, i in zip(doubles, index)])
        # the kernel's entry takes an array("d") alone
        gains = array("d", np.hstack([points, points]).tobytes())
        ae = np.frombuffer(_fitness_rows(gains, route, params, sim)).reshape(-1, 4)[:, :2]
        for c in range(2):
            # argmin keeps the first of equal minima, and strict < an earlier chunk's
            j = int(np.argmin(ae[:, c]))
            if best[c] is None or ae[j, c] < best[c][0]:
                best[c] = (float(ae[j, c]), offset + j)
    (ae_linear, linear), (ae_angular, angular) = best

    def point(flat: int) -> Gains:
        return Gains(*(axis[i] for axis, i in zip(axes, np.unravel_index(flat, shape))))

    return GridOracleResult(point(linear), point(angular), ae_linear=ae_linear, ae_angular=ae_angular)


def member_rows(members) -> array:
    """The generations.csv rows of MemberRecords as one array("d"): six gains in flat order, ae_linear, ae_angular."""
    rows = ((*m.individual.as_flat(), m.ae_linear, m.ae_angular) for m in members)
    return array("d", itertools.chain.from_iterable(rows))


def first_least_finite(values) -> int | None:
    """Index of the first of the least finite values, by a plain scan; None when no value is finite."""
    best = None
    for i, v in enumerate(values):
        if math.isfinite(v) and (best is None or v < values[best]):
            best = i
    return best


def generation_record(generation: int, members) -> GenerationRecord:
    """The GenerationRecord of these MemberRecords, each channel's winner found by first_least_finite; raises
    EvaluationError, as evolve does, when no member has a finite AE on a channel."""
    li = first_least_finite([m.ae_linear for m in members])
    ai = first_least_finite([m.ae_angular for m in members])
    if li is None or ai is None:
        raise EvaluationError(
            f"generation {generation}: no member has a finite average error on "
            f"{'the linear' if li is None else 'the angular'} channel",
            generation=generation,
        )
    return GenerationRecord(generation, member_rows(members).tobytes(), li, ai)


def evolve_reference(config, score) -> EPResult:
    """evolve over objects: each member an Individual, deduped by Individual, and logged as a MemberRecord.

    Generation 0 is one rng.uniform call per gain, member by member in flat order; each mutant is one reference
    operator call per gain of the spliced parent. ``score`` takes what evolve hands it, the distinct new members as one
    array("d") of six gains a row.
    """
    rng = random.Random(config.rng_seed)
    bounds = (config.init.kp_bounds, config.init.ki_bounds, config.init.kd_bounds)

    def drawn() -> Gains:
        return Gains(*(rng.uniform(low, high) for low, high in bounds))

    if config.mutation.kind is MutationKind.SCALED:
        mutate, sigma = mutate_scaled, config.mutation.sigma_scaled
    else:
        mutate, sigma = mutate_absolute, config.mutation.sigma_absolute
    population = [Individual(drawn(), drawn()) for _ in range(config.population_size)]
    history: list[GenerationRecord] = []
    logged: list[tuple[MemberRecord, ...]] = []  # each generation's members, as this loop built them
    # the scorer is deterministic, so a repeated individual (usually the elitist parent) reuses its score
    scores: dict[Individual, list[float]] = {}
    while True:
        generation = len(history)
        pending: dict[Individual, list[float]] = {}
        cells = [scores.get(individual) or pending.setdefault(individual, []) for individual in population]
        if pending:
            try:
                results = list(score(array("d", itertools.chain.from_iterable(m.as_flat() for m in pending))))
                if len(results) != len(pending):
                    raise ValueError(f"expected {len(pending)} scores, got {len(results)}")
                for cell, (ae_linear, ae_angular) in zip(pending.values(), results):
                    cell += float(ae_linear), float(ae_angular)
            except Exception as exc:
                i = exc.member if isinstance(exc, EvaluationError) else None
                member = population.index(list(pending)[i]) if type(i) is int and 0 <= i < len(pending) else None
                at = f"generation {generation}" + ("" if member is None else f", member {member}")
                raise EvaluationError(f"scoring failed at {at}: {exc}", generation=generation, member=member) from exc
            scores.update(pending)
        members = tuple(MemberRecord(individual, *cell) for individual, cell in zip(population, cells))
        record = generation_record(generation, members)
        history.append(record)
        logged.append(members)
        fittest_linear = members[record.fittest_linear_index]
        fittest_angular = members[record.fittest_angular_index]
        if fittest_linear.ae_linear < config.ae_target and fittest_angular.ae_angular < config.ae_target:
            stop_reason = StopReason.TARGET_REACHED
            break
        if len(history) >= config.max_generations:
            stop_reason = StopReason.GENERATION_LIMIT
            break
        parent = Individual(fittest_linear.individual.linear, fittest_angular.individual.angular)
        population = [parent]
        for _ in range(config.population_size - 1):
            # a gain that a finite step takes to inf is Gains' error, raised once the mutant's six draws are made
            population.append(Individual.from_flat([mutate(v, sigma, rng) for v in parent.as_flat()]))

    # the fittest member over the run on each channel; min keeps the earliest of equal (finite) minima
    best_lin = min((m[r.fittest_linear_index] for r, m in zip(history, logged)), key=lambda m: m.ae_linear)
    best_ang = min((m[r.fittest_angular_index] for r, m in zip(history, logged)), key=lambda m: m.ae_angular)
    return EPResult(Individual(best_lin.individual.linear, best_ang.individual.angular), tuple(history), stop_reason)
