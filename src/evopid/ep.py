"""Evolutionary-programming core: gain individuals, Gaussian mutation, elitist selection.

The optimizer tunes two PID controllers at once (linear and angular velocity,
six gains total). Each generation every member is evaluated, the per-channel
winners are spliced into a composite parent, and the next population is that
parent plus Gaussian mutants of it. ``evolve`` alone builds a generation, on flat
rows of six gains; ``Individual`` and ``MemberRecord`` are views of them.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import numbers
import random
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

FLAT_GAIN_FIELDS = ("kpv", "kiv", "kdv", "kpa", "kia", "kda")


class EvaluationError(RuntimeError):
    """Fitness evaluation failed or produced no finite values."""

    def __init__(self, message: str, generation: int | None = None, member: int | None = None):
        super().__init__(message)
        self.generation = generation
        self.member = member


def _require_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first of the given fields that holds a bool, a non-real, a NaN or an infinity.

    A field may hold one number or a tuple of them.
    """
    for name in names:
        value = getattr(obj, name)
        values = value if isinstance(value, tuple) else (value,)
        if any(type(v) is bool or not isinstance(v, numbers.Real) for v in values):
            raise ValueError(f"{name} must be a number, got {value!r}")
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _require_gains(gains: Sequence[float]) -> None:
    """Gains' check of kp, ki, kd, or of a flat row's six: ValueError naming the first that is no finite number >= 0."""
    for i, v in enumerate(gains):
        real = type(v) is float or (type(v) is not bool and isinstance(v, numbers.Real))
        if not (real and math.isfinite(v) and v >= 0.0):
            raise ValueError(f"{('kp', 'ki', 'kd')[i % 3]} must be a finite number >= 0, got {v!r}")


@dataclass(frozen=True)
class Gains:
    """One controller's PID gains. All three are nonnegative, finite real numbers, and none is a bool."""

    kp: float
    ki: float
    kd: float

    def __post_init__(self):
        _require_gains((self.kp, self.ki, self.kd))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.kp, self.ki, self.kd)


@dataclass(frozen=True)
class Individual:
    """One candidate solution: a linear-velocity gain triple paired with an angular one."""

    linear: Gains
    angular: Gains

    def as_flat(self) -> tuple[float, ...]:
        """Six gains in the fixed order kpv, kiv, kdv, kpa, kia, kda."""
        return self.linear.as_tuple() + self.angular.as_tuple()

    @classmethod
    def from_flat(cls, values: Sequence[float]) -> Individual:
        if len(values) != 6:
            raise ValueError(f"expected 6 gains, got {len(values)}")
        kpv, kiv, kdv, kpa, kia, kda = values
        return cls(Gains(kpv, kiv, kdv), Gains(kpa, kia, kda))


class MutationKind(enum.Enum):
    ABSOLUTE = "absolute"
    SCALED = "scaled"


@dataclass(frozen=True)
class MutationSpec:
    """Which mutation operator to use and the Gaussian width for each."""

    kind: MutationKind
    sigma_absolute: float = 0.05
    sigma_scaled: float = 0.5

    def __post_init__(self):
        if not isinstance(self.kind, MutationKind):
            raise ValueError(f"kind must be a MutationKind, got {self.kind!r}")
        _require_finite(self, "sigma_absolute", "sigma_scaled")
        if self.sigma_absolute <= 0 or self.sigma_scaled <= 0:
            raise ValueError("mutation sigmas must be > 0")


@dataclass(frozen=True)
class InitSpec:
    """Uniform sampling bounds for the initial population, shared by both channels."""

    kp_bounds: tuple[float, float] = (0.0, 1.0)
    ki_bounds: tuple[float, float] = (0.0, 0.1)
    kd_bounds: tuple[float, float] = (0.0, 0.01)

    def __post_init__(self):
        _require_finite(self, "kp_bounds", "ki_bounds", "kd_bounds")
        for name in ("kp_bounds", "ki_bounds", "kd_bounds"):
            low, high = getattr(self, name)
            if not (0.0 <= low <= high):
                raise ValueError(f"{name} must satisfy 0 <= low <= high, got ({low}, {high})")


# Most members one run may evaluate (population size times generations). A run keeps its history, 64 bytes per
# member, and the scores of one generation: a member of the previous generation is not scored again, an older one
# is. So this bounds a run near 70 MB and some minutes of evaluation; the largest preset, experiment 3, evaluates
# 2,000.
_MAX_MEMBERS = 1_000_000


@dataclass(frozen=True)
class EPConfig:
    population_size: int
    max_generations: int = 100
    ae_target: float = 0.01
    mutation: MutationSpec = MutationSpec(MutationKind.SCALED)
    init: InitSpec = InitSpec()
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("population_size", "max_generations", "rng_seed"):
            # not isinstance: a bool is an int, and True would count as 1
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        # the specs check their sigmas and bounds, so every row evolve draws or mutates is finite and >= 0
        for name, spec in (("mutation", MutationSpec), ("init", InitSpec)):
            if not isinstance(getattr(self, name), spec):
                raise ValueError(f"{name} must be an instance of {spec.__name__}, got {getattr(self, name)!r}")
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        if self.population_size * self.max_generations > _MAX_MEMBERS:
            raise ValueError(
                f"population_size {self.population_size} times max_generations {self.max_generations} "
                f"is more than the limit of {_MAX_MEMBERS:,} members per run"
            )
        _require_finite(self, "ae_target")
        if not self.ae_target > 0:
            raise ValueError("ae_target must be > 0")
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError("rng_seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class MemberRecord:
    """One evaluated member: its gains and the per-channel average errors."""

    individual: Individual
    ae_linear: float
    ae_angular: float


@dataclass(frozen=True, eq=False)
class GenerationRecord:
    """Everything logged for one generation, plus the per-channel winner indices. ``rows`` holds each member's
    generations.csv row as doubles (six gains in flat order, ae_linear, ae_angular); ``members`` builds MemberRecords
    from them on first read. Records compare value by value, so 0.0 == -0.0."""

    generation_index: int
    rows: bytes
    fittest_linear_index: int
    fittest_angular_index: int

    @functools.cached_property
    def members(self) -> tuple[MemberRecord, ...]:
        v = array("d", self.rows).tolist()
        return tuple(MemberRecord(Individual.from_flat(v[i : i + 6]), v[i + 6], v[i + 7]) for i in range(0, len(v), 8))

    def _key(self) -> tuple:
        return self.generation_index, self.fittest_linear_index, self.fittest_angular_index, array("d", self.rows)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key()[:3])

    @classmethod
    def _from_rows(cls, generation_index: int, rows: array) -> GenerationRecord:
        li, ai = _argmin_finite(rows[6::8]), _argmin_finite(rows[7::8])
        if li is None or ai is None:
            raise EvaluationError(
                f"generation {generation_index}: no member has a finite average error on "
                f"{'the linear' if li is None else 'the angular'} channel",
                generation=generation_index,
            )
        return cls(generation_index, rows.tobytes(), li, ai)


class StopReason(enum.Enum):
    TARGET_REACHED = "target_reached"
    GENERATION_LIMIT = "generation_limit"


class EPResult(NamedTuple):
    best: Individual
    history: tuple[GenerationRecord, ...]
    stop_reason: StopReason


Evaluator = Callable[[Individual], tuple[float, float]]
Scorer = Callable[[array], Iterable[tuple[float, float]]]


def _argmin_finite(values: Sequence[float]) -> int | None:
    """Index of the least finite value, the lowest of equal ones; None when no value is finite."""
    least = min(filter(math.isfinite, values), default=None)
    return None if least is None else values.index(least)


def _clamp_additive(value: float, add: float, sigma: float) -> float:
    # Halve the perturbation until the result is nonnegative. Halving never ends on -inf, so a nonfinite
    # step is an error; with value == 0 and add < 0 it would never end either, so return its limit (0).
    if not math.isfinite(add):
        raise ValueError(f"mutating {value!r} with sigma {sigma!r} drew a nonfinite step {add!r}")
    if value == 0.0 and add < 0.0:
        return 0.0
    while value + add < 0.0:
        add *= 0.5
    return value + add


def _initial_rows(config: EPConfig, rng: random.Random) -> list[tuple[float, ...]]:
    """Generation 0 as flat rows, drawn uniformly from the init bounds in a fixed order (member 0..n-1; within a member
    kpv, kiv, kdv, kpa, kia, kda), so a given seed always yields the same population. InitSpec's checks leave no draw
    that Gains rejects."""
    bounds = (config.init.kp_bounds, config.init.ki_bounds, config.init.kd_bounds) * 2
    return [tuple(rng.uniform(*bound) for bound in bounds) for _ in range(config.population_size)]


def _mutate(parent: tuple[float, ...], config: EPConfig, rng: random.Random) -> list[tuple[float, ...]]:
    """The population_size - 1 mutants of a flat parent row of finite gains >= 0, as flat rows.

    A mutant adds to each gain, in flat order, N(0, sigma_absolute), or under scaled mutation the gain times
    N(0, sigma_scaled), so a 0 stays 0 though its draw is consumed; a step that takes a gain below 0 is halved until it
    does not. The draws are random.Random.gauss's bit for bit: its Box-Muller over ``rng.random()``, its spare in
    gauss_next. Population 1 draws nothing.
    """
    scaled = config.mutation.kind is MutationKind.SCALED
    sigma = config.mutation.sigma_scaled if scaled else config.mutation.sigma_absolute
    random, spare = rng.random, rng.gauss_next
    isfinite, sqrt, log, cos, sin, twopi = math.isfinite, math.sqrt, math.log, math.cos, math.sin, math.tau
    mutants = []
    try:
        for _ in range(config.population_size - 1):
            out = []
            for v in parent:
                z, spare = spare, None
                if z is None:
                    x2pi = random() * twopi
                    g2rad = sqrt(-2.0 * log(1.0 - random()))
                    z, spare = cos(x2pi) * g2rad, sin(x2pi) * g2rad
                step = v * (0.0 + z * sigma) if scaled else 0.0 + z * sigma
                x = v + step
                if x < 0.0 or not isfinite(step):
                    x = _clamp_additive(v, step, sigma)
                out.append(x)
            if math.inf in out:  # a finite step overflowed: Gains' error, after the mutant's six draws
                _require_gains(out)
            mutants.append(tuple(out))
    finally:
        rng.gauss_next = spare
    return mutants


def evolve(config: EPConfig, score: Scorer) -> EPResult:
    """run_ep's loop, each generation scored in at most one call: score, select, stop-check, mutate.

    ``score`` maps an array("d") of the generation's distinct members not yet scored, in first-seen order, six gains
    a row in flat order, to one deterministic (ae_linear, ae_angular) per row. A member of the previous generation is
    not scored again; only that generation's scores are kept, so one seen two or more generations back is. A failed
    call, a wrong count or a score float() rejects raises EvaluationError naming the generation, and the member's first
    population index if ``score`` raised one whose ``member`` is an int index into the batch. A member is the tuple of
    its six gains, not an object.
    """
    rng = random.Random(config.rng_seed)
    population = _initial_rows(config, rng)
    history: list[GenerationRecord] = []
    # the scorer is deterministic, so a row of this or the previous generation (usually the elitist parent) reuses
    # its six gains and two AEs; older rows are dropped, so a run's memory is bounded by its population
    scores: dict[tuple[float, ...], list[float]] = {}
    best_linear = best_angular = [math.inf] * 8  # every finite AE of a fittest member beats these
    while True:
        generation = len(history)
        # one lookup and one insert per member; a new row's cell is empty until it is scored
        previous, scores = scores, {}
        cells = [scores.setdefault(row, previous.get(row) or []) for row in population]
        pending = [(row, cell) for row, cell in scores.items() if not cell]
        if pending:
            try:
                results = list(score(array("d", itertools.chain.from_iterable(row for row, _ in pending))))
                if len(results) != len(pending):
                    raise ValueError(f"expected {len(pending)} scores, got {len(results)}")
                for (row, cell), (ae_linear, ae_angular) in zip(pending, results):
                    cell += *row, float(ae_linear), float(ae_angular)
            except Exception as exc:
                i = exc.member if isinstance(exc, EvaluationError) else None
                # not isinstance: True is an int; and a negative index would name a member counted from the end
                member = population.index(pending[i][0]) if type(i) is int and 0 <= i < len(pending) else None
                at = f"generation {generation}" + ("" if member is None else f", member {member}")
                raise EvaluationError(f"scoring failed at {at}: {exc}", generation=generation, member=member) from exc
        record = GenerationRecord._from_rows(generation, array("d", itertools.chain.from_iterable(cells)))
        history.append(record)
        fittest_linear, fittest_angular = cells[record.fittest_linear_index], cells[record.fittest_angular_index]
        # the fittest member over the run on each channel; min keeps the earliest of equal (finite) minima
        best_linear = min(best_linear, fittest_linear, key=lambda cell: cell[6])
        best_angular = min(best_angular, fittest_angular, key=lambda cell: cell[7])
        if fittest_linear[6] < config.ae_target and fittest_angular[7] < config.ae_target:
            stop_reason = StopReason.TARGET_REACHED
            break
        if len(history) >= config.max_generations:
            stop_reason = StopReason.GENERATION_LIMIT
            break
        parent = (*fittest_linear[:3], *fittest_angular[3:6])
        population = [parent, *_mutate(parent, config, rng)]
    return EPResult(Individual.from_flat(best_linear[:3] + best_angular[3:6]), tuple(history), stop_reason)


def run_ep(config: EPConfig, evaluator: Evaluator) -> EPResult:
    """Run the full tuning loop: evaluate, select, stop-check, mutate; evolve's one-member view.

    The evaluator maps an Individual to (ae_linear, ae_angular) and must be deterministic: it is called once
    per distinct individual of a generation, and a member of the previous generation is not scored again. The loop
    stops once the fittest members of a generation have both channel errors
    strictly below ``ae_target``, or after evaluating ``max_generations`` full populations. Returns the
    composite best individual over the entire history together with the per-generation records. A failed or
    malformed evaluation names the generation and the member, the first one holding the failing individual.
    """

    def score(batch: array) -> list[tuple[float, float]]:
        results = []
        for i in range(0, len(batch), 6):
            try:
                ae_linear, ae_angular = evaluator(Individual.from_flat(batch[i : i + 6]))
                results.append((float(ae_linear), float(ae_angular)))
            except Exception as exc:
                raise EvaluationError(str(exc), member=i // 6) from exc
        return results

    return evolve(config, score)
