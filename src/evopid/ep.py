"""Evolutionary-programming core: gain individuals, Gaussian mutation, elitist selection.

The optimizer tunes two PID controllers at once (linear and angular velocity,
six gains total). Each generation every member is evaluated, the per-channel
winners are spliced into a composite parent, and the next population is that
parent plus Gaussian mutants of it.
"""

from __future__ import annotations

import enum
import math
import numbers
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

FLAT_GAIN_FIELDS = ("kpv", "kiv", "kdv", "kpa", "kia", "kda")


class EvaluationError(RuntimeError):
    """Fitness evaluation failed or produced no finite values."""

    def __init__(self, message: str, generation: int | None = None, member: int | None = None):
        super().__init__(message)
        self.generation = generation
        self.member = member


def _require_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first of the given fields that holds a bool, a non-real, a NaN or an infinity.

    A field may hold one number or a tuple of them. A spec of real numbers is hashable, so it can key a cache.
    """
    for name in names:
        value = getattr(obj, name)
        values = value if isinstance(value, tuple) else (value,)
        if any(type(v) is bool or not isinstance(v, numbers.Real) for v in values):
            raise ValueError(f"{name} must be a number, got {value!r}")
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Gains:
    """One controller's PID gains. All three are nonnegative, finite real numbers, and none is a bool."""

    kp: float
    ki: float
    kd: float

    def __post_init__(self):
        for name in ("kp", "ki", "kd"):
            v = getattr(self, name)
            # _require_finite's test, but a float skips the slower isinstance: every mutant builds two Gains
            real = type(v) is float or (type(v) is not bool and isinstance(v, numbers.Real))
            if not (real and math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be a finite number >= 0, got {v!r}")

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
        return cls(Gains(*values[:3]), Gains(*values[3:]))


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


# Most members one run may evaluate (population size times generations). The history
# keeps every member, about 700 bytes each, so this bounds a run near 0.7 GB and some
# minutes of evaluation; the largest preset, experiment 3, evaluates 2,000.
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


@dataclass(frozen=True)
class GenerationRecord:
    """Everything logged for one generation, plus the per-channel winner indices."""

    generation_index: int
    members: tuple[MemberRecord, ...]
    fittest_linear_index: int
    fittest_angular_index: int

    @classmethod
    def from_evaluations(cls, generation_index: int, members: tuple[MemberRecord, ...]) -> GenerationRecord:
        li = _argmin_finite([m.ae_linear for m in members])
        ai = _argmin_finite([m.ae_angular for m in members])
        if li is None or ai is None:
            raise EvaluationError(
                f"generation {generation_index}: no member has a finite average error on "
                f"{'the linear' if li is None else 'the angular'} channel",
                generation=generation_index,
            )
        return cls(generation_index, members, li, ai)


class StopReason(enum.Enum):
    TARGET_REACHED = "target_reached"
    GENERATION_LIMIT = "generation_limit"


class EPResult(NamedTuple):
    best: Individual
    history: tuple[GenerationRecord, ...]
    stop_reason: StopReason


Evaluator = Callable[[Individual], tuple[float, float]]
Scorer = Callable[[tuple[Individual, ...]], Iterable[tuple[float, float]]]


def _argmin_finite(values: list[float]) -> int | None:
    """Index of the least finite value, the lowest of equal ones; None when no value is finite."""
    return min((i for i, v in enumerate(values) if math.isfinite(v)), key=values.__getitem__, default=None)


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


def init_population(config: EPConfig, rng: random.Random) -> tuple[Individual, ...]:
    """Draw generation 0 uniformly from the init bounds.

    Draw order is fixed (member 0..n-1; within a member kpv, kiv, kdv, kpa,
    kia, kda) so a given seed always yields the same population.
    """
    b = config.init
    members = []
    for _ in range(config.population_size):
        lin = Gains(rng.uniform(*b.kp_bounds), rng.uniform(*b.ki_bounds), rng.uniform(*b.kd_bounds))
        ang = Gains(rng.uniform(*b.kp_bounds), rng.uniform(*b.ki_bounds), rng.uniform(*b.kd_bounds))
        members.append(Individual(lin, ang))
    return tuple(members)


def next_generation(record: GenerationRecord, config: EPConfig, rng: random.Random) -> tuple[Individual, ...]:
    """Build the successor population: the composite parent (member 0, unmutated) plus population_size - 1 mutants.

    The parent splices the generation's best linear and best angular gains. A mutant adds to each gain, in flat order,
    N(0, sigma_absolute), or under scaled mutation the gain times N(0, sigma_scaled), so a 0 stays 0 though its draw
    is consumed; a step that takes a gain below 0 is halved until it does not. Population 1 draws and checks nothing.
    The draws are random.Random.gauss's bit for bit: its Box-Muller over ``rng.random()``, its spare in gauss_next.
    """
    parent = Individual(
        record.members[record.fittest_linear_index].individual.linear,
        record.members[record.fittest_angular_index].individual.angular,
    )
    if config.population_size < 2:
        return (parent,)
    scaled = config.mutation.kind is MutationKind.SCALED
    sigma = config.mutation.sigma_scaled if scaled else config.mutation.sigma_absolute
    flat = parent.as_flat()
    # a negative parent gain would never end the halving loop; Gains rejects one, but a duck-typed parent may not
    for v in flat:
        if not (math.isfinite(v) and v >= 0.0):
            raise ValueError(f"value must be finite and >= 0, got {v!r}")
        if not sigma > 0.0:
            raise ValueError(f"sigma must be > 0, got {sigma!r}")
    random, spare = rng.random, rng.gauss_next
    isfinite, sqrt, log, cos, sin, twopi = math.isfinite, math.sqrt, math.log, math.cos, math.sin, math.tau
    population = [parent]
    try:
        for _ in range(config.population_size - 1):
            out = []
            for v in flat:
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
            kpv, kiv, kdv, kpa, kia, kda = out
            population.append(Individual(Gains(kpv, kiv, kdv), Gains(kpa, kia, kda)))
    finally:
        rng.gauss_next = spare
    return tuple(population)


def evolve(config: EPConfig, score: Scorer) -> EPResult:
    """run_ep's loop, each generation scored in at most one call: score, select, stop-check, mutate.

    ``score`` maps the tuple of distinct members not yet scored, in first-seen order, to one deterministic
    (ae_linear, ae_angular) each. A failed call, a wrong count or a score float() rejects raises EvaluationError
    naming the generation, and the member's first population index if ``score`` raised one whose ``member`` is an
    int index into the batch.
    """
    rng = random.Random(config.rng_seed)
    population = init_population(config, rng)
    history: list[GenerationRecord] = []
    # the scorer is deterministic, so a repeated individual (usually the elitist parent) reuses its score
    scores: dict[Individual, list[float]] = {}
    while True:
        generation = len(history)
        # one lookup per member and one insert per new one; update() reuses the hashes pending holds
        pending: dict[Individual, list[float]] = {}
        cells = [scores.get(individual) or pending.setdefault(individual, []) for individual in population]
        if pending:
            try:
                results = list(score(tuple(pending)))
                if len(results) != len(pending):
                    raise ValueError(f"expected {len(pending)} scores, got {len(results)}")
                for cell, (ae_linear, ae_angular) in zip(pending.values(), results):
                    cell += float(ae_linear), float(ae_angular)
            except Exception as exc:
                i = exc.member if isinstance(exc, EvaluationError) else None
                # not isinstance: True is an int; and a negative index would name a member counted from the end
                member = population.index(list(pending)[i]) if type(i) is int and 0 <= i < len(pending) else None
                at = f"generation {generation}" + ("" if member is None else f", member {member}")
                raise EvaluationError(f"scoring failed at {at}: {exc}", generation=generation, member=member) from exc
            scores.update(pending)
        members = tuple(MemberRecord(individual, *cell) for individual, cell in zip(population, cells))
        record = GenerationRecord.from_evaluations(generation, members)
        history.append(record)
        fittest_linear = record.members[record.fittest_linear_index]
        fittest_angular = record.members[record.fittest_angular_index]
        if fittest_linear.ae_linear < config.ae_target and fittest_angular.ae_angular < config.ae_target:
            stop_reason = StopReason.TARGET_REACHED
            break
        if len(history) >= config.max_generations:
            stop_reason = StopReason.GENERATION_LIMIT
            break
        population = next_generation(record, config, rng)

    # the fittest member over the run on each channel; min keeps the earliest of equal (finite) minima
    best_lin = min((r.members[r.fittest_linear_index] for r in history), key=lambda m: m.ae_linear)
    best_ang = min((r.members[r.fittest_angular_index] for r in history), key=lambda m: m.ae_angular)
    return EPResult(Individual(best_lin.individual.linear, best_ang.individual.angular), tuple(history), stop_reason)


def run_ep(config: EPConfig, evaluator: Evaluator) -> EPResult:
    """Run the full tuning loop: evaluate, select, stop-check, mutate; evolve's one-member view.

    The evaluator maps an Individual to (ae_linear, ae_angular) and must be deterministic: it is called once
    per distinct individual. The loop stops once the fittest members of a generation have both channel errors
    strictly below ``ae_target``, or after evaluating ``max_generations`` full populations. Returns the
    composite best individual over the entire history together with the per-generation records. A failed or
    malformed evaluation names the generation and the member, the first one holding the failing individual.
    """

    def score(batch: tuple[Individual, ...]) -> Iterator[tuple[float, float]]:
        for i, individual in enumerate(batch):
            try:
                ae_linear, ae_angular = evaluator(individual)
                yield float(ae_linear), float(ae_angular)
            except Exception as exc:
                raise EvaluationError(str(exc), member=i) from exc

    return evolve(config, score)
