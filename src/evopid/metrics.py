"""Average-error fitness and step-response metrics computed from simulation traces."""

from __future__ import annotations

import functools
import operator
from array import array
from bisect import bisect_left
from dataclasses import dataclass

from .ep import Individual
# DIVERGENCE_AE is defined beside the kernel that writes it, and stays importable from here
from .plant import DIVERGENCE_AE, ChannelTrace, FitnessRecord, PlantParams, RouteSpec, SimConfig, _prepare, _simulate


@dataclass(frozen=True)
class StepMetrics:
    """Step-response summary of the route's second phase.

    rise_time is the 10%-to-90% crossing interval, or None when the 90% level
    is never reached. overshoot is the peak excursion beyond the target as a
    fraction of the step magnitude. steady_state_error is the target minus the
    mean of the final half second.
    """

    rise_time: float | None
    overshoot: float
    steady_state_error: float


def fitness_of(individual: Individual, route: RouteSpec, params: PlantParams, sim: SimConfig) -> FitnessRecord:
    """Simulate the route once and average the error per channel.

    A diverging simulation is absorbed into DIVERGENCE_AE on both channels
    so unstable gains stay comparable and always rank last. Both channels
    always run; a nonfinite final velocity on either one scores both.
    """
    return FitnessRecord(*_fitness_rows(array("d", individual.as_flat()), route, params, sim)[:2])


# The last route, params and sim scored, held and matched by identity, with their _prepare schedule and run (never
# written). Each call reads it once, so a thread scoring another route cannot hand this one that route's run.
_last_scored = (None, None, None, None, None)


def _fitness_rows(gains, route: RouteSpec, params: PlantParams, sim: SimConfig) -> array:
    """fitness_of for each row of a flat buffer of doubles, six gains a row (linear kp, ki, kd, then angular), in one
    call: _simulate's results, row r's two average errors at 4r and 4r + 1."""
    global _last_scored
    last_route, last_params, last_sim, schedule, run = _last_scored
    if last_route is not route or last_params is not params or last_sim is not sim:
        schedule, _, run = _prepare(route, params, sim)
        _last_scored = (route, params, sim, schedule, run)
    return _simulate(gains, run)[0]


def _mean(values) -> float:
    """NumPy's mean of a contiguous float64 array, bit for bit: its sum starts from 0.0 and adds _pairwise_sum."""
    return (0.0 + _pairwise_sum(values)) / len(values)


def _pairwise_sum(values) -> float:
    """NumPy's pairwise sum of contiguous float64s: fewer than 8 values in order from 0.0; up to 128 in eight strided
    running sums, combined ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in order; more than 128
    split at half the count rounded down to a multiple of 8, each half summed so, and the two added."""
    n = len(values)
    if n < 8:
        return functools.reduce(operator.add, values, 0.0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    whole = n - n % 8
    r = [functools.reduce(operator.add, values[j:whole:8]) for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return functools.reduce(operator.add, values[whole:], total)


def step_metrics(channel: ChannelTrace, route: RouteSpec) -> StepMetrics:
    """Rise time, overshoot, and steady-state error of the start->end step, on a trace whose time never decreases.

    Each value has the bits of the NumPy reductions it replaced: the crossings are first indices, the peak is
    max(a) - end, or min(a) - end negated for a falling step (rounding is monotone, so it equals the largest
    excursion), and the steady-state mean is _mean's.
    """
    step = route.end - route.start
    if step == 0.0:
        raise ValueError("step metrics undefined: route start equals end")
    time = channel.time
    begin = bisect_left(time, float(route.phase_duration))
    if begin == len(time):
        raise ValueError("trace does not cover the route's end phase")
    actual = channel.actual[begin:]

    def first_reaching(level: float) -> int | None:
        """The first sample of the phase at or past ``level`` in the step's direction: sign * a >= sign * level,
        where negation is exact."""
        if step > 0:
            return next((i for i, a in enumerate(actual) if a >= level), None)
        return next((i for i, a in enumerate(actual) if a <= level), None)

    i90 = first_reaching(float(route.start + 0.9 * step))
    if i90 is None:
        rise_time = None
    else:
        # crossing 90% implies 10% was crossed at or before the same sample
        i10 = first_reaching(float(route.start + 0.1 * step))
        rise_time = float(time[begin + i90] - time[begin + i10])

    end = float(route.end)
    peak = max(actual) - end if step > 0 else -(min(actual) - end)
    overshoot = max(0.0, peak) / abs(step)

    dt = float(time[1] - time[0]) if len(channel) > 1 else route.phase_duration
    n_tail = min(len(actual), max(1, int(round(0.5 / dt))))
    steady_state_error = route.end - _mean(actual[len(actual) - n_tail :])

    return StepMetrics(rise_time=rise_time, overshoot=overshoot, steady_state_error=steady_state_error)
