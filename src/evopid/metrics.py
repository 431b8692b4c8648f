"""Average-error fitness and step-response metrics computed from simulation traces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    return FitnessRecord(*_fitness_rows([individual.as_flat()], route, params, sim).tolist()[0])


# The last route, params and sim scored, held and matched by identity, with their _prepare schedule and plant (never
# written). Each call reads it once, so a thread scoring another route cannot hand this one that route's plant.
_last_scored = (None, None, None, None, None)


def _fitness_rows(rows, route: RouteSpec, params: PlantParams, sim: SimConfig) -> np.ndarray:
    """fitness_of for each row of six gains (linear kp, ki, kd, then angular) in one call: (rows, 2) float64."""
    global _last_scored
    last_route, last_params, last_sim, schedule, plant = _last_scored
    if last_route is not route or last_params is not params or last_sim is not sim:
        schedule, _, plant = _prepare(route, params, sim)
        _last_scored = (route, params, sim, schedule, plant)
    return _simulate(rows, schedule, plant, sim.dt)[0][:, :2]


def step_metrics(channel: ChannelTrace, route: RouteSpec) -> StepMetrics:
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
