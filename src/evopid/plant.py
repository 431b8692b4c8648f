"""Surrogate two-channel vehicle plant and the timed setpoint route it drives.

Each channel (linear and angular velocity) is a first-order lag with actuator
saturation, advanced by its exact discretization so any sample rate is stable.
The channels do not couple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ep import Gains, Individual, _require_finite
from .pid import pid_step  # noqa: F401  perfbench/tracing.py wraps evopid.plant.pid_step


class SimulationDiverged(RuntimeError):
    """A channel velocity went nonfinite; carries the offending sample index."""

    def __init__(self, channel: str, sample_index: int):
        super().__init__(f"{channel} velocity became nonfinite at sample {sample_index}")
        self.channel = channel
        self.sample_index = sample_index


@dataclass(frozen=True)
class ChannelParams:
    """First-order lag parameters for one velocity channel."""

    dc_gain: float = 1.0
    time_constant: float = 0.5
    actuator_limit: float = 2.0
    initial_velocity: float = 0.0

    def __post_init__(self):
        _require_finite(self, "dc_gain", "time_constant", "actuator_limit", "initial_velocity")
        if self.dc_gain <= 0:
            raise ValueError("dc_gain must be > 0")
        if self.time_constant <= 0:
            raise ValueError("time_constant must be > 0")
        if self.actuator_limit <= 0:
            raise ValueError("actuator_limit must be > 0")


@dataclass(frozen=True)
class PlantParams:
    linear: ChannelParams = ChannelParams(time_constant=0.5)
    angular: ChannelParams = ChannelParams(time_constant=0.3)


@dataclass(frozen=True)
class RouteSpec:
    """Two-phase setpoint profile: hold ``start``, then hold ``end``, each for phase_duration."""

    start: float
    end: float
    phase_duration: float = 3.0

    def __post_init__(self):
        _require_finite(self, "start", "end", "phase_duration")
        if self.phase_duration <= 0:
            raise ValueError("phase_duration must be > 0")

    @property
    def total_duration(self) -> float:
        return 2.0 * self.phase_duration


@dataclass(frozen=True)
class SimConfig:
    sample_rate: float = 50.0

    def __post_init__(self):
        _require_finite(self, "sample_rate")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be > 0")

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate


@dataclass(frozen=True, eq=False)
class ChannelTrace:
    """Sampled (time, desired, actual) series for one channel, spaced by dt."""

    time: np.ndarray
    desired: np.ndarray
    actual: np.ndarray

    def __post_init__(self):
        if not (len(self.time) == len(self.desired) == len(self.actual)):
            raise ValueError("time, desired, and actual must have equal length")

    def __len__(self) -> int:
        return len(self.time)


@dataclass(frozen=True, eq=False)
class SimTrace:
    linear: ChannelTrace
    angular: ChannelTrace

    def __post_init__(self):
        if len(self.linear) != len(self.angular):
            raise ValueError("both channels must have equal length")


def route_setpoint(route: RouteSpec, t: float) -> float:
    """Desired velocity at time t: ``start`` before phase_duration, ``end`` from it on."""
    if not 0.0 <= t < route.total_duration:
        raise ValueError(f"t={t!r} outside the route window [0, {route.total_duration})")
    return route.start if t < route.phase_duration else route.end


def plant_step(velocity: float, command: float, params: ChannelParams, dt: float) -> float:
    """Advance the channel one step: saturate the command, then relax toward its DC target."""
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    limit = params.actuator_limit
    if command > limit:
        command = limit
    elif command < -limit:
        command = -limit
    target = command * params.dc_gain
    return target + (velocity - target) * math.exp(-dt / params.time_constant)


def _sample_count(route: RouteSpec, sim: SimConfig) -> int:
    """Samples in one run of the route; checks once that the last one lies inside the route window."""
    n_samples = int(round(route.total_duration * sim.sample_rate))
    if n_samples:
        route_setpoint(route, (n_samples - 1) * sim.dt)
    return n_samples


def _run_channel(
    gains: Gains,
    route: RouteSpec,
    channel: ChannelParams,
    dt: float,
    n_samples: int,
    actual: list[float] | None = None,
) -> tuple[float, int | None]:
    """One channel's closed loop along the route, fused into a single pass.

    Performs exactly the float operations of route_setpoint, pid_step and
    plant_step, in their order, so results are bit-identical to chaining them.
    Appends the measurement of each sample to ``actual`` when given. Returns the
    sum of |setpoint - measurement| over the samples in time order, and the
    index of the sample whose step made the velocity nonfinite (None if none
    did; the run stops there).
    """
    kp, ki, kd = gains.kp, gains.ki, gains.kd
    start, end, switch = route.start, route.end, route.phase_duration
    limit = channel.actuator_limit
    dc_gain = channel.dc_gain
    decay = math.exp(-dt / channel.time_constant)
    isfinite = math.isfinite
    velocity = channel.initial_velocity
    integral = 0.0
    prev_error = 0.0
    total = 0.0
    for k in range(n_samples):
        if actual is not None:
            actual.append(velocity)
        error = (start if k * dt < switch else end) - velocity
        total += abs(error)
        integral = integral + error * dt
        derivative = (error - prev_error) / dt if k else 0.0
        prev_error = error
        command = kp * error + ki * integral + kd * derivative
        if command > limit:
            command = limit
        elif command < -limit:
            command = -limit
        target = command * dc_gain
        velocity = target + (velocity - target) * decay
        if not isfinite(velocity):
            return total, k
    return total, None


def simulate_route(
    individual: Individual, route: RouteSpec, params: PlantParams, sim: SimConfig
) -> SimTrace:
    """Drive both channels along the route with their own PID controllers.

    PID states start fresh and both channels start from their configured initial
    velocity (each run is independent of any previous one). At every sample the
    recorded ``actual`` is the measurement the controller acted on. Raises
    SimulationDiverged if a velocity goes nonfinite.
    """
    dt = sim.dt
    n_samples = _sample_count(route, sim)
    traces = []
    for name, gains, channel in (
        ("linear", individual.linear, params.linear),
        ("angular", individual.angular, params.angular),
    ):
        actual: list[float] = []
        _, diverged_at = _run_channel(gains, route, channel, dt, n_samples, actual)
        if diverged_at is not None:
            raise SimulationDiverged(name, diverged_at)
        time = np.arange(n_samples) * dt
        desired = np.where(time < route.phase_duration, route.start, route.end)
        traces.append(ChannelTrace(time, desired, np.asarray(actual)))
    return SimTrace(linear=traces[0], angular=traces[1])
