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


# Most samples one route run may take per channel. A simulation costs time and, in
# simulate_route, memory in proportion to its samples; the longest shipped use, the
# 300 s-per-phase step trace at 50 Hz, takes 30,000.
_MAX_SAMPLES = 10_000_000


def _sample_count(route: RouteSpec, sim: SimConfig) -> int:
    """Samples in one run of the route; checks once that the last one lies inside the route window.

    Raises ValueError when the route would take more than _MAX_SAMPLES samples.
    """
    samples = route.total_duration * sim.sample_rate
    # compared as a float first: an infinite duration cannot be rounded to an int
    if samples > _MAX_SAMPLES:
        raise ValueError(
            f"a route of {route.total_duration!r} s at {sim.sample_rate!r} Hz takes {samples:.6g} samples "
            f"per channel, more than the limit of {_MAX_SAMPLES:,}"
        )
    n_samples = int(round(samples))
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


def _run_batch(
    gains: np.ndarray, route: RouteSpec, params: PlantParams, dt: float, n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """_run_channel for every row of an (n, 6) gain array, in one NumPy time loop.

    Rows hold the flat gains kpv, kiv, kdv, kpa, kia, kda. Both channels of every
    row are stacked into one batch of 2n lanes, each with its own limit, DC gain,
    decay and start velocity, and every lane performs _run_channel's float
    operations in its order, so its error sum is bit-identical to it. Returns the
    (n, 2) error sums, linear then angular, and an (n,) mask of the rows whose
    velocity stayed finite on both channels. A lane does not stop where it
    diverges: a nonfinite velocity never turns finite again (a NaN stays NaN, and
    an infinity meets the clipped command and stays infinite or turns NaN), so the
    final velocity gives _run_channel's verdict.
    """
    n = len(gains)
    kp, ki, kd = (np.concatenate((gains[:, j], gains[:, j + 3])) for j in range(3))
    channels = (params.linear, params.angular)

    def per_lane(values) -> np.ndarray:
        return np.repeat(np.array(values, dtype=float), n)

    limit = per_lane([c.actuator_limit for c in channels])
    neg_limit = -limit
    dc_gain = per_lane([c.dc_gain for c in channels])
    decay = per_lane([math.exp(-dt / c.time_constant) for c in channels])
    velocity = per_lane([c.initial_velocity for c in channels])
    start, end, switch = route.start, route.end, route.phase_duration
    error, prev_error, command, scratch = (np.empty(2 * n) for _ in range(4))
    integral, derivative, total = (np.zeros(2 * n) for _ in range(3))
    with np.errstate(all="ignore"):
        for k in range(n_samples):
            np.subtract(start if k * dt < switch else end, velocity, out=error)
            np.add(total, np.abs(error, out=scratch), out=total)
            np.add(integral, np.multiply(error, dt, out=scratch), out=integral)
            if k:
                np.divide(np.subtract(error, prev_error, out=derivative), dt, out=derivative)
            # kp*e + ki*I + kd*D, left to right; D is 0 on sample 0 and is added all the same
            np.multiply(kp, error, out=command)
            np.add(command, np.multiply(ki, integral, out=scratch), out=command)
            np.add(command, np.multiply(kd, derivative, out=scratch), out=command)
            np.maximum(command, neg_limit, out=command)
            np.minimum(command, limit, out=command)
            target = np.multiply(command, dc_gain, out=command)
            np.add(target, np.multiply(np.subtract(velocity, target, out=scratch), decay, out=scratch), out=velocity)
            error, prev_error = prev_error, error
    finite = np.isfinite(velocity).reshape(2, n).all(axis=0)
    return total.reshape(2, n).T, finite


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
