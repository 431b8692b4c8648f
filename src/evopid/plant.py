"""Surrogate two-channel vehicle plant, the timed setpoint route it drives, and its PID loop.

Each channel (linear and angular velocity) is a first-order lag with actuator
saturation, advanced by its exact discretization so any sample rate is stable.
The channels do not couple. Each is driven by a discrete-time positional PID
controller at a fixed sample rate.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .ep import Gains, Individual, _require_finite


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


# The per-sample reference: pid_step, route_setpoint and plant_step, chained one sample at a time.
# No simulation path calls them; tests/test_kernel.py requires _run_channel and _run_batch to match them.
class PidState(NamedTuple):
    integral: float = 0.0
    prev_error: float = 0.0
    first_sample_seen: bool = False


def pid_reset() -> PidState:
    """Fresh state: zero integral, derivative contributes 0 on the next sample."""
    return PidState()


def pid_step(state: PidState, gains: Gains, setpoint: float, measurement: float, dt: float) -> tuple[float, PidState]:
    """Advance the controller by one sample and return (control output, new state).

    Rectangular integration, backward-difference derivative on the error. The
    derivative term is forced to 0 on the first sample after a reset. The output
    is not clamped; actuator saturation belongs to the plant.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    error = setpoint - measurement
    integral = state.integral + error * dt
    derivative = (error - state.prev_error) / dt if state.first_sample_seen else 0.0
    output = gains.kp * error + gains.ki * integral + gains.kd * derivative
    return output, PidState(integral, error, True)


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


def _schedule(route: RouteSpec, params: PlantParams, sim: SimConfig) -> tuple[tuple[float, int], tuple[float, int]]:
    """The gate of every route run: the run as (setpoint, sample count) stretches, ((start, k), (end, n - k)).

    n = round(total_duration * sample_rate), so the last sample lies at most total_duration - dt / 2.
    k is the first k with k * dt >= phase_duration, capped at n; the guess ceil(phase_duration / dt)
    is moved by that test, on the float k * dt every path uses, until exact. Raises ValueError
    when the route has no samples or more than _MAX_SAMPLES, and, naming the channel, when a first
    error route.start - initial_velocity overflows: the kernels seed their first derivative with it.
    """
    samples = route.total_duration * sim.sample_rate
    # compared as a float first: an infinite duration cannot be rounded to an int
    if samples > _MAX_SAMPLES:
        raise ValueError(
            f"a route of {route.total_duration!r} s at {sim.sample_rate!r} Hz takes {samples:.6g} samples "
            f"per channel, more than the limit of {_MAX_SAMPLES:,}"
        )
    n = int(round(samples))
    if n == 0:
        raise ValueError("the route has no samples at this sample rate")
    for name, channel in (("linear", params.linear), ("angular", params.angular)):
        if not math.isfinite(route.start - channel.initial_velocity):
            raise ValueError(
                f"route.start - plant.{name}.initial_velocity must be finite, "
                f"got {route.start!r} - {channel.initial_velocity!r}"
            )
    dt, switch = sim.dt, route.phase_duration
    k = math.ceil(switch / dt)
    while k > 0 and (k - 1) * dt >= switch:
        k -= 1
    while k * dt < switch:
        k += 1
    # k <= n whenever n >= 1, so this never binds: with s = phase_duration * sample_rate, n rounds 2s, so
    # n >= 2s - 1/2 and n >= 1 give n - s >= max(s - 1/2, 1 - s) >= 1/4 sample, far above the float error
    # of n * dt at n <= _MAX_SAMPLES; hence n * dt >= phase_duration, and k is the first such sample.
    # It stays as the bound of the C kernel's buffer, which takes k + (n - k) samples and needs both >= 0.
    k = min(k, n)
    return (route.start, k), (route.end, n - k)


def check_step_route(name: str, route: RouteSpec, params: PlantParams, sim: SimConfig) -> None:
    """Raise ValueError, naming the route, unless step_metrics is defined on a run of it."""
    if route.start == route.end:
        raise ValueError(f"the {name} route has no step: start equals end ({route.start!r})")
    (_, k), (_, rest) = _schedule(route, params, sim)
    if rest == 0:
        raise ValueError(
            f"the {name} route gets no sample in its second phase: {k} samples at "
            f"{sim.sample_rate!r} Hz, second phase from {route.phase_duration!r} s"
        )


def _run_channel_py(
    gains: Gains, schedule: tuple, channel: ChannelParams, dt: float, actual: list[float] | None = None
) -> tuple[float, float]:
    """One channel's closed loop along the route, fused into a single pass: the C kernel's fallback and reference.

    Performs exactly the float operations of route_setpoint, pid_step and
    plant_step, in their order, so results are bit-identical to chaining them.
    The samples run in the two stretches of _schedule, ``start`` then ``end``,
    so no sample tests its time. The previous error starts as the first error,
    which makes sample 0's derivative (e - e) / dt exactly the 0.0 that pid_step
    uses there (_schedule has checked that the first error is finite).
    Appends the measurement of each sample to ``actual`` when given. Returns the
    sum of |setpoint - measurement| over the samples in time order, and the final
    velocity. The run does not stop where the velocity goes nonfinite: it never
    turns finite again (a NaN stays NaN, and an infinity meets the clipped command
    and stays infinite or turns NaN), so a nonfinite final velocity is the
    divergence verdict, and the sum is then meaningless.
    """
    kp, ki, kd = gains.kp, gains.ki, gains.kd
    limit = channel.actuator_limit
    neg_limit = -limit
    dc_gain = channel.dc_gain
    decay = math.exp(-dt / channel.time_constant)
    record = actual is not None
    append = actual.append if record else None
    velocity = channel.initial_velocity
    integral = 0.0
    prev_error = schedule[0][0] - velocity
    total = 0.0
    for setpoint, count in schedule:
        for _ in range(count):
            if record:
                append(velocity)
            error = setpoint - velocity
            total += abs(error)
            integral = integral + error * dt
            derivative = (error - prev_error) / dt
            prev_error = error
            command = kp * error + ki * integral + kd * derivative
            if command > limit:
                command = limit
            elif command < neg_limit:
                command = neg_limit
            target = command * dc_gain
            velocity = target + (velocity - target) * decay
    return total, velocity


# _run_channel_py transcribed to C; -ffp-contract=off keeps a * b + c from fusing into one rounding.
_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _call_kernel(
    kernel, gains: Gains, schedule: tuple, channel: ChannelParams, dt: float, actual: np.ndarray | None
) -> tuple[float, float]:
    """The C kernel's (error sum, final velocity); it writes each sample's measurement into ``actual`` when given."""
    (start, first), (end, second) = schedule
    # the kernel writes first + second doubles through actual's pointer
    if actual is not None and (
        first < 0 or second < 0 or first + second != len(actual) or actual.dtype != np.float64
        or not actual.flags.c_contiguous
    ):
        raise ValueError(
            f"a schedule of {first} + {second} samples does not fit a {actual.dtype} buffer of {len(actual)}"
        )
    final_velocity = ctypes.c_double()
    decay = math.exp(-dt / channel.time_constant)
    total = kernel(
        *gains.as_tuple(), channel.actuator_limit, channel.dc_gain, decay, dt, channel.initial_velocity,
        start, first, end, second, None if actual is None else actual.ctypes.data, final_velocity,
    )
    return total, final_velocity.value


def _load_kernel(cache_dir: Path, flags: tuple[str, ...] = _KERNEL_FLAGS):
    """_kernel.c's function through ctypes, compiled by cc into cache_dir on a miss; None on any failure.

    The library is named by the hash of the source and flags and written by atomic rename, so
    no process loads a stale or half-written one, and it is loaded only from a directory that
    this user owns and no one else can write. It is used only if it matches _run_channel_py on
    a fixed run. Nothing is printed, the compiler's own output included.
    """
    # imported on first use, so that importing evopid costs no more than before
    import hashlib
    import subprocess

    try:
        cache_dir.mkdir(mode=0o700, parents=True, exist_ok=True)
        owner = cache_dir.stat()
        # a library that someone else could have written would run their code
        if owner.st_uid != os.getuid() or owner.st_mode & 0o022:
            return None
        digest = hashlib.sha256(b"\0".join([_KERNEL_SOURCE.read_bytes(), *map(str.encode, flags)])).hexdigest()
        library = cache_dir / f"kernel-{digest[:16]}.so"
        if not library.exists():
            fd, partial = tempfile.mkstemp(suffix=".so", prefix=".kernel-", dir=cache_dir)
            os.close(fd)
            try:
                subprocess.run(
                    ["cc", *flags, "-o", partial, str(_KERNEL_SOURCE)],
                    stdin=subprocess.DEVNULL, capture_output=True, check=True, timeout=120,
                )
                os.replace(partial, library)
            finally:
                Path(partial).unlink(missing_ok=True)
        kernel = ctypes.CDLL(str(library)).evopid_run_channel
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    double = ctypes.c_double
    kernel.argtypes = (double,) * 9 + (ctypes.c_int64, double, ctypes.c_int64, ctypes.c_void_p, ctypes.POINTER(double))
    kernel.restype = double
    # both stretches, both clamps and a nonzero start velocity
    run = (Gains(50.0, 10.0, 2.0), ((-1.0, 150), (1.0, 150)), ChannelParams(initial_velocity=0.3), 0.02)
    recorded, actual = [], np.empty(300)
    if _call_kernel(kernel, *run, actual) != _run_channel_py(*run, recorded) or actual.tolist() != recorded:
        return None
    return kernel


def _doubles_exactly(*numbers) -> bool:
    """Whether every number is a float, or an int of at most 2**53 in size, so a double holds it exactly."""
    return all(type(v) is float or (type(v) is int and abs(v) <= 2**53) for v in numbers)


@functools.cache
def _c_kernel():
    """The C kernel from the per-user cache ($XDG_CACHE_HOME or ~/.cache, then evopid/), or None; loaded once."""
    return _load_kernel(Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")) / "evopid")


def _run_channel(
    gains: Gains, schedule: tuple, channel: ChannelParams, dt: float, record: bool = False
) -> tuple[float, float, np.ndarray | None]:
    """_run_channel_py's (error sum, final velocity), and with ``record`` each sample's measurement as an array.

    The C kernel runs when it has loaded and a double holds every number it reads exactly, the
    first error start - initial_velocity included: Python takes an int - int, and kp times it,
    exactly. A one-sample recording takes the Python loop too: its array keeps initial_velocity's
    type, as np.asarray of the loop's list does. Either way the results are bit-identical.
    """
    (start, first), (end, second) = schedule
    velocity = channel.initial_velocity
    kernel = _c_kernel()
    if (
        kernel is None
        or (record and first + second == 1)
        or not _doubles_exactly(
            *gains.as_tuple(), channel.actuator_limit, channel.dc_gain, velocity, start, end, start - velocity, dt
        )
    ):
        recorded = [] if record else None
        total, velocity = _run_channel_py(gains, schedule, channel, dt, recorded)
        return total, velocity, None if recorded is None else np.asarray(recorded)
    actual = np.empty(first + second) if record else None
    return (*_call_kernel(kernel, gains, schedule, channel, dt, actual), actual)


def _run_batch(gains: np.ndarray, schedule: tuple, params: PlantParams, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """_run_channel for every kp, ki, kd row of an (n, 3) array on both channels, in one NumPy time loop.

    Every row runs on both channels as one batch of 2n lanes, each with its channel's
    limit, DC gain, decay and start velocity, and every lane performs _run_channel's
    float operations in its order and on the same schedule, so it is bit-identical
    to it. Returns _run_channel's two results as (n, 2) arrays, linear then angular:
    the error sums and the final velocities.
    """
    n = len(gains)
    kp, ki, kd = np.tile(gains.T, 2)
    channels = (params.linear, params.angular)

    def per_lane(values) -> np.ndarray:
        return np.repeat(np.array(values, dtype=float), n)

    limit = per_lane([c.actuator_limit for c in channels])
    neg_limit = -limit
    dc_gain = per_lane([c.dc_gain for c in channels])
    decay = per_lane([math.exp(-dt / c.time_constant) for c in channels])
    velocity = per_lane([c.initial_velocity for c in channels])
    error, command, scratch, derivative = (np.empty(2 * n) for _ in range(4))
    prev_error = np.subtract(schedule[0][0], velocity)
    integral, total = np.zeros(2 * n), np.zeros(2 * n)
    with np.errstate(all="ignore"):
        for setpoint, count in schedule:
            for _ in range(count):
                np.subtract(setpoint, velocity, out=error)
                np.add(total, np.abs(error, out=scratch), out=total)
                np.add(integral, np.multiply(error, dt, out=scratch), out=integral)
                np.divide(np.subtract(error, prev_error, out=derivative), dt, out=derivative)
                # kp*e + ki*I + kd*D, left to right
                np.multiply(kp, error, out=command)
                np.add(command, np.multiply(ki, integral, out=scratch), out=command)
                np.add(command, np.multiply(kd, derivative, out=scratch), out=command)
                np.maximum(command, neg_limit, out=command)
                np.minimum(command, limit, out=command)
                target = np.multiply(command, dc_gain, out=command)
                np.add(target, np.multiply(np.subtract(velocity, target, out=scratch), decay, out=scratch), out=velocity)
                error, prev_error = prev_error, error
    return total.reshape(2, n).T, velocity.reshape(2, n).T


def simulate_route(individual: Individual, route: RouteSpec, params: PlantParams, sim: SimConfig) -> SimTrace:
    """Drive both channels along the route with their own PID controllers.

    PID states start fresh and both channels start from their configured initial
    velocity (each run is independent of any previous one). At every sample the
    recorded ``actual`` is the measurement the controller acted on. Raises
    SimulationDiverged, naming the channel and the sample whose step did it, if
    a final velocity is nonfinite.
    """
    dt = sim.dt
    schedule = _schedule(route, params, sim)
    setpoints, counts = zip(*schedule)
    time, desired = np.arange(sum(counts)) * dt, np.repeat(setpoints, counts)
    traces = []
    for name, gains, channel in (
        ("linear", individual.linear, params.linear),
        ("angular", individual.angular, params.angular),
    ):
        _, final_velocity, actual = _run_channel(gains, schedule, channel, dt, record=True)
        if not math.isfinite(final_velocity):
            # actual[k + 1] is the velocity sample k's step produced; the last step's is not recorded
            nonfinite = np.flatnonzero(~np.isfinite(actual[1:]))
            raise SimulationDiverged(name, int(nonfinite[0]) if nonfinite.size else len(time) - 1)
        traces.append(ChannelTrace(time, desired, actual))
    return SimTrace(linear=traces[0], angular=traces[1])
