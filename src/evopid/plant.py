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
import sys
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
        return 2.0 * float(self.phase_duration)


@dataclass(frozen=True)
class SimConfig:
    sample_rate: float = 50.0

    def __post_init__(self):
        _require_finite(self, "sample_rate")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be > 0")

    @property
    def dt(self) -> float:
        return 1.0 / float(self.sample_rate)


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


# The finite AE the kernels write for a diverged run, C's DBL_MAX: above every finite average, it loses every selection
DIVERGENCE_AE = sys.float_info.max


class FitnessRecord(NamedTuple):
    """Per-channel average error of one route run. Both values finite and >= 0."""

    ae_linear: float
    ae_angular: float


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Both channels' sampled run, and ``ae``: per channel, the average error the kernel wrote for the run."""

    linear: ChannelTrace
    angular: ChannelTrace
    ae: FitnessRecord

    def __post_init__(self):
        if len(self.linear) != len(self.angular):
            raise ValueError("both channels must have equal length")


# The per-sample reference: pid_step, route_setpoint and plant_step, chained one sample at a time.
# No simulation path calls them; tests/test_kernel.py requires both implementations of _simulate to match them.
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
    """Desired velocity at time t: ``start`` before phase_duration (read as a double), ``end`` from it on."""
    if not 0.0 <= t < route.total_duration:
        raise ValueError(f"t={t!r} outside the route window [0, {route.total_duration})")
    return route.start if t < float(route.phase_duration) else route.end


def plant_step(velocity: float, command: float, params: ChannelParams, dt: float) -> float:
    """Advance the channel one step: saturate the command, then relax toward its DC target, on doubles."""
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    limit = float(params.actuator_limit)
    if command > limit:
        command = limit
    elif command < -limit:
        command = -limit
    target = command * float(params.dc_gain)
    return target + (velocity - target) * math.exp(-dt / float(params.time_constant))


# Most samples one route run may take per channel. A simulation costs time and, in
# simulate_route, memory in proportion to its samples; the longest shipped use, the
# 300 s-per-phase step trace at 50 Hz, takes 30,000.
_MAX_SAMPLES = 10_000_000


def _prepare(route: RouteSpec, params: PlantParams, sim: SimConfig) -> tuple[tuple, int, np.ndarray]:
    """The gate of every route run: its stretches ((start, k), (end, n - k)), its sample count n and its plant.

    The stretches are (setpoint, sample count); the plant is (2, 4) float64, per channel the limit, DC gain,
    decay and start velocity. On doubles, n = round(total_duration * sample_rate), so the last sample lies at
    most total_duration - dt / 2. k is the first k with k * dt >= phase_duration, capped at n; the guess
    ceil(phase_duration / dt) is moved by that test, on the float k * dt every path uses, until exact. Raises
    ValueError when the route has no samples or more than _MAX_SAMPLES, and, naming the channel, when a first
    error route.start - initial_velocity overflows: the kernels seed their first derivative with it.
    """
    samples = route.total_duration * float(sim.sample_rate)
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
        # on the doubles the kernels read: the exact difference of two ints may not convert to one
        if not math.isfinite(float(route.start) - float(channel.initial_velocity)):
            raise ValueError(
                f"route.start - plant.{name}.initial_velocity must be finite, "
                f"got {route.start!r} - {channel.initial_velocity!r}"
            )
    dt, switch = sim.dt, float(route.phase_duration)
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
    channels = (params.linear, params.angular)
    lags = [(c.actuator_limit, c.dc_gain, math.exp(-dt / float(c.time_constant)), c.initial_velocity) for c in channels]
    return ((route.start, k), (route.end, n - k)), n, np.array(lags, dtype=np.float64)


def check_step_route(name: str, route: RouteSpec, params: PlantParams, sim: SimConfig) -> None:
    """Raise ValueError, naming the route, unless step_metrics is defined on a run of it."""
    if route.start == route.end:
        raise ValueError(f"the {name} route has no step: start equals end ({route.start!r})")
    (_, k), (_, rest) = _prepare(route, params, sim)[0]
    if rest == 0:
        raise ValueError(
            f"the {name} route gets no sample in its second phase: {k} samples at "
            f"{sim.sample_rate!r} Hz, second phase from {route.phase_duration!r} s"
        )


def _run_rows_py(
    rows: int, gains, plant, dt: float, start: float, first: int, end: float, second: int, results, actual
) -> None:
    """_kernel.c's evopid_run in Python, its fallback and reference: the same arguments and results.

    For each of ``rows`` rows of six gains, linear kp, ki, kd then angular, it runs
    both channels' closed loops along the route, each fused into a single pass: the
    linear one, then the angular one, row after row, where C holds a row's two
    channels in two adjacent lanes of a vector, two rows per 256-bit vector when
    built with AVX and one row per two-wide vector otherwise, and steps the sixteen
    rows of a block side by side. No two channels share a value, and each vector
    operation is this loop's scalar one on each lane, so each channel performs the
    same float operations in C, at either width, in the same order; C's branchless
    clamp equals the if/elif below for a limit > 0, NaN and signed zeros included
    (see _kernel.c). Each performs exactly the float operations of route_setpoint,
    pid_step and plant_step, in their order, so results are bit-identical to chaining
    them.
    The samples run in the two stretches of _prepare's schedule, ``start`` for ``first``
    samples then ``end`` for ``second``, so no sample tests its time. The previous
    error starts as the first error, which makes sample 0's derivative (e - e) / dt
    exactly the 0.0 that pid_step uses there (_prepare has checked that the first
    error is finite). Row r writes to results[r, :2] its two average errors, each the sum
    of |setpoint - measurement| over the samples in time order over first + second, and to
    results[r, 2:] its two final velocities, linear then angular; actual[r, c], when given,
    receives channel c's measurement of each sample. A run does not stop where the velocity
    goes nonfinite: it never turns finite again (a NaN stays NaN, and an infinity meets the
    clipped command and stays infinite or turns NaN), so a nonfinite final velocity on either
    channel is the divergence verdict, which writes DIVERGENCE_AE as both average errors.
    """
    channels, rows_of_gains, samples = plant.tolist(), gains.tolist(), first + second
    for r in range(rows):
        for c, (limit, dc_gain, decay, velocity) in enumerate(channels):
            kp, ki, kd = rows_of_gains[r][3 * c : 3 * c + 3]
            neg_limit = -limit
            recorded = [] if actual is not None else None
            integral = 0.0
            prev_error = start - velocity
            total = 0.0
            for setpoint, count in ((start, first), (end, second)):
                for _ in range(count):
                    if recorded is not None:
                        recorded.append(velocity)
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
            results[r, c], results[r, 2 + c] = total / samples, velocity
            if recorded is not None:
                actual[r, c] = recorded
        if not (math.isfinite(results[r, 2]) and math.isfinite(results[r, 3])):
            results[r, :2] = DIVERGENCE_AE


# _run_rows_py transcribed to C; -ffp-contract=off keeps a * b + c from fusing into one rounding.
_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _host_has_avx() -> bool:
    """Whether NumPy's runtime CPU detection reports AVX; False where this NumPy has no such report."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return __cpu_features__.get("AVX") is True


def _load_kernel(cache_dir: Path, *flags: str):
    """_kernel.c's function through ctypes, compiled by cc with _KERNEL_FLAGS and ``flags`` into cache_dir on a miss;
    None on any failure.

    The library is named by the hash of _KERNEL_SOURCE and the flags and written by atomic
    rename, so no process loads a stale or half-written one, and it is loaded only from a directory
    that this user owns and no one else can write. It is used only if it matches _run_rows_py on
    a fixed run. Nothing is printed, the compiler's own output included.
    """
    flags = (*_KERNEL_FLAGS, *flags)
    # imported on first use, so that importing evopid costs no more than before
    import hashlib

    try:
        cache_dir.mkdir(mode=0o700, parents=True, exist_ok=True)
        owner = cache_dir.stat()
        # a library that someone else could have written would run their code
        if owner.st_uid != os.getuid() or owner.st_mode & 0o022:
            return None
        digest = hashlib.sha256(b"\0".join([_KERNEL_SOURCE.read_bytes(), *map(str.encode, flags)])).hexdigest()
        library = cache_dir / f"kernel-{digest[:16]}.so"
        if not library.exists():
            # only a miss compiles: a process that finds the library does not pay for importing subprocess
            import subprocess

            fd, partial = tempfile.mkstemp(suffix=".so", prefix=".kernel-", dir=cache_dir)
            os.close(fd)
            try:
                subprocess.run(
                    ["cc", *flags, "-o", partial, str(_KERNEL_SOURCE)],
                    stdin=subprocess.DEVNULL, capture_output=True, check=True, timeout=120,
                )
                os.replace(partial, library)
            except subprocess.SubprocessError:
                return None
            finally:
                Path(partial).unlink(missing_ok=True)
        kernel = ctypes.CDLL(str(library)).evopid_run
    except (OSError, AttributeError):
        return None
    count, double = ctypes.c_int64, ctypes.c_double
    pointer = ctypes.POINTER(double)
    kernel.argtypes = (count, pointer, pointer, double, double, count, double, count, pointer, pointer)
    kernel.restype = None
    # nineteen unlike rows on two unlike channels, recorded: a full block of sixteen and a partial one of three, so
    # a slip in a row stride, a channel offset, a lane or a block's addressing shows, and the last vector of a
    # four-wide build holds one row; both stretches, both clamps and nonzero start velocities. Row 14 sits between
    # calm rows of block 0 and goes NaN on its linear channel at sample 1, where kp * e is -inf and kd * D is +inf,
    # so a clamp that does not pass a NaN through shows too.
    calm = [
        (50.0, 10.0, 2.0, 0.5, 0.05, 0.001),
        (3.0, 0.1, 0.02, 40.0, 5.0, 1.0),
        (0.8, 0.2, 0.01, 2.0, 0.5, 0.0),
        (12.0, 0.0, 0.5, 0.3, 1.5, 0.04),
        (0.2, 4.0, 0.0, 25.0, 0.0, 0.2),
        (7.0, 0.6, 0.08, 1.2, 9.0, 0.003),
        (30.0, 2.5, 0.3, 6.0, 0.02, 0.6),
    ]
    # built from tuples: NumPy's stacking and fancy indexing would cost this process about 0.15 MB of peak RSS
    swapped = [row[3:] + row[:3] for row in calm]
    doubled = [tuple(2.0 * g for g in row) for row in calm[:4]]
    gains = np.array(calm + swapped + [(1.5e308, 0.0, 1e308, 0.5, 0.05, 0.001)] + doubled)
    plant = np.array([(2.0, 1.0, math.exp(-0.02 / 0.5), 0.3), (1.5, 0.8, math.exp(-0.02 / 0.3), -0.4)])
    rows = len(gains)
    got, want = [(np.empty((rows, 4)), np.empty((rows, 2, 60))) for _ in range(2)]
    at = ctypes.c_double.from_buffer
    kernel(rows, at(gains), at(plant), 0.02, -1.0, 30, 1.0, 30, *map(at, got))
    _run_rows_py(rows, gains, plant, 0.02, -1.0, 30, 1.0, 30, *want)
    return None if any(a.tobytes() != b.tobytes() for a, b in zip(got, want)) else kernel


@functools.cache
def _c_kernel():
    """The C kernel from the per-user cache ($XDG_CACHE_HOME or ~/.cache, then evopid/), or None; loaded once.

    Where the host has AVX it is built with -mavx, two rows per 256-bit vector; if that build fails to compile,
    load or match, or the host has no AVX, it is the baseline build, one row per two-wide vector.
    """
    cache_dir = Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")) / "evopid"
    kernel = _load_kernel(cache_dir, "-mavx") if _host_has_avx() else None
    return kernel if kernel is not None else _load_kernel(cache_dir)


def _simulate(rows, schedule: tuple, plant: np.ndarray, dt: float, record: bool = False):
    """Run every row of six gains (linear kp, ki, kd, then angular) on both channels along the schedule.

    The one checked entry of every simulation, on a schedule and plant from _prepare; it reads every number as a double.
    C trusts its pointers, so before it hands one over it checks for a row, sample counts >= 0 and not both 0 (the
    kernels divide by their sum), and gains and plant C-contiguous float64 of shapes (rows, 6) and (2, 4); it allocates
    the buffers the kernel writes. It runs the C kernel when loaded, else _run_rows_py: the two give the same bits.
    Returns the (rows, 4) results, per row the average errors (DIVERGENCE_AE on both if either channel diverged) and
    the final velocities, linear then angular; and with ``record`` the (rows, 2, n) measurements, else None.
    """
    gains = np.array(rows, dtype=np.float64)
    (start, first), (end, second) = schedule
    count = len(gains)
    if count < 1 or first < 0 or second < 0 or first + second == 0:
        raise ValueError(f"a run takes a row and sample counts >= 0, not both 0, got {count} rows of {first}+{second}")
    # one expression on the path every call takes; np.array has made gains float64 already
    gains_fit = gains.shape == (count, 6) and gains.flags.c_contiguous
    if not (gains_fit and plant.shape == (2, 4) and plant.dtype == np.float64 and plant.flags.c_contiguous):
        name, array, shape = ("plant", plant, (2, 4)) if gains_fit else ("gains", gains, (count, 6))
        raise ValueError(
            f"{name} does not fit: the kernel takes a contiguous float64 array of shape {shape}, "
            f"got {array.dtype} of shape {array.shape}"
        )
    results = np.empty((count, 4))
    actual = np.empty((count, 2, first + second)) if record else None
    dt, start, end = float(dt), float(start), float(end)
    kernel = _c_kernel()
    if kernel is None:
        _run_rows_py(count, gains, plant, dt, start, first, end, second, results, actual)
    else:
        # a ctypes double over each array's first element, which ctypes passes by reference
        at = ctypes.c_double.from_buffer
        data = None if actual is None else at(actual)
        kernel(count, at(gains), at(plant), dt, start, first, end, second, at(results), data)
    return results, actual


def simulate_route(individual: Individual, route: RouteSpec, params: PlantParams, sim: SimConfig) -> SimTrace:
    """Drive both channels along the route with their own PID controllers.

    PID states start fresh and both channels start from their configured initial
    velocity (each run is independent of any previous one). At every sample the
    recorded ``actual`` is the measurement the controller acted on, as a float64
    array, and ``ae`` is the run's average error per channel, as fitness_of scores
    it. Raises SimulationDiverged, naming the channel and the sample whose step
    did it, if a final velocity is nonfinite; the linear channel is reported first.
    """
    dt = sim.dt
    schedule, n, plant = _prepare(route, params, sim)
    setpoints, counts = zip(*schedule)
    time, desired = np.arange(n) * dt, np.repeat(setpoints, counts)
    results, actual = _simulate([individual.as_flat()], schedule, plant, dt, record=True)
    for c, name in enumerate(("linear", "angular")):
        if not math.isfinite(results[0, 2 + c]):
            # actual[k + 1] is the velocity sample k's step produced; the last step's is not recorded
            nonfinite = np.flatnonzero(~np.isfinite(actual[0, c, 1:]))
            raise SimulationDiverged(name, int(nonfinite[0]) if nonfinite.size else len(time) - 1)
    ae = FitnessRecord(*results[0, :2].tolist())
    return SimTrace(*(ChannelTrace(time, desired, channel) for channel in actual[0]), ae)
