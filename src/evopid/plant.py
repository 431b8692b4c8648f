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
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

from .ep import EPConfig, Gains, Individual, MutationKind, MutationSpec, _mutate_py, _require_finite


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
    """Sampled (time, desired, actual) series for one channel, spaced by dt; simulate_route writes array("d")s."""

    time: array
    desired: array
    actual: array

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


def _prepare(route: RouteSpec, params: PlantParams, sim: SimConfig) -> tuple[tuple, int, array]:
    """The gate of every route run: its stretches ((start, k), (end, n - k)), its sample count n and its run buffer.

    The stretches are (setpoint, sample count). The run is the 13 doubles _simulate hands the kernel, in one array("d"):
    the plant, per channel, linear then angular, the limit, DC gain, decay and start velocity; then dt, start, end, k
    and n - k, the counts exact as doubles (n <= _MAX_SAMPLES < 2**53).
    On doubles, n = round(total_duration * sample_rate), so the last sample lies at most total_duration - dt / 2. k is
    the first k with k * dt >= phase_duration, capped at n; the guess ceil(phase_duration / dt) is moved by that test,
    on the float k * dt every path uses, until exact. Raises ValueError when the route has no samples or more than
    _MAX_SAMPLES, and, naming the channel, when a first error route.start - initial_velocity overflows: the kernels
    seed their first derivative with it.
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
    run = array("d", lags[0] + lags[1] + (dt, route.start, route.end, k, n - k))
    return ((route.start, k), (route.end, n - k)), n, run


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


def _run_rows_py(rows: int, gains: array, run: array, results: array, actual: array | None) -> None:
    """_kernel.c's evopid_run in Python, its fallback and reference: the same arguments and results.

    Every buffer is an array("d"), indexed as C indexes it: gains holds rows x 6, results rows x 4 and actual rows x 2 x
    (first + second); run holds _prepare's 13 values, the plant's 2 x 4, then dt, start, end, first and second. For each
    of ``rows`` rows of six gains, linear kp, ki, kd then angular, it runs both channels' closed loops along the route,
    each fused into a single pass: the linear one, then the angular one, row after row, where C holds a row's two
    channels in two adjacent lanes of a vector, two rows per 256-bit vector in an AVX build and one row per two-wide
    vector otherwise, and steps the sixteen rows of a block side by side. No two channels share a value, and each vector
    operation is this loop's scalar one on each lane, so each channel performs the same float operations in C, at either
    width, in the same order; C's branchless clamp equals the if/elif below for a limit > 0, NaN and signed zeros
    included (see _kernel.c). Each performs exactly the float operations of route_setpoint, pid_step and plant_step, in
    their order, so results are bit-identical to chaining them.
    The samples run in the two stretches of _prepare's run, ``start`` for ``first`` samples then ``end`` for ``second``,
    so no sample tests its time. The previous error starts as the first error, which makes sample 0's derivative
    (e - e) / dt exactly the 0.0 that pid_step uses there (_prepare has checked that the first error is finite). Row r
    writes to results[4r] and results[4r + 1] its two average errors, each the sum of |setpoint - measurement| over the
    samples in time order over first + second, and to results[4r + 2] and results[4r + 3] its two final velocities,
    linear then angular; actual, when given, receives channel c's measurement of each sample from (2r + c) * (first +
    second) on. A run does not stop where the velocity goes nonfinite: it never turns finite again (a NaN stays NaN, and
    an infinity meets the clipped command and stays infinite or turns NaN), so a nonfinite final velocity on either
    channel is the divergence verdict, which writes DIVERGENCE_AE as both average errors.
    """
    flat, values = gains.tolist(), run.tolist()
    channels, (dt, start, end), (first, second) = values[:8], values[8:11], map(int, values[11:])
    samples = first + second
    for r in range(rows):
        for c in range(2):
            limit, dc_gain, decay, velocity = channels[4 * c : 4 * c + 4]
            kp, ki, kd = flat[6 * r + 3 * c : 6 * r + 3 * c + 3]
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
            results[4 * r + c], results[4 * r + 2 + c] = total / samples, velocity
            if recorded is not None:
                at = (2 * r + c) * samples
                actual[at : at + samples] = array("d", recorded)
        if not (math.isfinite(results[4 * r + 2]) and math.isfinite(results[4 * r + 3])):
            results[4 * r] = results[4 * r + 1] = DIVERGENCE_AE


def _times_py(n: int, dt: float, out: array) -> None:
    """_kernel.c's evopid_times in Python, its fallback and reference: out[k] = k * dt for 0 <= k < n, into the
    array("d") out, whose cells past n it leaves as they are."""
    out[:n] = array("d", [k * dt for k in range(n)])


def _csv_rows_py(columns: list[array], start: int, rows: int) -> bytes:
    """_kernel.c's evopid_csv in Python, its fallback and reference: rows start to start + rows - 1 of the equal-length
    array("d") or array("q") columns as CSV lines, each cell the `repr` of its Python number, comma-joined.

    It formats column by column, and a column whose values in these rows all have the bits of its first once (bits,
    so that 0.0 and -0.0 stay apart).
    """
    width = len(columns)
    cells = (["", ","] * (width - 1) + ["", "\n"]) * rows  # one row's cells go in its even slots
    for j, column in enumerate(columns):
        chunk = column[start : start + rows]
        raw = chunk.tobytes()
        constant = raw == raw[: chunk.itemsize] * rows
        cells[2 * j :: 2 * width] = [repr(chunk[0])] * rows if constant else list(map(repr, chunk))
    return "".join(cells).encode()


# rows per chunk of _csv_chunks; small, so its temporaries stay small
_CSV_CHUNK = 512
# the most bytes evopid_csv writes per cell: "-1.2345678901234567e-05" or an int64, and the separator
_CSV_CELL = 24


def _csv_table(columns: list[array]) -> array:
    """The columns as evopid_csv takes them: per column its address and 1 for an array("q"), 0 for an array("d")."""
    return array("q", [v for column in columns for v in (column.buffer_info()[0], column.typecode == "q")])


# the Python twins transcribed to C; -ffp-contract=off keeps a * b + c from fusing into one rounding.
_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# what makes _c_kernel's fallback build, one row per two-wide vector, where the default one, four-wide on x86, fails
_TWO_WIDE_FLAGS = ("-DEVOPID_TWO_WIDE",)
# what makes _c_csv's build of evopid_csv, the CSV cell formatter, alone
_CSV_FLAGS = ("-DEVOPID_CSV",)


def _cache_dir() -> Path:
    """The per-user kernel cache: $XDG_CACHE_HOME if absolute (the XDG spec ignores a relative one), else ~/.cache;
    then evopid/."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    return Path(base if os.path.isabs(base) else os.path.expanduser("~/.cache")) / "evopid"


@functools.cache
def _library_name(source: bytes, flags: tuple[str, ...]) -> str:
    """The cached library of ``source`` compiled with ``flags``, named by the hash of both; each name hashed once."""
    # imported on first use, so that importing evopid costs no more than before
    import hashlib

    digest = hashlib.sha256(b"\0".join([source, *map(str.encode, flags)])).hexdigest()
    return f"kernel-{digest[:16]}.so"


@functools.cache
def _self_test() -> tuple[tuple, list[array]]:
    """The fixed run every build must match: its arguments but the written buffers, and the twin's results and actual.

    Nineteen unlike rows on two unlike channels, recorded: a full block of sixteen and a partial one of three, so a
    slip in a row stride, a channel offset, a lane or a block's addressing shows, and the last vector of a four-wide
    build holds one row; both stretches, both clamps and nonzero start velocities. Row 14 sits between calm rows of
    block 0 and goes NaN on its linear channel at sample 1, where kp * e is -inf and kd * D is +inf, so a clamp that
    does not pass a NaN through shows too. Each written buffer has one guard row past the nineteen, of -7.25 on both
    sides, so a write just past the end refuses the library rather than corrupting the heap (not every stray write).
    """
    calm = [
        (50.0, 10.0, 2.0, 0.5, 0.05, 0.001),
        (3.0, 0.1, 0.02, 40.0, 5.0, 1.0),
        (0.8, 0.2, 0.01, 2.0, 0.5, 0.0),
        (12.0, 0.0, 0.5, 0.3, 1.5, 0.04),
        (0.2, 4.0, 0.0, 25.0, 0.0, 0.2),
        (7.0, 0.6, 0.08, 1.2, 9.0, 0.003),
        (30.0, 2.5, 0.3, 6.0, 0.02, 0.6),
    ]
    swapped = [row[3:] + row[:3] for row in calm]
    doubled = [tuple(2.0 * g for g in row) for row in calm[:4]]
    rows = calm + swapped + [(1.5e308, 0.0, 1e308, 0.5, 0.05, 0.001)] + doubled
    gains = array("d", [g for row in rows for g in row])
    plant = (2.0, 1.0, math.exp(-0.02 / 0.5), 0.3, 1.5, 0.8, math.exp(-0.02 / 0.3), -0.4)
    args = (len(rows), gains, array("d", plant + (0.02, -1.0, 1.0, 30, 30)))
    want = [array("d", [-7.25]) * (per_row * (len(rows) + 1)) for per_row in (4, 2 * 60)]
    _run_rows_py(*args, *want)
    return args, want


def _times_match(times) -> bool:
    """Whether a library's evopid_times writes fixed time columns as _times_py does, and leaves the guard cell past
    each: one sample, then dt = 1/3 and the trace's 0.02, whose running sums t += dt both part from k * dt at sample 6.
    """
    for n, dt in ((1, 0.5), (40, 1 / 3), (400, 0.02)):
        got, want = (array("d", [-7.25]) * (n + 1) for _ in range(2))
        times(n, dt, got.buffer_info()[0])
        _times_py(n, dt, want)
        if got.tobytes() != want.tobytes():
            return False
    return True


@functools.cache
def _mutate_self_test() -> list[tuple]:
    """The fixed mutations every build's evopid_mutate must make as ep._mutate_py does: per case its arguments but
    the output's address, then the bytes of the twin's mutants and the spare normal it leaves.

    A scaled case without a spare and an absolute one that carries one in, each on a parent with zero gains and gains
    that a step of 3 sigma takes below 0, so both rules for a sum below 0 run, a 0 that stays 0 and a halving; the
    twin's random() reads the words as CPython's does. The first eight words are 0, 0, then four 0xFFFFFFFF, then 0,
    0, so that random() returns 0 and 1 - 2**-53, both its ends: the first pair draws x2pi = 0 and the longest radius,
    the second x2pi just below 2 pi and the radius 0 (-0.0, as sqrt(-2 log 1) is).
    """
    import random
    import types

    cases = []
    for kind, sigma, parent, spare, count in (
        (MutationKind.SCALED, 3.0, (0.0, 1.5, 1e-3, 2.0, 0.0, 40.0), None, 4),
        (MutationKind.ABSOLUTE, 0.5, (0.0, 0.25, 0.01, 1.0, 0.0, 3.0), 0.4, 3),
    ):
        config = EPConfig(count + 1, mutation=MutationSpec(kind, sigma_absolute=sigma, sigma_scaled=sigma))
        words = bytes(8) + b"\xff" * 16 + bytes(8) + random.Random(count).randbytes(48 * count - 32)
        u = [int.from_bytes(words[i : i + 4], "little") for i in range(0, len(words), 4)]
        uniforms = [((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0) for a, b in zip(u[::2], u[1::2])]
        rng = types.SimpleNamespace(random=iter(uniforms).__next__, gauss_next=spare)
        want = array("d", [v for mutant in _mutate_py(parent, config, rng) for v in mutant])
        args = (count, array("d", parent), kind is MutationKind.SCALED, sigma, spare is not None,
                0.0 if spare is None else spare, words)
        cases.append((args, want.tobytes(), rng.gauss_next))
    return cases


def _mutate_matches(mutate) -> bool:
    """Whether a library's evopid_mutate makes _mutate_self_test's mutants and spare as _mutate_py does, and leaves
    the guard cell past the mutants."""
    for (count, parent, *args), want, spare in _mutate_self_test():
        got = array("d", [-7.25]) * (6 * count + 1)
        left = mutate(count, parent.buffer_info()[0], *args, got.buffer_info()[0])
        if got.tobytes() != want + array("d", [-7.25]).tobytes() or spare is not None and left.hex() != spare.hex():
            return False
    return True


@functools.cache
def _csv_self_test() -> tuple[list[array], bytes]:
    """The fixed cells every build's evopid_csv must write as _csv_rows_py does: the columns, and the twin's bytes of
    their rows but the last, whose second cell, 5e-324, evopid_csv does not write. The row before it repeats the bits
    of the row above in every column, so _csv_matches writes it once as a copy and once as a chunk's first row.

    Both zeros, the divergence stand-in, both ends of the range written and of the exponent form, powers of two (whose
    lower gap is half the upper), shortest digits that round up through a 9 (1e-20, 1e-16), integral doubles (whose
    repr ends in .0) and an array("q") column: a dropped, extra or unrounded digit, or a wrong layout, shows. So do
    slips in Ryu's rounding, each caught by a cell of its own: a removed 5 that rounds down (0.08396726102456419, and
    1.7881393432617188e-07 where the removed digits may all be 0), an exact half that does not round to even (2**-25),
    an exact value taken for inexact (236846469644892.12), an exact lower bound kept past a digit that is not 0
    (1932446087322791.0) and a lower bound of a power of two taken for the upper one (2**-24, 2**-44). 0.0 and -0.0
    sit in adjacent rows of both double columns, so a repeated cell copied by value shows. The digit count and the
    pairs written meet every length of 1 to 17 digits and both sides of 2**32 (4294967295, 4294967297), and a
    leading "10" left over after the pairs (0.1023); Ryu's removal meets 1 to 5 digits (3.288828534816 takes 4 + 1),
    and 0.50235915263107 removes four, 0005, so a rounding digit other than the 0 shows.
    """
    doubles = [
        0.0, -0.0, DIVERGENCE_AE, 1e-20, 1.0000000000000001e-20, 1e-16, 9.999999999999999e-05, 0.0001, 0.001,
        2.0**52 - 0.5, 2.0**52 - 1, 1e15, 1.0, 0.1, 0.30000000000000004, 1 / 3, 2.0**-60, 0.9999999999999999, 0.5,
        123.456, 299.98, 0.08396726102456419, 1.7881393432617188e-07, 2.0**-25, 236846469644892.12,
        1932446087322791.0, 2.0**-24, 2.0**-44, 12.3, 0.1023, 0.3353279, 0.013826635, 0.000559297441, 4.294967295,
        4.294967297, 0.49316339843, 0.000605310164985, 3.288828534816, 0.50235915263107, 0.966537976231683, -2.5,
    ]
    ints = [0, -1, 7, -(2**63), 2**63 - 1, 10, 299, 1000] * 6
    columns = [
        array("d", doubles + doubles[-1:] + [1.0]),
        array("d", [x if x == DIVERGENCE_AE else -x for x in reversed(doubles)] + [-doubles[0], 5e-324]),
        array("q", ints[: len(doubles)] + ints[len(doubles) - 1 : len(doubles) + 1]),
    ]
    return columns, _csv_rows_py(columns, 0, len(doubles) + 1)


def _csv_matches(formatter) -> bool:
    """Whether a library's evopid_csv writes _csv_self_test's rows as the twin does, from the first and, alone, the
    repeated one, and refuses its last row at its second cell."""
    columns, want = _csv_self_test()
    table, rows = _csv_table(columns), len(columns[0]) - 1
    out = array("B", bytes(_CSV_CELL * len(columns) * rows))
    written = formatter(0, rows, len(columns), table.buffer_info()[0], out.buffer_info()[0])
    text = out.tobytes()[: max(written, 0)]
    alone = formatter(rows - 1, 1, len(columns), table.buffer_info()[0], out.buffer_info()[0])
    repeated = out.tobytes()[: max(alone, 0)]
    refused = formatter(rows, 1, len(columns), table.buffer_info()[0], out.buffer_info()[0])
    last_line = want[want.rindex(b"\n", 0, -1) + 1 :]
    return text == want and repeated == last_line and refused == -2


def _kernel_matches(kernel, times, mutate) -> bool:
    """Whether a library's evopid_run matches the twin on _self_test's run, its evopid_times passes _times_match and
    its evopid_mutate _mutate_matches, each called with its signature."""
    # the rows, then the addresses of gains, run, results and actual (or None)
    kernel.argtypes = (ctypes.c_int64, *[ctypes.c_void_p] * 4)
    kernel.restype = None
    (rows, *inputs), want = _self_test()
    got = [array("d", [-7.25]) * len(buffer) for buffer in want]
    kernel(rows, *(buffer.buffer_info()[0] for buffer in (*inputs, *got)))
    if any(a.tobytes() != b.tobytes() for a, b in zip(got, want)):
        return False
    # the samples, dt, then the address of the output
    times.argtypes = (ctypes.c_int64, ctypes.c_double, ctypes.c_void_p)
    times.restype = None
    # the mutants, the parent's address, scaled (1) or absolute (0), sigma, whether a spare normal is passed in, the
    # spare, the words' bytes, then the address of the output; it returns the spare normal left
    mutate.argtypes = (ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_int64,
                       ctypes.c_double, ctypes.c_char_p, ctypes.c_void_p)
    mutate.restype = ctypes.c_double
    return _times_match(times) and _mutate_matches(mutate)


def _load_kernel(cache_dir: Path, source: bytes, *flags: str):
    """The library of ``source`` built by cc with _KERNEL_FLAGS and ``flags`` in cache_dir, a directory the caller has
    made and checked, opened once; None on any failure, where its probe evopid_runs_here, asked before any other
    export, says this CPU cannot run the build, and where it fails _kernel_matches. A build with _CSV_FLAGS holds
    evopid_csv alone and no probe: None where that fails _csv_matches.

    The library is named by _library_name; a miss compiles these same bytes, on cc's stdin, and writes the build by
    atomic rename, so no process loads a stale or half-written one. Nothing is printed, cc's own output included.
    """
    flags = (*_KERNEL_FLAGS, *flags)
    path = cache_dir / _library_name(source, flags)
    try:
        if not path.exists():
            # only a miss compiles: a process that finds the library does not pay for importing subprocess
            import subprocess
            import tempfile

            fd, partial = tempfile.mkstemp(suffix=".so", prefix=".kernel-", dir=cache_dir)
            os.close(fd)
            try:
                # -lm after the source, for evopid_mutate's libm calls: a linker that drops libraries no earlier
                # input needs (--as-needed) would drop it in front of the source
                subprocess.run(
                    ["cc", *flags, "-o", partial, "-x", "c", "-", "-lm"],
                    input=source, capture_output=True, check=True, timeout=120,
                )
                os.replace(partial, path)
            except subprocess.SubprocessError:
                return None
            finally:
                Path(partial).unlink(missing_ok=True)
        library = ctypes.CDLL(str(path))
        if _CSV_FLAGS[0] in flags:
            formatter = library.evopid_csv
        else:
            runs_here, kernel, times, mutate = (
                library.evopid_runs_here, library.evopid_run, library.evopid_times, library.evopid_mutate)
    except (OSError, AttributeError):
        return None
    if _CSV_FLAGS[0] in flags:
        # the first row, the rows, the columns, then the addresses of the column table and of the output
        formatter.argtypes = (*[ctypes.c_int64] * 3, *[ctypes.c_void_p] * 2)
        formatter.restype = ctypes.c_int64
        return library if _csv_matches(formatter) else None
    # the probe first, which takes nothing: no other export of a build this CPU cannot run is called
    runs_here.argtypes, runs_here.restype = (), ctypes.c_int
    return library if runs_here() and _kernel_matches(kernel, times, mutate) else None


def _cache_and_source() -> tuple[Path, bytes] | None:
    """The per-user kernel cache (_cache_dir()), made if missing, and _kernel.c's bytes; None where either fails, or
    where someone else could have written to the cache."""
    cache_dir = _cache_dir()
    try:
        cache_dir.mkdir(mode=0o700, parents=True, exist_ok=True)
        owner = cache_dir.stat()
        source = _KERNEL_SOURCE.read_bytes()
    except OSError:
        return None
    # a library that someone else could have written would run their code
    if owner.st_uid != os.getuid() or owner.st_mode & 0o022:
        return None
    return cache_dir, source


@functools.cache
def _c_kernel():
    """The C kernel library, whose evopid_run _simulate calls and evopid_mutate ep._mutate, from the per-user cache, or
    None; loaded once, in one pass.

    The cache directory is made and checked once, and _kernel.c read once (_cache_and_source). One build is made per
    host: the default one, two rows per 256-bit vector on x86; only where it cannot run (a CPU without AVX) or fails
    to compile, load or match is the _TWO_WIDE_FLAGS build, one row per two-wide vector, made and used instead. Then
    the cache's libraries that no build of this source can be, these two and _c_csv's, are removed: those of other
    versions. Linux keeps a mapped library valid after unlink, so a running process is not harmed, and one of another
    version builds its own again.
    """
    found = _cache_and_source()
    if found is None:
        return None
    cache_dir, source = found
    library = _load_kernel(cache_dir, source) or _load_kernel(cache_dir, source, *_TWO_WIDE_FLAGS)
    if library is None:
        return None
    keep = {_library_name(source, (*_KERNEL_FLAGS, *flags)) for flags in ((), _TWO_WIDE_FLAGS, _CSV_FLAGS)}
    for stale in cache_dir.glob("kernel-*.so"):
        if stale.name not in keep:
            try:
                stale.unlink(missing_ok=True)
            except OSError:
                pass
    return library


@functools.cache
def _c_csv():
    """The library whose evopid_csv _csv_chunks calls, from the per-user cache, or None; built and loaded once,
    on a process's first CSV write, so that a process that writes none does not pay for its compile.

    It is the build of _kernel.c with _CSV_FLAGS, which holds evopid_csv alone, with no vector width and no probe, and
    its load check runs _csv_matches. _csv_chunks asks _c_kernel() first, so where that is None it is not built.
    """
    found = _cache_and_source()
    return None if found is None else _load_kernel(*found, *_CSV_FLAGS)


def _csv_chunks(columns: list[array]) -> Iterator[bytes]:
    """The CSV lines of the equal-length array("d") or array("q") columns, _CSV_CHUNK rows at a time: each cell
    the `repr` of its Python number, comma-joined, each row ending in `\\n`.

    A chunk is written by the C kernel's evopid_csv (_c_csv), which writes repr's bytes, or by its twin _csv_rows_py:
    where no kernel is loaded, and for a chunk with a cell evopid_csv does not write (a double that is nonfinite, or
    not 0 and outside 1e-20 <= |x| < 2**52, DIVERGENCE_AE apart). C's text is a view of one buffer, valid until the
    next chunk is asked for. C trusts its pointers, so the columns are checked here, before any chunk is asked for.
    """
    count, width = len(columns[0]), len(columns)
    if not all(type(column) is array and column.typecode in "dq" and len(column) == count for column in columns):
        raise ValueError("the CSV columns must be array('d')s or array('q')s of one length")
    library = None if _c_kernel() is None else _c_csv()

    def chunks():
        if library is not None:
            # held until the last chunk: a buffer with an export cannot be resized
            held = [memoryview(column) for column in columns]
            table = _csv_table(columns)
            out = array("B", bytes(min(count, _CSV_CHUNK) * width * _CSV_CELL))
            addresses, text = (table.buffer_info()[0], out.buffer_info()[0]), memoryview(out)
        for start in range(0, count, _CSV_CHUNK):
            rows = min(_CSV_CHUNK, count - start)
            size = -1 if library is None else library.evopid_csv(start, rows, width, *addresses)
            yield text[:size] if size >= 0 else _csv_rows_py(columns, start, rows)

    return chunks()


def _simulate(gains: array, run: array, record: bool = False):
    """Run every row of six gains (linear kp, ki, kd, then angular) on both channels along the route of ``run``.

    The one checked entry of every simulation, on a run buffer from _prepare. C trusts its pointers, so before it
    hands one over it checks that gains is an array("d") whose length is a multiple of 6, rows x 6, and run one of 13,
    as _prepare packs it; and for a row and whole sample counts >= 0, not both 0 (the kernels divide by their sum) and
    at most _MAX_SAMPLES in all. An array("d") is always flat and contiguous, so its address is all C needs; a
    memoryview of gains and of run is held across the call, which releases the GIL, so that no thread can resize a
    buffer whose address C holds. It allocates the buffers the kernel writes. It runs the C kernel when loaded, else
    _run_rows_py: the two give the same bits. Returns, as array("d")s, the results, 4 per row: at 4r and 4r + 1 row
    r's average errors (DIVERGENCE_AE on both if either channel diverged), at 4r + 2 and 4r + 3 its final
    velocities, linear then angular; and with ``record`` the rows x 2 x n measurements, else None.
    """
    gains_fit = type(gains) is array and gains.typecode == "d" and len(gains) % 6 == 0
    if not (gains_fit and type(run) is array and run.typecode == "d" and len(run) == 13):
        name, buffer, length = ("run", run, "13") if gains_fit else ("gains", gains, "a multiple of 6")
        got = f"array({buffer.typecode!r}) of length {len(buffer)}" if type(buffer) is array else type(buffer).__name__
        raise ValueError(f"{name} does not fit: the kernel takes an array('d') of length {length}, got {got}")
    count, first, second = len(gains) // 6, run[11], run[12]
    if not (count and first.is_integer() and second.is_integer() and first >= 0 and second >= 0
            and 0 < first + second <= _MAX_SAMPLES):
        raise ValueError(
            f"a run takes a row and sample counts >= 0, whole, not both 0 and at most {_MAX_SAMPLES:,} in all, "
            f"got {count} rows of {first!r}+{second!r}"
        )
    results = array("d", bytes(32 * count))
    actual = array("d", [0.0]) * (2 * count * int(first + second)) if record else None
    kernel = _c_kernel()
    if kernel is None:
        _run_rows_py(count, gains, run, results, actual)
    else:
        # held until return: a buffer with an export cannot be resized
        held = memoryview(gains), memoryview(run)
        kernel.evopid_run(count, gains.buffer_info()[0], run.buffer_info()[0], results.buffer_info()[0],
                          None if actual is None else actual.buffer_info()[0])
    return results, actual


def _times(n: int, dt: float) -> array:
    """The trace's time column, k * dt for 0 <= k < n, as an array("d"): written by the C kernel's evopid_times when
    it is loaded, else by _times_py; the two give the same bits."""
    out = array("d", bytes(8 * n))
    library = _c_kernel()
    if library is None:
        _times_py(n, dt, out)
    else:
        library.evopid_times(n, dt, out.buffer_info()[0])
    return out


def simulate_route(individual: Individual, route: RouteSpec, params: PlantParams, sim: SimConfig) -> SimTrace:
    """Drive both channels along the route with their own PID controllers.

    PID states start fresh and both channels start from their configured initial
    velocity (each run is independent of any previous one). Each channel's time,
    desired and actual are array("d")s; at every sample the recorded ``actual`` is
    the measurement the controller acted on, and ``ae`` is the run's average error
    per channel, as fitness_of scores it. Raises SimulationDiverged, naming the
    channel and the sample whose step did it, if a final velocity is nonfinite;
    the linear channel is reported first.
    """
    schedule, n, run = _prepare(route, params, sim)
    results, actual = _simulate(array("d", individual.as_flat()), run, record=True)
    channels = actual[:n], actual[n:]
    for c, name in enumerate(("linear", "angular")):
        if not math.isfinite(results[2 + c]):
            # channels[c][k + 1] is the velocity sample k's step produced; the last step's is not recorded
            k = next((k for k, v in enumerate(channels[c][1:]) if not math.isfinite(v)), n - 1)
            raise SimulationDiverged(name, k)
    (start, first), (end, second) = schedule
    # k * dt at sample k, one rounding of an exact float(k): the bits of NumPy's arange(n) * dt
    time = _times(n, sim.dt)
    desired = array("d", [start]) * first + array("d", [end]) * second
    return SimTrace(*(ChannelTrace(time, desired, channel) for channel in channels), FitnessRecord(*results[:2]))
