"""The one simulation entry against its plain references.

plant._simulate, behind simulate_route, fitness_of and grid_oracle, is checked
against a reference that chains route_setpoint, pid_step and plant_step one
sample at a time and reduces with reference.average_error. It runs on each
implementation in turn: the C kernel as the host builds it, compiled here with
warnings as errors; on a host with AVX, where that build runs two rows per
256-bit vector, the baseline build too, one row per two-wide vector; the
baseline once more with __SSE2__ undefined; and its Python twin, which it
falls back to. A call with many rows is checked row by row against one call per
row, and grid_oracle against the per-point loop it replaced. Every pair must agree exactly: the same arrays, the same
average errors and the same divergence sample, not merely close values.
"""

import ast
import contextlib
import ctypes
import functools
import gc
import inspect
import itertools
import json
import math
import os
import random
import re
import shutil
import sys
import threading
import types
import weakref
from array import array
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evopid import (
    DIVERGENCE_AE,
    ChannelParams,
    ChannelTrace,
    FitnessRecord,
    GainGrid,
    Gains,
    GridOracleResult,
    Individual,
    PlantParams,
    RouteSpec,
    SimConfig,
    SimTrace,
    SimulationDiverged,
    build_experiment_spec,
    fitness_of,
    grid_oracle,
    pid_reset,
    pid_step,
    plant_step,
    route_setpoint,
    run_experiment,
    simulate_route,
)
import evopid.harness
import evopid.metrics
import evopid.plant
from evopid.metrics import _fitness_rows
from evopid.plant import (
    _CSV_CELL,
    _CSV_FLAGS,
    _KERNEL_FLAGS,
    _MAX_SAMPLES,
    _cache_dir,
    _csv_table,
    _host_has_avx,
    _library_name,
    _load_kernel,
    _prepare,
    _run_rows_py,
    _simulate,
)
from reference import average_error, numpy_grid_oracle

NO_CC = "no C compiler: cc is not on PATH, so only the Python twin is tested"
NO_AVX = "the host has no AVX, so the four-wide build cannot run here"
SOURCE = evopid.plant._KERNEL_SOURCE.read_bytes()


def host_has_avx() -> bool:
    """Whether the host runs AVX, as the baseline build in the per-user cache reports; False without that build."""
    cache = _cache_dir()
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    baseline = _load_kernel(cache, SOURCE)
    return baseline is not None and _host_has_avx(baseline)


# the flags of each vector width _c_kernel may build, the widest first: two rows per 256-bit vector under AVX,
# one row per two-wide vector otherwise; only those the host runs
WIDTHS = {"four-wide": ("-mavx",), "two-wide": ()} if host_has_avx() else {"two-wide": ()}


def build_kernel(tmp_path_factory, *flags):
    """The C kernel library compiled into a fresh cache with every warning an error and the given flags, or None
    without cc."""
    if shutil.which("cc") is None:
        return None
    library = _load_kernel(tmp_path_factory.mktemp("kernel"), SOURCE, "-Wall", "-Wextra", "-Werror", *flags)
    assert library is not None, f"the C kernel built with {flags} failed to compile, load or match the Python loop"
    return library


@pytest.fixture(scope="session")
def c_kernel(tmp_path_factory):
    """The C kernel as _c_kernel builds it on this host, with every warning an error, or None without cc."""
    return build_kernel(tmp_path_factory, *next(iter(WIDTHS.values())))


@pytest.fixture(scope="session")
def kernels(c_kernel, tmp_path_factory):
    """Each implementation _simulate can run on: when cc is on PATH the C kernel as the host builds it; on a host
    with AVX, the baseline two-wide build beside it; the baseline built with __SSE2__ undefined, whose clamp is the
    portable one that platforms without SSE2 run; then the Python twin (None).
    """
    if c_kernel is None:
        return [None]
    baseline = [build_kernel(tmp_path_factory)] if len(WIDTHS) > 1 else []
    return [c_kernel, *baseline, build_kernel(tmp_path_factory, "-U__SSE2__"), None]


@pytest.fixture(scope="session")
def c_formatter(tmp_path_factory):
    """The CSV cell formatter's library as _c_csv builds it, with every warning an error, or None without cc."""
    return build_kernel(tmp_path_factory, *_CSV_FLAGS)


def packed(rows) -> array:
    """Rows of six gains as the one flat buffer of doubles _simulate takes."""
    return array("d", itertools.chain.from_iterable(rows))


# a plant as _prepare packs it: per channel, linear then angular, the limit, DC gain, decay and start velocity
PLANT = (2.0, 1.0, 0.96, 0.3, 1.5, 0.8, 0.93, -0.4)


def packed_run(schedule) -> array:
    """A literal schedule ((start, first), (end, second)) on PLANT at 50 Hz, as the run buffer _prepare packs: the
    plant, dt, start, end, first and second."""
    (start, first), (end, second) = schedule
    return array("d", [*PLANT, 0.02, start, end, first, second])


def addresses(*buffers) -> list:
    """Each array's address as the C kernel takes it, None as NULL."""
    return [None if buffer is None else buffer.buffer_info()[0] for buffer in buffers]


def running(run):
    """A stand-in kernel library whose evopid_run is the given function: _simulate calls nothing else of it."""
    return types.SimpleNamespace(evopid_run=run)


@contextlib.contextmanager
def using(kernel):
    """Make _simulate take the given C kernel library, or the Python twin for None."""
    saved = evopid.plant._c_kernel
    evopid.plant._c_kernel = lambda: kernel
    try:
        yield
    finally:
        evopid.plant._c_kernel = saved


def reference_simulate_route(individual, route, params, sim):
    # the chain starts from doubles, as the entry hands its kernel the setpoints and start velocities
    dt = sim.dt
    n_samples = int(round(route.total_duration * float(sim.sample_rate)))
    traces = []
    for name, gains, channel in (
        ("linear", individual.linear, params.linear),
        ("angular", individual.angular, params.angular),
    ):
        state = pid_reset()
        velocity = float(channel.initial_velocity)
        times, desired, actual = [], [], []
        for k in range(n_samples):
            t = k * dt
            setpoint = route_setpoint(route, t)
            times.append(t)
            desired.append(setpoint)
            actual.append(velocity)
            command, state = pid_step(state, gains, float(setpoint), velocity, dt)
            velocity = plant_step(velocity, command, channel, dt)
            if not math.isfinite(velocity):
                raise SimulationDiverged(name, k)
        traces.append(ChannelTrace(array("d", times), array("d", desired), array("d", actual)))
    return SimTrace(linear=traces[0], angular=traces[1], ae=FitnessRecord(*map(average_error, traces)))


def reference_fitness(individual, route, params, sim):
    try:
        return reference_simulate_route(individual, route, params, sim).ae
    except SimulationDiverged:
        return FitnessRecord(DIVERGENCE_AE, DIVERGENCE_AE)


def assert_same_run(individual, route, params, sim, kernels):
    try:
        expected, diverged = reference_simulate_route(individual, route, params, sim), None
    except SimulationDiverged as exc:
        expected, diverged = None, exc
    fitness = reference_fitness(individual, route, params, sim)
    for kernel in kernels:
        with using(kernel):
            if diverged is not None:
                with pytest.raises(SimulationDiverged) as excinfo:
                    simulate_route(individual, route, params, sim)
                assert (excinfo.value.channel, excinfo.value.sample_index) == (diverged.channel, diverged.sample_index)
            else:
                got = simulate_route(individual, route, params, sim)
                for name in ("linear", "angular"):
                    for field in ("time", "desired", "actual"):
                        a = getattr(getattr(got, name), field)
                        b = getattr(getattr(expected, name), field)
                        assert a.typecode == b.typecode, (name, field)
                        assert np.array_equal(a, b), (name, field)
                assert got.ae == expected.ae
            assert fitness_of(individual, route, params, sim) == fitness


def float32_pair(phase_duration, sample_rate):
    """An environment of NumPy float32 fields, and the equal one of their doubles."""
    channels = (ChannelParams(0.9, 0.7, 1.5, -5.0), ChannelParams(time_constant=0.3))

    def environment(cast):
        return (
            RouteSpec(cast(np.float32(-0.3)), cast(np.float32(0.3)), cast(np.float32(phase_duration))),
            PlantParams(*(ChannelParams(*(cast(np.float32(v)) for v in astuple(c))) for c in channels)),
            SimConfig(cast(np.float32(sample_rate))),
        )

    return environment(lambda v: v), environment(float)


FLOAT32_SWITCH, FLOAT32_SAMPLES = float32_pair(1.1, 50.0)[0], float32_pair(1.015, 50.0)[0]


gains = st.builds(
    Gains,
    kp=st.floats(0.0, 50.0),
    ki=st.floats(0.0, 10.0),
    kd=st.floats(0.0, 2.0),
)
channels = st.builds(
    ChannelParams,
    dc_gain=st.floats(0.1, 3.0),
    time_constant=st.floats(0.02, 2.0),
    actuator_limit=st.floats(0.1, 5.0),
    initial_velocity=st.floats(-2.0, 2.0),
)
routes = st.builds(
    RouteSpec,
    start=st.floats(-1.0, 1.0),
    end=st.floats(-1.0, 1.0),
    phase_duration=st.floats(0.1, 3.0),
)


@settings(max_examples=60)
@given(
    linear=gains,
    angular=gains,
    linear_plant=channels,
    angular_plant=channels,
    route=routes,
    sample_rate=st.floats(5.0, 100.0),
)
@example(  # 2 * 0.3337 s at 47.3 Hz is 31.57 samples, not an integer
    linear=Gains(50.0, 10.0, 2.0),
    angular=Gains(0.0, 0.0, 0.0),
    linear_plant=ChannelParams(initial_velocity=0.7),
    angular_plant=ChannelParams(time_constant=0.3, initial_velocity=-1.5),
    route=RouteSpec(-0.3, 0.3, phase_duration=0.3337),
    sample_rate=47.3,
)
# float32 fields run as the doubles they equal: in float32 arithmetic 1.1 s would switch phase one sample
# earlier, and 2 * 1.015 s at 50 Hz would round to one sample more
@example(
    linear=Gains(0.8, 0.2, 0.01),
    angular=Gains(2.0, 0.5, 0.0),
    linear_plant=FLOAT32_SWITCH[1].linear,
    angular_plant=FLOAT32_SWITCH[1].angular,
    route=FLOAT32_SWITCH[0],
    sample_rate=FLOAT32_SWITCH[2].sample_rate,
)
@example(
    linear=Gains(0.8, 0.2, 0.01),
    angular=Gains(2.0, 0.5, 0.0),
    linear_plant=FLOAT32_SAMPLES[1].linear,
    angular_plant=FLOAT32_SAMPLES[1].angular,
    route=FLOAT32_SAMPLES[0],
    sample_rate=FLOAT32_SAMPLES[2].sample_rate,
)
def test_fused_loop_matches_per_sample_reference(
    linear, angular, linear_plant, angular_plant, route, sample_rate, kernels
):
    assert_same_run(
        Individual(linear, angular), route, PlantParams(linear_plant, angular_plant), SimConfig(sample_rate), kernels
    )


@pytest.mark.parametrize("channel", ["linear", "angular"])
def test_forced_divergence_matches_reference(channel, sim, train_route, kernels):
    # From -5 m/s the first error is large enough that kp*e overflows to +inf; on sample 1 the error
    # shrinks, kd*D overflows to -inf, and inf - inf makes the command NaN.
    huge = Gains(1e308, 0.0, 1e308)
    calm = Gains(0.1, 0.0, 0.0)
    start_low = ChannelParams(initial_velocity=-5.0)
    if channel == "linear":
        individual, params = Individual(huge, calm), PlantParams(linear=start_low)
    else:
        individual, params = Individual(calm, huge), PlantParams(angular=start_low)
    with pytest.raises(SimulationDiverged) as excinfo:
        reference_simulate_route(individual, train_route, params, sim)
    assert (excinfo.value.channel, excinfo.value.sample_index) == (channel, 1)
    assert_same_run(individual, train_route, params, sim, kernels)
    for kernel in kernels:
        with using(kernel):
            assert fitness_of(individual, train_route, params, sim) == (DIVERGENCE_AE, DIVERGENCE_AE)


def test_route_without_samples_matches_reference(plant, kernels):
    # 2 * 0.1 s at 2 Hz rounds to 0 samples: no average error to take, so no run either
    route, sim = RouteSpec(0.0, 1.0, phase_duration=0.1), SimConfig(2.0)
    individual = Individual(Gains(1.0, 0.0, 0.0), Gains(1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        reference_fitness(individual, route, plant, sim)
    for kernel, run in itertools.product(kernels, (fitness_of, simulate_route)):
        with using(kernel), pytest.raises(ValueError, match="the route has no samples at this sample rate"):
            run(individual, route, plant, sim)


def test_integer_route_and_start_velocity_match_reference(sim, kernels):
    # the desired array holds the ints' doubles, which the loops run on too
    route = RouteSpec(0, 1, phase_duration=1)
    params = PlantParams(ChannelParams(initial_velocity=0), ChannelParams(initial_velocity=1))
    individual = Individual(Gains(0.8, 0.2, 0.01), Gains(2.0, 0.0, 0.0))
    for kernel in kernels:
        with using(kernel):
            desired = simulate_route(individual, route, params, sim).linear.desired
            assert desired.typecode == "d" and desired.tolist() == [0.0] * 50 + [1.0] * 50
    assert_same_run(individual, route, params, sim, kernels)


def test_divergence_on_the_final_sample_matches_reference(kernels):
    # two samples: the inf - inf of test_forced_divergence_matches_reference lands on the last one,
    # whose velocity is never recorded, so the index comes from the final velocity alone
    individual = Individual(Gains(1e308, 0.0, 1e308), Gains(0.1, 0.0, 0.0))
    route, sim = RouteSpec(-0.3, -0.3, phase_duration=0.02), SimConfig(50.0)
    params = PlantParams(linear=ChannelParams(initial_velocity=-5.0))
    with pytest.raises(SimulationDiverged) as excinfo:
        reference_simulate_route(individual, route, params, sim)
    assert (excinfo.value.channel, excinfo.value.sample_index) == ("linear", 1)
    assert_same_run(individual, route, params, sim, kernels)


@settings(max_examples=200)
@given(
    phase_duration=st.floats(0.001, 10.0),
    sample_rate=st.floats(1.0, 500.0),
)
@example(phase_duration=0.06, sample_rate=50.0)
@example(phase_duration=3.0, sample_rate=50.0)
@example(phase_duration=0.3337, sample_rate=47.3)
@example(phase_duration=0.14, sample_rate=50.0)  # ceil(7.000000000000001) is one too many
@example(phase_duration=3.5, sample_rate=196.0)  # 686 * dt is 3.4999999999999996, one too few
@example(phase_duration=0.01, sample_rate=50.0)  # the route's one sample caps the switch: ((0.0, 1), (1.0, 0))
def test_phase_switch_is_the_first_sample_of_the_second_phase(phase_duration, sample_rate):
    route, sim = RouteSpec(0.0, 1.0, phase_duration), SimConfig(sample_rate)
    n = int(round(route.total_duration * sample_rate))
    assume(n > 0)
    first = next(k for k in itertools.count() if k * sim.dt >= phase_duration)
    assert _prepare(route, PlantParams(), sim)[0] == ((0.0, min(first, n)), (1.0, n - min(first, n)))


# ---------------------------------------------------------------- the C kernel and its fallback


def rounded(route, params):
    """The route and plant with every number as the double the kernels read."""
    return (
        RouteSpec(float(route.start), float(route.end), route.phase_duration),
        PlantParams(*(ChannelParams(*map(float, astuple(c))) for c in (params.linear, params.angular))),
    )


@pytest.mark.parametrize("start, velocity", [(2**53 + 1, 1), (1, 2**53 + 1)])
def test_int_first_error_beyond_2_53_matches_reference(start, velocity, sim, kernels):
    # Every number is read as a double, so 2**53 + 1 runs as 2**53 on both implementations: they give
    # the reference's bits on the rounded doubles. One sample, whose error is the whole AE.
    route = RouteSpec(start, 0, phase_duration=0.01)
    params = PlantParams(ChannelParams(initial_velocity=velocity), ChannelParams(time_constant=0.3))
    individual = Individual(Gains(1.0, 0.5, 0.01), Gains(1.0, 0.0, 0.0))
    assert_same_run(individual, *rounded(route, params), sim, kernels)
    expected = reference_fitness(individual, *rounded(route, params), sim)
    assert expected.ae_linear == abs(float(start) - float(velocity)) != abs(start - velocity)
    for kernel in kernels:
        with using(kernel):
            assert fitness_of(individual, route, params, sim) == expected
            actual = simulate_route(individual, route, params, sim).linear.actual
            assert actual.typecode == "d" and actual.tolist() == [float(velocity)]


def test_one_sample_route_keeps_an_int_start_velocity(sim, kernels):
    # 2 * 0.01 s at 50 Hz is one sample, whose measurement is the start velocity itself: its value is
    # kept, as the double that every recording is, and both implementations give the same bits
    route = RouteSpec(0.0, 1.0, phase_duration=0.01)
    params = PlantParams(ChannelParams(initial_velocity=0), ChannelParams(time_constant=0.3, initial_velocity=1))
    individual = Individual(Gains(0.8, 0.2, 0.01), Gains(2.0, 0.0, 0.0))
    for kernel in kernels:
        with using(kernel):
            trace = simulate_route(individual, route, params, sim)
            for channel, velocity in ((trace.linear, 0.0), (trace.angular, 1.0)):
                assert channel.actual.typecode == "d" and channel.actual.tolist() == [velocity]
    assert_same_run(individual, *rounded(route, params), sim, kernels)


@pytest.mark.parametrize(
    "route, channel, gains, record",
    [
        (RouteSpec(-0.3, 0.3), ChannelParams(), Gains(0.5, 0.05, 0.001), True),
        (RouteSpec(2**53, 1), ChannelParams(initial_velocity=0), Gains(3, 0, 0), False),
        (RouteSpec(2**53 + 1, 1), ChannelParams(), Gains(0.5, 0.05, 0.001), False),
        (RouteSpec(2**53, 1), ChannelParams(initial_velocity=-1), Gains(3, 0, 0), False),
        (RouteSpec(-0.3, 0.3), ChannelParams(actuator_limit=2**53 + 1), Gains(0.5, 0.05, 0.001), False),
        (RouteSpec(-0.3, 0.3), ChannelParams(), Gains(np.float64(0.5), 0.05, 0.001), False),
        (RouteSpec(-0.3, 0.3, phase_duration=0.01), ChannelParams(), Gains(0.5, 0.05, 0.001), True),
        (RouteSpec(np.float32(-0.3), np.float32(0.3)), ChannelParams(), Gains(0.5, 0.05, 0.001), True),
    ],
    ids=["floats", "ints-to-2**53", "int-beyond-2**53", "int-first-error-beyond-2**53", "int-limit-beyond-2**53",
         "numpy-scalar", "one-sample-record", "float32-route"],
)
def test_run_channel_takes_the_c_kernel_only_where_it_is_exact(route, channel, gains, record, c_kernel, sim):
    # Every number is read as a double, so C is exact on every input: each call takes it once, and it
    # gives the Python twin's bits, also for ints beyond 2**53, NumPy scalars and one-sample recordings;
    # a float32 setpoint is read as its double, not left to NumPy's float32 arithmetic in the twin
    if c_kernel is None:
        pytest.skip(NO_CC)
    calls = []

    def spy(*args):
        calls.append(args)
        return c_kernel.evopid_run(*args)

    params = PlantParams(channel, channel)
    run, rows = _prepare(route, params, sim)[2], packed([gains.as_tuple() * 2])
    with using(running(spy)):
        results, actual = _simulate(rows, run, record)
    assert len(calls) == 1
    with using(None):
        expected, expected_actual = _simulate(rows, run, record)
    assert results.tobytes() == expected.tobytes()
    if record:
        assert actual.typecode == "d" and actual.tobytes() == expected_actual.tobytes()
    else:
        assert actual is expected_actual is None


@pytest.mark.parametrize(
    "schedule, replaced",
    [
        (((0.0, 3), (1.0, -1)), {}),
        (((0.0, -1), (1.0, 3)), {}),
        (((0.0, 3), (1.0, 3)), {"rows": array("d")}),
        (((0.0, 3), (1.0, 3)), {"rows": np.zeros((2, 3))}),
        (((0.0, 3), (1.0, 3)), {"rows": np.zeros((2, 6), order="F")}),
        (((0.0, 3), (1.0, 3)), {"rows": np.zeros(12)}),
        (((0.0, 3), (1.0, 3)), {"rows": array("f", [0.0]) * 12}),
        (((0.0, 3), (1.0, 3)), {"run": np.ones(13)}),
        (((0.0, 3), (1.0, 3)), {"run": array("d", [1.0]) * 12}),
        (((0.0, 3), (1.0, 3)), {"run": array("d", [1.0]) * 14}),
        (((0.0, 3), (1.0, 3)), {"run": array("f", [1.0]) * 13}),
        (((0.0, 2.5), (1.0, 3)), {}),
        (((0.0, 3), (1.0, math.nan)), {}),
        (((0.0, _MAX_SAMPLES), (1.0, 1)), {}),
        (((0.0, 0), (1.0, 0)), {}),
    ],
    ids=[
        "negative-second", "negative-first", "no-rows", "gains-of-three", "gains-fortran", "gains-numpy",
        "gains-of-floats", "run-numpy", "run-of-twelve", "run-of-fourteen", "run-of-floats", "count-not-whole",
        "count-nan", "counts-above-the-cap", "no-samples",
    ],
)
def test_kernel_call_rejects_a_buffer_that_does_not_fit(schedule, replaced, monkeypatch):
    # two rows: 12 gains and a run of 13 values, one of them replaced (only an array("d") fits: a NumPy array does
    # not, of any shape or order); results and actual are _simulate's own
    def kernel(*args):
        pytest.fail("a kernel was handed a buffer that does not fit")

    monkeypatch.setattr(evopid.plant, "_run_rows_py", kernel)
    arguments = {"rows": array("d", bytes(96)), "run": packed_run(schedule), **replaced}
    message = "does not fit|a run takes a row and sample counts >= 0"
    with using(running(kernel)), pytest.raises(ValueError, match=message):
        _simulate(arguments["rows"], arguments["run"], record=True)


COUNTS = "a run takes a row and sample counts >= 0, whole, not both 0 and at most 10,000,000 in all, got 2 rows of "


@pytest.mark.parametrize(
    "gains, run, message",
    [
        (array("f", [0.0]) * 12, None, "gains does not fit: the kernel takes an array('d') of length a multiple of 6, "
         "got array('f') of length 12"),
        (array("d", [0.0]) * 9, None, "gains does not fit: the kernel takes an array('d') of length a multiple of 6, "
         "got array('d') of length 9"),
        (np.zeros(24)[::2], None, "gains does not fit: the kernel takes an array('d') of length a multiple of 6, "
         "got ndarray"),
        (None, array("d", [1.0]) * 12, "run does not fit: the kernel takes an array('d') of length 13, "
         "got array('d') of length 12"),
        (None, array("d", [1.0]) * 14, "run does not fit: the kernel takes an array('d') of length 13, "
         "got array('d') of length 14"),
        (None, array("f", [1.0]) * 13, "run does not fit: the kernel takes an array('d') of length 13, "
         "got array('f') of length 13"),
        (None, packed_run(((0.0, -1), (1.0, 3))), COUNTS + "-1.0+3.0"),
        (None, packed_run(((0.0, 3), (1.0, 0.5))), COUNTS + "3.0+0.5"),
        (None, packed_run(((0.0, 0), (1.0, 0))), COUNTS + "0.0+0.0"),
        (None, packed_run(((0.0, _MAX_SAMPLES), (1.0, 1))), COUNTS + "10000000.0+1.0"),
    ],
    ids=[
        "gains-of-floats", "gains-ragged", "gains-strided", "run-of-twelve", "run-of-fourteen", "run-of-floats",
        "count-negative", "count-not-whole", "no-samples", "counts-above-the-cap",
    ],
)
def test_simulate_names_the_buffer_that_does_not_fit(gains, run, message, monkeypatch):
    def kernel(*args):
        pytest.fail("a kernel was handed a buffer that does not fit")

    monkeypatch.setattr(evopid.plant, "_run_rows_py", kernel)
    gains = array("d", [0.5]) * 12 if gains is None else gains
    run = packed_run(((0.0, 3), (1.0, 3))) if run is None else run
    with using(running(kernel)), pytest.raises(ValueError) as excinfo:
        _simulate(gains, run, record=True)
    assert str(excinfo.value) == message


def test_buffers_the_kernel_reads_cannot_be_resized_during_the_call():
    # the kernel runs without the GIL on the addresses of gains and run, so _simulate holds an export of each until
    # the call returns: another thread that appends to either meets a BufferError, not a freed buffer
    gains, run = packed([(0.8, 0.2, 0.01, 2.0, 0.5, 0.0)]), packed_run(((-1.0, 30), (1.0, 30)))
    raised = []

    def spy(rows, *pointers):
        assert pointers[:2] == tuple(addresses(gains, run))
        for buffer in (gains, run):
            with pytest.raises(BufferError):
                buffer.append(0.0)
            raised.append(len(buffer))

    with using(running(spy)):
        _simulate(gains, run)
    assert raised == [6, 13]
    # the exports end with the call
    gains.append(0.0)
    run.append(0.0)


def test_kernel_signature_agrees_in_c_ctypes_and_the_twin(c_kernel):
    # evopid_run's prototype in _kernel.c, the argtypes _load_kernel gives ctypes and _run_rows_py's parameters: the
    # same arguments in the same order, each an integer or a pointer; a mismatch would be undefined behaviour
    if c_kernel is None:
        pytest.skip(NO_CC)
    prototype = re.search(rb"void evopid_run\(([^)]*)\)", SOURCE).group(1).decode()
    c_params = [re.fullmatch(r"(?:const )?(int64_t |double \*)(\w+)", p.strip()).groups() for p in prototype.split(",")]
    twin = list(inspect.signature(_run_rows_py).parameters.values())
    # each type as C, ctypes and the twin's annotations name it; any other is a KeyError
    kinds = {"int64_t ": int, "double *": array, ctypes.c_int64: int, ctypes.c_void_p: array, "int": int}
    kinds.update({"array": array, "array | None": array})
    assert len(twin) == 5 and [name for _, name in c_params] == [p.name for p in twin]
    argtypes = c_kernel.evopid_run.argtypes
    assert [kinds[t] for t, _ in c_params] == [kinds[t] for t in argtypes] == [kinds[p.annotation] for p in twin]


def test_kernel_cache_is_keyed_reused_and_private(c_kernel, tmp_path, monkeypatch):
    if c_kernel is None:
        pytest.skip(NO_CC)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "evopid"
    assert evopid.plant._c_kernel.__wrapped__() is not None
    libraries = list(cache.iterdir())  # one per width the host runs, and no partial file beside them
    assert len(libraries) == len(WIDTHS)
    assert all(re.fullmatch(r"kernel-[0-9a-f]{16}\.so", library.name) for library in libraries)
    assert cache.stat().st_mode & 0o777 == 0o700
    # other flags name another library
    with monkeypatch.context() as patch:
        patch.setattr(evopid.plant, "_KERNEL_FLAGS", (*_KERNEL_FLAGS, "-O1"))
        assert _load_kernel(cache, SOURCE) is not None
    assert len(list(cache.iterdir())) == len(WIDTHS) + 1
    # with no compiler the cached library is loaded
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    assert evopid.plant._c_kernel.__wrapped__() is not None
    # a library that others could have written is not
    cache.chmod(0o777)
    assert evopid.plant._c_kernel.__wrapped__() is None


def test_kernel_loads_in_one_pass(c_kernel, tmp_path, monkeypatch):
    # per process the twin runs the self-test once, and each call opens each build the host loads once, the baseline
    # first, whether it compiles them or finds them cached
    if c_kernel is None:
        pytest.skip(NO_CC)
    twin_runs, opened = [], []

    def counted_twin(*args):
        twin_runs.append(args[0])
        _run_rows_py(*args)

    class CountedLibrary(ctypes.CDLL):
        def __init__(self, name, *args, **kwargs):
            opened.append(Path(name).name)
            super().__init__(name, *args, **kwargs)

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(evopid.plant, "_run_rows_py", counted_twin)
    monkeypatch.setattr(evopid.plant, "_self_test", functools.cache(evopid.plant._self_test.__wrapped__))
    monkeypatch.setattr(ctypes, "CDLL", CountedLibrary)
    assert evopid.plant._c_kernel.__wrapped__() is not None
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    assert evopid.plant._c_kernel.__wrapped__() is not None
    assert twin_runs == [19]
    loaded = [_library_name(SOURCE, (*_KERNEL_FLAGS, *flags)) for flags in reversed(WIDTHS.values())]
    assert opened == loaded * 2


@pytest.mark.parametrize("value", [None, "", "relcache", "./cache"], ids=["unset", "empty", "relative", "dot"])
def test_kernel_cache_ignores_a_relative_xdg_cache_home(value, tmp_path, monkeypatch):
    # the XDG Base Directory spec: a relative path in these variables is invalid and ignored
    if value is None:
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", value)
    assert _cache_dir() == Path(os.path.expanduser("~/.cache")) / "evopid"
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _cache_dir() == tmp_path / "evopid"


def test_kernel_cache_keeps_only_the_builds_of_this_source(c_kernel, tmp_path, monkeypatch):
    # once a kernel loads, the libraries no flag set of this source names are removed, and only those
    if c_kernel is None:
        pytest.skip(NO_CC)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "evopid"
    cache.mkdir(mode=0o700)
    kept = [cache / ".kernel-a1b2c3.so", cache / "notes.txt"]  # another process's partial build, and no library
    stale = [cache / "kernel-0123456789abcdef.so"]
    for path in kept + stale:
        path.write_text("not a library")
    # another version's library, loaded and held as a running process would hold it
    old_library = _load_kernel(cache, SOURCE + b"/* another version */\n")
    assert old_library is not None
    stale += [path for path in cache.glob("kernel-*.so") if path not in stale]
    assert len(stale) == 2
    # with no compiler and nothing of this source's cached, no kernel loads, and nothing is removed
    with monkeypatch.context() as patch:
        patch.setenv("PATH", str(tmp_path / "no-bin"))
        assert evopid.plant._c_kernel.__wrapped__() is None
    assert all(path.exists() for path in kept + stale)
    assert evopid.plant._c_kernel.__wrapped__() is not None
    built = {_library_name(SOURCE, (*_KERNEL_FLAGS, *flags)) for flags in WIDTHS.values()}
    assert {path.name for path in cache.iterdir()} == built | {path.name for path in kept}
    # the unlinked library stays mapped in this process and still runs: one calm row, as the twin runs it
    gains, run = packed([(0.8, 0.2, 0.01, 2.0, 0.5, 0.0)]), packed_run(((-1.0, 30), (1.0, 30)))
    got, want = array("d", bytes(32)), array("d", bytes(32))
    old_library.evopid_run(1, *addresses(gains, run, got, None))
    _run_rows_py(1, gains, run, want, None)
    assert got.tobytes() == want.tobytes()


def test_kernel_that_disagrees_with_the_python_loop_is_not_used(c_kernel, tmp_path, monkeypatch):
    if c_kernel is None:
        pytest.skip(NO_CC)

    def zeroed(*args):
        args[3][:] = array("d", bytes(8 * len(args[3])))

    monkeypatch.setattr(evopid.plant, "_run_rows_py", zeroed)
    # the self-test's twin output is taken once per process: a fresh cache runs the zeroed twin in its place
    monkeypatch.setattr(evopid.plant, "_self_test", functools.cache(evopid.plant._self_test.__wrapped__))
    assert _load_kernel(tmp_path, SOURCE) is None


def assert_slip_is_not_used(slip, builds, tmp_path):
    """Build _kernel.c with one text replaced, into tmp_path, with each of the given tuples of flags and -O0, which
    compiles in half of -O2's time or less: the self-check must refuse every build."""
    old, new = (text.encode() for text in slip)
    assert SOURCE.count(old) == 1
    slipped = SOURCE.replace(old, new)
    for flags in builds:
        assert _load_kernel(tmp_path, slipped, *flags, "-O0") is None, flags
        # it compiled, so the self-check refused it
        assert (tmp_path / _library_name(slipped, (*_KERNEL_FLAGS, *flags, "-O0"))).exists(), flags


@pytest.mark.parametrize(
    "slip",
    [
        ("gains + 6 * (row", "gains + 3 * (row"),
        (" + 3 * (e % 2)", ""),
        ("run + 4 * (e % 2)", "run"),
        ("2 * (r0 + PER_VECTOR * v) * samples", "(r0 + PER_VECTOR * v) * samples"),
        ("out[3] = velocity[v][l + 1]", "out[2] = velocity[v][l + 1]"),
        ("row = r0 + PER_VECTOR * v", "row = PER_VECTOR * v"),
        ("3 * (e % 2)", "3 * (1 - e % 2)"),
        ("min_pd(limit, c)", "min_pd(c, limit)"),
        ("finite ? ae[l] : DBL_MAX", "ae[l]"),
        ("total[v] / (double)samples", "total[v]"),
        ("isfinite(velocity[v][l]) && isfinite(velocity[v][l + 1])", "isfinite(velocity[v][l + 1])"),
    ],
    ids=[
        "gains-row-stride", "gains-channel-offset", "plant-channel-offset", "actual-offset", "results-offset",
        "gains-of-block-0", "channel-swap", "clamp-operand-order", "stand-in-dropped", "sum-undivided",
        "verdict-of-one-channel",
    ],
)
def test_kernel_with_a_stride_or_offset_slip_is_not_used(slip, c_kernel, tmp_path):
    # the self-check runs nineteen rows of unlike channels, recorded, so each slip changes some output on every
    # width: a full block and a partial one, so reading block 0's gains for every block shows too, and a row that
    # goes NaN on its linear channel only, which min(c, limit) turns into the limit, which a dropped stand-in leaves
    # NaN, and which a verdict on the angular channel alone misses; no slip reads past a buffer
    if c_kernel is None:
        pytest.skip(NO_CC)
    assert_slip_is_not_used(slip, WIDTHS.values(), tmp_path)


@pytest.mark.parametrize(
    "slip",
    [
        (" + e / 2;", ";"),
        ("int l = 2 * h;", "int l = 2 * (PER_VECTOR - 1 - h);"),
        (" && PER_VECTOR * v + e / 2 < n", ""),
        (" && PER_VECTOR * v + h < n", ""),
    ],
    ids=[
        "second-row-reads-the-first-rows-gains", "rows-of-a-vector-swap-results", "trace-past-the-last-row",
        "results-past-the-last-row",
    ],
)
def test_kernel_with_a_lane_slip_is_not_used(slip, c_kernel, tmp_path):
    # slips between the two rows of a 256-bit vector: a two-wide vector holds one row, where they change nothing;
    # without an end-of-block guard the last vector's rerun writes the row past the self-test's nineteen, its guard row
    if c_kernel is None:
        pytest.skip(NO_CC)
    if "four-wide" not in WIDTHS:
        pytest.skip(NO_AVX)
    assert_slip_is_not_used(slip, [WIDTHS["four-wide"]], tmp_path)


# ---------------------------------------------------------------- the CSV cell formatter


def formatted(library, columns, start=0, rows=None):
    """evopid_csv's text of the given rows of the array("d") or array("q") columns, or the -1 - i it returns where
    it refuses the chunk's cell i."""
    rows = len(columns[0]) - start if rows is None else rows
    table, out = _csv_table(columns), array("B", bytes(_CSV_CELL * len(columns) * rows))
    size = library.evopid_csv(start, rows, len(columns), table.buffer_info()[0], out.buffer_info()[0])
    return out.tobytes()[:size] if size >= 0 else size


def written_in_c(x: float) -> bool:
    """Whether evopid_csv writes the double x: both zeros, DIVERGENCE_AE and 1e-20 <= |x| < 2**52."""
    return x == 0.0 or x == DIVERGENCE_AE or 1e-20 <= abs(x) < 2.0**52


def formatter_cases() -> list[float]:
    """Doubles of every kind the formatter meets or refuses, each with its negative: random bit patterns, random
    patterns of the exponents it writes, powers of two and short decimals with their neighbours one ulp away, the
    trace's times k * 0.02, both sides of 1e-20, 1e-4 and 2**52, and the special values. Ryu's rare branches get
    their own: short dyadic decimals k / 2**j, whose removed digits can all be 0 and can be an exact half, and
    integral doubles in [2**50, 2**52), whose bounds are exact; and decimals of 15, 16 and 17 digits, as many a
    shortest form has."""
    rng = random.Random(33)
    exponents = range(1023 - 67, 1023 + 53)  # the binary exponents of 1e-20 to 2**52, one beyond on each side
    patterns = [rng.getrandbits(64) for _ in range(3000)]
    patterns += [rng.choice(exponents) << 52 | rng.getrandbits(52) for _ in range(8000)]
    cases = list(array("d", array("Q", patterns).tobytes()))
    pivots = [2.0**k for k in range(-70, 56)] + [1e-20, 1e-4, 2.0**52]
    pivots += [float(f"{m}e{e}") for m in (1, 2, 5, 9, 12, 25, 99, 123, 999, 3141) for e in range(-22, 18)]
    cases += [y for x in pivots for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
    cases += [k * 0.02 for k in range(10000)]
    cases += [k / 2.0**j for j in range(1, 68) for k in range(1, 32, 2)]
    cases += [float(rng.randrange(2**50, 2**52)) for _ in range(500)]
    for n in (15, 16, 17):  # decimals of n digits, from 1e-20 to 1e15
        cases += [float(f"{rng.randrange(10 ** (n - 1), 10**n)}e{rng.randrange(-19 - n, 16 - n)}") for _ in range(500)]
    cases += [0.0, DIVERGENCE_AE, 5e-324, math.inf, math.nan]
    return cases + [-x for x in cases]


def test_formatter_writes_repr_where_it_writes_and_refuses_elsewhere(c_formatter):
    # every double it writes comes out as repr writes it, beside an array("q") column; every other one is refused
    if c_formatter is None:
        pytest.skip(NO_CC)
    cases = formatter_cases()
    written = array("d", [x for x in cases if written_in_c(x)])
    rng = random.Random(len(written))
    ints = array("q", [rng.getrandbits(64) - 2**63 for _ in written])
    ints[:2] = array("q", [-(2**63), 2**63 - 1])
    assert 0.0 in written and -0.0 in written and DIVERGENCE_AE in written and len(written) > 40000, len(written)
    want = "".join(f"{x!r},{i!r}\n" for x, i in zip(written, ints)).encode()
    assert formatted(c_formatter, [written, ints]) == want
    refused = array("d", [x for x in cases if not written_in_c(x)])
    assert len(refused) > 1000 and {5e-324, -DIVERGENCE_AE, math.inf, -math.inf, 2.0**52} <= set(refused)
    # each refused double as the second cell of its row, after a written one: evopid_csv names that cell, and the
    # caller writes the chunk in Python
    columns = [array("d", [1.0]) * len(refused), refused]
    assert [formatted(c_formatter, columns, r, 1) for r in range(len(refused))] == [-2] * len(refused)


@pytest.mark.parametrize(
    "slip",
    [
        ("    return n;\n}", "    return n - 1;\n}"),
        ("memcpy(p + decpt, \".0\", 2);\n    return p + decpt + 2;", "return p + decpt;"),
        ("vr == vm || last >= 5", "vr == vm || last > 5"),
        ("        if (vr_zeros && last == 5 && vr % 2 == 0)\n            last = 4;", ""),
        ("vr_zeros = q < 64 && !(mv & ((1ull << q) - 1))", "vr_zeros = 0"),
        ("            vm_zeros &= vm % 10 == 0;\n", ""),
        ("!memcmp(cell, cell - 8, 8)", "*(const double *)cell == *(const double *)(cell - 8)"),
    ],
    ids=[
        "last-digit-dropped", "dot-zero-dropped", "half-rounded-down", "half-not-rounded-to-even",
        "exact-value-taken-for-inexact", "exact-bound-kept", "copy-keyed-on-value",
    ],
)
def test_kernel_whose_formatter_slips_is_not_used(slip, c_kernel, tmp_path, monkeypatch):
    # a formatter that drops a digit or the .0 of an integral double, rounds a removed 5 down in Ryu's common path,
    # slips in its general path, or copies the cell above where its value is equal but not its bits (-0.0 below 0.0)
    # fails the load check, so _c_csv gives None and every CSV write takes the twin; the simulation builds, which
    # leave the formatter out, still load. Ryu's other branches that no cell here can reach are named above shortest.
    if c_kernel is None:
        pytest.skip(NO_CC)
    cache = tmp_path / "evopid"
    cache.mkdir(mode=0o700)
    assert_slip_is_not_used(slip, [_CSV_FLAGS], cache)
    source = tmp_path / "_kernel.c"
    source.write_bytes(SOURCE.replace(*(text.encode() for text in slip)))
    monkeypatch.setattr(evopid.plant, "_KERNEL_SOURCE", source)
    monkeypatch.setattr(evopid.plant, "_CSV_FLAGS", (*_CSV_FLAGS, "-O0"))  # finds the build refused above
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert evopid.plant._c_csv.__wrapped__() is None


def test_build_without_int128_formats_nothing_and_writes_the_same_bytes(c_formatter, tmp_path, monkeypatch):
    # the stub of a compiler without unsigned __int128 writes no cell, and the load check takes it: every chunk goes
    # to the twin, which writes what the full formatter writes
    if c_formatter is None:
        pytest.skip(NO_CC)
    stub = _load_kernel(tmp_path, SOURCE, "-Wall", "-Wextra", "-Werror", *_CSV_FLAGS, "-U__SIZEOF_INT128__", "-O0")
    assert stub is not None
    assert formatted(stub, [array("d", [1.0, 0.5])]) == formatted(stub, [array("q", [1])]) == -1
    columns = [array("d", [k * 0.02 for k in range(1200)]), array("q", range(1200)), array("d", [5e-324]) * 1200]
    for name, library in (("stub", stub), ("full", c_formatter)):
        monkeypatch.setattr(evopid.plant, "_c_csv", lambda: library)
        evopid.harness._write_csv(tmp_path / f"{name}.csv", ("t", "k", "tiny"), columns)
    assert (tmp_path / "stub.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


def test_divergence_ae_is_the_dbl_max_each_kernel_writes(sim, train_route, kernels):
    # defined in plant beside the kernel, re-exported unchanged by metrics and the package root
    assert type(DIVERGENCE_AE) is float and DIVERGENCE_AE == sys.float_info.max
    assert DIVERGENCE_AE is evopid.plant.DIVERGENCE_AE is evopid.metrics.DIVERGENCE_AE is evopid.DIVERGENCE_AE
    params = PlantParams(ChannelParams(initial_velocity=-5.0), ChannelParams(time_constant=0.3))
    huge = Gains(1e308, 0.0, 1e308)
    run = _prepare(train_route, params, sim)[2]
    for kernel in kernels:
        with using(kernel):
            results, _ = _simulate(packed([Individual(huge, huge).as_flat()]), run)
        assert [v.hex() for v in results[:2].tolist()] == [sys.float_info.max.hex()] * 2


@pytest.mark.parametrize(
    "cc",
    [None, "echo 'cc: error: no such option' >&2\nexit 1", 'while [ "$1" != -o ]; do shift; done\necho garbage > "$2"'],
    ids=["missing", "failing", "unloadable"],
)
def test_failed_build_falls_back_silently_to_identical_outputs(cc, c_kernel, tmp_path, monkeypatch, capfd):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    if cc is not None:
        (bin_dir / "cc").write_text(f"#!/bin/sh\n{cc}\n")
        (bin_dir / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    # fresh loaders, so that what this environment loads, or fails to, stays in this test
    monkeypatch.setattr(evopid.plant, "_c_kernel", functools.cache(evopid.plant._c_kernel.__wrapped__))
    monkeypatch.setattr(evopid.plant, "_c_csv", functools.cache(evopid.plant._c_csv.__wrapped__))
    spec = build_experiment_spec(3, output_dir=tmp_path / "fallback", overrides={"ep.max_generations": 3})
    run_experiment(spec)
    assert evopid.plant._c_kernel() is None
    assert capfd.readouterr() == ("", "")
    with using(c_kernel):
        run_experiment(replace(spec, output_dir=tmp_path / "c"))
    assert_same_outputs(tmp_path / "fallback", tmp_path / "c")


def assert_same_outputs(one, other):
    """Two run_experiment output directories hold the same files, result.json apart from its output_dir."""
    for name in ("generations.csv", "best_train_trace.csv", "best_test_trace.csv"):
        assert (one / name).read_bytes() == (other / name).read_bytes(), name
    results = [json.loads((d / "result.json").read_text()) for d in (one, other)]
    for result in results:
        result["experiment"].pop("output_dir")
    assert results[0] == results[1]


def test_failed_avx_build_falls_back_to_the_baseline_build(c_kernel, tmp_path, monkeypatch, capfd):
    # a compiler that fails on -mavx, on a host taken to have AVX: _c_kernel builds the two-wide baseline first, asks
    # it, then fails to build -mavx and keeps the baseline, not the Python twin, silently, and it writes what the
    # host's own build writes
    if c_kernel is None:
        pytest.skip(NO_CC)
    bin_dir, log = tmp_path / "bin", tmp_path / "cc.log"
    bin_dir.mkdir()
    (bin_dir / "cc").write_text(
        f'#!/bin/sh\necho "$*" >> "{log}"\ncase " $* " in *" -mavx "*) exit 1;; esac\n'
        f'PATH="{os.environ["PATH"]}" exec "{shutil.which("cc")}" "$@"\n'
    )
    (bin_dir / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(evopid.plant, "_host_has_avx", lambda library: True)
    # fresh loaders, so that what this environment loads, or fails to, stays in this test
    monkeypatch.setattr(evopid.plant, "_c_kernel", functools.cache(evopid.plant._c_kernel.__wrapped__))
    monkeypatch.setattr(evopid.plant, "_c_csv", functools.cache(evopid.plant._c_csv.__wrapped__))
    assert evopid.plant._c_kernel() is not None
    assert capfd.readouterr() == ("", "")
    assert ["-mavx" in call.split() for call in log.read_text().splitlines()] == [False, True]
    spec = build_experiment_spec(3, output_dir=tmp_path / "baseline", overrides={"ep.max_generations": 3})
    run_experiment(spec)
    with using(c_kernel):
        run_experiment(replace(spec, output_dir=tmp_path / "c"))
    assert_same_outputs(tmp_path / "baseline", tmp_path / "c")


# ---------------------------------------------------------------- many rows in one call


@pytest.mark.parametrize("record", [False, True], ids=["scored", "recorded"])
@pytest.mark.parametrize("count", [1, 2, 3, 15, 17, 19, 33])
def test_row_counts_around_vectors_and_blocks_match_the_twin(count, record, sim, train_route, kernels):
    # an odd count leaves one row in the last vector of a four-wide build, and 17 and 33 leave one in the last block:
    # the vector's free lanes rerun that row and write nothing, so the guard row after each output keeps its -7.0
    params = PlantParams(ChannelParams(initial_velocity=0.3), ChannelParams(time_constant=0.3, initial_velocity=-0.4))
    ((_, first), (_, second)), _, run = _prepare(train_route, params, sim)
    gains = packed(
        [(0.5 + 0.3 * j, 0.05 * (j % 4), 0.002 * (j % 3), 2.0 - 0.05 * j, 0.1 * (j % 5), 0.001 * j) for j in range(count)]
    )
    outputs = []
    for kernel in kernels:
        results = array("d", [-7.0]) * (4 * (count + 1))
        actual = array("d", [-7.0]) * (2 * (first + second) * (count + 1)) if record else None
        if kernel is None:
            _run_rows_py(count, gains, run, results, actual)
        else:
            kernel.evopid_run(count, *addresses(gains, run, results, actual))
        guard = array("d", [-7.0]) * (2 * (first + second))
        assert results[4 * count :] == guard[:4]
        assert actual is None or actual[2 * (first + second) * count :] == guard
        outputs.append([results.tobytes(), None if actual is None else actual.tobytes()])
    assert all(output == outputs[-1] for output in outputs)


def assert_batch_matches_fitness_of(individuals, route, params, sim, kernels):
    # one call with every row against one call per row: the results and measurements bit for bit,
    # and each score's bits are fitness_of's; tobytes also matches a NaN to a NaN
    rows = [individual.as_flat() for individual in individuals]
    _, n, run = _prepare(route, params, sim)
    for kernel in kernels:
        with using(kernel):
            results, actual = _simulate(packed(rows), run, record=True)
            assert len(results) == 4 * len(rows)
            assert len(actual) == len(rows) * 2 * n
            scores = _fitness_rows(packed(rows), route, params, sim)
            assert len(scores) == 4 * len(rows) and scores.typecode == "d"
            for r, (individual, row) in enumerate(zip(individuals, rows)):
                result, score = results[4 * r : 4 * r + 4], scores[4 * r : 4 * r + 2]
                measured = actual[2 * n * r : 2 * n * (r + 1)]
                one, one_actual = _simulate(packed([row]), run, record=True)
                assert result.tobytes() == one.tobytes(), individual
                assert measured.tobytes() == one_actual.tobytes(), individual
                single = np.array(fitness_of(individual, route, params, sim), dtype=np.float64)
                assert score.tobytes() == single.tobytes(), individual


@settings(max_examples=60)
@given(
    individuals=st.lists(st.builds(Individual, gains, gains), min_size=1, max_size=40),
    linear_plant=channels,
    angular_plant=channels,
    route=routes,
    sample_rate=st.floats(5.0, 100.0),
)
@example(  # a non-integer sample count, nonzero start velocities and kp at its bound
    individuals=[
        Individual(Gains(50.0, 10.0, 2.0), Gains(50.0, 10.0, 2.0)),
        Individual(Gains(0.0, 0.0, 0.0), Gains(0.0, 0.0, 0.0)),
        Individual(Gains(0.3, 0.0, 0.0), Gains(50.0, 0.0, 0.0)),
        Individual(Gains(50.0, 0.0, 0.0), Gains(0.3, 0.0, 0.0)),
    ],
    linear_plant=ChannelParams(initial_velocity=0.7),
    angular_plant=ChannelParams(time_constant=0.3, initial_velocity=-1.5),
    route=RouteSpec(-0.3, 0.3, phase_duration=0.3337),
    sample_rate=47.3,
)
@example(  # an integer route and integer start velocities
    individuals=[
        Individual(Gains(0.8, 0.2, 0.01), Gains(0.8, 0.2, 0.01)),
        Individual(Gains(2.0, 0.0, 0.0), Gains(2.0, 0.0, 0.0)),
    ],
    linear_plant=ChannelParams(initial_velocity=0),
    angular_plant=ChannelParams(time_constant=0.3, initial_velocity=1),
    route=RouteSpec(0, 1, phase_duration=1),
    sample_rate=50.0,
)
@example(  # nine rows, two full blocks and a tail; row 5 diverges on sample 1, its calm neighbours do not
    individuals=[
        *[Individual(Gains(0.1 * (j + 1), 0.05, 0.0), Gains(0.5, 0.01 * j, 0.001)) for j in range(5)],
        Individual(Gains(1e308, 0.0, 1e308), Gains(1e308, 0.0, 1e308)),
        *[Individual(Gains(0.2, 0.01 * j, 0.002), Gains(0.1 * (j + 1), 0.0, 0.0)) for j in range(3)],
    ],
    linear_plant=ChannelParams(initial_velocity=-5.0),
    angular_plant=ChannelParams(time_constant=0.3),
    route=RouteSpec(-0.3, 0.3, phase_duration=0.5),
    sample_rate=50.0,
)
@example(  # 35 rows, two full blocks of sixteen and a tail of three; row 20, in block 1, diverges between calm rows
    individuals=[
        *[Individual(Gains(0.05 * (j + 1), 0.01 * (j % 5), 0.001 * (j % 3)), Gains(0.5, 0.02, 0.0)) for j in range(20)],
        Individual(Gains(1e308, 0.0, 1e308), Gains(1e308, 0.0, 1e308)),
        *[Individual(Gains(0.3, 0.0, 0.002), Gains(0.04 * (j + 1), 0.01 * (j % 4), 0.0)) for j in range(14)],
    ],
    linear_plant=ChannelParams(initial_velocity=-5.0),
    angular_plant=ChannelParams(time_constant=0.3),
    route=RouteSpec(-0.3, 0.3, phase_duration=0.5),
    sample_rate=50.0,
)
def test_batch_rows_match_fitness_of(individuals, linear_plant, angular_plant, route, sample_rate, kernels):
    params = PlantParams(linear_plant, angular_plant)
    assert_batch_matches_fitness_of(individuals, route, params, SimConfig(sample_rate), kernels)


def test_batch_divergence_on_either_channel_matches_fitness_of(sim, train_route, kernels):
    # the forced inf - inf of test_forced_divergence_matches_reference, on the one channel that starts
    # at -5 m/s: the other starts at rest and stays finite, yet the row scores DIVERGENCE_AE on both,
    # and the calm row beside it is unaffected
    huge = Gains(1e308, 0.0, 1e308)
    calm = Gains(0.1, 0.0, 0.0)
    individuals = [Individual(huge, huge), Individual(calm, calm)]
    rows = [individual.as_flat() for individual in individuals]
    for c, diverging in enumerate(("linear", "angular")):
        channels = {"linear": ChannelParams(), "angular": ChannelParams(time_constant=0.3)}
        channels[diverging] = replace(channels[diverging], initial_velocity=-5.0)
        params = PlantParams(**channels)
        for kernel in kernels:
            with using(kernel):
                results, _ = _simulate(packed(rows), _prepare(train_route, params, sim)[2])
                velocities = np.frombuffer(results).reshape(-1, 4)[:, 2:]
                assert np.isfinite(velocities).tolist() == [[c != 0, c != 1], [True, True]]
                scored = _fitness_rows(packed(rows), train_route, params, sim)
                scores = np.frombuffer(scored).reshape(-1, 4)[:, :2].tolist()
                assert scores[0] == [DIVERGENCE_AE, DIVERGENCE_AE]
                assert DIVERGENCE_AE not in scores[1]
        assert_batch_matches_fitness_of(individuals, train_route, params, sim, kernels)


def test_batch_route_without_samples_raises_like_fitness_of(plant, kernels):
    route, sim = RouteSpec(0.0, 1.0, phase_duration=0.1), SimConfig(2.0)
    individual = Individual(Gains(1.0, 0.0, 0.0), Gains(1.0, 0.0, 0.0))
    for kernel in kernels:
        with using(kernel), pytest.raises(ValueError) as excinfo:
            fitness_of(individual, route, plant, sim)
        with pytest.raises(ValueError, match=re.escape(str(excinfo.value))):
            _fitness_rows(packed([individual.as_flat()] * 2), route, plant, sim)
        with pytest.raises(ValueError, match=re.escape(str(excinfo.value))):
            grid_oracle(route, plant, sim, GainGrid((1.0,), (0.0,), (0.0,)))


def test_fitness_of_matches_the_replayed_average_error_beyond_2_53(kernels):
    # the kernels' first error and average_error's desired - actual both read 2**53 + 1 as the double 2**53
    route, sim = RouteSpec(2**53 + 1, 0, phase_duration=0.1), SimConfig(50.0)
    params = PlantParams(ChannelParams(initial_velocity=1))
    gains = Gains(1, 0.5, 0.01)
    individual = Individual(gains, gains)
    for kernel in kernels:
        with using(kernel):
            ae = fitness_of(individual, route, params, sim).ae_linear
            trace = simulate_route(individual, route, params, sim)
            assert ae == trace.ae.ae_linear == average_error(trace.linear) == 4503599627370495.0


# ---------------------------------------------------------------- the route cache behind fitness_of


def twin_fitness(individual, route, params, sim):
    """fitness_of by hand: the Python twin on this environment's own preparation, not the cached one."""
    gains, results = packed([individual.as_flat()]), array("d", bytes(32))
    _run_rows_py(1, gains, _prepare(route, params, sim)[2], results, None)
    return FitnessRecord(*results[:2])


def bits(record):
    return [float(v).hex() for v in record]


EQUAL_ENVIRONMENTS = [
    pytest.param(
        (RouteSpec(-1, 1, 1), PlantParams(ChannelParams(2, 1, 3, 1), ChannelParams(1, 1, 2, -1)), SimConfig(50)),
        (
            RouteSpec(-1.0, 1.0, 1.0),
            PlantParams(ChannelParams(2.0, 1.0, 3.0, 1.0), ChannelParams(1.0, 1.0, 2.0, -1.0)),
            SimConfig(50.0),
        ),
        id="int-float",
    ),
    pytest.param(
        (RouteSpec(0.0, 0.5), PlantParams(ChannelParams(), ChannelParams(time_constant=0.3)), SimConfig()),
        (
            RouteSpec(-0.0, 0.5),
            PlantParams(ChannelParams(initial_velocity=-0.0), ChannelParams(time_constant=0.3, initial_velocity=-0.0)),
            SimConfig(),
        ),
        id="zero-signs",
    ),
    # float32 fields equal their doubles, and run as them (see test_fused_loop_matches_per_sample_reference)
    pytest.param(*float32_pair(1.1, 50.0), id="float32-switch"),
    pytest.param(*float32_pair(1.015, 50.0), id="float32-samples"),
]


def held_by_the_entry(route, params, sim):
    """Whether metrics' one prepared entry holds these very objects, and their packed run."""
    *held, run = evopid.metrics._last_scored
    prepared = _prepare(route, params, sim)[2]
    return all(a is b for a, b in zip(held, (route, params, sim))) and run.tobytes() == prepared.tobytes()


@pytest.mark.parametrize("one, other", EQUAL_ENVIRONMENTS)
def test_route_cache_gives_equal_environments_the_same_bits(one, other, kernels):
    # the entry is matched by identity, so equal environments never share it, and every score is the bits the
    # Python twin gives on that environment's own preparation: zero gains keep a zero's sign through the first
    # phase, and the huge gains diverge, so the verdict is covered as well
    assert one == other and all(a is not b for a, b in zip(one, other))
    individuals = [
        Individual(Gains(0.0, 0.0, 0.0), Gains(0.0, 0.0, 0.0)),
        Individual(Gains(0.8, 0.2, 0.01), Gains(2.0, 0.5, 0.0)),
        Individual(Gains(1e308, 1e308, 1e308), Gains(0.1, 0.0, 0.0)),
    ]
    expected = [bits(twin_fitness(individual, *one)) for individual in individuals]
    assert [bits(twin_fitness(individual, *other)) for individual in individuals] == expected
    assert expected[2] == bits((DIVERGENCE_AE, DIVERGENCE_AE)) and expected[1] != expected[2]
    for kernel in kernels:
        with using(kernel):
            for first, second in ((one, other), (other, one)):
                evopid.metrics._last_scored = (None,) * 4
                for environment in (first, second):
                    assert [bits(fitness_of(individual, *environment)) for individual in individuals] == expected
                assert held_by_the_entry(*second)


def test_route_cache_is_bounded(plant, sim):
    # one entry: after 128 routes it holds the last one's objects, and no earlier route is kept alive
    individual = Individual(Gains(0.5, 0.0, 0.0), Gains(0.5, 0.0, 0.0))
    routes = [RouteSpec(0.0, 0.01 * (i + 1)) for i in range(128)]
    for route in routes:
        fitness_of(individual, route, plant, sim)
    assert held_by_the_entry(routes[-1], plant, sim)
    alive = [weakref.ref(route) for route in routes]
    del routes, route
    gc.collect()
    assert [ref() is not None for ref in alive] == [False] * 127 + [True]


def test_route_cache_keeps_its_entry_when_a_route_is_rejected(plant, sim, train_route):
    # a route _prepare rejects raises between two scores of a good one, and leaves the entry on the good one
    individual = Individual(Gains(0.5, 0.05, 0.001), Gains(0.4, 0.02, 0.0))
    good = bits(fitness_of(individual, train_route, plant, sim))
    entry = evopid.metrics._last_scored
    with pytest.raises(ValueError, match="no samples"):
        fitness_of(individual, RouteSpec(0.0, 1.0, phase_duration=0.001), plant, sim)
    assert evopid.metrics._last_scored is entry and held_by_the_entry(train_route, plant, sim)
    assert bits(fitness_of(individual, train_route, plant, sim)) == good
    assert evopid.metrics._last_scored is entry


def test_route_cache_gives_two_threads_their_own_routes_bits(plant, sim, train_route):
    # two threads take turns in the entry, switching as often as the interpreter lets them; each score must still
    # pair its own route with its own preparation, whose sample counts and setpoints differ from the other's
    individual = Individual(Gains(0.5, 0.05, 0.001), Gains(0.4, 0.02, 0.0))
    routes = [train_route, RouteSpec(0.2, -0.4, phase_duration=2.5)]
    expected = [bits(fitness_of(individual, route, plant, sim)) for route in routes]
    assert expected[0] != expected[1]
    scored = [[], []]

    def score(route, out):
        for _ in range(500):
            out.append(bits(fitness_of(individual, route, plant, sim)))

    threads = [threading.Thread(target=score, args=pair) for pair in zip(routes, scored)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert scored == [[e] * 500 for e in expected]


def test_no_simulation_path_calls_the_reference(monkeypatch, tmp_path, plant, sim, train_route, kernels):
    # the reference reducer lives in tests/reference.py: no module of the package defines, imports or names it
    for path in sorted(Path(evopid.plant.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [getattr(node, field, None) for field in ("name", "asname", "id", "attr")]
            assert "average_error" not in names, (path.name, node.lineno)

    def reference_called(*args):
        raise AssertionError("a simulation path called the per-sample reference")

    for name in ("route_setpoint", "pid_step", "plant_step"):
        monkeypatch.setattr(evopid.plant, name, reference_called)
    individual = Individual.from_flat([0.5, 0.05, 0.001, 0.4, 0.02, 0.0])
    for i, kernel in enumerate(kernels):
        with using(kernel):
            fitness_of(individual, train_route, plant, sim)
            simulate_route(individual, train_route, plant, sim)
            grid_oracle(train_route, plant, sim, GainGrid((0.2, 0.6), (0.0, 0.05), (0.0,)))
            spec = build_experiment_spec(2, output_dir=tmp_path / str(i), overrides={"ep.max_generations": 2})
            assert run_experiment(spec).generations_run == 2
            assert (tmp_path / str(i) / "result.json").is_file()


# ---------------------------------------------------------------- grid oracle


def reference_grid_oracle(route, params, sim, grid):
    """One fitness_of per grid point in lexicographic order; strict < keeps the first of equal AEs."""
    best = {"linear": None, "angular": None}
    for kp in sorted(grid.kp_values):
        for ki in sorted(grid.ki_values):
            for kd in sorted(grid.kd_values):
                gains = Gains(kp, ki, kd)
                fitness = fitness_of(Individual(gains, gains), route, params, sim)
                for name, ae in (("linear", fitness.ae_linear), ("angular", fitness.ae_angular)):
                    if best[name] is None or ae < best[name][0]:
                        best[name] = (ae, gains)
    return GridOracleResult(
        linear_gains=best["linear"][1],
        angular_gains=best["angular"][1],
        ae_linear=best["linear"][0],
        ae_angular=best["angular"][0],
    )


def assert_oracle_matches_reference(route, params, sim, grid, kernels):
    got = grid_oracle(route, params, sim, grid)
    for kernel in kernels:
        with using(kernel):
            # repr also tells 1 from 1.0: the gains must be the grid's own values
            assert repr(got) == repr(reference_grid_oracle(route, params, sim, grid))
    return got


def test_oracle_matches_reference_on_a_dense_grid(plant, sim, train_route, kernels):
    grid = GainGrid(tuple(j / 5 for j in range(8)), tuple(j / 30 for j in range(4)), (0.0, 0.01, 0.02))
    assert_oracle_matches_reference(train_route, plant, sim, grid, kernels)


def test_oracle_matches_reference_on_duplicate_axis_values(plant, sim, train_route, kernels):
    # 1.0 and 1 are equal values of different types; sorted keeps them in the given order
    grid = GainGrid((1.0, 0.5, 1, 0.5), (0.0, 0.02, 0.0), (0.0,))
    assert_oracle_matches_reference(train_route, plant, sim, grid, kernels)


def test_oracle_matches_reference_on_integer_grid(plant, sim, train_route, kernels):
    grid = GainGrid((0, 1, 2, 3), (0, 1), (0,))
    result = assert_oracle_matches_reference(train_route, plant, sim, grid, kernels)
    assert all(type(v) is int for v in result.linear_gains.as_tuple() + result.angular_gains.as_tuple())


def test_oracle_all_diverged_tie_goes_to_first_point(sim, train_route, kernels):
    params = PlantParams(ChannelParams(initial_velocity=-5.0), ChannelParams(time_constant=0.3, initial_velocity=-5.0))
    grid = GainGrid((1.5e308, 1e308), (0.0,), (1e308, 1.2e308))
    for kernel, kp, kd in itertools.product(kernels, grid.kp_values, grid.kd_values):
        gains = Gains(kp, 0.0, kd)
        with using(kernel):
            assert fitness_of(Individual(gains, gains), train_route, params, sim) == (DIVERGENCE_AE, DIVERGENCE_AE)
    result = assert_oracle_matches_reference(train_route, params, sim, grid, kernels)
    assert result.linear_gains == result.angular_gains == Gains(1e308, 0.0, 1e308)
    assert (result.ae_linear, result.ae_angular) == (DIVERGENCE_AE, DIVERGENCE_AE)


@pytest.mark.parametrize("chunk", [1, 4, 5, 7])
def test_oracle_matches_reference_across_chunks(chunk, monkeypatch, plant, sim, train_route, kernels):
    monkeypatch.setattr(evopid.harness, "_ORACLE_CHUNK", chunk)
    grid = GainGrid((0.2, 0.6, 1.0, 1.4), (0.0, 0.05), (0.0, 0.01))
    assert_oracle_matches_reference(train_route, plant, sim, grid, kernels)
    # on a null route from rest every point ties at AE 0; the first chunk's first point must win
    tie = GainGrid((0.3, 0.1, 0.2), (0.2, 0.0), (0.5, 0.4))
    result = assert_oracle_matches_reference(RouteSpec(0.0, 0.0), plant, sim, tie, kernels)
    assert result.linear_gains == result.angular_gains == Gains(0.1, 0.0, 0.4)


# a log-spaced grid of 61 x 31 x 21 points, each axis from 0: ten chunks, and the AEs of a wide search
WIDE_GRID = GainGrid(
    (0.0, *np.geomspace(0.01, 200.0, 60).tolist()),
    (0.0, *np.geomspace(1e-3, 50.0, 30).tolist()),
    (0.0, *np.geomspace(1e-4, 5.0, 20).tolist()),
)


def test_oracle_matches_the_numpy_reference_on_tied_aes(plant, sim, train_route, kernels):
    # np.argmin's first index of the minimum against the first aligned hit of its bits: on a null route from rest
    # every point ties at AE 0.0, whose bits are also every velocity's; equal axis values tie at any AE; and a grid
    # that diverges everywhere ties at DIVERGENCE_AE
    cases = [
        (RouteSpec(0.0, 0.0), plant, GainGrid((0.3, 0.1, 0.2), (0.2, 0.0), (0.5, 0.4))),
        (train_route, plant, GainGrid((1.0, 0.5, 1, 0.5), (0.0, 0.02, 0.0), (0.0,))),
        (
            train_route,
            PlantParams(ChannelParams(initial_velocity=-5.0), ChannelParams(time_constant=0.3, initial_velocity=-5.0)),
            GainGrid((1.5e308, 1e308), (0.0,), (1e308, 1.2e308)),
        ),
    ]
    for kernel in kernels:
        with using(kernel):
            for route, params, grid in cases:
                assert repr(grid_oracle(route, params, sim, grid)) == repr(numpy_grid_oracle(route, params, sim, grid))


def test_oracle_takes_the_first_aligned_hit_of_the_lowest_aes_bits(plant, sim, train_route, monkeypatch):
    # scores made up so that the bits of the lowest linear AE, 0.0, also sit across the first two AEs: 5e-324 ends in
    # seven zero bytes and 0.5 starts with six; only the hit at a multiple of 8 bytes is a point
    import reference

    aes = [(5e-324, 0.25), (0.5, 0.125), (0.0, 0.125)]

    def made_up(gains, *args):
        return array("d", [v for linear, angular in aes[: len(gains) // 6] for v in (linear, angular, 0.0, 0.0)])

    monkeypatch.setattr(evopid.harness, "_fitness_rows", made_up)
    monkeypatch.setattr(reference, "_fitness_rows", made_up)
    grid = GainGrid((0.1, 0.2, 0.3), (0.0,), (0.0,))
    result = grid_oracle(train_route, plant, sim, grid)
    assert repr(result) == repr(numpy_grid_oracle(train_route, plant, sim, grid))
    assert (result.linear_gains.kp, result.angular_gains.kp) == (0.3, 0.2)


def test_oracle_matches_the_numpy_reference_on_the_wide_grid(plant, sim, train_route, c_kernel):
    # 39,711 points, which the Python twin would take minutes over
    if c_kernel is None:
        pytest.skip(NO_CC)
    with using(c_kernel):
        got = grid_oracle(train_route, plant, sim, WIDE_GRID)
        assert repr(got) == repr(numpy_grid_oracle(train_route, plant, sim, WIDE_GRID))
    assert got.ae_linear < 0.0125 and got.ae_angular < 0.009
