"""The one simulation entry against its plain references.

plant._simulate, behind simulate_route, fitness_of and grid_oracle, is checked
against a reference that chains route_setpoint, pid_step and plant_step one
sample at a time and reduces with reference.average_error. It runs on each
implementation in turn: the C kernel as the host builds it, compiled here with
warnings as errors; on a host with AVX, where that build runs two rows per
256-bit vector, the two-wide build too, one row per two-wide vector; the
two-wide build once more with __SSE2__ undefined; and its Python twin, which it
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
import platform
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
    EPConfig,
    FitnessRecord,
    GainGrid,
    Gains,
    GridOracleResult,
    Individual,
    MutationKind,
    MutationSpec,
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
from evopid.ep import _mutate, _mutate_py
from evopid.metrics import _fitness_rows
from evopid.plant import (
    _CSV_CELL,
    _CSV_FLAGS,
    _KERNEL_FLAGS,
    _MAX_SAMPLES,
    _TWO_WIDE_FLAGS,
    _cache_dir,
    _csv_table,
    _library_name,
    _load_kernel,
    _prepare,
    _run_rows_py,
    _simulate,
    _times_py,
)
from conftest import load_script
from reference import average_error, numpy_grid_oracle

NO_CC = "no C compiler: cc is not on PATH, so only the Python twin is tested"
NO_AVX = "the host has no AVX, so the four-wide build cannot run here"
SOURCE = evopid.plant._KERNEL_SOURCE.read_bytes()
# the load-check slips of _kernel.c, by the load check that must refuse them
C_SLIPS = load_script("mutation_check").C_SLIPS


def slips(check: str) -> list:
    """The catalogue's slips of one load check, as (old text, new text) parameters named by the slip."""
    return [pytest.param((old, new), id=name) for _, old, new, name in C_SLIPS[check]]


def default_build_loads() -> bool:
    """Whether _c_kernel's default build, from the per-user cache, loads here: False where its probe says this CPU
    cannot run it, or without cc."""
    cache = _cache_dir()
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    return _load_kernel(cache, SOURCE) is not None


# the flags of each vector width _c_kernel may build, the widest first: two rows per 256-bit vector in the default
# build on x86, one row per two-wide vector in the _TWO_WIDE_FLAGS build there and in the default build elsewhere;
# only those the host runs
if platform.machine().lower() not in {"x86_64", "amd64", "i386", "i686"}:
    WIDTHS = {"two-wide": ()}
elif default_build_loads():
    WIDTHS = {"four-wide": (), "two-wide": _TWO_WIDE_FLAGS}
else:
    WIDTHS = {"two-wide": _TWO_WIDE_FLAGS}
# the builds a cold _c_kernel makes and opens, in order: the default alone where it runs here, else the two-wide too
LOADED = [()] if next(iter(WIDTHS.values())) == () else [(), _TWO_WIDE_FLAGS]


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
    with AVX, the two-wide build beside it; the two-wide build with __SSE2__ undefined, whose clamp is the portable
    one that platforms without SSE2 run; then the Python twin (None).
    """
    if c_kernel is None:
        return [None]
    two_wide = [build_kernel(tmp_path_factory, *_TWO_WIDE_FLAGS)] if len(WIDTHS) > 1 else []
    return [c_kernel, *two_wide, build_kernel(tmp_path_factory, *_TWO_WIDE_FLAGS, "-U__SSE2__"), None]


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
    # 2 * 0.1 s at 2 Hz rounds to 0 samples: no average error to take, so no run either, on any path
    route, sim = RouteSpec(0.0, 1.0, phase_duration=0.1), SimConfig(2.0)
    individual = Individual(Gains(1.0, 0.0, 0.0), Gains(1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        reference_fitness(individual, route, plant, sim)
    paths = (
        fitness_of,
        simulate_route,
        lambda individual, *environment: _fitness_rows(packed([individual.as_flat()] * 2), *environment),
        lambda individual, *environment: grid_oracle(*environment, GainGrid((1.0,), (0.0,), (0.0,))),
    )
    for kernel, run in itertools.product(kernels, paths):
        with using(kernel), pytest.raises(ValueError, match="^the route has no samples at this sample rate$"):
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
    # each export's prototype in _kernel.c, the argtypes _load_kernel gives ctypes and, where it takes them, its
    # twin's parameters: the same arguments in the same order, each an integer, a double or a pointer; a mismatch
    # would be undefined behaviour
    if c_kernel is None:
        pytest.skip(NO_CC)
    # each type as C, ctypes and the twin's annotations name it; any other is a KeyError
    kinds = {"int64_t ": int, "double ": float, "double *": array, ctypes.c_int64: int, ctypes.c_double: float}
    kinds.update({ctypes.c_void_p: array, "int": int, "float": float, "array": array, "array | None": array})
    for name, twin, arity in (("evopid_run", _run_rows_py, 5), ("evopid_times", _times_py, 3)):
        prototype = re.search(rb"void " + name.encode() + rb"\(([^)]*)\)", SOURCE).group(1).decode()
        c_params = [re.fullmatch(r"(?:const )?(int64_t |double \*?)(\w+)", p.strip()).groups()
                    for p in prototype.split(",")]
        params = list(inspect.signature(twin).parameters.values())
        assert len(params) == arity and [c_name for _, c_name in c_params] == [p.name for p in params], name
        argtypes = getattr(c_kernel, name).argtypes
        assert [kinds[t] for t, _ in c_params] == [kinds[t] for t in argtypes] == [kinds[p.annotation] for p in params]
    # evopid_mutate's twin takes a parent row, a config and a generator, which _mutate unpacks into C's arguments
    prototype = re.search(rb"double evopid_mutate\(([^)]*)\)", SOURCE).group(1).decode()
    c_types = [re.fullmatch(r"(?:const )?(int64_t |double \*?|uint8_t \*)\w+", p.strip()).group(1)
               for p in prototype.split(",")]
    kinds.update({"uint8_t *": bytes, ctypes.c_char_p: bytes})
    assert [kinds[t] for t in c_types] == [kinds[t] for t in c_kernel.evopid_mutate.argtypes]
    assert c_kernel.evopid_mutate.restype is ctypes.c_double


def test_kernel_cache_is_keyed_reused_and_private(c_kernel, tmp_path, monkeypatch):
    if c_kernel is None:
        pytest.skip(NO_CC)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "evopid"
    assert evopid.plant._c_kernel.__wrapped__() is not None
    libraries = list(cache.iterdir())  # one build where the default runs here, and no partial file beside them
    assert len(libraries) == len(LOADED)
    assert all(re.fullmatch(r"kernel-[0-9a-f]{16}\.so", library.name) for library in libraries)
    assert cache.stat().st_mode & 0o777 == 0o700
    # other flags name another library
    with monkeypatch.context() as patch:
        patch.setattr(evopid.plant, "_KERNEL_FLAGS", (*_KERNEL_FLAGS, "-O1"))
        assert _load_kernel(cache, SOURCE) is not None
    assert len(list(cache.iterdir())) == len(LOADED) + 1
    # with no compiler the cached library is loaded
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    assert evopid.plant._c_kernel.__wrapped__() is not None
    # a library that others could have written is not
    cache.chmod(0o777)
    assert evopid.plant._c_kernel.__wrapped__() is None


def test_kernel_loads_in_one_pass(c_kernel, tmp_path, monkeypatch):
    # per process the twin runs the self-test once, and each call opens the default build once, and only that where
    # this CPU runs it, whether it compiles it or finds it cached
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
    loaded = [_library_name(SOURCE, (*_KERNEL_FLAGS, *flags)) for flags in LOADED]
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
    # once a kernel loads, the libraries no flag set of this source names are removed, and only those: the default,
    # two-wide and CSV builds of this source are kept, also where this process opens none of them
    if c_kernel is None:
        pytest.skip(NO_CC)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "evopid"
    cache.mkdir(mode=0o700)
    kept = [cache / ".kernel-a1b2c3.so", cache / "notes.txt"]  # another process's partial build, and no library
    kept += [cache / _library_name(SOURCE, (*_KERNEL_FLAGS, *flags)) for flags in (_TWO_WIDE_FLAGS, _CSV_FLAGS)
             if flags not in LOADED]
    stale = [cache / "kernel-0123456789abcdef.so"]
    for path in kept + stale:
        path.write_text("not a library")
    # another version's library, loaded and held as a running process would hold it
    old_library = _load_kernel(cache, SOURCE + b"/* another version */\n")
    assert old_library is not None
    stale += [path for path in cache.glob("kernel-*.so") if path not in stale + kept]
    assert len(stale) == 2
    # with no compiler and no build of this source's cached that loads, no kernel loads, and nothing is removed
    with monkeypatch.context() as patch:
        patch.setenv("PATH", str(tmp_path / "no-bin"))
        assert evopid.plant._c_kernel.__wrapped__() is None
    assert all(path.exists() for path in kept + stale)
    assert evopid.plant._c_kernel.__wrapped__() is not None
    built = {_library_name(SOURCE, (*_KERNEL_FLAGS, *flags)) for flags in LOADED}
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
    compiles in half of -O2's time or less: the load check must refuse every build."""
    old, new = (text.encode() for text in slip)
    assert SOURCE.count(old) == 1
    slipped = SOURCE.replace(old, new)
    for flags in builds:
        assert _load_kernel(tmp_path, slipped, *flags, "-O0") is None, flags
        # it compiled, so the self-check refused it
        assert (tmp_path / _library_name(slipped, (*_KERNEL_FLAGS, *flags, "-O0"))).exists(), flags


@pytest.mark.parametrize("slip", slips("simulation"))
def test_kernel_with_a_stride_or_offset_slip_is_not_used(slip, c_kernel, tmp_path):
    if c_kernel is None:
        pytest.skip(NO_CC)
    assert_slip_is_not_used(slip, WIDTHS.values(), tmp_path)


@pytest.mark.parametrize("slip", slips("probe"))
def test_kernel_whose_probe_says_no_is_not_used(slip, c_kernel, tmp_path):
    # a two-wide build whose probe says this CPU cannot run it is refused like a default one, so on an x86 CPU
    # without AVX no kernel would load; the kernels fixture, which requires the two-wide build to load, fails on it
    if c_kernel is None:
        pytest.skip(NO_CC)
    assert_slip_is_not_used(slip, [_TWO_WIDE_FLAGS], tmp_path)


@pytest.mark.parametrize("slip", slips("lane"))
def test_kernel_with_a_lane_slip_is_not_used(slip, c_kernel, tmp_path):
    # a two-wide vector holds one row, where these change nothing
    if c_kernel is None:
        pytest.skip(NO_CC)
    if "four-wide" not in WIDTHS:
        pytest.skip(NO_AVX)
    assert_slip_is_not_used(slip, [WIDTHS["four-wide"]], tmp_path)


# ---------------------------------------------------------------- the time column


def test_time_column_is_the_twins_bit_for_bit(kernels):
    # evopid_times, through _times as simulate_route calls it, writes _times_py's k * dt at the trace's 50 Hz for
    # every k below 2**20, and at rates whose running sums part from k * dt (1/3, 1/7, 1e-3) for k below 2**16; each
    # C build, for the twin is the reference
    for dt, n in ((1 / 50, 2**20), (1 / 3, 2**16), (1 / 7, 2**16), (1e-3, 2**16)):
        want = array("d", bytes(8 * n))
        _times_py(n, dt, want)
        for kernel in kernels:
            if kernel is not None:
                with using(kernel):
                    got = evopid.plant._times(n, dt)
                assert got.typecode == "d" and got.tobytes() == want.tobytes(), (kernel, dt)


def assert_slip_loads_no_kernel(slip, tmp_path, monkeypatch):
    """A slip of code that is the same at every width, built as _c_kernel builds it, at -O0: the default and the
    two-wide build compile and are refused, so _c_kernel loads no kernel, and every path takes its twin."""
    old, new = (text.encode() for text in slip)
    assert SOURCE.count(old) == 1
    source = tmp_path / "_kernel.c"
    source.write_bytes(SOURCE.replace(old, new))
    monkeypatch.setattr(evopid.plant, "_KERNEL_SOURCE", source)
    monkeypatch.setattr(evopid.plant, "_KERNEL_FLAGS", (*_KERNEL_FLAGS, "-O0"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert evopid.plant._c_kernel.__wrapped__() is None
    # both compiled, so the load check refused them
    assert len(list((tmp_path / "evopid").glob("kernel-*.so"))) == 2


@pytest.mark.parametrize("slip", slips("time"))
def test_kernel_whose_time_column_slips_is_not_used(slip, c_kernel, tmp_path, monkeypatch):
    # a time column summed as t += dt fails the load check, so no kernel loads and simulate_route takes the twin
    if c_kernel is None:
        pytest.skip(NO_CC)
    assert_slip_loads_no_kernel(slip, tmp_path, monkeypatch)


# ---------------------------------------------------------------- the mutation


@settings(max_examples=40, deadline=None)
@given(
    parent=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 1e3)), min_size=6, max_size=6),
    kind=st.sampled_from(MutationKind),
    sigma=st.floats(1e-3, 1e3),
    size=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    spare=st.booleans(),
)
# zeros, a subnormal and a tiny gain that steps of sigma 1e3 take far below 0: long halvings, and a 0 kept
@example(parent=[0.0, 5e-324, 1e-300, 0.5, 0.0, 1e3], kind=MutationKind.ABSOLUTE, sigma=1e3, size=40, seed=0,
         spare=True)
@example(parent=[0.0, 5e-324, 1e-300, 0.5, 0.0, 1e3], kind=MutationKind.SCALED, sigma=1e3, size=2, seed=1,
         spare=False)
def test_mutation_in_c_matches_the_twin(parent, kind, sigma, size, seed, spare, kernels):
    # evopid_mutate, through _mutate as evolve calls it, against _mutate_py on a generator in the same state, three
    # calls in a row, each on the last one's first mutant: the same mutants by .hex(), and the generator left in the
    # same state, gauss_next to the bit; each C build, for the twin is the reference
    config = EPConfig(size, mutation=MutationSpec(kind, sigma_absolute=sigma, sigma_scaled=sigma))
    for kernel in kernels:
        if kernel is None:
            continue
        calls = []

        def mutate(*args, kernel=kernel):
            calls.append(args[0])
            return kernel.evopid_mutate(*args)

        rng, twin = random.Random(seed), random.Random(seed)
        if spare:
            rng.gauss(), twin.gauss()
        row = tuple(parent)
        with using(types.SimpleNamespace(evopid_mutate=mutate)):
            for _ in range(3):
                got, want = _mutate(row, config, rng), _mutate_py(row, config, twin)
                assert [[v.hex() for v in m] for m in got] == [[v.hex() for v in m] for m in want]
                assert rng.getstate() == twin.getstate()
                assert len({None if g is None else g.hex() for g in (rng.gauss_next, twin.gauss_next)}) == 1
                row = got[0] if got else row
        assert calls == [size - 1] * 3


@pytest.mark.parametrize("slip", slips("mutation"))
def test_kernel_whose_mutation_slips_is_not_used(slip, c_kernel, tmp_path, monkeypatch):
    # a slipped evopid_mutate fails the load check on its fixed mutations, so no kernel loads and _mutate takes the
    # twin
    if c_kernel is None:
        pytest.skip(NO_CC)
    assert_slip_loads_no_kernel(slip, tmp_path, monkeypatch)


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


@pytest.mark.parametrize("slip", slips("formatter"))
def test_kernel_whose_formatter_slips_is_not_used(slip, c_kernel, tmp_path, monkeypatch):
    # each fails the load check, so _c_csv gives None and every CSV write takes the twin; the simulation builds,
    # which leave the formatter out, still load
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


def test_build_without_int128_is_refused_and_the_twin_writes_the_same_bytes(c_formatter, tmp_path, monkeypatch):
    # a compiler without unsigned __int128 leaves evopid_csv out, so _c_csv refuses its build, and every chunk goes to
    # the twin, which writes what the full formatter writes
    if c_formatter is None:
        pytest.skip(NO_CC)
    monkeypatch.setattr(evopid.plant, "_CSV_FLAGS", (*_CSV_FLAGS, "-U__SIZEOF_INT128__", "-O0"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    refused = evopid.plant._c_csv.__wrapped__()
    # it compiled, so the load check refused it
    assert refused is None
    assert (tmp_path / "evopid" / _library_name(SOURCE, (*_KERNEL_FLAGS, *evopid.plant._CSV_FLAGS))).exists()
    columns = [array("d", [k * 0.02 for k in range(1200)]), array("q", range(1200)), array("d", [5e-324]) * 1200]
    for name, library in (("refused", refused), ("full", c_formatter)):
        monkeypatch.setattr(evopid.plant, "_c_csv", lambda: library)
        evopid.harness._write_csv(tmp_path / f"{name}.csv", ("t", "k", "tiny"), columns)
    assert (tmp_path / "refused.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


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


def logging_cc(tmp_path, monkeypatch, rule: str = "") -> Path:
    """Put alone on PATH a cc that appends each call's arguments to the returned log, one line a call, runs the shell
    line ``rule`` (which may exit), then the host's cc."""
    bin_dir, log = tmp_path / "bin", tmp_path / "cc.log"
    bin_dir.mkdir()
    (bin_dir / "cc").write_text(
        f'#!/bin/sh\necho "$*" >> "{log}"\n{rule}\nPATH="{os.environ["PATH"]}" exec "{shutil.which("cc")}" "$@"\n'
    )
    (bin_dir / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    return log


def test_cold_kernel_load_compiles_only_the_default_build_where_it_runs(c_kernel, tmp_path, monkeypatch):
    # a cold _c_kernel makes one cc call, the default build's, on a host that runs it (an x86 one with AVX); where
    # its probe says no, the two-wide build's call follows
    if c_kernel is None:
        pytest.skip(NO_CC)
    log = logging_cc(tmp_path, monkeypatch)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert evopid.plant._c_kernel.__wrapped__() is not None
    calls = log.read_text().splitlines()
    assert ["-DEVOPID_TWO_WIDE" in call.split() for call in calls] == [flags == _TWO_WIDE_FLAGS for flags in LOADED]


def test_kernel_that_cannot_run_here_is_refused_before_any_other_call(kernels, tmp_path, monkeypatch):
    # a default build whose probe, evopid_runs_here, says this CPU cannot run it, as on an x86 CPU without AVX:
    # _load_kernel returns None having called no other export of it, and _c_kernel takes the two-wide build instead
    if kernels == [None]:
        pytest.skip(NO_CC)
    cache = tmp_path / "evopid"
    cache.mkdir(mode=0o700)
    default, two_wide = (cache / _library_name(SOURCE, (*_KERNEL_FLAGS, *flags)) for flags in ((), _TWO_WIDE_FLAGS))
    default.write_text("a stand-in, never opened")
    shutil.copyfile(kernels[-3]._name, two_wide)  # kernels' two-wide build at the host's ISA: nothing is compiled
    called = []

    class CannotRunHere:
        """The default build as a spy: each export records its call and returns 0, the probe's no."""

        def __getattr__(self, name):
            return lambda *args: called.append(name) or 0

    cdll = ctypes.CDLL
    monkeypatch.setattr(ctypes, "CDLL", lambda name: CannotRunHere() if name == str(default) else cdll(name))
    assert _load_kernel(cache, SOURCE) is None
    assert called == ["evopid_runs_here"]
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    assert evopid.plant._c_kernel.__wrapped__()._name == str(two_wide)
    assert called == ["evopid_runs_here"] * 2


def test_failed_default_build_falls_back_to_the_two_wide_build(c_kernel, tmp_path, monkeypatch, capfd):
    # a compiler that fails every build but the two-wide one: _c_kernel fails to build the default, then builds and
    # keeps the two-wide, not the Python twin, silently, and it writes what the host's own build writes
    if c_kernel is None:
        pytest.skip(NO_CC)
    log = logging_cc(tmp_path, monkeypatch, 'case " $* " in *" -DEVOPID_TWO_WIDE "*) ;; *) exit 1;; esac')
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    # fresh loaders, so that what this environment loads, or fails to, stays in this test
    monkeypatch.setattr(evopid.plant, "_c_kernel", functools.cache(evopid.plant._c_kernel.__wrapped__))
    monkeypatch.setattr(evopid.plant, "_c_csv", functools.cache(evopid.plant._c_csv.__wrapped__))
    assert evopid.plant._c_kernel() is not None
    assert capfd.readouterr() == ("", "")
    assert ["-DEVOPID_TWO_WIDE" in call.split() for call in log.read_text().splitlines()] == [False, True]
    spec = build_experiment_spec(3, output_dir=tmp_path / "two-wide", overrides={"ep.max_generations": 3})
    run_experiment(spec)
    with using(c_kernel):
        run_experiment(replace(spec, output_dir=tmp_path / "c"))
    assert_same_outputs(tmp_path / "two-wide", tmp_path / "c")


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


def test_route_cache_is_bounded(plant, sim, train_route):
    # one entry: after 128 routes it holds the last one's objects, and no earlier route is kept alive; the same route
    # and plant at another sample rate are another entry, with that rate's bits
    individual = Individual(Gains(0.5, 0.0, 0.0), Gains(0.5, 0.0, 0.0))
    for environment in ((train_route, plant, sim), (train_route, plant, SimConfig(100.0))):
        assert bits(fitness_of(individual, *environment)) == bits(twin_fitness(individual, *environment))
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


@pytest.mark.parametrize(
    "grid",
    [
        GainGrid(tuple(j / 5 for j in range(8)), tuple(j / 30 for j in range(4)), (0.0, 0.01, 0.02)),
        # 1.0 and 1 are equal values of different types; sorted keeps them in the given order
        GainGrid((1.0, 0.5, 1, 0.5), (0.0, 0.02, 0.0), (0.0,)),
        GainGrid((0, 1, 2, 3), (0, 1), (0,)),
    ],
    ids=["dense", "duplicate-axis-values", "integer"],
)
def test_oracle_matches_reference(grid, plant, sim, train_route, kernels):
    result = assert_oracle_matches_reference(train_route, plant, sim, grid, kernels)
    if all(type(v) is int for v in grid.kp_values + grid.ki_values + grid.kd_values):
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
