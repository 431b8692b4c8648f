"""The fused simulation loop behind simulate_route and fitness_of against the per-sample reference.

The reference below chains route_setpoint, pid_step and plant_step one sample at
a time and reduces with average_error. Both paths must agree exactly: the same
arrays, the same average errors and the same divergence sample, not merely
close values.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evopid import (
    DIVERGENCE_AE,
    ChannelParams,
    ChannelTrace,
    FitnessRecord,
    Gains,
    Individual,
    PlantParams,
    RouteSpec,
    SimConfig,
    SimTrace,
    SimulationDiverged,
    average_error,
    fitness_of,
    pid_reset,
    pid_step,
    plant_step,
    route_setpoint,
    simulate_route,
)


def reference_simulate_route(individual, route, params, sim):
    dt = sim.dt
    n_samples = int(round(route.total_duration * sim.sample_rate))
    traces = []
    for name, gains, channel in (
        ("linear", individual.linear, params.linear),
        ("angular", individual.angular, params.angular),
    ):
        state = pid_reset()
        velocity = channel.initial_velocity
        times, desired, actual = [], [], []
        for k in range(n_samples):
            t = k * dt
            setpoint = route_setpoint(route, t)
            times.append(t)
            desired.append(setpoint)
            actual.append(velocity)
            command, state = pid_step(state, gains, setpoint, velocity, dt)
            velocity = plant_step(velocity, command, channel, dt)
            if not math.isfinite(velocity):
                raise SimulationDiverged(name, k)
        traces.append(ChannelTrace(np.asarray(times), np.asarray(desired), np.asarray(actual)))
    return SimTrace(linear=traces[0], angular=traces[1])


def reference_fitness(individual, route, params, sim):
    try:
        trace = reference_simulate_route(individual, route, params, sim)
    except SimulationDiverged:
        return FitnessRecord(DIVERGENCE_AE, DIVERGENCE_AE)
    return FitnessRecord(average_error(trace.linear), average_error(trace.angular))


def assert_same_run(individual, route, params, sim):
    try:
        expected = reference_simulate_route(individual, route, params, sim)
    except SimulationDiverged as exc:
        with pytest.raises(SimulationDiverged) as excinfo:
            simulate_route(individual, route, params, sim)
        assert (excinfo.value.channel, excinfo.value.sample_index) == (exc.channel, exc.sample_index)
    else:
        got = simulate_route(individual, route, params, sim)
        for name in ("linear", "angular"):
            for field in ("time", "desired", "actual"):
                a = getattr(getattr(got, name), field)
                b = getattr(getattr(expected, name), field)
                assert a.dtype == b.dtype, (name, field)
                assert np.array_equal(a, b), (name, field)
    assert fitness_of(individual, route, params, sim) == reference_fitness(individual, route, params, sim)


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
def test_fused_loop_matches_per_sample_reference(linear, angular, linear_plant, angular_plant, route, sample_rate):
    assert_same_run(
        Individual(linear, angular), route, PlantParams(linear_plant, angular_plant), SimConfig(sample_rate)
    )


@pytest.mark.parametrize("channel", ["linear", "angular"])
def test_forced_divergence_matches_reference(channel, sim, train_route):
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
    assert_same_run(individual, train_route, params, sim)
    assert fitness_of(individual, train_route, params, sim) == (1e6, 1e6)


def test_route_without_samples_matches_reference(plant):
    # 2 * 0.1 s at 2 Hz rounds to 0 samples: empty traces, and no average error to take
    route, sim = RouteSpec(0.0, 1.0, phase_duration=0.1), SimConfig(2.0)
    individual = Individual(Gains(1.0, 0.0, 0.0), Gains(1.0, 0.0, 0.0))
    assert len(simulate_route(individual, route, plant, sim).linear) == 0
    with pytest.raises(ValueError):
        reference_fitness(individual, route, plant, sim)
    with pytest.raises(ValueError):
        fitness_of(individual, route, plant, sim)


def test_integer_route_and_start_velocity_match_reference(sim):
    # ints stay ints in the reference's first error and in its desired array
    route = RouteSpec(0, 1, phase_duration=1)
    params = PlantParams(ChannelParams(initial_velocity=0), ChannelParams(initial_velocity=1))
    individual = Individual(Gains(0.8, 0.2, 0.01), Gains(2.0, 0.0, 0.0))
    assert simulate_route(individual, route, params, sim).linear.desired.dtype == np.int64
    assert_same_run(individual, route, params, sim)
