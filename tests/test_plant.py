import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evopid import (
    ChannelParams,
    ChannelTrace,
    FitnessRecord,
    GainGrid,
    Gains,
    Individual,
    PlantParams,
    RouteSpec,
    SimConfig,
    SimTrace,
    SimulationDiverged,
    fitness_of,
    grid_oracle,
    plant_step,
    route_setpoint,
    simulate_route,
)
from evopid.plant import _MAX_SAMPLES, _prepare

ZERO = Individual.from_flat([0.0] * 6)


# ---------------------------------------------------------------- route


def test_route_setpoint_train_first_phase(train_route):
    assert route_setpoint(train_route, 1.0) == -0.3


def test_route_setpoint_test_second_phase(test_route):
    assert route_setpoint(test_route, 4.5) == 0.7


def test_route_setpoint_boundary_belongs_to_end_phase(train_route):
    assert route_setpoint(train_route, train_route.phase_duration) == train_route.end


def test_route_setpoint_rejects_out_of_window(train_route):
    with pytest.raises(ValueError):
        route_setpoint(train_route, -0.01)
    with pytest.raises(ValueError):
        route_setpoint(train_route, 6.0)


def test_route_spec_validation():
    with pytest.raises(ValueError):
        RouteSpec(0.0, 1.0, phase_duration=0.0)


# ---------------------------------------------------------------- plant step


def test_plant_rest_is_fixed_point():
    assert plant_step(0.0, 0.0, ChannelParams(), 0.02) == 0.0


def test_plant_step_first_order_closed_form():
    params = ChannelParams(dc_gain=1.0, time_constant=0.5, actuator_limit=2.0)
    assert plant_step(0.0, 1.0, params, 0.5) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)


def test_plant_step_saturates_commands():
    params = ChannelParams(actuator_limit=1.0)
    assert plant_step(0.0, 10.0, params, 0.02) == plant_step(0.0, 1.0, params, 0.02)
    assert plant_step(0.0, -10.0, params, 0.02) == plant_step(0.0, -1.0, params, 0.02)


def test_plant_step_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        plant_step(0.0, 1.0, ChannelParams(), 0.0)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(time_constant=0.0)
    with pytest.raises(ValueError):
        ChannelParams(dc_gain=-1.0)
    with pytest.raises(ValueError):
        ChannelParams(actuator_limit=0.0)


SPEC_FIELDS = [
    (lambda v: ChannelParams(dc_gain=v), "dc_gain"),
    (lambda v: ChannelParams(time_constant=v), "time_constant"),
    (lambda v: ChannelParams(actuator_limit=v), "actuator_limit"),
    (lambda v: ChannelParams(initial_velocity=v), "initial_velocity"),
    (lambda v: RouteSpec(v, 0.3), "start"),
    (lambda v: RouteSpec(-0.3, v), "end"),
    (lambda v: RouteSpec(-0.3, 0.3, phase_duration=v), "phase_duration"),
    (lambda v: SimConfig(sample_rate=v), "sample_rate"),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True])
@pytest.mark.parametrize("make, field", SPEC_FIELDS)
def test_plant_specs_reject_nonfinite_values(make, field, bad):
    with pytest.raises(ValueError, match=field):
        make(bad)


@pytest.mark.parametrize("bad", [np.array(0.5), "0.5"], ids=["0-d-array", "str"])
@pytest.mark.parametrize("make, field", SPEC_FIELDS)
def test_plant_specs_reject_a_field_that_is_not_a_real_number(make, field, bad):
    # a spec keys the scorers' route cache, so every field must be a hashable, immutable real number
    with pytest.raises(ValueError, match=re.escape(f"{field} must be a number, got {bad!r}")):
        make(bad)


def test_plant_specs_keep_numpy_scalars():
    # a NumPy scalar is a real number, so it is kept and scores like the double it equals
    route = RouteSpec(np.float64(-0.3), np.float32(0.25), np.float64(3.0))
    individual = Individual.from_flat([0.5, 0.05, 0.005] * 2)
    expected = fitness_of(individual, RouteSpec(-0.3, float(np.float32(0.25)), 3.0), PlantParams(), SimConfig())
    assert fitness_of(individual, route, PlantParams(), SimConfig(np.int64(50))) == expected


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ChannelTrace(np.zeros(3), np.zeros(3), np.zeros(2)), "time, desired, and actual must have equal length"),
        (
            lambda: SimTrace(ChannelTrace(*[np.zeros(3)] * 3), ChannelTrace(*[np.zeros(2)] * 3), FitnessRecord(0.0, 0.0)),
            "both channels must have equal length",
        ),
    ],
    ids=["channel", "both channels"],
)
def test_traces_reject_unequal_lengths(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_sim_config_dt():
    assert SimConfig().dt == 0.02
    with pytest.raises(ValueError):
        SimConfig(sample_rate=0.0)


@pytest.mark.parametrize("phase_duration", [1e9, 1e308])
def test_route_longer_than_the_sample_cap_is_rejected_before_running(phase_duration, plant):
    # 1e308 s per phase makes the route's duration infinite
    route, sim = RouteSpec(-0.3, 0.3, phase_duration=phase_duration), SimConfig()
    point = GainGrid((0.5,), (0.0,), (0.0,))
    for run in (
        lambda: simulate_route(ZERO, route, plant, sim),
        lambda: fitness_of(ZERO, route, plant, sim),
        lambda: grid_oracle(route, plant, sim, point),
    ):
        with pytest.raises(ValueError, match=f"{phase_duration * 2!r} s at 50.0 Hz .* limit of 10,000,000"):
            run()


@settings(max_examples=200)
@given(
    phase_duration=st.floats(1e-6, 1e5, allow_subnormal=False),
    sample_rate=st.floats(1e-3, 1e4, allow_subnormal=False),
)
@example(phase_duration=0.3337, sample_rate=47.3)  # 31.57 samples
@example(phase_duration=3.5, sample_rate=196.0)  # 686 * dt is 3.4999999999999996
@example(phase_duration=_MAX_SAMPLES / 100, sample_rate=50.0)  # exactly the cap
@example(phase_duration=49_999.998, sample_rate=100.0)  # 9,999,999.6 samples round up to the cap
def test_last_sample_lies_inside_the_route_window(phase_duration, sample_rate):
    # why _prepare needs no window check: rounding leaves the last sample dt / 2 short of the end
    route, sim = RouteSpec(-0.3, 0.3, phase_duration=phase_duration), SimConfig(sample_rate)
    assume(0.5 < route.total_duration * sim.sample_rate <= _MAX_SAMPLES)
    n = sum(count for _, count in _prepare(route, PlantParams(), sim)[0])
    assert (n - 1) * sim.dt < route.total_duration
    assert route_setpoint(route, (n - 1) * sim.dt) in (route.start, route.end)


def test_route_at_the_sample_cap_is_accepted():
    # only counted: 2 * 100,000 s at 50 Hz is exactly the cap
    route = RouteSpec(-0.3, 0.3, phase_duration=_MAX_SAMPLES / 100)
    assert _prepare(route, PlantParams(), SimConfig(50.0))[0] == ((-0.3, _MAX_SAMPLES // 2), (0.3, _MAX_SAMPLES // 2))


@pytest.mark.parametrize("phase_duration", [0.01, 3.0])
@pytest.mark.parametrize("channel", ["linear", "angular"])
def test_overflowing_first_error_is_rejected_on_every_simulation_path(phase_duration, channel):
    # 1e308 - -1e308 is inf; the kernels would seed their first derivative with inf - inf.
    # On the 1-sample route fitness_of used to score (1e6, 1e6) where the per-sample reference AE is inf.
    # The ints are subtracted as the doubles the kernels read: their exact difference is no double at all.
    ones, sim = Individual.from_flat([1.0] * 6), SimConfig()
    for start, velocity in ((1e308, -1e308), (int(1.7e308), -int(1.7e308))):
        route = RouteSpec(start, start, phase_duration=phase_duration)
        plant = PlantParams(**{channel: ChannelParams(initial_velocity=velocity)})
        for run in (
            lambda: simulate_route(ones, route, plant, sim),
            lambda: fitness_of(ones, route, plant, sim),
            lambda: grid_oracle(route, plant, sim, GainGrid((1.0, 2.0, 3.0), (1.0,), (1.0,))),
        ):
            message = f"plant.{channel}.initial_velocity must be finite, got {start!r} - {velocity!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                run()
    # a large first error that stays finite is simulated as before (one sample, so nothing overflows later)
    one_sample = RouteSpec(1e308, 1e308, phase_duration=0.01)
    finite = PlantParams(**{channel: ChannelParams(initial_velocity=-1e307)})
    ae = fitness_of(ZERO, one_sample, finite, sim)
    assert all(math.isfinite(v) and v > 1e307 for v in ae)
    oracle = grid_oracle(one_sample, finite, sim, GainGrid((0.0,), (0.0,), (0.0,)))
    assert (oracle.ae_linear, oracle.ae_angular) == ae
    simulate_route(ZERO, one_sample, finite, sim)


# ---------------------------------------------------------------- route simulation


def test_simulate_route_zero_gains_stay_at_rest(plant, sim, train_route):
    trace = simulate_route(ZERO, train_route, plant, sim)
    for channel in (trace.linear, trace.angular):
        assert np.all(np.asarray(channel.actual) == 0.0)
        assert len(channel) == 300
    # desired follows the two-phase profile: 150 samples per phase
    assert np.all(np.asarray(trace.linear.desired[:150]) == train_route.start)
    assert np.all(np.asarray(trace.linear.desired[150:]) == train_route.end)


def test_simulate_route_nonzero_initial_velocity_holds_without_gains(sim, train_route):
    params = PlantParams(
        linear=ChannelParams(initial_velocity=0.25),
        angular=ChannelParams(time_constant=0.3, initial_velocity=-0.5),
    )
    trace = simulate_route(ZERO, train_route, params, sim)
    # zero command decays toward zero, never past the start magnitude
    assert trace.linear.actual[0] == 0.25
    assert np.all(np.abs(trace.linear.actual) <= 0.25)


def test_simulate_route_timestamps_spaced_by_dt(plant, sim, train_route):
    trace = simulate_route(ZERO, train_route, plant, sim)
    t = trace.linear.time
    assert t[0] == 0.0
    assert np.all(np.diff(t) > 0)
    assert np.allclose(np.diff(t), sim.dt, rtol=0, atol=1e-12)


def test_simulate_route_is_repeatable(plant, sim, train_route):
    individual = Individual(Gains(0.7, 0.02, 0.001), Gains(0.4, 0.05, 0.0))
    a = simulate_route(individual, train_route, plant, sim)
    b = simulate_route(individual, train_route, plant, sim)
    for ca, cb in ((a.linear, b.linear), (a.angular, b.angular)):
        assert np.array_equal(ca.time, cb.time)
        assert np.array_equal(ca.desired, cb.desired)
        assert np.array_equal(ca.actual, cb.actual)


def test_simulate_route_channels_do_not_couple(plant, sim, train_route):
    base = Individual(Gains(0.7, 0.02, 0.001), Gains(0.4, 0.05, 0.0))
    modified = Individual(base.linear, Gains(2.0, 0.0, 0.01))
    a = simulate_route(base, train_route, plant, sim)
    b = simulate_route(modified, train_route, plant, sim)
    assert np.array_equal(a.linear.actual, b.linear.actual)
    assert not np.array_equal(a.angular.actual, b.angular.actual)


@settings(max_examples=25)
@given(
    kp=st.floats(0, 20),
    ki=st.floats(0, 2),
    kd=st.floats(0, 0.1),
    v0=st.floats(-1, 1),
)
def test_simulate_route_bounded_by_saturation(kp, ki, kd, v0, sim, train_route):
    params = PlantParams(
        linear=ChannelParams(initial_velocity=v0),
        angular=ChannelParams(time_constant=0.3, initial_velocity=v0),
    )
    gains = Gains(kp, ki, kd)
    trace = simulate_route(Individual(gains, gains), train_route, params, sim)
    for channel, ch_params in ((trace.linear, params.linear), (trace.angular, params.angular)):
        bound = max(abs(v0), ch_params.dc_gain * ch_params.actuator_limit)
        assert np.all(np.abs(channel.actual) <= bound * (1 + 1e-12) + 1e-12)


@pytest.mark.parametrize("kp", [0.3, 1.0, 2.5])
def test_proportional_loop_reaches_closed_form_steady_state(kp, plant, sim):
    # the discrete loop's fixed point matches dc_gain*kp/(1 + dc_gain*kp) * setpoint
    setpoint = 0.4
    route = RouteSpec(setpoint, setpoint, phase_duration=10.0)
    gains = Gains(kp, 0.0, 0.0)
    trace = simulate_route(Individual(gains, gains), route, plant, sim)
    for channel, ch_params in ((trace.linear, plant.linear), (trace.angular, plant.angular)):
        expected = ch_params.dc_gain * kp / (1.0 + ch_params.dc_gain * kp) * setpoint
        assert channel.actual[-1] == pytest.approx(expected, abs=1e-6)


def test_simulate_route_detects_divergence(sim, train_route):
    params = PlantParams(
        linear=ChannelParams(dc_gain=1e308, actuator_limit=1e308),
        angular=ChannelParams(time_constant=0.3),
    )
    huge = Individual(Gains(1e8, 0.0, 0.0), Gains(0.1, 0.0, 0.0))
    with pytest.raises(SimulationDiverged) as excinfo:
        simulate_route(huge, train_route, params, sim)
    assert excinfo.value.channel == "linear"
    assert excinfo.value.sample_index >= 0
