import dataclasses
import math
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evopid import (
    DIVERGENCE_AE,
    ChannelParams,
    ChannelTrace,
    GenerationRecord,
    Gains,
    Individual,
    MemberRecord,
    PlantParams,
    RouteSpec,
    build_experiment_spec,
    fitness_of,
    simulate_route,
    step_metrics,
)
from evopid.metrics import _mean
from reference import average_error, numpy_step_metrics

ZERO = Individual.from_flat([0.0] * 6)
DT = 0.02


def make_channel(desired, actual, dt=DT):
    desired = np.asarray(desired, dtype=float)
    actual = np.asarray(actual, dtype=float)
    return ChannelTrace(np.arange(len(desired)) * dt, desired, actual)


def ae_bruteforce(desired, actual):
    """Independent recomputation: exact pairwise |d - a| summed with fsum."""
    return math.fsum(abs(float(d) - float(a)) for d, a in zip(desired, actual)) / len(desired)


# ---------------------------------------------------------------- average error


def test_average_error_zero_when_tracking_perfectly():
    channel = make_channel([0.3, -0.3, 0.7], [0.3, -0.3, 0.7])
    assert average_error(channel) == 0.0


def test_average_error_two_sample_arithmetic():
    channel = make_channel([1.0, 1.0], [0.5, 1.0])
    assert average_error(channel) == 0.25


def test_average_error_rejects_empty_trace():
    with pytest.raises(ValueError):
        average_error(make_channel([], []))


def test_average_error_matches_bruteforce_on_random_traces():
    rng = np.random.default_rng(17)
    for _ in range(20):
        desired = rng.uniform(-1, 1, size=300)
        actual = rng.uniform(-1, 1, size=300)
        ae = average_error(make_channel(desired, actual))
        assert abs(ae - ae_bruteforce(desired, actual)) < 1e-12


@given(
    pairs=st.lists(
        st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=1, max_size=50
    ),
    seed=st.integers(0, 2**16),
)
def test_average_error_permutation_invariant(pairs, seed):
    desired = [d for d, _ in pairs]
    actual = [a for _, a in pairs]
    base = average_error(make_channel(desired, actual))
    order = np.random.default_rng(seed).permutation(len(pairs))
    shuffled = average_error(
        make_channel([desired[i] for i in order], [actual[i] for i in order])
    )
    assert shuffled == pytest.approx(base, rel=1e-12, abs=1e-12)
    assert base >= 0.0


@given(
    pairs=st.lists(
        st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=1, max_size=50
    ),
    alpha=st.floats(-4, 4),
)
def test_average_error_scales_linearly(pairs, alpha):
    desired = np.array([d for d, _ in pairs])
    actual = np.array([a for _, a in pairs])
    base = average_error(make_channel(desired, actual))
    scaled = average_error(make_channel(alpha * desired, alpha * actual))
    assert scaled == pytest.approx(abs(alpha) * base, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------- fitness


def test_fitness_zero_gains_train_route(plant, sim, train_route):
    record = fitness_of(ZERO, train_route, plant, sim)
    assert record.ae_linear == pytest.approx(0.3, abs=1e-9)
    assert record.ae_angular == pytest.approx(0.3, abs=1e-9)


def test_fitness_zero_gains_test_route(plant, sim, test_route):
    record = fitness_of(ZERO, test_route, plant, sim)
    assert record.ae_linear == pytest.approx(0.4, abs=1e-9)
    assert record.ae_angular == pytest.approx(0.4, abs=1e-9)


def test_fitness_is_pure(plant, sim, train_route):
    individual = Individual(Gains(0.6, 0.03, 0.002), Gains(0.2, 0.01, 0.0))
    assert fitness_of(individual, train_route, plant, sim) == fitness_of(
        individual, train_route, plant, sim
    )


def test_fitness_absorbs_divergence_into_worst_case(sim, train_route):
    params = PlantParams(
        linear=ChannelParams(dc_gain=1e308, actuator_limit=1e308),
        angular=ChannelParams(time_constant=0.3),
    )
    unstable = Individual(Gains(1e8, 0.0, 0.0), Gains(0.1, 0.0, 0.0))
    record = fitness_of(unstable, train_route, params, sim)
    assert record == (DIVERGENCE_AE, DIVERGENCE_AE)


def test_divergence_loses_selection_to_a_large_finite_error():
    # from 1e8 m/s even a stable member's linear AE is about 8.5e6, so a stand-in of 1e6 would win
    spec = build_experiment_spec(2, overrides={"plant.linear.initial_velocity": 1e8})
    diverging = Individual(Gains(1e308, 0.0, 1e308), Gains(0.1, 0.0, 0.0))
    stable = Individual(Gains(0.5, 0.01, 0.0), Gains(0.1, 0.0, 0.0))
    members = tuple(
        MemberRecord(individual, *fitness_of(individual, spec.train_route, spec.plant, spec.sim))
        for individual in (diverging, stable)
    )
    assert members[0].ae_linear == DIVERGENCE_AE
    assert GenerationRecord.from_evaluations(0, members).fittest_linear_index == 1
    assert members[1].ae_linear > 1e6


def test_fitness_values_finite_and_nonnegative(plant, sim, train_route):
    for flat in ([0.0] * 6, [0.9, 0.1, 0.01] * 2, [5.0, 0.0, 0.0] * 2):
        record = fitness_of(Individual.from_flat(flat), train_route, plant, sim)
        assert math.isfinite(record.ae_linear) and record.ae_linear >= 0
        assert math.isfinite(record.ae_angular) and record.ae_angular >= 0


# ---------------------------------------------------------------- step metrics


def _phase_times(route, dt=DT):
    n = int(round(2 * route.phase_duration / dt))
    return np.arange(n) * dt


def test_step_metrics_instant_jump(train_route):
    t = _phase_times(train_route)
    desired = np.where(t < train_route.phase_duration, train_route.start, train_route.end)
    actual = desired.copy()
    m = step_metrics(ChannelTrace(t, desired, actual), train_route)
    assert m.rise_time == 0.0
    assert m.overshoot == 0.0
    assert m.steady_state_error == pytest.approx(0.0, abs=1e-12)


def test_step_metrics_first_order_rise_time(train_route):
    # relaxation toward end with time constant tau crosses 10%/90% ln(9)*tau apart
    tau = 0.5
    t = _phase_times(train_route)
    phase2 = t >= train_route.phase_duration
    actual = np.full_like(t, train_route.start)
    dt_in = t[phase2] - train_route.phase_duration
    actual[phase2] = train_route.end - (train_route.end - train_route.start) * np.exp(-dt_in / tau)
    m = step_metrics(ChannelTrace(t, np.where(phase2, train_route.end, train_route.start), actual), train_route)
    assert m.rise_time == pytest.approx(tau * math.log(9.0), abs=2 * DT)
    assert m.overshoot == 0.0


def test_step_metrics_settling_below_target(test_route):
    t = _phase_times(test_route)
    phase2 = t >= test_route.phase_duration
    actual = np.where(phase2, 0.9 * test_route.end, test_route.start)
    m = step_metrics(ChannelTrace(t, np.where(phase2, test_route.end, test_route.start), actual), test_route)
    assert m.steady_state_error == pytest.approx(0.1 * test_route.end, rel=1e-12)


def test_step_metrics_overshoot_fraction(train_route):
    t = _phase_times(train_route)
    phase2 = t >= train_route.phase_duration
    # settles 20% of the step beyond the target
    peak = train_route.end + 0.2 * (train_route.end - train_route.start)
    actual = np.where(phase2, peak, train_route.start)
    m = step_metrics(ChannelTrace(t, np.where(phase2, train_route.end, train_route.start), actual), train_route)
    assert m.overshoot == pytest.approx(0.2, rel=1e-12)


def test_step_metrics_monotone_trace_never_overshoots(train_route):
    t = _phase_times(train_route)
    phase2 = t >= train_route.phase_duration
    ramp = np.linspace(train_route.start, train_route.end * 0.95, phase2.sum())
    actual = np.concatenate([np.full((~phase2).sum(), train_route.start), ramp])
    m = step_metrics(ChannelTrace(t, np.where(phase2, train_route.end, train_route.start), actual), train_route)
    assert m.overshoot == 0.0


def test_step_metrics_rise_time_undefined_when_90pct_never_reached(train_route):
    t = _phase_times(train_route)
    actual = np.full_like(t, train_route.start)
    m = step_metrics(ChannelTrace(t, actual, actual), train_route)
    assert m.rise_time is None


def test_step_metrics_downward_step():
    route = RouteSpec(0.3, -0.3)
    t = _phase_times(route)
    phase2 = t >= route.phase_duration
    # passes 10% beyond the downward target
    low = route.end - 0.1 * abs(route.end - route.start)
    actual = np.where(phase2, low, route.start)
    m = step_metrics(ChannelTrace(t, np.where(phase2, route.end, route.start), actual), route)
    assert m.rise_time == 0.0
    assert m.overshoot == pytest.approx(0.1, rel=1e-12)


def test_step_metrics_rejects_degenerate_step():
    route = RouteSpec(0.5, 0.5)
    t = _phase_times(route)
    actual = np.full_like(t, 0.5)
    with pytest.raises(ValueError):
        step_metrics(ChannelTrace(t, actual, actual), route)


def test_step_metrics_requires_end_phase_coverage(train_route):
    t = np.arange(50) * DT  # stops well before the step
    actual = np.full_like(t, train_route.start)
    with pytest.raises(ValueError):
        step_metrics(ChannelTrace(t, actual, actual), train_route)


def test_step_metrics_as_dict():
    route = RouteSpec(0.0, 1.0)
    t = _phase_times(route)
    phase2 = t >= route.phase_duration
    actual = np.where(phase2, 1.0, 0.0)
    d = dataclasses.asdict(step_metrics(ChannelTrace(t, actual, actual), route))
    assert set(d) == {"rise_time", "overshoot", "steady_state_error"}


# ---------------------------------------------------------------- the written-out reductions against NumPy's


def test_mean_has_numpy_bits_on_whole_arrays_and_tail_slices():
    # every length to 300 and some past NumPy's 8,192-value buffer; values over six decades, so that the order of
    # the additions shows in the last bits; the tail is a slice of a longer array, as step_metrics takes it, and
    # signed zeros sum as NumPy's do from its initial 0.0
    rng = np.random.default_rng(7)
    for n in [*range(1, 301), 1000, 8192, 8193, 20000, 50001]:
        values = rng.normal(0.3, 0.1, n + 5) * 10.0 ** rng.integers(-3, 4, n + 5)
        packed = array("d", values.tobytes())
        cases = ((packed[:n], values[:n]), (packed[5:], values[5:]), (array("d", [-0.0]) * n, np.full(n, -0.0)))
        for got, want in cases:
            assert _mean(got).hex() == float(np.mean(want)).hex(), n


def assert_step_metrics_have_numpy_bits(channel, route):
    """step_metrics on the trace against numpy_step_metrics on its ndarrays, field by field by .hex()."""
    got = step_metrics(channel, route)
    columns = (channel.time, channel.desired, channel.actual)
    want = numpy_step_metrics(ChannelTrace(*map(np.frombuffer, columns)), route)
    for field in ("rise_time", "overshoot", "steady_state_error"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None and b is None) or a.hex() == b.hex(), field
    return got


@pytest.mark.parametrize(
    "gains, rise, overshoot",
    [
        (Gains(20.0, 20.0, 0.1), True, True),
        (Gains(50.0, 10.0, 0.5), True, True),
        (Gains(1.5, 3.0, 0.0), True, False),  # rises without passing the end: an overshoot of 0
        (Gains(0.0, 0.0, 0.0), False, False),  # never leaves the start: no 90 % crossing
        (Gains(0.3, 0.0, 0.0), False, False),  # proportional only: settles short of the end
    ],
)
@pytest.mark.parametrize("route", [RouteSpec(-0.3, 0.3), RouteSpec(0.3, -0.3), RouteSpec(0.1, 0.7, 1.5)], ids=str)
def test_step_metrics_have_numpy_bits_on_rising_and_falling_steps(gains, rise, overshoot, route, plant, sim):
    trace = simulate_route(Individual(gains, gains), route, plant, sim)
    for channel in (trace.linear, trace.angular):
        metrics = assert_step_metrics_have_numpy_bits(channel, route)
        assert (metrics.rise_time is not None) == rise
    assert (step_metrics(trace.linear, route).overshoot > 0.0) == overshoot


@pytest.mark.parametrize("route", [RouteSpec(-0.3, 0.3, 1.0), RouteSpec(0.3, -0.3, 1.0)], ids=["rising", "falling"])
def test_step_metrics_have_numpy_bits_where_samples_sit_on_the_levels(route):
    # a sample exactly at the 10 % level, one just short of the 90 % level and two exactly at it: each crossing is
    # at or past its level, so the rise time is 3 samples, where crossings strictly past the levels would give 4;
    # then an overshoot and a tail at the end
    step = route.end - route.start
    level_10, level_90 = route.start + 0.1 * step, route.start + 0.9 * step
    near_90 = level_90 - 1e-9 * step
    second = [level_10, 0.5 * (level_10 + level_90), near_90, level_90, level_90, route.end + 0.2 * step]
    second += [route.end] * 44
    time = array("d", [k * DT for k in range(100)])
    desired = array("d", [route.start] * 50 + [route.end] * 50)
    channel = ChannelTrace(time, desired, array("d", [route.start] * 50 + second))
    metrics = assert_step_metrics_have_numpy_bits(channel, route)
    assert metrics.rise_time == time[53] - time[50]
    assert metrics.overshoot == pytest.approx(0.2, rel=1e-12)


@settings(max_examples=40)
@given(
    gains=st.builds(Gains, st.floats(0.0, 20.0), st.floats(0.0, 5.0), st.floats(0.0, 0.5)),
    start=st.floats(-1.0, 1.0),
    end=st.floats(-1.0, 1.0),
)
@example(gains=Gains(1.0, 0.0, 0.0), start=0.0, end=-0.0)  # a step that is no step
def test_step_metrics_have_numpy_bits_on_any_run(gains, start, end, plant, sim):
    route = RouteSpec(start, end, 1.0)
    trace = simulate_route(Individual(gains, gains), route, plant, sim)
    for channel in (trace.linear, trace.angular):
        if start == end:
            with pytest.raises(ValueError, match="route start equals end"):
                step_metrics(channel, route)
        else:
            assert_step_metrics_have_numpy_bits(channel, route)
