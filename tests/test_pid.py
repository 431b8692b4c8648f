import pytest
from hypothesis import given
from hypothesis import strategies as st

from evopid import Gains, PidState, pid_reset, pid_step

DT = 0.02


def test_pure_proportional():
    out, _ = pid_step(pid_reset(), Gains(1.0, 0.0, 0.0), 1.0, 0.0, DT)
    assert out == 1.0


def test_zero_gains_zero_output():
    state = pid_reset()
    for setpoint, measurement in [(1.0, 0.0), (-2.0, 3.0), (0.5, 0.5)]:
        out, state = pid_step(state, Gains(0.0, 0.0, 0.0), setpoint, measurement, DT)
        assert out == 0.0


def test_integral_rectangular_sum():
    # constant error of 1 accumulates 0.02 per step
    gains = Gains(0.0, 1.0, 0.0)
    state = pid_reset()
    outputs = []
    for _ in range(3):
        out, state = pid_step(state, gains, 1.0, 0.0, DT)
        outputs.append(out)
    assert outputs == pytest.approx([0.02, 0.04, 0.06], rel=1e-12)


def test_first_sample_derivative_is_zero():
    out, _ = pid_step(pid_reset(), Gains(0.0, 0.0, 1.0), 5.0, 0.0, DT)
    assert out == 0.0


def test_second_sample_derivative_uses_backward_difference():
    gains = Gains(0.0, 0.0, 1.0)
    _, state = pid_step(pid_reset(), gains, 1.0, 0.0, DT)
    out, _ = pid_step(state, gains, 2.0, 0.0, DT)
    assert out == pytest.approx((2.0 - 1.0) / DT, rel=1e-12)


def test_reset_is_idempotent_and_clears_state():
    state = pid_reset()
    for k in range(5):
        _, state = pid_step(state, Gains(0.2, 0.3, 0.1), float(k), 0.0, DT)
    cleared = pid_reset()
    assert cleared == PidState()
    assert pid_reset() == cleared
    # derivative contributes nothing on the first sample after reset
    out, _ = pid_step(cleared, Gains(0.0, 0.0, 1.0), 9.0, 0.0, DT)
    assert out == 0.0


def test_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        pid_step(pid_reset(), Gains(1.0, 0.0, 0.0), 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        pid_step(pid_reset(), Gains(1.0, 0.0, 0.0), 1.0, 0.0, -0.1)


def _run_sequence(gains, errors, dt=DT):
    state = pid_reset()
    outputs = []
    for e in errors:
        out, state = pid_step(state, gains, e, 0.0, dt)
        outputs.append(out)
    return outputs, state


@given(
    errors=st.lists(st.floats(-10, 10), min_size=1, max_size=20),
    kp=st.floats(0, 5),
    ki=st.floats(0, 5),
    kd=st.floats(0, 5),
    alpha=st.floats(0, 3),
)
def test_output_linear_in_gains(errors, kp, ki, kd, alpha):
    base, _ = _run_sequence(Gains(kp, ki, kd), errors)
    scaled, _ = _run_sequence(Gains(alpha * kp, alpha * ki, alpha * kd), errors)
    for b, s in zip(base, scaled):
        assert s == pytest.approx(alpha * b, rel=1e-9, abs=1e-9)


@given(
    errors=st.lists(st.floats(-10, 10), min_size=1, max_size=20),
    kp=st.floats(0, 5),
)
def test_proportional_only_depends_on_current_error(errors, kp):
    outputs, _ = _run_sequence(Gains(kp, 0.0, 0.0), errors)
    for e, out in zip(errors, outputs):
        assert out == kp * e


@given(errors=st.lists(st.floats(-10, 10), min_size=1, max_size=30))
def test_integral_matches_bruteforce_recomputation(errors):
    _, state = _run_sequence(Gains(0.0, 1.0, 0.0), errors)
    acc = 0.0
    for e in errors:
        acc += e * DT
    assert state.integral == acc
