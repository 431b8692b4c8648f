"""Plain reference implementations that the tests check the program against; no module of evopid calls them."""

import math

from evopid import ChannelTrace


def average_error(channel: ChannelTrace) -> float:
    """Mean |desired - actual| over every sample of the run, streamed in order."""
    n = len(channel)
    if n == 0:
        raise ValueError("average_error needs at least one sample")
    total = 0.0
    for d, a in zip(channel.desired, channel.actual):
        total += abs(d - a)
    return float(total / n)


def write_csv_rows(path, header, columns) -> None:
    """The CSV format one row at a time: the header, then each row's cells `repr`'d and comma-joined."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*(column.tolist() for column in columns)):
            fh.write(",".join(map(repr, row)) + "\n")


def _check_mutation_args(value: float, sigma: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"value must be finite and >= 0, got {value!r}")
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma!r}")


def _halved_until_nonnegative(value: float, step: float, sigma: float) -> float:
    """value + step, the step halved until the sum is >= 0; from 0 a negative step gives its limit, 0.

    Halving never ends on -inf, so a nonfinite step is an error.
    """
    if not math.isfinite(step):
        raise ValueError(f"mutating {value!r} with sigma {sigma!r} drew a nonfinite step {step!r}")
    if value == 0.0 and step < 0.0:
        return 0.0
    while value + step < 0.0:
        step *= 0.5
    return value + step


def mutate_absolute(value: float, sigma: float, rng) -> float:
    """Additive Gaussian mutation of one gain: value + N(0, sigma), the step halved until the result is >= 0."""
    _check_mutation_args(value, sigma)
    return _halved_until_nonnegative(value, rng.gauss(0.0, sigma), sigma)


def mutate_scaled(value: float, sigma: float, rng) -> float:
    """Value-proportional mutation of one gain: value + value * N(0, sigma), the step halved likewise.

    A value of exactly 0 is absorbing: the step is 0 for every draw, and the draw is consumed all the same.
    """
    _check_mutation_args(value, sigma)
    return _halved_until_nonnegative(value, value * rng.gauss(0.0, sigma), sigma)
