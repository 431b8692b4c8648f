"""Plain reference reducers that the tests check the program against; no module of evopid calls them."""

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
