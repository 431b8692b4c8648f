"""Plain reference implementations that the tests check the program against; no module of evopid calls them."""

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
