"""The byte-identity gate: a subset of scripts/output_digests.py's commands against tests/output_digests.txt.

The record holds the script's lines for all of its commands, as printed on the platform its header names. The
test runs one seed of each experiment, both population-1 runs, one seed of each wide-sigma config, the three
`step` runs and each oracle grid on the train route, through the script's own per-command code, and compares
every line. The full set, and the Python twin (`--twin`), stay with the script.
"""

from pathlib import Path

from conftest import load_script

RECORD = Path(__file__).with_name("output_digests.txt")
digests = load_script("output_digests")


def in_subset(command: str) -> bool:
    if command.startswith("tune"):
        return "--seed" not in command or "--seed 0 " in command
    return not command.startswith("oracle") or "--route train " in command


def test_outputs_match_the_recorded_digests(tmp_path):
    header, *lines = RECORD.read_text(encoding="utf-8").splitlines()
    assert header.startswith("# ") and "platform: " in header
    recorded = {}
    for line in lines:
        recorded.setdefault(line.split("\t")[0], []).append(line)
    assert list(recorded) == digests.commands(), "the record must hold the script's commands, in its order"
    subset = [command for command in digests.commands() if in_subset(command)]
    assert len(subset) == 14
    for number, command in enumerate(subset):
        case = tmp_path / str(number)
        case.mkdir()
        got = digests.digest_lines(command, case)
        assert got == recorded[command], (
            f"`{command}` writes other bytes than {RECORD.name} records. "
            f"Recorded on: {header.partition('platform: ')[2]}. This host: {digests.platform_line()}."
        )
