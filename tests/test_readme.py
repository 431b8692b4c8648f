"""README.md is the user's contract: its code runs, its command lines parse and its config table is the program's."""

import re
import shlex
import textwrap
from pathlib import Path

import pytest

import evopid.cli
import evopid.ep
import evopid.harness
import evopid.metrics
import evopid.plant
from evopid.cli import build_parser
from evopid.harness import CONFIG_TABLE, _field, build_experiment_spec

README = Path(__file__).resolve().parents[1] / "README.md"
MAX_LINES = 250


def fenced_blocks(text: str, language: str) -> list[str]:
    """The bodies of the ``` blocks tagged ``language``, dedented, in order; a block may sit indented in a list."""
    pattern = rf"^([ \t]*)```{language}[ \t]*\n(.*?)^\1```[ \t]*$"
    return [textwrap.dedent(body) for _, body in re.findall(pattern, text, re.MULTILINE | re.DOTALL)]


def command_lines(text: str) -> list[list[str]]:
    """The arguments after `evopid` or `python -m evopid.cli` of each such line in a bash block."""
    commands = []
    for block in fenced_blocks(text, "bash"):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            while words and re.fullmatch(r"[A-Za-z_]\w*=\S*", words[0]):  # leading VAR=value assignments
                words.pop(0)
            if words[:1] == ["evopid"]:
                commands.append(words[1:])
            elif words[:3] == ["python", "-m", "evopid.cli"]:
                commands.append(words[3:])
    return commands


def config_rows(text: str) -> list[tuple[str, str, str]]:
    """The (key, type, default) rows of the table headed `| Key | Type | Default |`, code spans unwrapped."""
    lines = text.split("\n| Key | Type | Default |\n", 1)[1].splitlines()[1:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip().strip("`") for cell in line.strip("|").split("|")))
    return rows


@pytest.fixture(scope="module")
def readme() -> str:
    return README.read_text(encoding="utf-8")


def test_readme_fits_its_line_budget(readme):
    assert len(readme.splitlines()) <= MAX_LINES


def test_readme_python_blocks_run_in_order(readme, tmp_path, monkeypatch):
    blocks = fenced_blocks(readme, "python")
    assert blocks, "README has no python block"
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)


def test_readme_command_lines_parse(readme):
    commands = command_lines(readme)
    assert {words[0] for words in commands if words} == {"tune", "step", "oracle"}
    parser = build_parser()
    for words in commands:
        try:
            parser.parse_args(words)
        except SystemExit:
            pytest.fail(f"README command does not parse: evopid {shlex.join(words)}")


def test_readme_config_table_is_config_table(readme):
    rows = config_rows(readme)
    assert [key for key, _, _ in rows] == list(CONFIG_TABLE)
    spec = build_experiment_spec(1)
    for key, kind, default in rows:
        parse, path = CONFIG_TABLE[key]
        assert (kind, default) == (parse.__name__, repr(_field(spec, path))), key


@pytest.mark.parametrize("module", [evopid.ep, evopid.plant, evopid.metrics, evopid.harness, evopid.cli])
def test_readme_names_no_private_attribute(readme, module):
    dunder = re.compile(r"__\w+__")
    private = [name for name in vars(module) if name.startswith("_") and not dunder.fullmatch(name)]
    named = [name for name in private if re.search(rf"(?<!\w){re.escape(name)}(?!\w)", readme)]
    assert named == []
