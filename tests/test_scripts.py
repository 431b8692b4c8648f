"""The scripts README documents run end to end, in process, on small inputs."""

import re
import runpy
import sys
from pathlib import Path

import pytest

from conftest import load_script
from evopid import build_experiment_spec, render_result_table, run_experiment

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, args, monkeypatch, capsys) -> str:
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_run_all_experiments_prints_every_presets_table(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = run_script("run_all_experiments.py", ["--seed", "0", "--out", "all"], monkeypatch, capsys)
    records = [run_experiment(build_experiment_spec(e, seed=0, output_dir=f"again/{e}")) for e in (1, 2, 3)]
    assert render_result_table(records) in out
    for e in (1, 2, 3):
        assert (tmp_path / "all" / f"experiment_{e}" / "result.json").is_file()


def test_run_all_experiments_names_the_config_line_a_spec_rejects(tmp_path, monkeypatch, capsys):
    # as `evopid tune` does: one line on stderr naming the file, the line and the key, exit status 1, no run
    monkeypatch.chdir(tmp_path)
    Path("bad.cfg").write_text("# line 1 is a comment\nplant.angular.dc_gain = -1\n")
    with pytest.raises(SystemExit) as excinfo:
        run_script("run_all_experiments.py", ["--config", "bad.cfg", "--out", "all"], monkeypatch, capsys)
    assert excinfo.value.code == 1
    assert capsys.readouterr() == ("", "error: bad.cfg:2: plant.angular.dc_gain: dc_gain must be > 0\n")
    assert not (tmp_path / "all").exists()


def test_kd_collapse_study_prints_a_row_per_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = run_script("kd_collapse_study.py", ["--seeds", "2", "--generations", "5"], monkeypatch, capsys)
    rows = [line.split() for line in out.splitlines() if line.split()[:1] and line.split()[0].isdigit()]
    assert [(row[0], len(row)) for row in rows] == [("0", 5), ("1", 5)]
    assert re.search(r"decreased on both channels for [0-2]/2 seeds$", out.strip())


def test_every_slip_of_the_catalogue_applies_once():
    # scripts/mutation_check.py edits each entry's one occurrence of its old text: a line moved or rewritten shows here;
    # its runs leave this test out by name, since every slip fails it
    catalogue = load_script("mutation_check")
    assert catalogue.APPLIES_ONCE == f"tests/test_scripts.py::{test_every_slip_of_the_catalogue_applies_once.__name__}"
    slips = [slip for table in catalogue.C_SLIPS.values() for slip in table] + catalogue.PYTHON_SLIPS
    assert len({name for *_, name in slips}) == len(slips)
    assert [slip[3] for slip in slips if not catalogue.applies(slip)] == []
