import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import evopid
import evopid.cli
import evopid.harness
from evopid.cli import cli_main


def test_tune_rejects_unknown_experiment(capsys):
    rc = cli_main(["tune", "--experiment", "4"])
    assert rc != 0
    err = capsys.readouterr().err
    assert "choose from" in err and "1" in err and "2" in err and "3" in err


def test_tune_small_run(tmp_path, capsys):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("ep.max_generations = 2\n")
    out = tmp_path / "run"
    rc = cli_main(
        ["tune", "--experiment", "2", "--seed", "7", "--out", str(out), "--config", str(cfg)]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    assert "AE train" in captured and "AE test" in captured
    for name in ("generations.csv", "best_train_trace.csv", "best_test_trace.csv", "result.json"):
        assert (out / name).exists()


@pytest.mark.parametrize("experiment", [1, 3])
def test_tune_builds_no_object_per_member(experiment, tmp_path, monkeypatch, capsys):
    # evolve scores, dedupes and logs flat rows: a whole run builds one Individual, the best, with its two Gains,
    # which the replays and result.json read; no MemberRecord, and nothing per member or generation
    counts = Counter()
    for cls in (evopid.MemberRecord, evopid.Individual, evopid.Gains):
        monkeypatch.setattr(cls, "__init__", _counted(cls.__init__, counts, cls.__name__))
    assert cli_main(["tune", "--experiment", str(experiment), "--seed", "0", "--out", str(tmp_path)]) == 0
    assert "generation_limit after 100 generations" in capsys.readouterr().out
    assert counts == {"Individual": 1, "Gains": 2}


def _counted(init, counts, name):
    def counting(self, *args, **kwargs):
        counts[name] += 1
        init(self, *args, **kwargs)

    return counting


def test_step_accepts_reference_gains(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = cli_main(
        [
            "step",
            "--gains",
            "0.0816,0.00000212,0,0.117,0.00000634,0.0000000026",
            "--route",
            "test",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert out.exists()
    captured = capsys.readouterr().out
    assert "rise_time" in captured and "overshoot" in captured and "steady_state_error" in captured
    assert "linear" in captured and "angular" in captured


def test_step_rejects_wrong_gain_count(capsys):
    rc = cli_main(["step", "--gains", "0.1,0.2", "--route", "train"])
    assert rc == 1
    assert "6 values" in capsys.readouterr().err


def test_step_rejects_negative_gains(tmp_path, capsys):
    rc = cli_main(["step", "--gains=-0.1,0,0,0,0,0", "--route", "train", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_oracle_runs_grid(tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text("kp = 0, 0.5\nki = 0\nkd = 0\n")
    out = tmp_path / "oracle.json"
    rc = cli_main(["oracle", "--grid", str(grid), "--route", "train", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "linear" in captured and "angular" in captured
    payload = json.loads(out.read_text())
    assert payload["route"] == "train"
    assert set(payload["linear"]) == {"kp", "ki", "kd", "ae"}


def test_oracle_rejects_bad_grid_file(tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text("kq = 1\n")
    rc = cli_main(["oracle", "--grid", str(grid)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["kp = nan, 0.5", "kd = 0, inf", "ki = -inf"])
def test_oracle_rejects_nonfinite_grid_values(tmp_path, capsys, line):
    grid = tmp_path / "grid.cfg"
    grid.write_text(f"# grid\n{line}\n")
    rc = cli_main(["oracle", "--grid", str(grid)])
    assert rc == 1
    key = line.split()[0]
    assert f"error: {grid}:2: {key} values must be finite and nonnegative, got " in capsys.readouterr().err


def test_oracle_rejects_a_negative_grid_value(tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text("kp = 1, -2\n")
    assert cli_main(["oracle", "--grid", str(grid)]) == 1
    assert capsys.readouterr().err == f"error: {grid}:1: kp values must be finite and nonnegative, got '1, -2'\n"


def test_oracle_rejects_a_grid_over_the_point_cap(tmp_path, capsys, monkeypatch):
    def no_grid_oracle(*args):
        raise AssertionError("grid_oracle was called")

    monkeypatch.setattr(evopid.cli, "grid_oracle", no_grid_oracle)
    grid = tmp_path / "grid.cfg"
    grid.write_text(f"kp = {', '.join(map(str, range(1001)))}\nki = {' '.join(map(str, range(1000)))}\n")
    rc = cli_main(["oracle", "--grid", str(grid)])
    assert rc == 1
    assert f"error: {grid}: a grid of 1,001,000 points is more than the limit of 1,000,000" in capsys.readouterr().err


def test_step_rejects_route_over_the_sample_cap(tmp_path, capsys):
    cfg = tmp_path / "long.cfg"
    cfg.write_text("route.train.phase_duration = 1e9\n")
    out = tmp_path / "t.csv"
    rc = cli_main(["step", "--gains", "0.5,0,0,0.5,0,0", "--route", "train", "--out", str(out), "--config", str(cfg)])
    assert rc == 1
    assert f"error: {cfg}:1: route.train: a route of 2000000000.0 s at 50.0 Hz" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "lines, message",
    [
        ("route.test.start = 0.5\nroute.test.end = 0.5\n", "the test route has no step: start equals end (0.5)"),
        ("route.train.phase_duration = 0.01\n", "the train route gets no sample in its second phase"),
    ],
)
def test_tune_rejects_a_route_without_a_step_before_tuning(tmp_path, capsys, monkeypatch, lines, message):
    def no_evolve(*args):
        raise AssertionError("evolve was called")

    monkeypatch.setattr(evopid.harness, "evolve", no_evolve)
    cfg = tmp_path / "route.cfg"
    cfg.write_text(lines)
    out = tmp_path / "run"
    rc = cli_main(["tune", "--experiment", "3", "--out", str(out), "--config", str(cfg)])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


# routes no command can run, set on the test route while the train route is the one run:
# every route is checked where the config enters
UNRUNNABLE_TEST_ROUTES = [
    ("route.test.phase_duration = 0.001\n", "route.test: the route has no samples at this sample rate"),
    ("route.test.phase_duration = 1e9\n", "route.test: a route of 2000000000.0 s at 50.0 Hz takes 1e+11 samples"),
]


@pytest.mark.parametrize(
    "lines, message",
    [
        ("route.train.start = 0.5\nroute.train.end = 0.5\n", "the train route has no step"),
        ("route.train.phase_duration = 0.01\n", "the train route gets no sample in its second phase"),
        *UNRUNNABLE_TEST_ROUTES,
    ],
)
def test_step_rejects_a_route_without_a_step_before_simulating(tmp_path, capsys, monkeypatch, lines, message):
    def no_simulate_route(*args):
        raise AssertionError("simulate_route was called")

    monkeypatch.setattr(evopid.cli, "simulate_route", no_simulate_route)
    cfg = tmp_path / "route.cfg"
    cfg.write_text(lines)
    out = tmp_path / "t.csv"
    rc = cli_main(["step", "--gains", "0.5,0,0,0.5,0,0", "--route", "train", "--out", str(out), "--config", str(cfg)])
    assert rc == 1
    # a route no command can run is rejected where the config enters, at the line of its key
    where = f"{cfg}:1: " if (lines, message) in UNRUNNABLE_TEST_ROUTES else ""
    assert f"error: {where}{message}" in capsys.readouterr().err
    assert not out.exists()


def test_step_rejects_an_overflowing_first_error(tmp_path, capsys):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("route.train.start = 1e308\nplant.linear.initial_velocity = -1e308\n")
    out = tmp_path / "t.csv"
    rc = cli_main(["step", "--gains", "1,1,1,1,1,1", "--route", "train", "--out", str(out), "--config", str(cfg)])
    assert rc == 1
    # of the two keys, the initial velocity comes first in CONFIG_TABLE
    err = capsys.readouterr().err
    assert f"error: {cfg}:2: route.train: route.start - plant.linear.initial_velocity must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, line",
    [(1, "mutation.sigma_absolute = 1e308"), (2, "mutation.sigma_scaled = 1e300")],
    ids=["absolute", "scaled"],
)
def test_tune_rejects_a_mutation_step_that_overflows(tmp_path, capsys, time_limit, experiment, line):
    # a draw of sigma * N(0, 1), or a gain near 1e300 times one, overflows; halving never brings -inf to
    # >= 0, so the run must stop with an error at the first nonfinite step instead of hanging
    cfg = tmp_path / "sigma.cfg"
    cfg.write_text(line + "\n")
    with time_limit(10):
        rc = cli_main(["tune", "--experiment", str(experiment), "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mutating ") and " drew a nonfinite step " in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines, message", UNRUNNABLE_TEST_ROUTES)
def test_oracle_rejects_a_route_it_cannot_run_before_scoring(tmp_path, capsys, monkeypatch, lines, message):
    def no_grid_oracle(*args):
        raise AssertionError("grid_oracle was called")

    monkeypatch.setattr(evopid.cli, "grid_oracle", no_grid_oracle)
    cfg = tmp_path / "route.cfg"
    cfg.write_text(lines)
    grid = tmp_path / "grid.cfg"
    grid.write_text("kp = 0, 0.5\n")
    out = tmp_path / "oracle.json"
    rc = cli_main(["oracle", "--grid", str(grid), "--route", "train", "--out", str(out), "--config", str(cfg)])
    assert rc == 1
    assert f"error: {cfg}:1: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "lines, line",
    [
        (["ep.max_generations = 2", "route.test.phase_duration = 0.001"], 2),
        (["sim.sample_rate = 50", "route.test.phase_duration = 0.001"], 2),
        (["route.test.phase_duration = 0.001", "plant.angular.initial_velocity = 0.5"], 2),
    ],
    ids=["only-key", "route-before-sample-rate", "initial-velocity-before-route"],
)
def test_tune_names_the_config_line_of_a_rejected_route(tmp_path, capsys, lines, line):
    # the first override, in CONFIG_TABLE order, of a value the route check reads: the route's own keys,
    # sim.sample_rate and the initial velocities; an unrelated key is never named, and the message stays
    cfg = tmp_path / "r.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    assert cli_main(["tune", "--experiment", "1", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {cfg}:{line}: route.test: the route has no samples at this sample rate\n"
    assert not out.exists()


def test_oracle_accepts_a_route_without_a_step(tmp_path, capsys):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("route.train.start = 0\nroute.train.end = 0\n")
    grid = tmp_path / "grid.cfg"
    grid.write_text("kp = 0, 0.5\n")
    assert cli_main(["oracle", "--grid", str(grid), "--config", str(cfg)]) == 0
    assert "ae=0" in capsys.readouterr().out


def test_missing_config_file_reports_error(capsys):
    rc = cli_main(["tune", "--experiment", "1", "--config", "does/not/exist.cfg"])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert cli_main(["polish"]) == 2


def test_module_entry_point(tmp_path):
    grid = tmp_path / "grid.cfg"
    grid.write_text("kp = 0.5\n")
    # the child imports evopid from where this process did, installed or not
    source_root = str(Path(evopid.cli.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, (source_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "evopid.cli", "oracle", "--grid", str(grid)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert "linear" in proc.stdout


def test_tune_reads_a_utf8_config_under_an_ascii_locale(tmp_path):
    # the C locale's encoding is ASCII; every file is read and written as UTF-8 all the same
    cfg = tmp_path / "u.cfg"
    cfg.write_text("# time constants in s, not \u00b5s\nep.max_generations = 2\n", encoding="utf-8")
    source_root = str(Path(evopid.cli.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, (source_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "evopid.cli", "tune", "--experiment", "2", "--out", str(tmp_path / "run"),
         "--config", str(cfg)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "run" / "result.json").read_text())["generations_run"] == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("plant.linear.time_constant", "nan"),
        ("plant.angular.dc_gain", "inf"),
        ("plant.linear.initial_velocity", "-inf"),
        ("route.train.start", "nan"),
        ("route.test.phase_duration", "inf"),
        ("sim.sample_rate", "nan"),
        ("ep.ae_target", "inf"),
        ("mutation.sigma_scaled", "nan"),
        ("init.kp.high", "inf"),
    ],
)
def test_tune_rejects_nonfinite_config_values(tmp_path, capsys, monkeypatch, key, value):
    evaluations = []
    monkeypatch.setattr(evopid.harness, "_fitness_rows", lambda *args: evaluations.append(args))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "run"
    rc = cli_main(["tune", "--experiment", "2", "--out", str(out), "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert evaluations == []
    assert not out.exists()


def test_step_reports_divergence_as_error(tmp_path, capsys):
    # from -5 m/s, kp*e overflows to +inf and on the next sample kd*D to -inf: NaN command at sample 1
    cfg = tmp_path / "low.cfg"
    cfg.write_text("plant.linear.initial_velocity = -5\n")
    out = tmp_path / "t.csv"
    rc = cli_main(
        ["step", "--gains", "1e308,0,1e308,0,0,0", "--route", "train", "--out", str(out), "--config", str(cfg)]
    )
    assert rc == 1
    assert "error: linear velocity became nonfinite at sample 1" in capsys.readouterr().err
    assert not out.exists()


def test_tune_reports_a_run_where_every_member_diverged(tmp_path, capsys):
    # kp and kd near 1e308 from -5 m/s diverge on sample 1 for every member of every generation
    cfg = tmp_path / "diverging.cfg"
    cfg.write_text(
        "init.kp.low = 1e308\ninit.kp.high = 1e308\ninit.kd.low = 1e308\ninit.kd.high = 1e308\n"
        "plant.linear.initial_velocity = -5\nplant.angular.initial_velocity = -5\nep.max_generations = 3\n"
    )
    out = tmp_path / "run"
    rc = cli_main(["tune", "--experiment", "1", "--out", str(out), "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: all 30 members of 3 generations diverged on the train route; there are no gains to replay\n"
    assert not out.exists()


def test_tune_step_and_oracle_never_import_numpy(tmp_path):
    # a fresh interpreter, since this one has NumPy loaded for the tests; every command writes into tmp_path
    grid = tmp_path / "grid.cfg"
    grid.write_text("kp = 0.5, 1.0\nki = 0.0, 0.1\n")
    commands = [
        ["tune", "--experiment", "2", "--out", str(tmp_path / "run")],
        ["step", "--gains", "0.5,0.05,0.001,0.4,0.02,0", "--route", "test", "--out", str(tmp_path / "step.csv")],
        ["oracle", "--grid", str(grid), "--out", str(tmp_path / "oracle.json")],
    ]
    code = (
        "import contextlib, io, sys\n"
        "import evopid, evopid.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [evopid.cli.cli_main(argv) for argv in {commands!r}]\n"
        "assert codes == [0, 0, 0], codes\n"
        "assert 'numpy' not in sys.modules, sorted(name for name in sys.modules if name.startswith('numpy'))\n"
    )
    source_root = Path(evopid.cli.__file__).parents[1]
    pythonpath = os.pathsep.join(filter(None, (str(source_root), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath}
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "result.json").is_file() and (tmp_path / "oracle.json").is_file()
    # nor does any module of the package name it, not even in a function that these commands do not reach
    for path in sorted((source_root / "evopid").glob("*.py")):
        assert "import numpy" not in path.read_text(), path.name
