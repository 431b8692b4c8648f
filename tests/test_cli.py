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


STEP = "step --gains 0.5,0,0,0.5,0,0 --route train --out {out}"
# routes no command can run, set on the test route while the train route is the one run: every route is checked
# where the config enters, at the line of its key
UNRUNNABLE_TEST_ROUTES = [
    ("route.test.phase_duration = 0.001\n", "{cfg}:1: route.test: the route has no samples at this sample rate"),
    ("route.test.phase_duration = 1e9\n", "{cfg}:1: route.test: a route of 2000000000.0 s at 50.0 Hz takes 1e+11"),
]
NONFINITE = [("plant.linear.time_constant", "nan"), ("plant.angular.dc_gain", "inf"), ("route.train.start", "nan"),
             ("plant.linear.initial_velocity", "-inf"), ("route.test.phase_duration", "inf"),
             ("sim.sample_rate", "nan"), ("ep.ae_target", "inf"), ("mutation.sigma_scaled", "nan"),
             ("init.kp.high", "inf")]
# 1,001 x 1,000 points
OVER_THE_CAP = f"kp = {', '.join(map(str, range(1001)))}\nki = {' '.join(map(str, range(1000)))}\n"
ROUTE_LINE = "{cfg}:2: route.test: the route has no samples at this sample rate"
ALL_DIVERGED = "error: all 30 members of 3 generations diverged on the train route; there are no gains to replay"

# Each command a user can get wrong, the config and grid file it reads ({cfg} and {grid}; None writes none), what its
# one `error: ...` line on stderr holds, and whether it must fail before it simulates anything.
REJECTED = [
    ("step --gains 0.1,0.2 --route train --out {out}", None, None,
     "--gains needs 6 values (kpv,kiv,kdv,kpa,kia,kda), got 2", True),
    ("step --gains=-0.1,0,0,0,0,0 --route train --out {out}", None, None, "kp must be a finite number >= 0, got -0.1",
     True),
    ("oracle --grid {grid} --out {out}", None, "kq = 1\n", "{grid}:1: expected `kp|ki|kd = values`, got key 'kq'",
     True),
    *[("oracle --grid {grid} --out {out}", None, f"# grid\n{line}\n",
       f"{{grid}}:2: {line.split()[0]} values must be finite and nonnegative, got '{line.split('= ')[1]}'", True)
      for line in ("kp = nan, 0.5", "kd = 0, inf", "ki = -inf", "kp = 1, -2")],
    ("oracle --grid {grid} --out {out}", None, OVER_THE_CAP,
     "{grid}: a grid of 1,001,000 points is more than the limit of 1,000,000", True),
    (STEP + " --config {cfg}", "route.train.phase_duration = 1e9\n", None,
     "{cfg}:1: route.train: a route of 2000000000.0 s at 50.0 Hz", True),
    ("tune --experiment 3 --out {out} --config {cfg}", "route.test.start = 0.5\nroute.test.end = 0.5\n", None,
     "the test route has no step: start equals end (0.5)", True),
    ("tune --experiment 3 --out {out} --config {cfg}", "route.train.phase_duration = 0.01\n", None,
     "the train route gets no sample in its second phase", True),
    (STEP + " --config {cfg}", "route.train.start = 0.5\nroute.train.end = 0.5\n", None, "the train route has no step",
     True),
    (STEP + " --config {cfg}", "route.train.phase_duration = 0.01\n", None,
     "the train route gets no sample in its second phase", True),
    *[(STEP + " --config {cfg}", lines, None, message, True) for lines, message in UNRUNNABLE_TEST_ROUTES],
    *[("oracle --grid {grid} --route train --out {out} --config {cfg}", lines, "kp = 0, 0.5\n", message, True)
      for lines, message in UNRUNNABLE_TEST_ROUTES],
    # of the two keys, the initial velocity comes first in CONFIG_TABLE
    ("step --gains 1,1,1,1,1,1 --route train --out {out} --config {cfg}",
     "route.train.start = 1e308\nplant.linear.initial_velocity = -1e308\n", None,
     "{cfg}:2: route.train: route.start - plant.linear.initial_velocity must be finite", True),
    # the first override, in CONFIG_TABLE order, of a value the route check reads: the route's own keys, the sample
    # rate and the initial velocities; an unrelated key is never named
    ("tune --experiment 1 --out {out} --config {cfg}", "ep.max_generations = 2\nroute.test.phase_duration = 0.001\n",
     None, ROUTE_LINE, True),
    ("tune --experiment 1 --out {out} --config {cfg}", "sim.sample_rate = 50\nroute.test.phase_duration = 0.001\n",
     None, ROUTE_LINE, True),
    ("tune --experiment 1 --out {out} --config {cfg}",
     "route.test.phase_duration = 0.001\nplant.angular.initial_velocity = 0.5\n", None, ROUTE_LINE, True),
    ("tune --experiment 1 --out {out} --config {cfg}", None, None, "cannot read {cfg}", True),
    *[("tune --experiment 2 --out {out} --config {cfg}", f"{key} = {value}\n", None,
       f"{{cfg}}:1: {key} must be finite, got '{value}'", True) for key, value in NONFINITE],
    # from -5 m/s, kp*e overflows to +inf and on the next sample kd*D to -inf: a NaN command at sample 1
    ("step --gains 1e308,0,1e308,0,0,0 --route train --out {out} --config {cfg}",
     "plant.linear.initial_velocity = -5\n", None, "error: linear velocity became nonfinite at sample 1", False),
    ("tune --experiment 1 --out {out} --config {cfg}", "init.kp.low = 1e308\ninit.kp.high = 1e308\n"
     "init.kd.low = 1e308\ninit.kd.high = 1e308\nplant.linear.initial_velocity = -5\n"
     "plant.angular.initial_velocity = -5\nep.max_generations = 3\n", None, ALL_DIVERGED, False),
    # a draw of sigma * N(0, 1), or a gain near 1e300 times one, overflows; halving never brings -inf to >= 0, so
    # the run must stop with an error at the first nonfinite step instead of hanging
    ("tune --experiment 1 --out {out} --config {cfg}", "mutation.sigma_absolute = 1e308\n", None,
     "error: mutating 0.005675107406206719 with sigma 1e+308 drew a nonfinite step -inf", False),
    ("tune --experiment 2 --out {out} --config {cfg}", "mutation.sigma_scaled = 1e300\n", None,
     "error: mutating 1.0858913340721312e+300 with sigma 1e+300 drew a nonfinite step inf", False),
]


@pytest.mark.parametrize(
    "command, config, grid, message, before_running", REJECTED, ids=[f"{row[0].split()[0]}-{i}" for i, row in
                                                                     enumerate(REJECTED)]
)
def test_rejected_commands_exit_1_with_one_error_line(command, config, grid, message, before_running, tmp_path,
                                                      capsys, monkeypatch, time_limit):
    def reached(*args):
        raise AssertionError("the command ran past its input checks")

    if before_running:
        for module, name in ((evopid.harness, "evolve"), (evopid.cli, "simulate_route"), (evopid.cli, "grid_oracle")):
            monkeypatch.setattr(module, name, reached)
    paths = {name: tmp_path / name for name in ("cfg", "grid", "out")}
    for name, text in (("cfg", config), ("grid", grid)):
        if text is not None:
            paths[name].write_text(text)
    with time_limit(10):
        assert cli_main(command.format(**paths).split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message.format(**paths) in err, err
    assert not paths["out"].exists()


@pytest.mark.parametrize(
    "command, message", [("tune --experiment 4", "invalid choice: 4 (choose from 1, 2, 3)"), ("polish", "'polish'")]
)
def test_usage_errors_exit_2(command, message, capsys):
    assert cli_main(command.split()) == 2
    assert message in capsys.readouterr().err


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


def test_oracle_accepts_a_route_without_a_step(tmp_path, capsys):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("route.train.start = 0\nroute.train.end = 0\n")
    grid = tmp_path / "grid.cfg"
    grid.write_text("kp = 0, 0.5\n")
    assert cli_main(["oracle", "--grid", str(grid), "--config", str(cfg)]) == 0
    assert "ae=0" in capsys.readouterr().out


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
