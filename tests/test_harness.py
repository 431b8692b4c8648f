import dataclasses
import hashlib
import json
import math
import re
import sys
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evopid import (
    EvaluationError,
    EPConfig,
    ExperimentSpec,
    GainGrid,
    Gains,
    GenerationRecord,
    Individual,
    MemberRecord,
    MutationKind,
    MutationSpec,
    PlantParams,
    RouteSpec,
    SimConfig,
    StopReason,
    build_environment,
    build_experiment_spec,
    export_generations,
    export_trace,
    fitness_of,
    grid_oracle,
    load_generations,
    parse_config_file,
    parse_grid_file,
    render_result_table,
    run_experiment,
    run_ep,
    simulate_route,
    step_metrics,
)
import evopid.cli
import evopid.harness
from evopid.cli import cli_main
from evopid.harness import (
    CONFIG_TABLE,
    EXPERIMENT_TABLE,
    GENERATIONS_HEADER,
    TRACE_HEADER,
    ConfigError,
    _write_csv,
    result_as_dict,
)
from evopid.metrics import DIVERGENCE_AE
from reference import numpy_write_csv, write_csv_rows


def _toy_history(population_size=4, generations=3, seed=2):
    def evaluator(individual):
        flat = individual.as_flat()
        return (sum(flat[:3]), sum(flat[3:]))

    config = EPConfig(population_size=population_size, max_generations=generations, rng_seed=seed)
    return run_ep(config, evaluator).history


# ---------------------------------------------------------------- experiment specs


def test_experiment_table_defaults():
    spec1 = build_experiment_spec(1)
    spec2 = build_experiment_spec(2)
    spec3 = build_experiment_spec(3)
    assert (spec1.ep.mutation.kind, spec1.ep.population_size) == (MutationKind.ABSOLUTE, 10)
    assert (spec2.ep.mutation.kind, spec2.ep.population_size) == (MutationKind.SCALED, 10)
    assert (spec3.ep.mutation.kind, spec3.ep.population_size) == (MutationKind.SCALED, 20)
    assert spec1.train_route == RouteSpec(-0.3, 0.3)
    assert spec1.test_route == RouteSpec(0.1, 0.7)
    assert spec1.ep.max_generations == 100
    assert spec1.ep.ae_target == 0.01


def test_build_experiment_spec_rejects_unknown_id():
    with pytest.raises(ValueError, match=r"\[1, 2, 3\]"):
        build_experiment_spec(4)


@pytest.mark.parametrize("experiment_id", [True, 1.0, "1"])
def test_build_experiment_spec_rejects_a_non_int_id(experiment_id):
    # True == 1.0 == 1, so a table lookup alone would run experiment 1 and record the id as given
    with pytest.raises(ValueError, match=re.escape(f"one of [1, 2, 3], got {experiment_id!r}")):
        build_experiment_spec(experiment_id)


@pytest.mark.parametrize("seed", [True, 2.5, 3.0])
def test_build_experiment_spec_rejects_a_non_int_seed(seed):
    with pytest.raises(ValueError, match=re.escape(f"rng_seed must be an int, got {seed!r}")):
        build_experiment_spec(1, seed=seed)


def test_build_experiment_spec_rejects_an_infinite_ae_target():
    # it used to stop the run after generation 0 as "target reached" and write Infinity into result.json
    with pytest.raises(ValueError, match="ae_target must be finite, got inf"):
        build_experiment_spec(2, overrides={"ep.ae_target": math.inf})


def test_experiment_spec_rejects_mutation_kind_mismatch():
    with pytest.raises(ValueError, match="absolute"):
        ExperimentSpec(
            experiment_id=1,
            ep=EPConfig(population_size=10, mutation=MutationSpec(MutationKind.SCALED)),
            plant=PlantParams(),
            sim=SimConfig(),
            train_route=RouteSpec(-0.3, 0.3),
            test_route=RouteSpec(0.1, 0.7),
            output_dir="unused",
        )


def test_build_experiment_spec_applies_overrides(tmp_path):
    overrides = {
        "ep.max_generations": 5,
        "ep.population_size": 3,
        "plant.linear.time_constant": 0.8,
        "route.train.start": -0.5,
        "init.kd.high": 0.0,
        "sim.sample_rate": 100.0,
        "mutation.sigma_scaled": 0.25,
    }
    spec = build_experiment_spec(2, seed=9, output_dir=tmp_path, overrides=overrides)
    assert spec.ep.max_generations == 5
    assert spec.ep.population_size == 3
    assert spec.plant.linear.time_constant == 0.8
    assert spec.plant.angular.time_constant == 0.3
    assert spec.train_route.start == -0.5
    assert spec.ep.init.kd_bounds == (0.0, 0.0)
    assert spec.sim.sample_rate == 100.0
    assert spec.ep.mutation.sigma_scaled == 0.25
    assert spec.ep.rng_seed == 9
    # a new low bound above the default high one holds once the high one moves too, in either order
    for order in (("init.kd.low", "init.kd.high"), ("init.kd.high", "init.kd.low")):
        bounds = {"init.kd.low": 0.05, "init.kd.high": 0.1}
        spec = build_experiment_spec(2, overrides={key: bounds[key] for key in order})
        assert spec.ep.init.kd_bounds == (0.05, 0.1)


def test_unknown_override_key_is_rejected():
    with pytest.raises(ConfigError, match="unknown config key 'plant.linear.gain'"):
        build_experiment_spec(1, overrides={"plant.linear.gain": 2})
    with pytest.raises(ConfigError, match="unknown config key 'plant.linear.gain'"):
        build_environment({"plant.linear.gain": 2})


def test_population_times_generations_cap_applies_to_overrides():
    with pytest.raises(ValueError, match="more than the limit of 1,000,000 members per run"):
        build_experiment_spec(2, overrides={"ep.population_size": 2_000_000_000})


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("ep.population_size", 2.7, "ep.population_size must be an integer, got 2.7"),
        ("ep.max_generations", 1.5, "ep.max_generations must be an integer, got 1.5"),
        ("ep.max_generations", float("inf"), "bad value for ep.max_generations"),
    ],
)
def test_int_key_rejects_a_value_it_would_truncate(key, value, message):
    # int(2.7) would quietly give a population of 2
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_experiment_spec(2, overrides={key: value})


@pytest.mark.parametrize("key", ["ep.max_generations", "ep.population_size", "sim.sample_rate"])
def test_override_rejects_a_bool(key):
    # True would otherwise count as 1
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be a number, got True")):
        build_experiment_spec(2, overrides={key: True})


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("plant.linear.dc_gain", "2", "plant.linear.dc_gain must be a number, got '2'"),
        ("ep.population_size", "10", "ep.population_size must be a number, got '10'"),
        ("sim.sample_rate", None, "sim.sample_rate must be a number, got None"),
        ("route.train.start", math.nan, "route.train.start must be finite, got nan"),
        ("route.test.end", -math.inf, "route.test.end must be finite, got -inf"),
        ("init.kp.high", np.float64(math.inf), "init.kp.high must be finite, got "),
        ("ep.max_generations", math.nan, "bad value for ep.max_generations"),
    ],
)
def test_override_follows_the_config_file_rules(key, value, message):
    # a library override takes what a config file gives: a finite real number, rejected naming its key
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_experiment_spec(2, overrides={key: value})


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("plant.angular.dc_gain", -1, "plant.angular.dc_gain: dc_gain must be > 0"),
        ("mutation.sigma_scaled", 0, "mutation.sigma_scaled: mutation sigmas must be > 0"),
        ("ep.population_size", 0, "ep.population_size: population_size must be >= 1"),
        ("init.kp.low", 2, "init.kp.low: kp_bounds must satisfy 0 <= low <= high, got (2.0, 1.0)"),
    ],
)
def test_a_value_a_spec_rejects_is_reported_under_its_key(key, value, message):
    # the spec object's own message, prefixed with the key that gave it the value
    for build in (lambda: build_experiment_spec(2, overrides={key: value}), lambda: build_environment({key: value})):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as excinfo:
            build()
        assert excinfo.value.key == key


@pytest.mark.parametrize(
    "lines, line, message",
    [
        (["plant.angular.dc_gain = -1"], 2, "plant.angular.dc_gain: dc_gain must be > 0"),
        (["mutation.sigma_scaled = 0"], 2, "mutation.sigma_scaled: mutation sigmas must be > 0"),
        (["ep.population_size = 0"], 2, "ep.population_size: population_size must be >= 1"),
        (["init.kp.low = 2"], 2, "init.kp.low: kp_bounds must satisfy 0 <= low <= high, got (2.0, 1.0)"),
        # one object rejects two keys: the line of the first
        (
            ["init.kp.high = 0.5", "sim.sample_rate = 50", "init.kp.low = 0.75"],
            2,
            "init.kp.high, init.kp.low: kp_bounds must satisfy 0 <= low <= high, got (0.75, 0.5)",
        ),
    ],
)
def test_a_config_value_a_spec_rejects_is_reported_at_its_file_and_line(tmp_path, capsys, lines, line, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# line 1 is a comment\n" + "\n".join(lines) + "\n")
    (tmp_path / "g.cfg").write_text("kp = 0.5\n")
    for command in ("tune --experiment 2", "step --gains 0.5,0,0,0.5,0,0 --route train", "oracle --grid g.cfg"):
        argv = [*command.split(), "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert cli_main([arg.replace("g.cfg", str(tmp_path / "g.cfg")) for arg in argv]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:{line}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_rejected_config_value_is_reported_at_the_line_of_the_one_read_of_the_file(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# line 1 is a comment\nplant.angular.dc_gain = -1\n")
    lines = {}
    assert parse_config_file(cfg, lines) == {"plant.angular.dc_gain": -1.0} and lines == {"plant.angular.dc_gain": 2}
    real = evopid.cli.build_environment

    def build_after_removing_the_file(overrides):
        cfg.unlink(missing_ok=True)
        return real(overrides)

    # the file is gone before the spec rejects its value: the line comes from the one read, not from a second
    monkeypatch.setattr(evopid.cli, "build_environment", build_after_removing_the_file)
    argv = ["step", "--gains", "0.5,0,0,0.5,0,0", "--route", "train", "--out", str(tmp_path / "t.csv")]
    assert cli_main([*argv, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: plant.angular.dc_gain: dc_gain must be > 0\n"
    # a keyed rejection of a value no --config file gave has no line to name
    monkeypatch.setattr(evopid.cli, "build_environment", lambda overrides: real({"plant.angular.dc_gain": -1.0}))
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == "error: plant.angular.dc_gain: dc_gain must be > 0\n"


def test_a_rejection_names_every_key_given_to_the_rejecting_object_and_no_other():
    overrides = {
        "route.train.start": 0.1,
        "plant.angular.time_constant": 0.4,
        "plant.linear.dc_gain": 3.0,
        "plant.angular.dc_gain": 0.0,
        "init.kp.high": 0.5,
        "init.kp.low": 0.75,
    }
    with pytest.raises(ConfigError, match=r"^plant\.angular\.time_constant, plant\.angular\.dc_gain: dc_gain must be"):
        build_experiment_spec(2, overrides=overrides)
    overrides["plant.angular.dc_gain"] = 2.0
    with pytest.raises(ConfigError, match=r"^init\.kp\.high, init\.kp\.low: kp_bounds must satisfy"):
        build_experiment_spec(2, overrides=overrides)


@pytest.mark.parametrize("route", ["train", "test"])
@pytest.mark.parametrize("channel", ["linear", "angular"])
def test_overflowing_first_error_is_rejected(route, channel):
    # 1e308 - -1e308 is inf, and the kernel's first derivative would be inf - inf
    start, velocity = f"route.{route}.start", f"plant.{channel}.initial_velocity"
    message = f"route.{route}: route.start - {velocity} must be finite, got 1e+308 - -1e+308"
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_experiment_spec(2, overrides={start: 1e308, velocity: -1e308})
    # each value alone, and a large difference that stays finite, are accepted
    build_experiment_spec(2, overrides={start: 1e308})
    build_experiment_spec(2, overrides={velocity: -1e308})
    build_experiment_spec(2, overrides={start: 1e308, velocity: -1e307})


def test_int_key_accepts_an_integral_float():
    spec = build_experiment_spec(2, overrides={"ep.population_size": 4.0, "ep.max_generations": 7})
    assert (spec.ep.population_size, spec.ep.max_generations) == (4, 7)
    assert type(spec.ep.population_size) is int


@pytest.mark.parametrize("key", list(CONFIG_TABLE))
def test_each_config_key_sets_its_own_field(small_run, key):
    _, record = small_run
    default = result_as_dict(record, build_experiment_spec(3))["experiment"]["config"]
    assert list(default) == list(CONFIG_TABLE)
    value = default[key] + 1 if CONFIG_TABLE[key][0] is int else default[key] * 1.5 + 0.01
    config = result_as_dict(record, build_experiment_spec(3, overrides={key: value}))["experiment"]["config"]
    assert {k: v for k, v in config.items() if v != default[k]} == {key: value}


# ---------------------------------------------------------------- config files


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "overrides.cfg"
    cfg.write_text(
        """
        # comment line
        plant.linear.time_constant = 0.75
        ep.population_size = 12   # trailing comment
        route.test.end = 0.9

        ep.ae_target = 0.02
        """
    )
    overrides = parse_config_file(cfg)
    assert overrides == {
        "plant.linear.time_constant": 0.75,
        "ep.population_size": 12,
        "route.test.end": 0.9,
        "ep.ae_target": 0.02,
    }
    assert isinstance(overrides["ep.population_size"], int)
    # a line ends only at \n, \r\n or \r: text after a U+2028 in a comment stays in the comment
    cfg.write_bytes("# note\u2028ep.population_size = 3\nep.ae_target = 0.5\r\nroute.test.end = 0.9\r".encode())
    assert parse_config_file(cfg) == {"ep.ae_target": 0.5, "route.test.end": 0.9}


def test_parse_config_file_accepts_a_byte_order_mark(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("ep.population_size = 3\nep.ae_target = 0.5\n", encoding="utf-8-sig")
    assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
    assert parse_config_file(cfg) == {"ep.population_size": 3, "ep.ae_target": 0.5}


def test_parse_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("plant.linear.gain = 2\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_file(cfg)


def test_parse_config_file_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(cfg)


def test_parse_config_file_bad_number(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("ep.ae_target = tiny\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_file(cfg)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_parse_config_file_rejects_nonfinite_values(tmp_path, value):
    path = tmp_path / "c.cfg"
    path.write_text(f"plant.linear.time_constant = {value}\n")
    with pytest.raises(ConfigError, match=r"c\.cfg:1: plant\.linear\.time_constant must be finite"):
        parse_config_file(path)


def test_parse_config_file_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("ep.population_size = 3\n# comment\n\nep.ae_target = 0.5\nep.population_size = 4\n")
    with pytest.raises(ConfigError, match=r"c\.cfg:5: ep\.population_size is given again; line 1 gave it first"):
        parse_config_file(path)
    # a U+2028 does not end a line, so the later lines keep their numbers
    path.write_text("# a\u2028b\nep.population_size = 3\nep.population_size = 4\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"c\.cfg:3: ep\.population_size is given again; line 2 gave it first"):
        parse_config_file(path)


def test_parse_config_file_missing(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(tmp_path / "nope.cfg")
    # a file that is not UTF-8 is named too, as a config file and as a grid file
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"kp = 0.5\xff\n")
    for parse in (parse_config_file, parse_grid_file):
        with pytest.raises(ConfigError, match=re.escape(f"cannot read {path}: ") + ".*can't decode byte 0xff"):
            parse(path)


def test_parse_grid_file(tmp_path):
    grid_file = tmp_path / "grid.cfg"
    grid_file.write_text("kp = 0, 0.5, 1.0\nki = 0 0.05\n")
    grid = parse_grid_file(grid_file)
    assert grid.kp_values == (0.0, 0.5, 1.0)
    assert grid.ki_values == (0.0, 0.05)
    assert grid.kd_values == (0.0,)
    # text after a U+2028 in a comment stays in the comment
    grid_file.write_text("kp = 1, 2 # x\u2028ki = 5\n", encoding="utf-8")
    assert parse_grid_file(grid_file) == GainGrid((1.0, 2.0), (0.0,), (0.0,))


def test_parse_grid_file_accepts_a_byte_order_mark(tmp_path):
    grid_file = tmp_path / "grid.cfg"
    grid_file.write_text("kp = 0, 0.5\nki = 0.25\n", encoding="utf-8-sig")
    assert grid_file.read_bytes().startswith(b"\xef\xbb\xbf")
    assert parse_grid_file(grid_file) == GainGrid((0.0, 0.5), (0.25,), (0.0,))


def test_parse_grid_file_rejects_unknown_axis(tmp_path):
    grid_file = tmp_path / "grid.cfg"
    grid_file.write_text("kq = 0.5\n")
    with pytest.raises(ConfigError):
        parse_grid_file(grid_file)


def test_parse_grid_file_rejects_a_repeated_gain(tmp_path):
    grid_file = tmp_path / "grid.cfg"
    grid_file.write_text("kp = 1\nki = 0\nkp = 2  # not the last value wins\n")
    with pytest.raises(ConfigError, match=r"grid\.cfg:3: kp is given again; line 1 gave it first"):
        parse_grid_file(grid_file)


@pytest.mark.parametrize(
    "text, message",
    [
        ("kp = 0.5\nki = 0, x\n", "grid.cfg:2: bad value for ki: could not convert string to float: 'x'"),
        ("kp = 0.5\nkd =\n", "grid.cfg:2: kd lists no values"),
        ("# comments only\n\n", "grid.cfg: grid file defines no gain values"),
        ("kp = 0.5 # \u2028 x\nkd =\n", "grid.cfg:2: kd lists no values"),
        ("kp = 0.5\nki = 0, -2\n", "grid.cfg:2: ki values must be finite and nonnegative, got '0, -2'"),
        (
            f"kp = {', '.join(map(str, range(1001)))}\nki = {' '.join(map(str, range(1000)))}\n",
            "grid.cfg: a grid of 1,001,000 points is more than the limit of 1,000,000",
        ),
    ],
    ids=["bad number", "no values", "no gain lines", "U+2028 in a comment", "negative value", "over the point cap"],
)
def test_parse_grid_file_rejects_a_malformed_file(tmp_path, text, message):
    grid_file = tmp_path / "grid.cfg"
    grid_file.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_grid_file(grid_file)


def test_gain_grid_caps_its_point_count():
    # constructed only, never scored
    GainGrid(tuple(range(100)), tuple(range(100)), tuple(range(100)))
    with pytest.raises(ValueError, match="a grid of 1,001,000 points is more than the limit of 1,000,000"):
        GainGrid(tuple(range(1001)), tuple(range(1000)), (0.0,))


def test_gain_grid_validation():
    with pytest.raises(ValueError):
        GainGrid((), (0.0,), (0.0,))
    with pytest.raises(ValueError):
        GainGrid((0.1,), (-0.5,), (0.0,))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="kd_values must be finite"):
            GainGrid((0.1,), (0.0,), (0.0, bad))
    # a bool is not a number: the oracle used to return Gains(kp=True, ki=False, kd=0)
    with pytest.raises(ValueError, match=re.escape("kp_values must be a number, got (True, 0.5)")):
        GainGrid((True, 0.5), (False,), (0,))


# ---------------------------------------------------------------- generations CSV


def test_export_generations_row_count_and_order(tmp_path):
    history = _toy_history(population_size=4, generations=3)
    path = tmp_path / "generations.csv"
    export_generations(history, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 3 * 4
    assert lines[0] == ",".join(GENERATIONS_HEADER)
    generations = [int(line.split(",")[0]) for line in lines[1:]]
    assert generations == sorted(generations)


def test_export_generations_round_trip(tmp_path):
    history = _toy_history()
    path = tmp_path / "generations.csv"
    export_generations(history, path)
    assert load_generations(path) == list(history)


def test_export_generations_writes_int_gains_as_floats(tmp_path):
    # a library caller may build gains and errors from ints; repr(1) would write 1, not 1.0
    member = MemberRecord(Individual(Gains(1, 0, 0), Gains(2, 3, 0)), 1, 0)
    history = [GenerationRecord.from_evaluations(0, (member,))]
    path = tmp_path / "generations.csv"
    export_generations(history, path)
    assert path.read_bytes() == (",".join(GENERATIONS_HEADER) + "\n0,0,1.0,0.0,0.0,2.0,3.0,0.0,1.0,0.0\n").encode()
    assert load_generations(path) == history


def test_load_generations_rejects_a_foreign_header(tmp_path):
    path = tmp_path / "generations.csv"
    path.write_text("generation,member,kp,ki\n0,0,0.5,0.1\n")
    with pytest.raises(ValueError, match=re.escape("generations.csv: unexpected header ['generation', 'member', 'kp', 'ki']")):
        load_generations(path)


@pytest.mark.parametrize("text", ["", ",".join(GENERATIONS_HEADER) + "\n"], ids=["empty", "header only"])
def test_load_generations_names_a_file_without_generations(tmp_path, text):
    path = tmp_path / "generations.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: the file holds no generations")):
        load_generations(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("0,0,0.5,0.1,0,0.5,0.1,0", "expected 10 columns, got 8"),  # six gains, no AE columns
        ("0,0,0.5,0.1", "expected 10 columns, got 4"),  # two gains
        ("0,0,0.5,0.1,0,0.5,0.1,0,x,0.2", "could not convert string to float: 'x'"),
        # every gain passes the Gains rule; the first one in flat order that fails is named
        ("0,1,0.5,-0.1,0,0.5,0.1,0,0.3,0.2", "ki must be a finite number >= 0, got -0.1"),
        ("0,1,0.5,0.1,inf,0.5,0.1,0,0.3,0.2", "kd must be a finite number >= 0, got inf"),
        ("0,1,0.5,0.1,0,nan,-1,0,0.3,x", "kp must be a finite number >= 0, got nan"),
        ("0,abc,0.5,0.1,0,0.5,0.1,0,0.3,0.2", "invalid literal for int() with base 10: 'abc'"),
        ("5,0,0.5,0.1,0,0.5,0.1,0,0.3,0.2", "expected (generation, member) (0, 1) or (1, 0), got (5, 0)"),
        ("0,2,0.5,0.1,0,0.5,0.1,0,0.3,0.2", "expected (generation, member) (0, 1) or (1, 0), got (0, 2)"),
        ("0,0,0.5,0.1,0,0.5,0.1,0,0.4,0.2", "expected (generation, member) (0, 1) or (1, 0), got (0, 0)"),
        ("1,1,0.5,0.1,0,0.5,0.1,0,0.3,0.2", "expected (generation, member) (0, 1) or (1, 0), got (1, 1)"),
    ],
)
def test_load_generations_names_the_line_of_a_malformed_row(tmp_path, row, message):
    path = tmp_path / "generations.csv"
    path.write_text(",".join(GENERATIONS_HEADER) + "\n0,0,0.5,0.1,0,0.5,0.1,0,0.3,0.2\n" + row + "\n")
    with pytest.raises(ValueError, match=re.escape(f"generations.csv:3: {message}")):
        load_generations(path)


@pytest.mark.parametrize("first", ["1,0", "0,1", "-1,0"])
def test_load_generations_requires_generation_0_member_0_first(tmp_path, first):
    path = tmp_path / "generations.csv"
    path.write_text(",".join(GENERATIONS_HEADER) + f"\n{first},0.5,0.1,0,0.5,0.1,0,0.3,0.2\n")
    message = f"generations.csv:2: expected (generation, member) (0, 0), got ({first.replace(',', ', ')})"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_generations(path)


@pytest.mark.parametrize("at", ["header", "row"])
def test_load_generations_names_a_file_that_is_not_utf8(tmp_path, at):
    path = tmp_path / "generations.csv"
    header, row = ",".join(GENERATIONS_HEADER).encode(), b"0,0,0.5,0.1,0,0.5,0.1,0,0.3,0.2"
    if at == "header":
        header = header.replace(b"member", b"memb\xffer")
    else:
        row = row.replace(b"0.3", b"0.3\xff")
    path.write_bytes(header + b"\n" + row + b"\n")
    with pytest.raises(ValueError, match=re.escape(f"cannot read {path}: ") + ".*can't decode byte 0xff"):
        load_generations(path)


def test_load_generations_names_the_file_of_a_generation_without_a_finite_error(tmp_path):
    path = tmp_path / "generations.csv"
    rows = ("0,0,0.5,0.1,0,0.5,0.1,0,inf,0.2", "0,1,0.5,0.1,0,0.5,0.1,0,nan,0.3")
    path.write_text("\n".join((",".join(GENERATIONS_HEADER), *rows)) + "\n")
    message = f"{path}: generation 0: no member has a finite average error on the linear channel"
    with pytest.raises(EvaluationError, match=re.escape(message)) as excinfo:
        load_generations(path)
    assert excinfo.value.generation == 0


def test_export_generations_deterministic_bytes(tmp_path):
    history = _toy_history()
    export_generations(history, tmp_path / "a.csv")
    export_generations(history, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_export_generations_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        export_generations([], tmp_path / "generations.csv")


# ---------------------------------------------------------------- the CSV writer

CSV_CHUNK = evopid.harness._CSV_CHUNK
CSV_ROW_COUNTS = (1, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1, 2 * CSV_CHUNK + 1)
# values a slip in the writer would show: both zeros, the divergence stand-in, subnormals, infinities
EDGE_FLOATS = (0.0, -0.0, DIVERGENCE_AE, 5e-324, sys.float_info.min / 3, math.inf, -math.inf, 0.1, 0.7)


def _as_array(column: np.ndarray) -> array:
    """A float64 or int64 column as the array("d") or array("q") _write_csv takes, bit for bit."""
    return array("q" if column.dtype.kind == "i" else "d", column.tobytes())


def _write_both(tmp_path, columns) -> tuple[bytes, bytes]:
    header = [f"c{j}" for j in range(len(columns))]
    _write_csv(tmp_path / "columns.csv", header, [_as_array(column) for column in columns])
    write_csv_rows(tmp_path / "rows.csv", header, columns)
    return (tmp_path / "columns.csv").read_bytes(), (tmp_path / "rows.csv").read_bytes()


def _edge_columns(rows: int) -> list[np.ndarray]:
    """Runs of every edge float side by side, two long runs, no runs, and an int column of runs of 100."""
    edges = np.repeat(EDGE_FLOATS, 3)
    return [
        np.resize(edges, rows),
        np.resize(edges[1:], rows),
        np.repeat([0.1, 0.7], [rows // 2, rows - rows // 2]),
        np.arange(rows) / 3,
        np.arange(rows, dtype=np.int64) // 100,
    ]


@pytest.mark.parametrize("rows", CSV_ROW_COUNTS)
def test_write_csv_writes_the_row_writers_bytes_around_chunk_bounds(rows, tmp_path):
    written, expected = _write_both(tmp_path, _edge_columns(rows))
    assert written == expected
    assert written.count(b"\n") == 1 + rows


def _runs_column(rows: int):
    """A strategy for one float64 or int64 column of `rows` values, drawn as runs of equal values."""
    floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
    ints = st.integers(-(2**63), 2**63 - 1)

    def column(values, dtype):
        runs = st.lists(st.tuples(values, st.integers(1, rows)), min_size=1, max_size=8)
        expand = lambda runs: np.repeat(np.array([v for v, _ in runs], dtype), [k for _, k in runs])
        return runs.map(lambda runs: np.resize(expand(runs), rows))

    return st.one_of(column(floats, np.float64), column(ints, np.int64))


@settings(max_examples=50)
@given(columns=st.sampled_from(CSV_ROW_COUNTS).flatmap(lambda n: st.lists(_runs_column(n), min_size=1, max_size=5)))
def test_write_csv_writes_the_row_writers_bytes(columns, tmp_path_factory):
    written, expected = _write_both(tmp_path_factory.mktemp("csv"), columns)
    assert written == expected


@pytest.mark.parametrize("rows", CSV_ROW_COUNTS)
def test_write_csv_writes_the_numpy_writers_bytes(rows, tmp_path):
    # columns that tell a writer keyed on values, or on the first and last cells of a chunk, from one keyed on bits
    alternating = np.resize([0.0, -0.0], rows)
    almost = np.full(rows, 0.25)
    almost[CSV_CHUNK - 1 :: CSV_CHUNK] = 0.5  # every full chunk constant except its last value
    almost[-1] = -0.25  # and the last chunk too
    columns = [
        alternating,
        almost,
        np.full(rows, -0.0),
        np.arange(rows, dtype=np.int64) // 300 - 1,
        np.full(rows, -(2**63), dtype=np.int64),
        np.resize(np.array([7, -7], dtype=np.int64), rows),
    ]
    header = [f"c{j}" for j in range(len(columns))]
    _write_csv(tmp_path / "arrays.csv", header, [_as_array(column) for column in columns])
    numpy_write_csv(tmp_path / "ndarrays.csv", header, columns)
    written = (tmp_path / "arrays.csv").read_bytes()
    assert written == (tmp_path / "ndarrays.csv").read_bytes()
    assert written.count(b"\n") == 1 + rows


def test_export_trace_schema(tmp_path, plant, sim, train_route):
    trace = simulate_route(Individual.from_flat([0.5, 0.01, 0.0] * 2), train_route, plant, sim)
    path = tmp_path / "trace.csv"
    export_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_HEADER)
    assert len(lines) == 1 + len(trace.linear)
    parsed = [float(v) for v in lines[1].split(",")]
    assert parsed[0] == 0.0
    assert parsed[1] == train_route.start


# ---------------------------------------------------------------- grid oracle


def test_grid_oracle_single_point(plant, sim, train_route):
    grid = GainGrid((0.4,), (0.02,), (0.0,))
    result = grid_oracle(train_route, plant, sim, grid)
    gains = Gains(0.4, 0.02, 0.0)
    expected = fitness_of(Individual(gains, gains), train_route, plant, sim)
    assert result.linear_gains == gains
    assert result.angular_gains == gains
    assert result.ae_linear == expected.ae_linear
    assert result.ae_angular == expected.ae_angular


def test_grid_oracle_superset_never_worse(plant, sim, train_route):
    small = GainGrid((0.2, 0.6), (0.0,), (0.0,))
    large = GainGrid((0.2, 0.6, 1.0), (0.0, 0.05), (0.0,))
    res_small = grid_oracle(train_route, plant, sim, small)
    res_large = grid_oracle(train_route, plant, sim, large)
    assert res_large.ae_linear <= res_small.ae_linear
    assert res_large.ae_angular <= res_small.ae_angular


def test_grid_oracle_ties_go_to_smallest_gains(plant, sim):
    # a null route from rest gives AE 0 for every grid point, so all points tie
    route = RouteSpec(0.0, 0.0)
    grid = GainGrid((0.3, 0.1), (0.2, 0.0), (0.5, 0.4))
    result = grid_oracle(route, plant, sim, grid)
    assert result.linear_gains == Gains(0.1, 0.0, 0.4)
    assert result.angular_gains == Gains(0.1, 0.0, 0.4)
    assert result.ae_linear == 0.0


# ---------------------------------------------------------------- full experiment


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp2_small")
    spec = build_experiment_spec(2, seed=5, output_dir=out, overrides={"ep.max_generations": 4})
    record = run_experiment(spec)
    return spec, record


# SHA-256 of the outputs of experiment 2, seed 0, 20 generations, written to the relative
# directory "out"; the CSVs as first written by the per-sample simulation that evaluated
# every member of every generation, result.json as first written with its config block
PINNED_EXP2_SEED0_G20 = {
    "generations.csv": "0b850517772b1d22d32e8324a11a81fb1233452a2f31847ab832c3a230436438",
    "best_train_trace.csv": "2ddd69f534fafc1cbb3f4292a9fe9378c16c5f35d6e9955cbc14b2e3eadde592",
    "best_test_trace.csv": "4cff9818ec00c1cf34f9581ba343a9121c70c8b08644e826d95efd3c60ae27ed",
    "result.json": "3ab5ddec1dab2bdb3064c1951617c991e17a2cb6b1238d5b9693ef278c636d86",
}


def test_run_experiment_scores_each_distinct_individual_once_with_pinned_bytes(tmp_path, monkeypatch):
    train_calls = []
    real_fitness_rows = evopid.harness._fitness_rows

    def counting_fitness_rows(rows, route, *args):
        if route is spec.train_route:
            train_calls.extend(Individual.from_flat(rows[i : i + 6]) for i in range(0, len(rows), 6))
        return real_fitness_rows(rows, route, *args)

    monkeypatch.setattr(evopid.harness, "_fitness_rows", counting_fitness_rows)
    # a relative output_dir, because result.json records it
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    spec = build_experiment_spec(2, seed=0, output_dir="out", overrides={"ep.max_generations": 20})
    run_experiment(spec)
    members = [m.individual for record in load_generations(out / "generations.csv") for m in record.members]
    assert len(members) == 200
    assert set(train_calls) == set(members)
    assert len(train_calls) == len(set(train_calls)) == 192
    for name, digest in PINNED_EXP2_SEED0_G20.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# SHA-256 of generations.csv for seed 0 and 20 generations of experiment 1, the absolute operator and its
# halving loop, and of experiment 3, population 20; pinned from the mutation path that called
# mutate_absolute or mutate_scaled once per gain
PINNED_GENERATIONS_SEED0_G20 = {
    1: "1ed7c2720c34a8dab4db516ec2e62b66b4bfddd5ada54f274b41a033d3600fdb",
    3: "57295e123c073ad69cb602b58435767714996e29c902e5d669f0d764e47472c7",
}


@pytest.mark.parametrize("experiment", sorted(PINNED_GENERATIONS_SEED0_G20))
def test_run_experiment_writes_pinned_generations_for_experiments_1_and_3(experiment, tmp_path):
    spec = build_experiment_spec(experiment, seed=0, output_dir=tmp_path, overrides={"ep.max_generations": 20})
    run_experiment(spec)
    digest = hashlib.sha256((tmp_path / "generations.csv").read_bytes()).hexdigest()
    assert digest == PINNED_GENERATIONS_SEED0_G20[experiment]


# SHA-256 of the file each command writes to "out", run where grid.cfg holds PINNED_GRID and
# long.cfg PINNED_LONG_ROUTE; pinned from the batch kernel that took six gain columns per row,
# except the long route's, pinned from the row-at-a-time CSV writer
PINNED_GRID = "kp = 0, 2, 8, 32, 128\nki = 0, 1, 4, 16\nkd = 0, 0.05, 0.2\n"
# a 300 s test-route phase: 30,000 trace rows, many CSV writer chunks
PINNED_LONG_ROUTE = "route.test.phase_duration = 300.0\n"
PINNED_CLI_OUTPUTS = {
    "oracle --grid grid.cfg --route train --out out": (
        "816aaf623367d61fa39d061df475c95245f6b440cb593a26da47da77e9ff472e"
    ),
    "step --gains 0.5,0.05,0.001,0.4,0.02,0 --route test --out out": (
        "53ca5dd2e30f5b4bd6b552c4ffb529af8a461edb8a6bb6519b5666eda6a6c720"
    ),
    "step --gains 0.5,0.05,0.001,0.4,0.02,0 --route test --config long.cfg --out out": (
        "907cbd8db3c7d06235b279c257a5fa4ce259a579afb06bdb70724bb2963f4cff"
    ),
}


@pytest.mark.parametrize(
    "command",
    list(PINNED_CLI_OUTPUTS),
    ids=lambda command: command.split()[0] + ("-long" if "long.cfg" in command else ""),
)
def test_oracle_and_step_write_pinned_bytes(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.cfg").write_text(PINNED_GRID)
    (tmp_path / "long.cfg").write_text(PINNED_LONG_ROUTE)
    assert cli_main(command.split()) == 0
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == PINNED_CLI_OUTPUTS[command]


def test_run_experiment_writes_all_outputs(small_run):
    spec, _ = small_run
    for name in ("generations.csv", "best_train_trace.csv", "best_test_trace.csv", "result.json"):
        assert (spec.output_dir / name).exists()


def test_run_experiment_result_consistency(small_run):
    spec, record = small_run
    history = load_generations(spec.output_dir / "generations.csv")
    assert len(history) == record.generations_run
    assert record.ae_train.ae_linear == min(m.ae_linear for r in history for m in r.members)
    assert record.ae_train.ae_angular == min(m.ae_angular for r in history for m in r.members)


def test_run_experiment_reported_gains_are_the_best_individuals(small_run):
    spec, record = small_run
    best = Individual(record.best.linear, record.best.angular)
    fitness = fitness_of(best, spec.train_route, spec.plant, spec.sim)
    assert fitness.ae_linear == record.ae_train.ae_linear
    assert fitness.ae_angular == record.ae_train.ae_angular
    test_fitness = fitness_of(best, spec.test_route, spec.plant, spec.sim)
    assert test_fitness.ae_linear == record.ae_test.ae_linear
    assert test_fitness.ae_angular == record.ae_test.ae_angular


def test_run_experiment_step_metrics_are_the_replays(small_run):
    spec, record = small_run
    assert list(record.step) == ["train", "test"]
    for name, route in (("train", spec.train_route), ("test", spec.test_route)):
        trace = simulate_route(record.best, route, spec.plant, spec.sim)
        assert record.step[name] == {
            "linear": step_metrics(trace.linear, route),
            "angular": step_metrics(trace.angular, route),
        }


def test_run_experiment_result_json_contents(small_run):
    spec, record = small_run
    payload = json.loads((spec.output_dir / "result.json").read_text())
    assert payload["experiment"]["id"] == 2
    assert payload["experiment"]["seed"] == 5
    assert payload["experiment"]["mutation"] == "scaled"
    assert payload["result"]["linear"]["ae_train"] == record.ae_train.ae_linear
    assert payload["stop_reason"] in {r.value for r in StopReason}
    assert payload["generations_run"] == record.generations_run
    assert set(payload["step_metrics"]) == {"train", "test"}


def test_run_experiment_deterministic_csv(tmp_path):
    overrides = {"ep.max_generations": 3}
    spec_a = build_experiment_spec(1, seed=7, output_dir=tmp_path / "a", overrides=overrides)
    spec_b = build_experiment_spec(1, seed=7, output_dir=tmp_path / "b", overrides=overrides)
    run_experiment(spec_a)
    run_experiment(spec_b)
    assert (tmp_path / "a" / "generations.csv").read_bytes() == (
        tmp_path / "b" / "generations.csv"
    ).read_bytes()


def test_result_json_alone_reproduces_the_run(tmp_path):
    # every key off its default, so a setting that result.json failed to record would show
    overrides = {
        "plant.linear.dc_gain": 1.1,
        "plant.linear.time_constant": 0.45,
        "plant.linear.actuator_limit": 1.8,
        "plant.linear.initial_velocity": 0.05,
        "plant.angular.dc_gain": 0.9,
        "plant.angular.time_constant": 0.35,
        "plant.angular.actuator_limit": 2.2,
        "plant.angular.initial_velocity": -0.1,
        "route.train.start": -0.25,
        "route.train.end": 0.35,
        "route.train.phase_duration": 2.5,
        "route.test.start": 0.15,
        "route.test.end": 0.65,
        "route.test.phase_duration": 2.0,
        "sim.sample_rate": 40.0,
        "ep.population_size": 6,
        "ep.max_generations": 5,
        "ep.ae_target": 0.02,
        "mutation.sigma_absolute": 0.07,
        "mutation.sigma_scaled": 0.4,
        "init.kp.low": 0.1,
        "init.kp.high": 0.9,
        "init.ki.low": 0.01,
        "init.ki.high": 0.08,
        "init.kd.low": 0.001,
        "init.kd.high": 0.02,
    }
    assert set(overrides) == set(CONFIG_TABLE)
    first, again = tmp_path / "first", tmp_path / "again"
    spec = build_experiment_spec(3, seed=11, output_dir=first, overrides=overrides)
    run_experiment(spec)

    experiment = json.loads((first / "result.json").read_text())["experiment"]
    assert experiment["mutation"] == EXPERIMENT_TABLE[experiment["id"]][0].value
    rebuilt = build_experiment_spec(
        experiment["id"], seed=experiment["seed"], output_dir=again, overrides=experiment["config"]
    )
    assert rebuilt == dataclasses.replace(spec, output_dir=again)
    run_experiment(rebuilt)
    for name in ("generations.csv", "best_train_trace.csv", "best_test_trace.csv"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


def test_render_result_table_columns(small_run):
    _, record = small_run
    table = render_result_table([record])
    lines = table.splitlines()
    import re

    header = re.split(r"\s{2,}", lines[0].strip())
    assert header == ["Experiment", "Type", "kp", "ki", "kd", "AE train", "AE test"]
    assert len(lines) == 3
    assert "Linear" in lines[1] and "Angular" in lines[2]


def test_build_environment_defaults():
    plant, sim, routes = build_environment()
    assert plant.linear.time_constant == 0.5
    assert plant.angular.time_constant == 0.3
    assert plant.linear.actuator_limit == 2.0
    assert sim.sample_rate == 50.0
    assert routes["train"] == RouteSpec(-0.3, 0.3)
    assert routes["test"] == RouteSpec(0.1, 0.7)
