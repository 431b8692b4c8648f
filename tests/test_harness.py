import contextlib
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
    fitness_of,
    load_generations,
    parse_config_file,
    parse_grid_file,
    run_experiment,
    run_ep,
    simulate_route,
    step_metrics,
)
import evopid.cli
import evopid.harness
import evopid.plant
from evopid.cli import cli_main
from evopid.harness import (
    CONFIG_TABLE,
    EXPERIMENT_TABLE,
    GENERATIONS_HEADER,
    ConfigError,
    _write_csv,
    result_as_dict,
)
from evopid.metrics import DIVERGENCE_AE
from reference import generation_record, numpy_write_csv, write_csv_rows


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


@pytest.mark.parametrize(
    "parse, data, expected",
    [
        (
            parse_config_file,
            b"\n    # comment line\n    plant.linear.time_constant = 0.75\n"
            b"    ep.population_size = 12   # trailing comment\n    route.test.end = 0.9\n\n    ep.ae_target = 0.02\n",
            {"plant.linear.time_constant": 0.75, "ep.population_size": 12, "route.test.end": 0.9, "ep.ae_target": 0.02},
        ),
        # a line ends only at \n, \r\n or \r: text after a U+2028 in a comment stays in the comment
        (parse_config_file, "# note\u2028ep.population_size = 3\nep.ae_target = 0.5\r\nroute.test.end = 0.9\r"
         .encode(), {"ep.ae_target": 0.5, "route.test.end": 0.9}),
        (parse_config_file, "ep.population_size = 3\nep.ae_target = 0.5\n".encode("utf-8-sig"),
         {"ep.population_size": 3, "ep.ae_target": 0.5}),
        (parse_grid_file, b"kp = 0, 0.5, 1.0\nki = 0 0.05\n", GainGrid((0.0, 0.5, 1.0), (0.0, 0.05), (0.0,))),
        (parse_grid_file, "kp = 1, 2 # x\u2028ki = 5\n".encode(), GainGrid((1.0, 2.0), (0.0,), (0.0,))),
        (parse_grid_file, "kp = 0, 0.5\nki = 0.25\n".encode("utf-8-sig"), GainGrid((0.0, 0.5), (0.25,), (0.0,))),
    ],
    ids=["config", "config-line-ends", "config-byte-order-mark", "grid", "grid-line-ends", "grid-byte-order-mark"],
)
def test_config_and_grid_files_parse(parse, data, expected, tmp_path):
    path = tmp_path / "f.cfg"
    path.write_bytes(data)
    parsed = parse(path)
    assert parsed == expected
    if parse is parse_config_file:
        assert [type(v) for v in parsed.values()] == [type(v) for v in expected.values()]


# a file of 1,001 x 1,000 grid points
OVER_THE_CAP = f"kp = {', '.join(map(str, range(1001)))}\nki = {' '.join(map(str, range(1000)))}\n"
# each file a parser rejects (None: no file), and what the error says, {path} standing for the file's path
FILE_REJECTIONS = [
    (parse_config_file, "plant.linear.gain = 2\n", "{path}:1: unknown key 'plant.linear.gain'"),
    (parse_config_file, "just some words\n", "{path}:1: expected `key = value`, got 'just some words'"),
    (parse_config_file, "ep.ae_target = tiny\n", "{path}:1: bad value for ep.ae_target"),
    *[(parse_config_file, f"plant.linear.time_constant = {value}\n",
       f"{{path}}:1: plant.linear.time_constant must be finite, got '{value}'")
      for value in ("nan", "inf", "-inf", "NaN")],
    (parse_config_file, "ep.population_size = 3\n# comment\n\nep.ae_target = 0.5\nep.population_size = 4\n",
     "{path}:5: ep.population_size is given again; line 1 gave it first"),
    # a U+2028 does not end a line, so the later lines keep their numbers
    (parse_config_file, "# a\u2028b\nep.population_size = 3\nep.population_size = 4\n",
     "{path}:3: ep.population_size is given again; line 2 gave it first"),
    (parse_config_file, None, "cannot read {path}: "),
    (parse_grid_file, "kq = 0.5\n", "{path}:1: expected `kp|ki|kd = values`, got key 'kq'"),
    (parse_grid_file, "kp = 1\nki = 0\nkp = 2  # not the last value wins\n",
     "{path}:3: kp is given again; line 1 gave it first"),
    (parse_grid_file, "kp = 0.5\nki = 0, x\n",
     "{path}:2: bad value for ki: could not convert string to float: 'x'"),
    (parse_grid_file, "kp = 0.5\nkd =\n", "{path}:2: kd lists no values"),
    (parse_grid_file, "# comments only\n\n", "{path}: grid file defines no gain values"),
    (parse_grid_file, "kp = 0.5 # \u2028 x\nkd =\n", "{path}:2: kd lists no values"),
    (parse_grid_file, "kp = 0.5\nki = 0, -2\n", "{path}:2: ki values must be finite and nonnegative, got '0, -2'"),
    (parse_grid_file, OVER_THE_CAP, "{path}: a grid of 1,001,000 points is more than the limit of 1,000,000"),
    # a file that is not UTF-8 is named too, as a config file and as a grid file
    *[(parse, "kp = 0.5\udcff\n", "cannot read {path}: 'utf-8' codec can't decode byte 0xff")
      for parse in (parse_config_file, parse_grid_file)],
]


@pytest.mark.parametrize(
    "parse, text, message", FILE_REJECTIONS,
    ids=[f"{row[0].__name__[6:-5]}-{i}" for i, row in enumerate(FILE_REJECTIONS)],
)
def test_config_and_grid_files_are_rejected_naming_file_and_line(parse, text, message, tmp_path):
    path = tmp_path / "f.cfg"
    if text is not None:
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ConfigError) as excinfo:
        parse(path)
    assert message.format(path=path) in str(excinfo.value)


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


def test_export_generations_round_trip(tmp_path):
    history = _toy_history()
    path = tmp_path / "generations.csv"
    export_generations(history, path)
    assert load_generations(path) == list(history)


def test_export_generations_writes_int_gains_as_floats(tmp_path):
    # a library caller may build gains and errors from ints; repr(1) would write 1, not 1.0
    member = MemberRecord(Individual(Gains(1, 0, 0), Gains(2, 3, 0)), 1, 0)
    history = [generation_record(0, (member,))]
    path = tmp_path / "generations.csv"
    export_generations(history, path)
    assert path.read_bytes() == (",".join(GENERATIONS_HEADER) + "\n0,0,1.0,0.0,0.0,2.0,3.0,0.0,1.0,0.0\n").encode()
    assert load_generations(path) == history


HEADER, ROW = ",".join(GENERATIONS_HEADER), "0,0,0.5,0.1,0,0.5,0.1,0,0.3,0.2"
# each generations.csv load_generations rejects, and how its error starts, {path} standing for the file's path
GENERATIONS_REJECTIONS = [
    ("generation,member,kp,ki\n0,0,0.5,0.1\n", "{path}: unexpected header ['generation', 'member', 'kp', 'ki']"),
    ("", "{path}: the file holds no generations"),
    (HEADER + "\n", "{path}: the file holds no generations"),
    *[(f"{HEADER}\n{ROW}\n{row}\n", f"{{path}}:3: {message}") for row, message in [
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
    ]],
    *[(f"{HEADER}\n{first},0.5,0.1,0,0.5,0.1,0,0.3,0.2\n",
       f"{{path}}:2: expected (generation, member) (0, 0), got ({first.replace(',', ', ')})")
      for first in ("1,0", "0,1", "-1,0")],
    *[(text, "cannot read {path}: 'utf-8' codec can't decode byte 0xff")
      for text in (f"{HEADER.replace('member', 'memb')}\udcffer\n{ROW}", f"{HEADER}\n{ROW}\udcff")],
    (f"{HEADER}\n0,0,0.5,0.1,0,0.5,0.1,0,inf,0.2\n0,1,0.5,0.1,0,0.5,0.1,0,nan,0.3\n",
     "{path}: generation 0: no member has a finite average error on the linear channel"),
]


@pytest.mark.parametrize(
    "text, message", GENERATIONS_REJECTIONS, ids=[f"row-{i}" for i in range(len(GENERATIONS_REJECTIONS))]
)
def test_load_generations_names_the_file_and_line_it_rejects(text, message, tmp_path):
    path = tmp_path / "generations.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    # only a generation without a finite error is an EvaluationError, naming that generation
    expected = EvaluationError if "generation 0:" in message else ValueError
    with pytest.raises(expected) as excinfo:
        load_generations(path)
    assert str(excinfo.value).startswith(message.format(path=path))
    assert getattr(excinfo.value, "generation", None) == (0 if expected is EvaluationError else None)


def test_export_generations_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        export_generations([], tmp_path / "generations.csv")


# ---------------------------------------------------------------- the CSV writer

CSV_CHUNK = evopid.plant._CSV_CHUNK
CSV_ROW_COUNTS = (1, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1, 2 * CSV_CHUNK + 1)
# values a slip in the writer would show: both zeros, the divergence stand-in, subnormals, infinities
EDGE_FLOATS = (0.0, -0.0, DIVERGENCE_AE, 5e-324, sys.float_info.min / 3, math.inf, -math.inf, 0.1, 0.7)


def _c_formats_cells() -> bool:
    """Whether the C kernel loads here with its CSV cell formatter."""
    return evopid.plant._c_kernel() is not None and evopid.plant._c_csv() is not None


# the two ways _write_csv writes a chunk: the C kernel's evopid_csv, or its Python twin, as where no kernel loads
CSV_WRITERS = ["c", "python"]


@contextlib.contextmanager
def csv_writer(writer: str):
    """Make _write_csv write through the C kernel's evopid_csv ("c"; skipped where it writes no cell) or its Python
    twin ("python"); yields the first row of each chunk the twin writes."""
    if writer == "c" and not _c_formats_cells():
        pytest.skip("no C kernel that formats cells loads here")
    saved_kernel, saved_twin = evopid.plant._c_kernel, evopid.plant._csv_rows_py
    starts = []

    def twin(columns, start, rows):
        starts.append(start)
        return saved_twin(columns, start, rows)

    evopid.plant._csv_rows_py = twin
    if writer == "python":
        evopid.plant._c_kernel = lambda: None
    try:
        yield starts
    finally:
        evopid.plant._c_kernel, evopid.plant._csv_rows_py = saved_kernel, saved_twin


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


@pytest.mark.parametrize("writer", CSV_WRITERS)
@pytest.mark.parametrize("rows", CSV_ROW_COUNTS)
def test_write_csv_writes_the_row_writers_bytes_around_chunk_bounds(rows, writer, tmp_path):
    with csv_writer(writer):
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
    # each example through both writers, C where it loads, as making the columns and the row writer's bytes take
    # most of the time
    tmp_path = tmp_path_factory.mktemp("csv")
    header = [f"c{j}" for j in range(len(columns))]
    write_csv_rows(tmp_path / "rows.csv", header, columns)
    for writer in CSV_WRITERS if _c_formats_cells() else ["python"]:
        with csv_writer(writer):
            _write_csv(tmp_path / f"{writer}.csv", header, [_as_array(column) for column in columns])
        assert (tmp_path / f"{writer}.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes(), writer


@pytest.mark.parametrize("writer", CSV_WRITERS)
@pytest.mark.parametrize("rows", CSV_ROW_COUNTS)
def test_write_csv_writes_the_numpy_writers_bytes(rows, writer, tmp_path):
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
    with csv_writer(writer) as twin_starts:
        _write_csv(tmp_path / "arrays.csv", header, [_as_array(column) for column in columns])
    numpy_write_csv(tmp_path / "ndarrays.csv", header, columns)
    written = (tmp_path / "arrays.csv").read_bytes()
    assert written == (tmp_path / "ndarrays.csv").read_bytes()
    assert written.count(b"\n") == 1 + rows
    # C writes every cell here, and the twin every chunk where it writes
    assert twin_starts == ([] if writer == "c" else list(range(0, rows, CSV_CHUNK)))


def test_write_csv_takes_the_twin_for_a_chunk_with_a_cell_c_does_not_write(tmp_path):
    # one subnormal in the middle chunk of three: that chunk alone goes to the twin, and the bytes stay the row
    # writer's
    rows = 2 * CSV_CHUNK + 5
    tiny = np.full(rows, 0.5)
    tiny[CSV_CHUNK + 7] = 5e-324
    columns = [np.arange(rows) * 0.02, tiny, np.arange(rows, dtype=np.int64) - 300]
    with csv_writer("c") as twin_starts:
        written, expected = _write_both(tmp_path, columns)
    assert written == expected
    assert twin_starts == [CSV_CHUNK]


def test_write_csv_copies_repeated_cells_as_the_twin_writes_them(tmp_path):
    # evopid_csv copies the text of the cell above where the bits are equal: runs of equal cells, one across the first
    # chunk bound, 0.0 and -0.0 alternating (equal values, unequal bits), and runs of the longest cells, 24 bytes with
    # the separator
    rows = 2 * CSV_CHUNK + 3
    columns = [
        array("d", [0.1] * (CSV_CHUNK - 5) + [1e-05] * 10 + [123.456] * (rows - CSV_CHUNK - 5)),
        array("d", [0.0, -0.0] * CSV_CHUNK + [0.0, -0.0, -0.0]),
        array("d", ([2.5, 2.5, -2.5, -2.5, 1 / 3] * CSV_CHUNK)[: rows - 3] + [-1.2345678901234567e-05] * 3),
        array("q", [k // 7 for k in range(rows - 3)] + [-(2**63)] * 3),
        array("d", [k * 0.02 for k in range(rows - 3)] + [DIVERGENCE_AE] * 3),
    ]
    header = [f"c{j}" for j in range(len(columns))]
    with csv_writer("c") as twin_starts:
        _write_csv(tmp_path / "out.csv", header, columns)
    assert twin_starts == []
    want = (",".join(header) + "\n").encode() + evopid.plant._csv_rows_py(columns, 0, rows)
    assert (tmp_path / "out.csv").read_bytes() == want


@pytest.mark.parametrize(
    "columns",
    [
        [array("d", [0.5]), [0.5]],
        [array("d", [0.5]), array("f", [0.5])],
        [array("d", [0.5, 1.0]), array("q", [1])],
        [np.array([0.5])],
    ],
    ids=["list", "array-of-floats", "unequal-lengths", "ndarray"],
)
def test_write_csv_rejects_columns_c_cannot_read(columns, tmp_path):
    # evopid_csv reads each column by its address, so only array("d") and array("q") columns of one length pass
    with pytest.raises(ValueError, match=re.escape("the CSV columns must be array('d')s or array('q')s of one length")):
        _write_csv(tmp_path / "out.csv", [f"c{j}" for j in range(len(columns))], columns)
    assert not (tmp_path / "out.csv").exists()


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


@pytest.mark.parametrize(
    "aes", [(DIVERGENCE_AE, 0.5), (0.5, DIVERGENCE_AE), (DIVERGENCE_AE, DIVERGENCE_AE)],
    ids=["linear", "angular", "both"],
)
def test_run_experiment_refuses_a_run_only_when_every_member_diverged_on_both_channels(aes, tmp_path, monkeypatch):
    # every member's AE is the divergence stand-in on one channel; a finite one on the other still leaves gains worth
    # replaying
    def stand_in(rows, route, *args):
        return array("d", [*aes, 0.0, 0.0] * (len(rows) // 6))

    monkeypatch.setattr(evopid.harness, "_fitness_rows", stand_in)
    spec = build_experiment_spec(2, seed=0, output_dir=tmp_path / "out", overrides={"ep.max_generations": 3})
    if aes == (DIVERGENCE_AE, DIVERGENCE_AE):
        message = "^all 30 members of 3 generations diverged on the train route; there are no gains to replay$"
        with pytest.raises(EvaluationError, match=message):
            run_experiment(spec)
        assert not (tmp_path / "out").exists()
    else:
        assert run_experiment(spec).generations_run == 3
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == [
            "best_test_trace.csv", "best_train_trace.csv", "generations.csv", "result.json"
        ]


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


