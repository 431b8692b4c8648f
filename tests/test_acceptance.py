"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import math
import random
import re
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from evopid import (
    ChannelTrace,
    EPConfig,
    GainGrid,
    Individual,
    MutationKind,
    MutationSpec,
    StopReason,
    build_experiment_spec,
    fitness_of,
    grid_oracle,
    load_generations,
    render_result_table,
    run_ep,
    run_experiment,
)
from evopid.cli import cli_main
from evopid.ep import _mutate
from reference import average_error, mutate_absolute, mutate_scaled

MUTATION_PROBE_VALUES = (0.0, 1e-9, 0.01, 0.1, 1.0)


@contextmanager
def criterion(num, title):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {title}")
        raise
    print(f"[PASS] criterion {num:2d}: {title} ({time.monotonic() - start:.1f}s)")


def _composite_parent_flat(record):
    linear = record.members[record.fittest_linear_index].individual.linear
    angular = record.members[record.fittest_angular_index].individual.angular
    return linear.as_tuple() + angular.as_tuple()


def _assert_zero_parameters_absorbing(history):
    """Once the selected parent's parameter is exactly 0, every later member's is too."""
    absorbed = [False] * 6
    for record in history:
        for f in range(6):
            if absorbed[f]:
                assert all(
                    m.individual.as_flat()[f] == 0.0 for m in record.members
                ), f"parameter {f} left zero in generation {record.generation_index}"
        parent = _composite_parent_flat(record)
        for f in range(6):
            if parent[f] == 0.0:
                absorbed[f] = True
    return sum(absorbed)


@pytest.fixture(scope="module")
def exp2_sweep(plant, sim, train_route):
    """Ten full experiment-2 tuning runs (seeds 0..9), shared by criteria 4 and 9."""
    start = time.monotonic()
    runs = []
    for seed in range(10):
        config = EPConfig(
            population_size=10, mutation=MutationSpec(MutationKind.SCALED), rng_seed=seed
        )
        result = run_ep(config, lambda ind: fitness_of(ind, train_route, plant, sim))
        runs.append((seed, result))
    return runs, time.monotonic() - start


def _mutants_of_value(value, kind, count, rng):
    """_mutate's ``count`` mutant rows of a parent holding ``value`` in all six gains, with the preset sigmas."""
    return _mutate((value,) * 6, EPConfig(population_size=count + 1, mutation=MutationSpec(kind)), rng)


def test_criterion_01_mutation_safety():
    title = "mutation safety: 1e5 draws per operator terminate, stay nonnegative and match the reference in < 5 s"
    with criterion(1, title):
        start = time.monotonic()
        for kind in MutationKind:
            rng, reference_rng = random.Random(9001), random.Random(9001)
            spec = MutationSpec(kind)
            scaled = kind is MutationKind.SCALED
            op, sigma = (mutate_scaled, spec.sigma_scaled) if scaled else (mutate_absolute, spec.sigma_absolute)
            # 3,334 mutants of six gains per probe value: 20,004 draws each, 100,020 per operator
            for value in MUTATION_PROBE_VALUES:
                children = _mutants_of_value(value, kind, 3_334, rng)
                assert len(children) == 3_334
                assert all(v >= 0.0 for child in children for v in child)
                # bit for bit the reference operator's gains, one gauss call per gain on a second generator
                expected = [op(value, sigma, reference_rng).hex() for _ in range(6 * 3_334)]
                assert [v.hex() for child in children for v in child] == expected
            assert rng.getstate() == reference_rng.getstate()
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"mutation safety sweep took {elapsed:.2f}s"


def test_criterion_02_zero_absorption(tmp_path):
    with criterion(2, "zero absorption: scaled mutation never leaves 0; zeroed parameters stay zero in a full run"):
        for seed in range(10_000):
            assert _mutants_of_value(0.0, MutationKind.SCALED, 1, random.Random(seed)) == [(0.0,) * 6]

        # full experiment-2 run: any parameter the selected parent holds at exactly
        # zero must stay zero in every later generation
        spec = build_experiment_spec(2, seed=0, output_dir=tmp_path / "standard")
        run_experiment(spec)
        _assert_zero_parameters_absorbing(load_generations(spec.output_dir / "generations.csv"))

        # companion run that pins both kd gains at exactly 0 from the start, so the
        # absorption claim is exercised on every generation rather than vacuously
        pinned = build_experiment_spec(
            2,
            seed=0,
            output_dir=tmp_path / "pinned",
            overrides={"init.kd.low": 0.0, "init.kd.high": 0.0},
        )
        run_experiment(pinned)
        history = load_generations(pinned.output_dir / "generations.csv")
        absorbed = _assert_zero_parameters_absorbing(history)
        assert absorbed >= 2, "kd parameters never hit zero in the pinned run"
        for record in history:
            assert all(m.individual.linear.kd == 0.0 for m in record.members)
            assert all(m.individual.angular.kd == 0.0 for m in record.members)


def test_criterion_03_elitism_monotonicity(plant, sim, train_route):
    with criterion(3, "elitism: per-channel best AE is monotone non-increasing over 100 generations in < 60 s"):
        start = time.monotonic()
        config = EPConfig(
            population_size=10, mutation=MutationSpec(MutationKind.SCALED), rng_seed=1234
        )
        _, history, _ = run_ep(config, lambda ind: fitness_of(ind, train_route, plant, sim))
        elapsed = time.monotonic() - start
        assert len(history) == 100
        best_lin = [min(m.ae_linear for m in r.members) for r in history]
        best_ang = [min(m.ae_angular for m in r.members) for r in history]
        assert all(b <= a for a, b in zip(best_lin, best_lin[1:]))
        assert all(b <= a for a, b in zip(best_ang, best_ang[1:]))
        assert elapsed < 60.0, f"experiment run took {elapsed:.2f}s"


def test_criterion_04_oracle_comparison(exp2_sweep, plant, sim, train_route):
    with criterion(4, "EP matches or beats the coarse grid oracle on >= 8 of 10 seeds in < 10 min"):
        runs, sweep_elapsed = exp2_sweep
        start = time.monotonic()
        grid = GainGrid(
            kp_values=tuple(i * 0.05 for i in range(21)),
            ki_values=tuple(i * 0.01 for i in range(11)),
            kd_values=(0.0,),
        )
        oracle = grid_oracle(train_route, plant, sim, grid)
        oracle_elapsed = time.monotonic() - start

        wins = 0
        for seed, result in runs:
            ae_lin = min(m.ae_linear for r in result.history for m in r.members)
            ae_ang = min(m.ae_angular for r in result.history for m in r.members)
            if ae_lin <= oracle.ae_linear and ae_ang <= oracle.ae_angular:
                wins += 1
        print(
            f"  [report] EP beats grid oracle (lin {oracle.ae_linear:.4f} / "
            f"ang {oracle.ae_angular:.4f}) on {wins}/10 seeds"
        )
        assert wins >= 8, f"EP beat the grid oracle on only {wins}/10 seeds"
        assert sweep_elapsed + oracle_elapsed < 600.0


def test_criterion_05_average_error_oracle_equivalence():
    with criterion(5, "streaming average error matches brute-force recomputation within 1e-12 on 100 traces"):
        rng = np.random.default_rng(5)
        t = np.arange(300) * 0.02
        for _ in range(100):
            desired = rng.uniform(-1.0, 1.0, size=300)
            actual = rng.uniform(-1.0, 1.0, size=300)
            streamed = average_error(ChannelTrace(t, desired, actual))
            brute = math.fsum(abs(float(d) - float(a)) for d, a in zip(desired, actual)) / 300
            assert abs(streamed - brute) < 1e-12


def test_criterion_06_byte_identical_reruns(tmp_path):
    with criterion(6, "two runs of `tune --experiment 3 --seed 42` write byte-identical generations.csv"):
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            rc = cli_main(["tune", "--experiment", "3", "--seed", "42", "--out", str(out)])
            assert rc == 0
            outputs.append((out / "generations.csv").read_bytes())
        assert outputs[0] == outputs[1]


def test_criterion_07_stop_criterion():
    with criterion(7, "a fitness below target on both channels stops the loop after one generation"):
        calls = []

        def evaluator(individual):
            calls.append(individual)
            return (0.005, 0.005)

        config = EPConfig(population_size=10, rng_seed=3)
        _, history, stop_reason = run_ep(config, evaluator)
        assert stop_reason is StopReason.TARGET_REACHED
        assert len(history) == 1
        assert len(calls) == config.population_size


def test_criterion_08_zero_gain_fitness_fixture(plant, sim, train_route, test_route):
    with criterion(8, "zero gains give AE 0.3 on the train route and 0.4 on the test route (1e-9)"):
        zero = Individual.from_flat([0.0] * 6)
        train = fitness_of(zero, train_route, plant, sim)
        test = fitness_of(zero, test_route, plant, sim)
        assert abs(train.ae_linear - 0.3) < 1e-9
        assert abs(train.ae_angular - 0.3) < 1e-9
        assert abs(test.ae_linear - 0.4) < 1e-9
        assert abs(test.ae_angular - 0.4) < 1e-9


def test_criterion_09_derivative_gain_collapse(exp2_sweep):
    with criterion(9, "derivative gains shrink below their median initial draws on >= 6 of 10 seeds"):
        runs, _ = exp2_sweep
        decreases = 0
        initial_kdv, initial_kda, final_kdv, final_kda = [], [], [], []
        for seed, result in runs:
            gen0 = result.history[0].members
            med_kdv = statistics.median(m.individual.linear.kd for m in gen0)
            med_kda = statistics.median(m.individual.angular.kd for m in gen0)
            initial_kdv.append(med_kdv)
            initial_kda.append(med_kda)
            final_kdv.append(result.best.linear.kd)
            final_kda.append(result.best.angular.kd)
            if result.best.linear.kd < med_kdv and result.best.angular.kd < med_kda:
                decreases += 1
        med_final_v = statistics.median(final_kdv)
        med_final_a = statistics.median(final_kda)
        med_init_v = statistics.median(initial_kdv)
        med_init_a = statistics.median(initial_kda)
        print(
            f"  [report] median kdv {med_init_v:.2e} -> {med_final_v:.2e}, "
            f"median kda {med_init_a:.2e} -> {med_final_a:.2e}, decrease on {decreases}/10 seeds"
        )
        assert med_final_v < med_init_v
        assert med_final_a < med_init_a
        assert decreases >= 6, f"derivative gain decreased on only {decreases}/10 seeds"


def test_criterion_10_result_format_fidelity(tmp_path):
    with criterion(10, "result.json and the rendered summary carry exactly kp/ki/kd/AE-train/AE-test per channel"):
        spec = build_experiment_spec(
            1, seed=0, output_dir=tmp_path, overrides={"ep.max_generations": 5}
        )
        record = run_experiment(spec)
        payload = json.loads((spec.output_dir / "result.json").read_text())
        for channel in ("linear", "angular"):
            assert set(payload["result"][channel]) == {"kp", "ki", "kd", "ae_train", "ae_test"}
        table = render_result_table([record])
        header = re.split(r"\s{2,}", table.splitlines()[0].strip())
        assert header == ["Experiment", "Type", "kp", "ki", "kd", "AE train", "AE test"]
        assert len(table.splitlines()) == 1 + 2  # one Linear and one Angular row per experiment
