import ast
import dataclasses
import itertools
import math
import random
import re
import sys
import types
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import evopid
import evopid.plant
from evopid import (
    EPConfig,
    EvaluationError,
    Gains,
    GenerationRecord,
    Individual,
    InitSpec,
    MemberRecord,
    MutationKind,
    MutationSpec,
    StopReason,
    build_experiment_spec,
    run_ep,
)
from evopid.ep import _MAX_MEMBERS, _argmin_finite, _initial_rows, _mutate, _mutate_py, evolve
from evopid.metrics import _fitness_rows, fitness_of
from reference import evolve_reference, generation_record, member_rows, mutate_absolute, mutate_scaled


class FakeRng(random.Random):
    """A random.Random whose random() replays scripted uniforms, for hand-traced mutation cases.

    _mutate's inline draws and the reference operators' rng.gauss, which calls self.random(), read the same
    stream, and getstate() holds the spare normal either leaves in gauss_next.
    """

    def __init__(self, uniforms):
        super().__init__(0)
        self.uniforms = list(uniforms)

    def random(self):
        return self.uniforms.pop(0)


def uniforms_for(normals):
    """Uniforms from which gauss draws ``normals`` (times sigma) to within rounding: Box-Muller inverted pair by pair.

    An odd last normal is paired with 1.0. gauss reaches |z| up to about 8.5 only, so a test scales larger or
    nonfinite draws by its sigma: z = 2 at sigma 1e308 draws inf.
    """
    normals = list(normals) + [1.0] * (len(normals) % 2)
    uniforms = []
    for z, spare in zip(normals[::2], normals[1::2]):
        uniforms += [math.atan2(spare, z) % math.tau / math.tau, -math.expm1(-(z * z + spare * spare) / 2.0)]
    return uniforms


def scripted(normals, sigma):
    """uniforms_for(normals) and the draws rng.gauss(0.0, sigma) makes from them, checked near normals * sigma."""
    uniforms = uniforms_for(normals)
    rng = FakeRng(uniforms)
    draws = [rng.gauss(0.0, sigma) for _ in normals]
    # a pair of small normals is coarse: 1 - random() near 1 carries their squared radius in its last bits
    assert draws == pytest.approx([z * sigma for z in normals], rel=1e-9, abs=1e-7 * sigma)
    return uniforms, draws


def halving_reference(value: float, add: float) -> float:
    """Closed-form counterpart of the halving loop: value + add*2^-m for the
    smallest integer m >= 0 making the sum nonnegative."""
    if value == 0.0 and add < 0.0:
        return 0.0
    if value + add >= 0.0:
        return value + add
    m0 = max(0, math.ceil(math.log2(-add / value)))
    for m in range(max(0, m0 - 2), m0 + 3):
        candidate = value + add * 0.5**m
        if candidate >= 0.0:
            return candidate
    raise AssertionError("closed-form scan window missed the crossing")


# ---------------------------------------------------------------- mutation
# _mutate is evolve's one mutation entry: the C kernel's evopid_mutate where it applies, else its twin _mutate_py;
# these tests drive it through mutants, and tests/test_kernel.py holds the C path to the twin


def mutants(parent, spec, rng, count=1):
    """The ``count`` mutants _mutate makes of the Individual ``parent``, as Individuals."""
    rows = _mutate(parent.as_flat(), EPConfig(population_size=count + 1, mutation=spec), rng)
    return tuple(map(Individual.from_flat, rows))


def mutated_value(kind, value, sigma, rng):
    """The six gains of _mutate's one mutant of a parent that holds ``value`` in all six, or a list's six."""
    spec = MutationSpec(kind, sigma_absolute=sigma, sigma_scaled=sigma)
    (child,) = mutants(Individual.from_flat(value if isinstance(value, list) else [value] * 6), spec, rng)
    return child.as_flat()


def test_mutate_absolute_halving_trace():
    # steps near -0.1 on gains of half their size: one halving lands exactly on zero
    uniforms, draws = scripted([-2.0] * 6, 0.05)
    assert mutated_value(MutationKind.ABSOLUTE, [-0.5 * d for d in draws], 0.05, FakeRng(uniforms)) == (0.0,) * 6


def test_mutate_absolute_zero_value_negative_draw_returns_zero():
    uniforms, _ = scripted([-1.0] * 6, 0.5)
    assert mutated_value(MutationKind.ABSOLUTE, 0.0, 0.5, FakeRng(uniforms)) == (0.0,) * 6


def test_mutate_absolute_no_halving_needed():
    uniforms, draws = scripted([0.6] * 6, 0.05)
    assert mutated_value(MutationKind.ABSOLUTE, 1.0, 0.05, FakeRng(uniforms)) == tuple(1.0 + d for d in draws)


def test_mutate_scaled_long_halving_trace():
    # draws near -20: add = 0.1 * -20 = -2; five halvings reach -0.0625 and 0.1 - 0.0625 >= 0
    uniforms, draws = scripted([-4.0] * 6, 5.0)
    result = mutated_value(MutationKind.SCALED, 0.1, 5.0, FakeRng(uniforms))
    assert result[0] == pytest.approx(0.0375, rel=1e-12)
    assert result == tuple(halving_reference(0.1, 0.1 * d) for d in draws)


def test_mutate_scaled_moderate_draw():
    uniforms, draws = scripted([0.1] * 6, 0.5)
    result = mutated_value(MutationKind.SCALED, 0.1, 0.5, FakeRng(uniforms))
    assert result[0] == pytest.approx(0.105, rel=1e-12)
    assert result == tuple(0.1 + 0.1 * d for d in draws)


def test_mutate_scaled_zero_is_absorbing():
    for seed in range(100):
        assert mutated_value(MutationKind.SCALED, 0.0, 0.5, random.Random(seed)) == (0.0,) * 6


@pytest.mark.parametrize("op", [mutate_absolute, mutate_scaled])
@pytest.mark.parametrize(
    "value, sigma, message",
    [
        (-0.1, 0.05, "value must be finite and >= 0, got -0.1"),
        (math.nan, 0.05, "value must be finite and >= 0, got nan"),
        (-0.1, 0.0, "value must be finite and >= 0, got -0.1"),  # the value is checked first
        (0.1, 0.0, "sigma must be > 0, got 0.0"),
        (0.1, -1.0, "sigma must be > 0, got -1.0"),
        (0.1, math.nan, "sigma must be > 0, got nan"),
    ],
)
def test_the_reference_operators_reject_bad_arguments(op, value, sigma, message, time_limit):
    # a negative gain would never end the halving loop
    with time_limit(5), pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        op(value, sigma, random.Random(0))


@pytest.mark.parametrize("kind", list(MutationKind))
def test_epconfig_rejects_specs_that_skipped_their_checks(kind):
    # a duck-typed spec could hand evolve a sigma <= 0, or a bound below 0 from which generation 0 would draw a gain
    # that never ends the halving loop; EPConfig takes only the checked types, so _mutate checks neither again
    for sigma in (0.0, -1.0, math.nan, 0.05):
        spec = types.SimpleNamespace(kind=kind, sigma_absolute=sigma, sigma_scaled=sigma)
        with pytest.raises(ValueError, match=r"^mutation must be an instance of MutationSpec, got namespace\("):
            EPConfig(population_size=2, mutation=spec)
    for low in (-0.1, math.nan, 0.0):
        init = types.SimpleNamespace(kp_bounds=(low, 0.5), ki_bounds=(0.0, 0.1), kd_bounds=(0.0, 0.01))
        with pytest.raises(ValueError, match=r"^init must be an instance of InitSpec, got namespace\("):
            EPConfig(population_size=2, init=init)
    EPConfig(population_size=2, mutation=MutationSpec(kind), init=InitSpec(kp_bounds=(0.0, 0.5)))


@given(
    value=st.floats(min_value=1e-9, max_value=10.0),
    draw=st.floats(min_value=-100.0, max_value=100.0),
)
@pytest.mark.parametrize("kind", list(MutationKind))
def test_mutate_matches_halving_reference(kind, value, draw):
    # sigma 25 puts every draw within gauss's reach of |z| < 8.5
    uniforms, draws = scripted([draw / 25.0] * 6, 25.0)
    result = mutated_value(kind, value, 25.0, FakeRng(uniforms))
    assert min(result) >= 0.0
    assert all(math.isfinite(v) for v in result)
    scale = value if kind is MutationKind.SCALED else 1.0
    assert result == tuple(halving_reference(value, scale * d) for d in draws)


@given(value=st.sampled_from([0.0, 1e-9, 0.01, 0.1, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_mutation_operators_nonnegative(value, seed):
    assert min(mutated_value(MutationKind.ABSOLUTE, value, 0.05, random.Random(seed))) >= 0.0
    assert min(mutated_value(MutationKind.SCALED, value, 0.5, random.Random(seed))) >= 0.0


def test_mutate_individual_zero_parent_stays_zero_under_scaling():
    parent = Individual.from_flat([0.0] * 6)
    spec = MutationSpec(MutationKind.SCALED)
    assert mutants(parent, spec, random.Random(42)) == (parent,)


def test_mutate_individual_draw_order_is_flat_order():
    parent = Individual.from_flat([1.0] * 6)
    spec = MutationSpec(MutationKind.ABSOLUTE)
    uniforms, draws = scripted([0.2, 0.4, 0.6, 0.8, 1.0, 1.2], 0.05)  # draws near 0.01, 0.02, ..., 0.06
    (child,) = mutants(parent, spec, FakeRng(uniforms))
    assert child.as_flat() == tuple(1.0 + d for d in draws)


def test_mutate_individual_deterministic_and_valid():
    parent = Individual(Gains(0.5, 0.01, 0.001), Gains(0.8, 0.05, 0.002))
    spec = MutationSpec(MutationKind.SCALED)
    a = mutants(parent, spec, random.Random(7), count=5)
    b = mutants(parent, spec, random.Random(7), count=5)
    assert a == b
    assert all(v >= 0 and math.isfinite(v) for child in a for v in child.as_flat())


@pytest.mark.parametrize(
    "op, value, draw",
    [
        (mutate_absolute, 1.0, -math.inf),
        (mutate_absolute, 1.0, math.inf),
        (mutate_absolute, 0.0, math.nan),
        (mutate_scaled, 1e10, -1e300),  # value * draw overflows to -inf
        (mutate_scaled, 1e10, 1e300),
        (mutate_scaled, 0.0, math.inf),  # 0 * inf is nan, even on the absorbing 0
    ],
)
def test_nonfinite_step_is_rejected_before_halving(op, value, draw, time_limit):
    # halving -inf gives -inf, so the clamp loop would never end on it: every nonfinite step is an error, both in
    # the reference operator and in _mutate on a parent holding the value. An infinite draw is a normal
    # of 2 at sigma 1e308; gauss never draws nan from a uniform in [0, 1), so a nan uniform scripts that draw
    kind = MutationKind.SCALED if op is mutate_scaled else MutationKind.ABSOLUTE
    if math.isnan(draw):
        sigma, uniforms = 0.5, [math.nan, 0.5]
    else:
        sigma = 1e308
        uniforms, _ = scripted([math.copysign(2.0, draw) if math.isinf(draw) else draw / sigma], sigma)
    step = value * draw if op is mutate_scaled else draw
    message = f"^mutating {re.escape(repr(value))} with sigma {re.escape(repr(sigma))} drew a nonfinite step {step!r}$"
    for mutate in (
        lambda: op(value, sigma, FakeRng(uniforms)),
        lambda: mutated_value(kind, value, sigma, FakeRng(uniforms)),
    ):
        with time_limit(5), pytest.raises(ValueError, match=message):
            mutate()


@pytest.mark.parametrize("kind", list(MutationKind))
def test_mutate_individual_rejects_a_nonfinite_step(kind, time_limit):
    # the third draw is -inf (a normal of -2 at sigma 1e308), or under scaling overflows to -inf (1e10 times about
    # -2e298); the spare after it stays in gauss_next and the last pair's uniforms stay unread
    sigma = 1e298 if kind is MutationKind.SCALED else 1e308
    parent = Individual.from_flat([1e10] * 6)
    uniforms, _ = scripted([0.1, 0.2, -2.0, 0.4, 0.5, 0.6], sigma)
    rng, reference_rng = FakeRng(uniforms), FakeRng(uniforms)
    spec = MutationSpec(kind, sigma_absolute=sigma, sigma_scaled=sigma)
    message = r"^mutating 10000000000\.0 with sigma .* drew a nonfinite step -inf$"
    with pytest.raises(ValueError, match=message):
        mutate_by_operators(parent, spec, reference_rng)
    with time_limit(5), pytest.raises(ValueError, match=message):
        mutants(parent, spec, rng)
    assert rng.uniforms == reference_rng.uniforms == uniforms[4:]
    assert rng.gauss_next == pytest.approx(0.4)
    assert rng.getstate() == reference_rng.getstate()


def mutate_by_operators(parent, spec, rng):
    """One mutant from the reference operators, with their argument checks, on each gain in turn."""
    if spec.kind is MutationKind.SCALED:
        op, sigma = mutate_scaled, spec.sigma_scaled
    else:
        op, sigma = mutate_absolute, spec.sigma_absolute
    return Individual.from_flat([op(v, sigma, rng) for v in parent.as_flat()])


def names_in(path):
    """Each AST node of a Python file with the names it defines, imports or reads."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        yield node, {getattr(node, field, None) for field in ("name", "asname", "id", "attr")}


def test_the_package_has_one_mutation_path():
    # the per-value operators live in tests/reference.py: no module of the package defines, imports or names one,
    # nor the one-mutant view or the generator that _mutate has absorbed; and evolve alone builds a generation, so
    # neither do the object views that drew, mutated or logged one outside it
    copies = {"mutate_absolute", "mutate_scaled", "mutate_individual", "_mutants"}
    copies |= {"init_population", "next_generation", "from_evaluations"}
    for path in sorted(Path(evopid.__file__).parent.glob("*.py")):
        for node, names in names_in(path):
            assert not names & copies, (path.name, node.lineno)
    assert not copies & set(dir(evopid))
    # the reference EP loop shares no code with evolve: tests/reference.py names none of evolve's parts
    internals = {"evolve", "_initial_rows", "_mutate", "_mutate_py", "_from_rows", "_argmin_finite"}
    for node, names in names_in(Path(__file__).with_name("reference.py")):
        assert not names & internals, ("reference.py", node.lineno)


# zero gains (absorbing under the scaled operator), ordinary ones, and ones so large that a step overflows
gain_values = st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(1e300, 1.7e308))
triples = st.builds(Gains, gain_values, gain_values, gain_values)


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    parent=st.builds(Individual, triples, triples),
    kind=st.sampled_from(MutationKind),
    sigma=st.sampled_from([0.05, 0.5, 1e300, 1e308]),
    seed=st.integers(0, 2**32 - 1),
)
@example(parent=Individual.from_flat([0.0] * 6), kind=MutationKind.SCALED, sigma=0.5, seed=0)  # stays at 0
@example(parent=Individual.from_flat([0.5, 0.0, 1.7e308] * 2), kind=MutationKind.SCALED, sigma=0.5, seed=2)  # kd: inf
@example(parent=Individual.from_flat([1e300] * 6), kind=MutationKind.SCALED, sigma=1e300, seed=0)  # step: inf
@example(parent=Individual.from_flat([0.5] * 6), kind=MutationKind.ABSOLUTE, sigma=1e308, seed=5)  # step: -inf
def test_mutate_individual_matches_the_public_operators(parent, kind, sigma, seed, time_limit):
    # _mutate's one mutant against the reference operators: the same gains, bit for bit, or the same
    # error, and the generator left in the same state
    spec = MutationSpec(kind, sigma_absolute=sigma, sigma_scaled=sigma)
    rng, reference_rng = random.Random(seed), random.Random(seed)
    with time_limit(5):
        try:
            expected = mutate_by_operators(parent, spec, reference_rng)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                mutants(parent, spec, rng)
        else:
            (got,) = mutants(parent, spec, rng)
            assert [v.hex() for v in got.as_flat()] == [v.hex() for v in expected.as_flat()]
    assert rng.getstate() == reference_rng.getstate()


# ---------------------------------------------------------------- init


def test_initial_rows_degenerate_interval():
    config = EPConfig(population_size=5, init=InitSpec(kp_bounds=(0.5, 0.5)))
    rows = _initial_rows(config, random.Random(11))
    assert all(row[0] == 0.5 and row[3] == 0.5 for row in rows)


def test_initial_rows_deterministic():
    config = EPConfig(population_size=10, rng_seed=3)
    assert _initial_rows(config, random.Random(3)) == _initial_rows(config, random.Random(3))


def test_initial_rows_within_bounds():
    config = EPConfig(population_size=10)
    rows = _initial_rows(config, random.Random(0))
    assert len(rows) == 10
    for row in rows:
        for kp, ki, kd in (row[:3], row[3:]):
            assert 0.0 <= kp <= 1.0
            assert 0.0 <= ki <= 0.1
            assert 0.0 <= kd <= 0.01


def test_initial_rows_sample_statistics():
    # kpv draws are U(0, 1); over many seeds their mean sits within 3 standard errors of 0.5
    config = EPConfig(population_size=10)
    draws = []
    for seed in range(300):
        draws.extend(row[0] for row in _initial_rows(config, random.Random(seed)))
    n = len(draws)
    stderr = math.sqrt(1.0 / 12.0 / n)
    assert abs(sum(draws) / n - 0.5) < 3 * stderr


# ---------------------------------------------------------------- selection


def record_of(generation, members):
    """The GenerationRecord evolve builds from these MemberRecords' rows."""
    return GenerationRecord._from_rows(generation, member_rows(members))


def _fittest(ae_pairs):
    """The program's per-channel winners of members scoring ``ae_pairs``, checked against the reference's scan."""
    members = tuple(
        MemberRecord(Individual.from_flat([0.1 * (i + 1)] * 6), lin, ang)
        for i, (lin, ang) in enumerate(ae_pairs)
    )
    program, reference = record_of(0, members), generation_record(0, members)
    fittest = program.fittest_linear_index, program.fittest_angular_index
    assert fittest == (reference.fittest_linear_index, reference.fittest_angular_index)
    return fittest


@pytest.mark.parametrize(
    "ae_pairs, fittest",
    [
        ([(0.3, 0.05), (0.1, 0.4), (0.2, 0.4)], (1, 0)),
        ([(0.7, 0.9)], (0, 0)),
        ([(0.2, 0.5), (0.2, 0.5)], (0, 0)),
        ([(math.nan, 0.2), (0.5, math.inf), (0.6, 0.3)], (1, 0)),
    ],
    ids=["independent-channels", "single-member", "tie-to-lowest-index", "nonfinite-skipped"],
)
def test_select_fittest(ae_pairs, fittest):
    assert _fittest(ae_pairs) == fittest


def test_select_fittest_all_nonfinite_raises():
    for lin, ang, channel in ((math.nan, 0.5, "linear"), (0.5, math.inf, "angular")):
        members = tuple(MemberRecord(Individual.from_flat([0.1] * 6), lin, ang) for _ in range(3))
        message = f"^generation 4: no member has a finite average error on the {channel} channel$"
        for build in (record_of, generation_record):
            with pytest.raises(EvaluationError, match=message) as excinfo:
                build(4, members)
            assert excinfo.value.generation == 4


def test_select_fittest_matches_a_scan_over_signed_zeros_nans_and_infinities():
    # the first index of the least finite value, against a plain scan; a NaN or -inf anywhere must not decide it
    specials = (0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, 1.0, 5e-324)
    rng = random.Random(0)
    for _ in range(2000):
        values = [rng.choice(specials) for _ in range(rng.randint(0, 6))]
        finite = [i for i, v in enumerate(values) if math.isfinite(v)]
        expected = min(finite, key=lambda i: (values[i], i)) if finite else None
        assert _argmin_finite(array("d", values)) == _argmin_finite(values) == expected, values


# ---------------------------------------------------------------- next generation


def test_evolve_splices_composite_parent():
    # generation 0 scores (0.5, 0.1), (0.1, 0.5), (0.9, 0.9): generation 1's member 0 is the unmutated composite of
    # member 1's linear gains and member 0's angular ones
    config = EPConfig(population_size=3, max_generations=2, rng_seed=1)
    pop = list(map(Individual.from_flat, _initial_rows(config, random.Random(1))))
    aes = dict(zip(pop, [(0.5, 0.1), (0.1, 0.5), (0.9, 0.9)]))

    def score(batch):
        return [aes.get(Individual.from_flat(batch[i : i + 6]), (1.0, 1.0)) for i in range(0, len(batch), 6)]

    _, history, _ = evolve(config, score)
    assert [m.individual for m in history[0].members] == pop
    succ = [m.individual for m in history[1].members]
    assert len(succ) == 3
    assert succ[0].linear == pop[1].linear
    assert succ[0].angular == pop[0].angular


def test_mutate_takes_the_twin_for_another_generator_or_a_step_that_may_be_nonfinite(monkeypatch):
    # evopid_mutate reads the words of a random.Random itself and needs every step finite: a FakeRng, whose random()
    # is its own, and sigma 1e300 on gains near DBL_MAX run _mutate_py, which raises its error for the latter
    def evopid_mutate(*args):
        raise AssertionError("the C kernel was called")

    monkeypatch.setattr(evopid.plant, "_c_kernel", lambda: types.SimpleNamespace(evopid_mutate=evopid_mutate))
    parent = (1.0, 0.01, 0.0, 1.0, 0.02, 0.001)
    uniforms, _ = scripted([0.3, -0.2] * 6, 0.5)
    config = EPConfig(population_size=3)
    rng, twin = FakeRng(uniforms), FakeRng(uniforms)
    assert [[v.hex() for v in m] for m in _mutate(parent, config, rng)] == [
        [v.hex() for v in m] for m in _mutate_py(parent, config, twin)
    ]
    assert rng.uniforms == twin.uniforms == []
    for kind in MutationKind:
        config = EPConfig(population_size=3, mutation=MutationSpec(kind, sigma_absolute=1e300, sigma_scaled=1e300))
        rng, twin = random.Random(1), random.Random(1)
        with pytest.raises(ValueError) as expected:
            _mutate_py((sys.float_info.max,) * 6, config, twin)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            _mutate((sys.float_info.max,) * 6, config, rng)
        assert rng.getstate() == twin.getstate()


def test_mutate_at_population_1_draws_nothing():
    # a generator with no draws: population 1 makes no mutant and reads none
    parent = _initial_rows(EPConfig(population_size=1), random.Random(5))[0]
    for kind in MutationKind:
        rng = FakeRng([])
        assert _mutate(parent, EPConfig(population_size=1, mutation=MutationSpec(kind)), rng) == []
        assert rng.gauss_next is None


def test_mutate_keeps_a_zero_kd_forever():
    config = EPConfig(population_size=4, init=InitSpec(kd_bounds=(0.0, 0.0)))
    rng = random.Random(13)
    rows = _initial_rows(config, rng)
    for _ in range(5):
        # every member scores alike, so member 0 wins both channels and is the next parent
        rows = [rows[0], *_mutate(rows[0], config, rng)]
        assert len(rows) == 4 and all(row[2] == 0.0 and row[5] == 0.0 for row in rows)


def generation_by_operators(parent, config, rng):
    """The parent, then population_size - 1 mutants from the reference operators."""
    return [parent] + [mutate_by_operators(parent, config.mutation, rng) for _ in range(config.population_size - 1)]


def generation_by_mutate(parent, config, rng):
    """The parent's flat row, then _mutate's population_size - 1 mutant rows."""
    return [parent.as_flat(), *_mutate(parent.as_flat(), config, rng)]


def assert_same_bits(rows, individuals):
    assert [[v.hex() for v in row] for row in rows] == [[v.hex() for v in m.as_flat()] for m in individuals]


@settings(max_examples=6, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    parent=st.builds(Individual, triples, triples),
    sigma=st.sampled_from([0.05, 0.5, 1e300, 1e308]),
    seed=st.integers(0, 2**32 - 1),
)
@example(parent=Individual.from_flat([1e300] * 6), sigma=1e300, seed=0)  # scaled: the first step is inf
@pytest.mark.parametrize("size", [1, 2, 10, 20])
@pytest.mark.parametrize("kind", list(MutationKind))
def test_a_generation_of_mutants_matches_the_public_operators(kind, size, parent, sigma, seed, time_limit):
    # the same members, bit for bit, or the same error, and the generator left in the same state
    config = EPConfig(population_size=size, mutation=MutationSpec(kind, sigma_absolute=sigma, sigma_scaled=sigma))
    rng, reference_rng = random.Random(seed), random.Random(seed)
    with time_limit(5):
        try:
            expected = generation_by_operators(parent, config, reference_rng)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                generation_by_mutate(parent, config, rng)
        else:
            assert_same_bits(generation_by_mutate(parent, config, rng), expected)
    assert rng.getstate() == reference_rng.getstate()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("sigma", [0.5, 1e308])
@pytest.mark.parametrize("size", [2, 3, 10])
@pytest.mark.parametrize("kind", list(MutationKind))
def test_mutate_starts_from_the_spare_normal_of_an_earlier_gauss_call(kind, size, sigma, seed, time_limit):
    # after one gauss call the generator holds its second normal in gauss_next, and the first draw must be that spare.
    # At sigma 1e308 these seeds draw a nonfinite step in mutant 3, so population 10 raises partway through
    parent = Individual.from_flat([1.0, 0.01, 0.0, 1.0, 0.02, 0.001])
    config = EPConfig(population_size=size, mutation=MutationSpec(kind, sigma_absolute=sigma, sigma_scaled=sigma))
    rng, reference_rng = random.Random(seed), random.Random(seed)
    rng.gauss(), reference_rng.gauss()
    assert rng.gauss_next is not None
    with time_limit(5):
        try:
            expected = generation_by_operators(parent, config, reference_rng)
        except ValueError as exc:
            assert (size, sigma) == (10, 1e308)
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                generation_by_mutate(parent, config, rng)
        else:
            assert (size, sigma) != (10, 1e308)
            assert_same_bits(generation_by_mutate(parent, config, rng), expected)
    assert rng.getstate() == reference_rng.getstate()


@pytest.mark.parametrize("kind", list(MutationKind))
def test_mutate_stops_at_the_draw_of_a_later_mutants_nonfinite_step(kind, time_limit):
    # mutant 1 is whole; mutant 2's third draw is a nonfinite step, as in the one-mutant test above: its spare stays
    # in gauss_next, and the uniforms after that pair stay unread
    sigma = 1e298 if kind is MutationKind.SCALED else 1e308
    parent = Individual.from_flat([1e10] * 6)
    uniforms, _ = scripted([0.1] * 6 + [0.2, 0.3, -2.0, 0.4, 0.5, 0.6] + [0.7] * 6, sigma)
    config = EPConfig(population_size=4, mutation=MutationSpec(kind, sigma_absolute=sigma, sigma_scaled=sigma))
    rng, reference_rng = FakeRng(uniforms), FakeRng(uniforms)
    with pytest.raises(ValueError) as expected:
        generation_by_operators(parent, config, reference_rng)
    message = r"^mutating 10000000000\.0 with sigma .* drew a nonfinite step -inf$"
    assert re.match(message, str(expected.value))
    with time_limit(5), pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        generation_by_mutate(parent, config, rng)
    assert rng.uniforms == reference_rng.uniforms == uniforms[10:]
    assert rng.gauss_next == pytest.approx(0.4)
    assert rng.getstate() == reference_rng.getstate()


# ---------------------------------------------------------------- run_ep


def test_run_ep_exhausts_generation_limit():
    config = EPConfig(population_size=3, max_generations=7, rng_seed=1)
    best, history, stop_reason = run_ep(config, lambda ind: (0.5, 0.5))
    assert stop_reason is StopReason.GENERATION_LIMIT
    assert len(history) == 7
    assert [r.generation_index for r in history] == list(range(7))
    assert all(len(r.members) == 3 for r in history)


def test_run_ep_target_requires_both_channels():
    config = EPConfig(population_size=2, max_generations=4, rng_seed=0)
    _, history, stop_reason = run_ep(config, lambda ind: (0.005, 0.5))
    assert stop_reason is StopReason.GENERATION_LIMIT
    assert len(history) == 4


def test_run_ep_wraps_evaluator_failures():
    def evaluator(individual):
        raise RuntimeError("boom")

    config = EPConfig(population_size=2, rng_seed=0)
    with pytest.raises(EvaluationError) as excinfo:
        run_ep(config, evaluator)
    assert excinfo.value.generation == 0
    assert excinfo.value.member == 0

    # with equal scores the parent is always member 0 of generation 0, scored once, so the
    # calls are generation 0's two members, then member 1 of generations 1 and 2
    calls = []

    def fails_on_fourth_call(individual):
        calls.append(individual)
        if len(calls) == 4:
            raise RuntimeError("boom")
        return (0.5, 0.5)

    with pytest.raises(EvaluationError) as excinfo:
        run_ep(EPConfig(population_size=2, max_generations=5, rng_seed=0), fails_on_fourth_call)
    assert excinfo.value.generation == 2
    assert excinfo.value.member == 1


@pytest.mark.parametrize("bad", [(None, 0.1), ("x", 0.1), (0.1, 0.2, 0.3), 0.5])
def test_run_ep_names_the_member_of_a_malformed_score(bad):
    # generation 0's members 0 and 1 score; member 2 returns the malformed score, and nothing after it runs
    calls = []

    def evaluator(individual):
        calls.append(individual)
        return bad if len(calls) == 3 else (0.5, 0.5)

    with pytest.raises(EvaluationError, match=r"^scoring failed at generation 0, member 2: ") as excinfo:
        run_ep(EPConfig(population_size=4, rng_seed=0), evaluator)
    assert (excinfo.value.generation, excinfo.value.member) == (0, 2)
    assert len(calls) == 3


def _sum_scores(batch):
    """Per row of a flat batch, six gains a row: the sums of its linear and of its angular gains."""
    return [(sum(batch[i : i + 3]), sum(batch[i + 3 : i + 6])) for i in range(0, len(batch), 6)]


def _rows(individuals):
    """The flat batch evolve hands its scorer for these members."""
    return array("d", itertools.chain.from_iterable(individual.as_flat() for individual in individuals))


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda batch: 1 / 0, "division by zero"),
        (lambda batch: _sum_scores(batch)[1:], r"expected \d+ scores, got \d+"),
        (lambda batch: _sum_scores(batch) + [(0.5, 0.5)], r"expected \d+ scores, got \d+"),
        (lambda batch: None, "not iterable"),
        (lambda batch: [(0.5, None)] * (len(batch) // 6), "float"),
        (lambda batch: [("x", 0.5)] * (len(batch) // 6), "could not convert string to float"),
        (lambda batch: [(0.5,)] * (len(batch) // 6), "not enough values to unpack"),
    ],
)
def test_evolve_names_the_generation_of_a_failed_scoring_call(fault, message):
    # generations 0 and 1 score; generation 2's call fails
    calls = []

    def score(batch):
        calls.append(batch)
        return fault(batch) if len(calls) == 3 else _sum_scores(batch)

    config = EPConfig(population_size=3, max_generations=5, rng_seed=0)
    with pytest.raises(EvaluationError, match=f"^scoring failed at generation 2: .*{message}") as excinfo:
        evolve(config, score)
    assert (excinfo.value.generation, excinfo.value.member) == (2, None)
    assert len(calls) == 3


@pytest.mark.parametrize("index", [99, 3, -1, True, 1.0, "1", None])
def test_evolve_names_no_member_for_an_index_outside_the_batch(index):
    # generation 0's batch holds three members; only an int in range(3) names one
    def score(batch):
        raise EvaluationError("bad member", member=index)

    with pytest.raises(EvaluationError, match=r"^scoring failed at generation 0: bad member$") as excinfo:
        evolve(EPConfig(population_size=3, rng_seed=0), score)
    assert (excinfo.value.generation, excinfo.value.member) == (0, None)


@pytest.mark.parametrize("kind", list(MutationKind))
def test_evolve_scores_each_generations_new_members_in_one_call(kind):
    batches = []

    def score(batch):
        batches.append(batch)
        return _sum_scores(batch)

    config = EPConfig(population_size=5, max_generations=8, mutation=MutationSpec(kind), rng_seed=2)
    _, history, _ = evolve(config, score)
    # the reference: per generation, the members not in the previous one, each once, in first-seen order
    expected, previous = [], set()
    for record in history:
        new = tuple(dict.fromkeys(m.individual for m in record.members if m.individual not in previous))
        previous = {m.individual for m in record.members}
        expected.append(_rows(new))
    assert all(batch.typecode == "d" for batch in batches)
    assert batches == expected
    assert all(batches) and sum(map(len, batches)) < len(history) * 5 * 6  # the elitist parent came back
    for m in (m for record in history for m in record.members):
        assert [(m.ae_linear, m.ae_angular)] == _sum_scores(_rows([m.individual]))


def test_evolve_scores_a_run_of_one_repeated_individual_once():
    # all-zero bounds draw equal members, and the scaled operator keeps every gain at 0
    zero = InitSpec(kp_bounds=(0.0, 0.0), ki_bounds=(0.0, 0.0), kd_bounds=(0.0, 0.0))
    batches = []

    def score(batch):
        batches.append(batch)
        return [(0.5, 0.5)] * (len(batch) // 6)

    _, history, _ = evolve(EPConfig(population_size=5, max_generations=4, init=zero), score)
    assert batches == [array("d", [0.0] * 6)]
    assert [len(record.members) for record in history] == [5] * 4


def test_evolve_scores_again_a_member_back_after_two_generations(monkeypatch):
    # only the previous generation's scores are kept: the all-zero parent wins every generation and is scored once;
    # mutant x, back in the next generation, is not scored again, but back two generations after that, it is; and a
    # mutant of -0.0s equals the parent, so it is not scored either
    zero = InitSpec(kp_bounds=(0.0, 0.0), ki_bounds=(0.0, 0.0), kd_bounds=(0.0, 0.0))
    x, y = (0.5,) * 6, (0.25,) * 6
    mutants = iter([x, x, y, x, (-0.0,) * 6])
    monkeypatch.setattr(evopid.ep, "_mutate", lambda parent, config, rng: [next(mutants)])
    scored = Counter()

    def score(batch):
        rows = [tuple(batch[i : i + 6]) for i in range(0, len(batch), 6)]
        scored.update(rows)
        return [(1.0 + sum(row[:3]), 1.0 + sum(row[3:])) for row in rows]

    _, history, _ = evolve(EPConfig(population_size=2, max_generations=6, init=zero), score)
    assert [record.members[1].individual.as_flat() for record in history] == [(0.0,) * 6, x, x, y, x, (-0.0,) * 6]
    assert scored == {(0.0,) * 6: 1, x: 2, y: 1}


@pytest.mark.parametrize("experiment", [1, 2, 3])
def test_evolve_with_batch_rows_matches_run_ep_with_fitness_of(experiment):
    # the fast path run_experiment takes, against its plain reference: one fitness_of per distinct individual
    for seed in range(3):
        spec = build_experiment_spec(experiment, seed=seed)
        environment = (spec.train_route, spec.plant, spec.sim)
        reference = run_ep(spec.ep, lambda individual: fitness_of(individual, *environment))

        def score(batch):
            results = _fitness_rows(batch, *environment)
            return zip(results[0::4], results[1::4])

        fast = evolve(spec.ep, score)
        assert fast.history == reference.history, seed
        assert fast.best == reference.best, seed
        assert fast.stop_reason is reference.stop_reason, seed


def kernel_scorer(spec):
    """run_experiment's scorer: _fitness_rows over the batch, on the spec's train route."""
    environment = (spec.train_route, spec.plant, spec.sim)

    def score(batch):
        results = _fitness_rows(batch, *environment)
        return zip(results[0::4], results[1::4])

    return score


def assert_evolve_matches_the_reference(config, score, monkeypatch):
    """evolve and evolve_reference give bit-identical histories, the same best and stop reason, or the same error,
    and leave their generators in the same state; returns evolve's result or error."""
    made = []

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(random, "Random", Recording)
    outcomes = []
    for run in (evolve, evolve_reference):
        try:
            outcomes.append(run(config, score))
        except ValueError as exc:
            outcomes.append(exc)
    monkeypatch.undo()
    got, expected = outcomes
    if isinstance(expected, Exception):
        assert (type(got), str(got)) == (type(expected), str(expected))
    else:
        assert got.history == expected.history
        assert [r.rows for r in got.history] == [r.rows for r in expected.history]
        assert [v.hex() for v in got.best.as_flat()] == [v.hex() for v in expected.best.as_flat()]
        assert got.stop_reason is expected.stop_reason
    assert len(made) == 2 and made[0].getstate() == made[1].getstate()
    return got


@pytest.mark.parametrize("experiment", [1, 2, 3])
def test_evolve_matches_the_object_loop_on_the_presets(experiment, monkeypatch):
    for seed in range(5):
        spec = build_experiment_spec(experiment, seed=seed)
        assert_evolve_matches_the_reference(spec.ep, kernel_scorer(spec), monkeypatch)


@pytest.mark.parametrize("kind", list(MutationKind))
def test_evolve_matches_the_object_loop_at_population_1_and_from_all_zero_gains(kind, monkeypatch):
    spec = build_experiment_spec(2)
    zero = InitSpec(kp_bounds=(0.0, 0.0), ki_bounds=(0.0, 0.0), kd_bounds=(0.0, 0.0))
    for config in (
        EPConfig(population_size=1, max_generations=20, mutation=MutationSpec(kind), rng_seed=3),
        EPConfig(population_size=10, max_generations=20, mutation=MutationSpec(kind), init=zero, rng_seed=3),
        EPConfig(population_size=7, max_generations=20, mutation=MutationSpec(kind), rng_seed=4),
    ):
        result = assert_evolve_matches_the_reference(config, kernel_scorer(spec), monkeypatch)
        assert len(result.history) == 20


def test_evolve_matches_the_object_loop_when_the_target_is_reached(monkeypatch):
    spec = build_experiment_spec(3, seed=0, overrides={"ep.ae_target": 0.02})
    result = assert_evolve_matches_the_reference(spec.ep, kernel_scorer(spec), monkeypatch)
    assert result.stop_reason is StopReason.TARGET_REACHED and len(result.history) == 7


@pytest.mark.parametrize(
    "config, message",
    [
        # a step of N(0, 1e308) overflows wherever the normal passes about 1.8
        (
            EPConfig(10, mutation=MutationSpec(MutationKind.ABSOLUTE, sigma_absolute=1e308), rng_seed=1),
            r"^mutating 0\.9014274576114836 with sigma 1e\+308 drew a nonfinite step -inf$",
        ),
        # a finite scaled step takes a kd of 1.7e308 past the largest double: Gains' error, after the six draws
        (
            EPConfig(10, init=InitSpec(kd_bounds=(1.7e308, 1.7e308)), rng_seed=0),
            r"^kd must be a finite number >= 0, got inf$",
        ),
    ],
    ids=["nonfinite step", "gain overflows"],
)
def test_evolve_matches_the_object_loop_where_a_mutation_fails(config, message, monkeypatch, time_limit):
    with time_limit(5):
        error = assert_evolve_matches_the_reference(config, kernel_scorer(build_experiment_spec(2)), monkeypatch)
    assert isinstance(error, ValueError) and re.match(message, str(error))


def test_generation_record_rows_are_read_only_and_members_a_cached_view():
    members = (
        MemberRecord(Individual.from_flat([0.5, 0.0, 1.0, 2.0, 0.25, -0.0]), 0.5, math.inf),
        MemberRecord(Individual(Gains(1, 2, 3), Gains(0, 0, 0)), 0.25, 0.75),
    )
    record = record_of(4, members)
    assert type(record.rows) is bytes
    expected = [0.5, 0.0, 1.0, 2.0, 0.25, -0.0, 0.5, math.inf, 1, 2, 3, 0, 0, 0, 0.25, 0.75]
    assert [v.hex() for v in array("d", record.rows)] == [float(v).hex() for v in expected]
    assert (record.fittest_linear_index, record.fittest_angular_index) == (1, 1)
    assert record.members == members and record.members is record.members
    assert all(type(v) is float for m in record.members for v in (*m.individual.as_flat(), m.ae_linear, m.ae_angular))
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.rows = bytes(len(record.rows))
    # equality is by value, as the members compared: a zero's sign does not count, and equal records hash alike
    def one(gain, ae):
        return record_of(4, (MemberRecord(Individual.from_flat([gain] * 6), ae, 0.5),))

    assert one(-0.0, -0.0).rows != one(0.0, 0.0).rows
    assert one(-0.0, -0.0) == one(0.0, 0.0) and hash(one(-0.0, -0.0)) == hash(one(0.0, 0.0))
    assert one(0.0, 0.0) != one(0.0, 0.25) and one(0.0, 0.0) != one(0.5, 0.0)
    assert record != record_of(5, members) and record != record.members


def test_run_ep_evaluates_each_distinct_individual_once():
    calls = Counter()

    def evaluator(individual):
        calls[individual] += 1
        flat = individual.as_flat()
        return (sum(flat[:3]), sum(flat[3:]))

    config = EPConfig(population_size=5, max_generations=8, rng_seed=2)
    _, history, _ = run_ep(config, evaluator)
    members = [m for record in history for m in record.members]
    assert set(calls) == {m.individual for m in members}
    assert set(calls.values()) == {1}
    assert len(calls) < len(members)  # the elitist parent came back at least once
    for m in members:
        assert (m.ae_linear, m.ae_angular) == evaluator(m.individual)


def _best_composite(history):
    """Reference for run_ep's best: one scan of every member of every generation, in order.

    Per channel it keeps the first member with the least finite AE (strict <), and
    splices the two winners' gains into one individual.
    """
    best_lin_ae = best_ang_ae = math.inf
    best_lin = best_ang = None
    for record in history:
        for m in record.members:
            if math.isfinite(m.ae_linear) and m.ae_linear < best_lin_ae:
                best_lin_ae, best_lin = m.ae_linear, m.individual.linear
            if math.isfinite(m.ae_angular) and m.ae_angular < best_ang_ae:
                best_ang_ae, best_ang = m.ae_angular, m.individual.angular
    return Individual(best_lin, best_ang)


def _coupled_quantized_evaluator(individual):
    # each channel's AE depends on the other channel's gains, so a composite scores unlike its
    # sources, and rounding to 0.1 makes equal AEs common within and across generations;
    # a large kd is scored inf on the linear channel and nan on the angular one
    kpv, kiv, kdv, kpa, kia, kda = individual.as_flat()
    ae_linear = math.inf if kdv > 0.009 else round(kpv + kiv + 0.3 * kpa, 1)
    ae_angular = math.nan if kda > 0.0095 else round(kpa + kia + 0.3 * kpv, 1)
    return ae_linear, ae_angular


@pytest.mark.parametrize("kind", list(MutationKind))
def test_run_ep_best_matches_a_scan_of_the_history_under_coupled_tied_scores(kind):
    ties_across_generations = composite_differs = 0
    for seed in range(100):
        config = EPConfig(population_size=4, max_generations=8, mutation=MutationSpec(kind), rng_seed=seed)
        best, history, _ = run_ep(config, _coupled_quantized_evaluator)
        assert best == _best_composite(history), seed
        fittest = [r.members[r.fittest_linear_index].ae_linear for r in history]
        ties_across_generations += len(fittest) > len(set(fittest))
        last = history[-1]
        composite_differs += best.linear != last.members[last.fittest_linear_index].individual.linear
    # the evaluator really exercises the tie rule and the difference from the last generation's winners
    assert ties_across_generations > 50
    assert composite_differs > 0


# ---------------------------------------------------------------- type invariants


RULE_BREAKS = [
    (lambda: Gains(-0.1, 0.0, 0.0), "kp must be a finite number >= 0, got -0.1"),
    (lambda: Gains(0.1, math.nan, 0.0), "ki must be a finite number >= 0, got nan"),
    (lambda: Gains(0.1, 0.0, math.inf), "kd must be a finite number >= 0, got inf"),
    # a bool is not a number: True would count as 1
    (lambda: Gains(True, 0.0, 0.0), "kp must be a finite number >= 0, got True"),
    # a 0-d array could be written in place and cannot be hashed; a string is no number at all
    (lambda: Gains(np.array(0.5), 0.05, 0.005), "kp must be a finite number >= 0, got array(0.5)"),
    (lambda: Gains("1", 0, 0), "kp must be a finite number >= 0, got '1'"),
    (lambda: Individual.from_flat([0.1, 0.2]), "expected 6 gains, got 2"),
    (lambda: EPConfig(population_size=0), "population_size must be >= 1"),
    (lambda: EPConfig(population_size=1, max_generations=0), "max_generations must be >= 1"),
    (lambda: EPConfig(population_size=1, ae_target=0.0), "ae_target must be > 0"),
    (lambda: EPConfig(population_size=1, rng_seed=-1), "rng_seed must fit in an unsigned 64-bit integer"),
    (lambda: EPConfig(population_size=1, rng_seed=2**64), "rng_seed must fit in an unsigned 64-bit integer"),
    (lambda: InitSpec(kp_bounds=(-0.1, 1.0)), "kp_bounds must satisfy 0 <= low <= high, got (-0.1, 1.0)"),
    (lambda: InitSpec(ki_bounds=(0.2, 0.1)), "ki_bounds must satisfy 0 <= low <= high, got (0.2, 0.1)"),
    (lambda: MutationSpec(MutationKind.SCALED, sigma_scaled=0.0), "mutation sigmas must be > 0"),
    (lambda: MutationSpec(MutationKind.ABSOLUTE, sigma_absolute=-0.05), "mutation sigmas must be > 0"),
    # a kind that is not a MutationKind used to run the scaled operator
    (lambda: MutationSpec("absolute"), "kind must be a MutationKind, got 'absolute'"),
    (lambda: MutationSpec(None), "kind must be a MutationKind, got None"),
]


@pytest.mark.parametrize(
    "make, message", RULE_BREAKS, ids=[f"{row[1].split()[0]}-{i}" for i, row in enumerate(RULE_BREAKS)]
)
def test_types_reject_values_outside_their_rules(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_individual_flat_round_trip():
    values = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    assert Individual.from_flat(values).as_flat() == values


@pytest.mark.parametrize("name", ["population_size", "max_generations", "rng_seed"])
@pytest.mark.parametrize("bad", [True, False, 2.5, 3.0, "3", None])
def test_epconfig_requires_int_run_settings(name, bad):
    fields = {"population_size": 2, "max_generations": 3, "rng_seed": 4, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        EPConfig(**fields)


def test_epconfig_caps_population_times_generations():
    # constructed only: a run at these sizes would take hours and gigabytes
    EPConfig(population_size=_MAX_MEMBERS, max_generations=1)
    EPConfig(population_size=1, max_generations=_MAX_MEMBERS)
    for size, generations in ((_MAX_MEMBERS + 1, 1), (1, _MAX_MEMBERS + 1), (2_000_000_000, 100)):
        with pytest.raises(ValueError, match="more than the limit of 1,000,000 members per run"):
            EPConfig(population_size=size, max_generations=generations)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True])
def test_specs_reject_nonfinite_values(bad):
    with pytest.raises(ValueError, match="sigma_scaled"):
        MutationSpec(MutationKind.SCALED, sigma_scaled=bad)
    with pytest.raises(ValueError, match="sigma_absolute"):
        MutationSpec(MutationKind.ABSOLUTE, sigma_absolute=bad)
    with pytest.raises(ValueError, match="kp_bounds"):
        InitSpec(kp_bounds=(0.0, bad))
    with pytest.raises(ValueError, match="kd_bounds"):
        InitSpec(kd_bounds=(bad, 0.01))
    with pytest.raises(ValueError, match="ae_target"):
        EPConfig(population_size=1, ae_target=bad)
