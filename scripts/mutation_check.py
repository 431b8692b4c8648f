#!/usr/bin/env python3
"""The slip catalogue: every deliberate slip the tests must catch, and a run that shows they do.

A slip is an entry (file, old text, new text, name): the file's one occurrence of the old text replaced by the new.
There are two tables.

C_SLIPS holds the slips of src/evopid/_kernel.c that a load check must refuse, by the load check: the simulation at
every vector width the host runs, a lane of the four-wide build, the time column, the mutation and the CSV formatter.
tests/test_kernel.py reads them from here and compiles each one in every Tier-1 run, requiring its build to be
refused, so this script only checks that each still applies.

PYTHON_SLIPS holds the slips outside C that the suite must kill. For each one the script copies the tree (src,
tests, scripts, README.md, pyproject.toml) to a temporary directory, applies the edit there and runs Tier-1 on the
copy: with a fresh XDG_CACHE_HOME, so that no slipped build enters or prunes the user's kernel cache; with hypothesis
seeded, so that two runs agree; and without the test that every slip's old text applies, which any edit fails. It
prints one line per entry, killed (with the ids of the failing tests, split by " | ") or survived, after a run of the
unslipped copy, which must pass. It exits 1 if that run fails, an entry does not apply (its old text does not occur
exactly once) or an entry survives. On a 2-core x86-64 host a run takes about 25 minutes:

    python scripts/mutation_check.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNEL = "src/evopid/_kernel.c"
PLANT, METRICS, EP, HARNESS, CLI = (f"src/evopid/{name}.py" for name in ("plant", "metrics", "ep", "harness", "cli"))
README, TEST_KERNEL = "README.md", "tests/test_kernel.py"
# what Tier-1 reads of the tree
TREE = ("src", "tests", "scripts", "README.md", "pyproject.toml")
# the one test a slip fails by its edit alone: it requires every slip's old text in the tree
APPLIES_ONCE = "tests/test_scripts.py::test_every_slip_of_the_catalogue_applies_once"

C_SLIPS = {
    # The self-check runs nineteen rows of unlike channels, recorded, so each changes some output on every width: a
    # full block and a partial one, so reading block 0's gains for every block shows too, and a row that goes NaN on
    # its linear channel only, which min(c, limit) turns into the limit, which a dropped stand-in leaves NaN, and
    # which a verdict on the angular channel alone misses; none reads past a buffer.
    "simulation": [
        (KERNEL, "gains + 6 * (row", "gains + 3 * (row", "gains-row-stride"),
        (KERNEL, " + 3 * (e % 2)", "", "gains-channel-offset"),
        (KERNEL, "run + 4 * (e % 2)", "run", "plant-channel-offset"),
        (KERNEL, "2 * (r0 + PER_VECTOR * v) * samples", "(r0 + PER_VECTOR * v) * samples", "actual-offset"),
        (KERNEL, "out[3] = velocity[v][l + 1]", "out[2] = velocity[v][l + 1]", "results-offset"),
        (KERNEL, "row = r0 + PER_VECTOR * v", "row = PER_VECTOR * v", "gains-of-block-0"),
        (KERNEL, "3 * (e % 2)", "3 * (1 - e % 2)", "channel-swap"),
        (KERNEL, "min_pd(limit, c)", "min_pd(c, limit)", "clamp-operand-order"),
        (KERNEL, "finite ? ae[l] : DBL_MAX", "ae[l]", "stand-in-dropped"),
        (KERNEL, "total[v] / (double)samples", "total[v]", "sum-undivided"),
        (KERNEL, "isfinite(velocity[v][l]) && __builtin_isfinite(velocity[v][l + 1])", "isfinite(velocity[v][l + 1])",
         "verdict-of-one-channel"),
    ],
    # between the two rows of a 256-bit vector, so on a four-wide build only; without an end-of-block guard the last
    # vector's rerun writes the row past the self-test's nineteen, its guard row
    "lane": [
        (KERNEL, " + e / 2;", ";", "second-row-reads-the-first-rows-gains"),
        (KERNEL, "int l = 2 * h;", "int l = 2 * (PER_VECTOR - 1 - h);", "rows-of-a-vector-swap-results"),
        (KERNEL, " && PER_VECTOR * v + e / 2 < n", "", "trace-past-the-last-row"),
        (KERNEL, " && PER_VECTOR * v + h < n", "", "results-past-the-last-row"),
    ],
    "time": [
        (KERNEL, "    for (int64_t k = 0; k < n; k++)\n        out[k] = (double)k * dt;",
         "    double t = 0.0;\n    for (int64_t k = 0; k < n; k++, t += dt)\n        out[k] = t;", "running-sum"),
    ],
    # evopid_mutate against the twin's mutants and spare: the pair's normals swapped, a uniform's two words shifted
    # each by the other's shift, the spare normal passed in not drawn first, and a halving by a quarter
    "mutation": [
        (KERNEL, "z = cosine(x2pi) * g2rad;\n            spare = sin(x2pi) * g2rad;",
         "z = sin(x2pi) * g2rad;\n            spare = cosine(x2pi) * g2rad;", "sin-taken-for-cos"),
        (KERNEL, "(word(p) >> 5) * 67108864.0 + (word(p + 4) >> 6)", "(word(p) >> 6) * 67108864.0 + (word(p + 4) >> 5)",
         "word-shifts-swapped"),
        (KERNEL, "    for (int64_t k = 0; k < 6 * mutants; k++) {\n",
         "    spares = 0;\n    for (int64_t k = 0; k < 6 * mutants; k++) {\n", "spare-passed-in-dropped"),
        (KERNEL, "step *= 0.5;", "step *= 0.25;", "halving-by-a-quarter"),
    ],
    # A digit dropped, the .0 of an integral double dropped, a removed 5 rounded down in Ryu's common path, slips in
    # its general path, the cell above copied where its value is equal but not its bits (-0.0 below 0.0) or at a
    # chunk's first row, the rounding digit taken from the wrong one of several removed at once, and the output's
    # digits counted or written wrongly. Each slipped count is one too high: one too low writes before the buffer.
    "formatter": [
        (KERNEL, "    return n;\n}", "    return n - 1;\n}", "last-digit-dropped"),
        (KERNEL, "memcpy(p + decpt, \".0\", 2);\n    return p + decpt + 2;", "return p + decpt;", "dot-zero-dropped"),
        (KERNEL, "vr == vm || last >= 5", "vr == vm || last > 5", "half-rounded-down"),
        (KERNEL, "        if (vr_zeros && last == 5 && vr % 2 == 0)\n            last = 4;", "",
         "half-not-rounded-to-even"),
        (KERNEL, "vr_zeros = q < 64 && !(mv & ((1ull << q) - 1))", "vr_zeros = 0", "exact-value-taken-for-inexact"),
        (KERNEL, "            vm_zeros &= vm % 10 == 0;\n", "", "exact-bound-kept"),
        (KERNEL, "!memcmp(cell, cell - 8, 8)", "*(const double *)cell == *(const double *)(cell - 8)",
         "copy-keyed-on-value"),
        (KERNEL, "r > start && !memcmp", "r > 0 && !memcmp", "copy-across-chunk-start"),
        (KERNEL, "last = (int)(vr % 10000 / 1000)", "last = (int)(vr % 10)", "last-of-four-removed-is-the-lowest"),
        (KERNEL, "last = (int)(vr % 100 / 10)", "last = (int)(vr % 10)", "last-of-two-removed-is-the-lowest"),
        (KERNEL, "pairs + 2 * (rest % 100)", "pairs + (rest % 100)", "pair-table-index"),
        (KERNEL, "v >= (uint64_t)1e9 ? 10", "v >= (uint64_t)1e8 ? 10", "digit-count-threshold"),
        (KERNEL, "(uint32_t)(output - 100000000 * high)", "(uint32_t)(output - 10000000 * high)",
         "low-eight-digits-split-at-10**7"),
    ],
}

PYTHON_SLIPS = [
    # the kernel's entry, its loader and the cache
    (PLANT, 'if not (gains_fit and type(run) is array and run.typecode == "d" and len(run) == 13):', "if False:",
     "no-buffer-check"),
    (PLANT, "gains_fit = type(gains) is array and ", "gains_fit = ", "no-contiguity-check"),
    (PLANT, 'gains.typecode == "d" and len(gains)', "len(gains)", "no-dtype-check"),
    (PLANT, " and len(gains) % 6 == 0", "", "no-row-check"),
    (PLANT, "if not (count and first.is_integer() and second.is_integer() and first >= 0 and second >= 0\n"
     "            and 0 < first + second <= _MAX_SAMPLES):", "if not count:", "no-count-check"),
    (PLANT, " and first >= 0 and second >= 0", "", "no-negative-count-check"),
    (PLANT, "    if owner.st_uid != os.getuid() or owner.st_mode & 0o022:\n        return None\n", "",
     "no-owner-check"),
    (PLANT, "input=source, capture_output=True, check=True", "input=source, check=True",
     "compiler-output-not-captured"),
    (PLANT, "    if any(a.tobytes() != b.tobytes() for a, b in zip(got, want)):\n        return None\n", "",
     "no-self-check"),
    (PLANT, "args = (len(rows), gains,", "args = (1, gains,", "one-row-self-check"),
    (PLANT, "for buffer in (*inputs, *got)))\n    if any(a.tobytes() != b.tobytes() for a, b in zip(got, want)):",
     "for buffer in (*inputs, got[0])), None)\n    if any(a.tobytes() != b.tobytes() for a, b in zip(got[:1], want)):",
     "unrecorded-self-check"),
    (PLANT, "        if stale.name not in keep:", "        if False:", "cache-pruning-disabled"),
    # the reads as doubles
    (PLANT, "return 1.0 / float(self.sample_rate)", "return 1.0 / self.sample_rate", "no-float-in-dt"),
    (PLANT, "samples = route.total_duration * float(sim.sample_rate)",
     "samples = route.total_duration * sim.sample_rate", "no-float-in-the-sample-count"),
    (PLANT, "dt, switch = sim.dt, float(route.phase_duration)", "dt, switch = sim.dt, route.phase_duration",
     "no-float-in-the-phase-switch"),
    (PLANT, "math.exp(-dt / float(c.time_constant))", "math.exp(-dt / c.time_constant)", "no-float-in-the-decay"),
    (PLANT, "t < float(route.phase_duration)", "t < route.phase_duration", "no-float-in-route-setpoint"),
    (PLANT, "limit = float(params.actuator_limit)", "limit = params.actuator_limit", "no-float-of-the-limit"),
    (PLANT, "command * float(params.dc_gain)", "command * params.dc_gain", "no-float-of-the-dc-gain"),
    (PLANT, "math.exp(-dt / float(params.time_constant))", "math.exp(-dt / params.time_constant)",
     "no-float-of-the-time-constant"),
    (TEST_KERNEL, "total_duration * float(sim.sample_rate)))", "total_duration * sim.sample_rate))",
     "reference-sample-count-not-a-double"),
    (TEST_KERNEL, "velocity = float(channel.initial_velocity)", "velocity = channel.initial_velocity",
     "reference-start-velocity-not-a-double"),
    (EP, "type(v) is bool or not isinstance(v, numbers.Real) for v in values", "type(v) is bool for v in values",
     "no-numbers-real-check"),
    # the twin and the results
    (PLANT, "if not (math.isfinite(results[4 * r + 2]) and math.isfinite(results[4 * r + 3])):",
     "if not math.isfinite(results[4 * r + 2]):", "divergence-test-on-one-channel"),
    (PLANT, "FitnessRecord(*results[:2]))", "FitnessRecord(*results[1::-1]))", "ae-channels-swapped"),
    (METRICS, "or last_params is not params or last_sim is not sim:", "or last_params is not params:",
     "route-cache-ignores-sim"),
    # the per-sample reduction stays in tests/reference.py
    (HARNESS, "from .metrics import DIVERGENCE_AE,", "from .metrics import fitness_of as average_error\n"
     "from .metrics import DIVERGENCE_AE,", "average-error-imported-in-harness"),
    (METRICS, "_last_scored = (None, None, None, None)\n", "_last_scored = (None, None, None, None)\n\n\n"
     "def average_error(trace):\n    return trace.ae\n", "average-error-defined-in-metrics"),
    (CLI, "from .metrics import step_metrics\n", "from .metrics import step_metrics\nfrom . import metrics\n\n"
     "_reducer = None and metrics.average_error\n", "average-error-named-in-cli"),
    # the reductions that have NumPy's bits
    (METRICS, "    if n > 128:", "    if n > 64:", "pairwise-block-of-64"),
    (METRICS, "return (0.0 + _pairwise_sum(values))", "return (_pairwise_sum(values))", "mean-without-its-initial-0"),
    (METRICS, "-(min(actual) - end)", "-(max(actual) - end)", "falling-peak-from-max"),
    (METRICS, "if a >= level)", "if a > level)", "rising-crossing-strict"),
    (METRICS, "if a <= level)", "if a < level)", "falling-crossing-strict"),
    (HARNESS, "                while at % 8:\n                    at = raw.find(bits, at + 1)\n", "",
     "oracle-alignment-loop-dropped"),
    (HARNESS, "[8 * skip : 8 * (skip + high - low)]", "[8 * skip :]", "oracle-window-unclipped"),
    # the CSV writer
    (PLANT, '    if not all(type(column) is array and column.typecode in "dq" and len(column) == count for column '
     'in columns):\n        raise ValueError("the CSV columns must be array(\'d\')s or array(\'q\')s of one length")\n',
     "", "no-column-check"),
    (PLANT, "for start in range(0, count, _CSV_CHUNK):", "for start in range(0, count, _CSV_CHUNK + 1):", "chunk-step-one-long"),
    (PLANT, "rows = min(_CSV_CHUNK, count - start)", "rows = min(_CSV_CHUNK - 1, count - start)", "chunk-one-row-short"),
    (PLANT, "chunk = column[start : start + rows]", "chunk = column[start : start + rows + 1]",
     "chunk-slice-one-row-long"),
    (PLANT, "constant = raw == raw[: chunk.itemsize] * rows", "constant = chunk.count(chunk[0]) == rows",
     "constant-column-keyed-on-value"),
    # mutation: _mutate's choice of the C kernel, and what it leaves in the generator
    (EP, "kernel is not None and type(rng) is random.Random and", "kernel is not None and",
     "c-mutation-for-any-generator"),
    (EP, "        and (1.0 + _Z_BOUND * sigma) * max(1.0, *parent) < sys.float_info.max\n", "",
     "c-mutation-without-its-step-bound"),
    (EP, "    rng.gauss_next = None if spare is None else left\n", "", "c-mutation-leaves-gauss-next"),
    (EP, "random, spare = rng.random, rng.gauss_next", "random, spare = rng.random, None", "gauss-next-ignored"),
    (EP, "    finally:\n        rng.gauss_next = spare\n", "    finally:\n        pass\n", "no-gauss-next-write-back"),
    (EP, "    finally:\n        rng.gauss_next = spare\n    return mutants",
     "    finally:\n        pass\n    rng.gauss_next = spare\n    return mutants", "write-back-outside-finally"),
    (EP, "z, spare = cos(x2pi) * g2rad, sin(x2pi) * g2rad", "z, spare = sin(x2pi) * g2rad, cos(x2pi) * g2rad",
     "cos-and-sin-swapped"),
    (EP, "    if not math.isfinite(add):\n        raise ValueError(f\"mutating {value!r} with sigma {sigma!r} drew a "
     "nonfinite step {add!r}\")\n", "", "no-nonfinite-step-check"),
    (EP, "            if math.inf in out:  # a finite step overflowed: Gains' error, after the mutant's six draws\n"
     "                _require_gains(out)\n", "", "no-overflow-check"),
    # selection and the loop
    (EP, "return None if least is None else values.index(least)",
     "return None if least is None else len(values) - 1 - values[::-1].index(least)", "argmin-takes-the-last-equal"),
    (EP, "best_linear = min(best_linear, fittest_linear,", "best_linear = min(fittest_linear, best_linear,",
     "best-keeps-the-later-of-equal-minima"),
    (EP, "parent = (*fittest_linear[:3], *fittest_angular[3:6])", "parent = tuple(fittest_linear[:6])",
     "unspliced-parent"),
    (EP, 'self.fittest_angular_index, array("d", self.rows)', "self.fittest_angular_index, self.rows",
     "records-compared-by-bits"),
    (EP, "    @functools.cached_property\n    def members", "    @property\n    def members",
     "members-rebuilt-on-each-read"),
    (EP, "scores.setdefault(row, previous.get(row) or [])", "scores.setdefault(row, [])", "no-score-reuse"),
    (EP, "        cells = [scores.setdefault(row, previous.get(row) or []) for row in population]\n"
     "        pending = [(row, cell) for row, cell in scores.items() if not cell]",
     "        cells = [scores.setdefault((row, repr(row)), previous.get((row, repr(row))) or []) for row in "
     "population]\n        pending = [(row, cell) for (row, _), cell in scores.items() if not cell]",
     "dedupe-tells-signed-zeros-apart"),
    (EP, "                if len(results) != len(pending):\n                    raise ValueError(f\"expected "
     "{len(pending)} scores, got {len(results)}\")\n", "", "no-score-count-check"),
    (EP, "itertools.chain.from_iterable(row for row, _ in pending)",
     "itertools.chain.from_iterable(row for row, _ in reversed(pending))", "batch-reversed"),
    (EP, "member = population.index(pending[i][0]) if", "member = i if", "batch-index-named-for-the-member"),
    (EP, "                ae_linear, ae_angular = evaluator(Individual.from_flat(batch[i : i + 6]))\n"
     "                results.append((float(ae_linear), float(ae_angular)))\n"
     "            except Exception as exc:\n                raise EvaluationError(str(exc), member=i // 6) from exc\n",
     "                ae_linear, ae_angular = evaluator(Individual.from_flat(batch[i : i + 6]))\n"
     "            except Exception as exc:\n                raise EvaluationError(str(exc), member=i // 6) from exc\n"
     "            results.append((float(ae_linear), float(ae_angular)))\n", "view-converts-outside-its-try"),
    (HARNESS, "if values[6::8].count(DIVERGENCE_AE) == values[7::8].count(DIVERGENCE_AE) == len(values) // 8:",
     "if values[7::8].count(DIVERGENCE_AE) == len(values) // 8:", "all-diverged-check-reads-one-column"),
    # files in
    (HARNESS, "        if not math.isfinite(number):\n            raise ConfigError(f\"{key} must be finite, got "
     "{value!r}\")\n", "", "no-override-finite-check"),
    (HARNESS, 'read_text(encoding="utf-8-sig")', "read_text()", "config-read-without-encoding"),
    (HARNESS, '.read_text(encoding="utf-8-sig").split("\\n")', '.read_text(encoding="utf-8-sig").splitlines()',
     "config-lines-split-by-splitlines"),
    (HARNESS, "                    if (generation, index) not in allowed:", "                    if False:",
     "no-row-order-check"),
    (HARNESS, "(len(groups) - 1, len(groups[-1]) // 8)", "(len(groups) - 1, len(groups[-1]) // 8 + 1)",
     "next-member-taken-as-m-plus-2"),
    (HARNESS, "                    _require_gains(values)\n", "", "loaded-gains-unchecked"),
    (HARNESS, "    except UnicodeDecodeError as exc:\n        raise ValueError(f\"cannot read",
     "    except KeyError as exc:\n        raise ValueError(f\"cannot read", "no-decode-handler"),
    (HARNESS, 'raise EvaluationError(f"{path}: {exc}", generation=exc.generation)',
     "raise EvaluationError(str(exc), generation=exc.generation)", "no-path-in-the-load-error"),
    # README, the user's contract
    (README, "from evopid import simulate_route\n", "from evopid import simulate_route\nraise RuntimeError('slip')\n",
     "readme-block-raises"),
    (README, 'seed=experiment["seed"], output_dir="again"', 'seed=experiment["seed"] + 1, output_dir="again"',
     "readme-rerun-with-another-seed"),
    (README, "evopid tune --experiment 2 --seed 7", "evopid tune --experiment 2 --sead 7", "readme-option-misspelt"),
    (README, "| `init.kd.high` | float | `0.01` |\n", "| `init.kd.high` | float | `0.01` |\n"
     "| `init.kd.mid` | float | `0.005` |\n", "readme-key-added"),
    (README, "| `sim.sample_rate` | float | `50.0` |\n", "", "readme-key-dropped"),
    (README, "| `plant.angular.time_constant` | float | `0.3` |", "| `plant.angular.time_constant` | float | `0.5` |",
     "readme-default-changed"),
    (README, "| `ep.max_generations` | int |", "| `ep.max_generations` | float |", "readme-type-changed"),
    (README, "Every simulation runs `src/evopid/_kernel.c`,",
     "Every simulation runs `src/evopid/_kernel.c` from `_prepare`,", "readme-names-a-private-attribute"),
    (README, "docstring says how to record them again.\n", "docstring says how to record them again.\n" + "\n" * 10,
     "readme-over-its-line-budget"),
]


def applies(slip) -> bool:
    """Whether the slip's old text occurs exactly once in its file."""
    file, old, _, _ = slip
    return (ROOT / file).read_text(encoding="utf-8").count(old) == 1


def tier1(tree: Path) -> tuple[int, list[str]]:
    """Run Tier-1 on a copy of the tree, with a fresh kernel cache and hypothesis seeded: its exit status, and the ids
    of the tests that failed or errored. A run still going after 5 minutes, 15 times its usual time, hangs: it is
    stopped and counts as failed. (The tests that could loop forever under a slip, halving -inf, fail on a time limit
    of their own.)"""
    with tempfile.TemporaryDirectory(prefix="evopid-cache-") as cache:
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "XDG_CACHE_HOME": cache}
        command = [sys.executable, "-m", "pytest", "-q", "-rfE", "--continue-on-collection-errors",
                   "-p", "no:cacheprovider", "--hypothesis-seed=0", "--deselect", APPLIES_ONCE]
        try:
            proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, timeout=300)
        except subprocess.TimeoutExpired:
            return -1, ["(hung: stopped after 5 minutes)"]
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, failed


def main() -> int:
    c_slips = [slip for slips in C_SLIPS.values() for slip in slips]
    stale = [slip[3] for slip in c_slips + PYTHON_SLIPS if not applies(slip)]
    for name in stale:
        print(f"does not apply  {name}")
    print(f"{len(c_slips)} C slips: tests/test_kernel.py compiles each in every Tier-1 run and requires it refused")
    with tempfile.TemporaryDirectory(prefix="evopid-slips-") as tmp:
        tree = Path(tmp) / "tree"
        tree.mkdir()
        for name in TREE:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / name, tree / name)
        status, failed = tier1(tree)
        if status != 0:
            print(f"the unslipped tree fails Tier-1: {' | '.join(failed) or f'exit status {status}'}")
            return 1
        run = [slip for slip in PYTHON_SLIPS if slip[3] not in stale]
        survived = []
        for file, old, new, name in run:
            path = tree / file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(old, new), encoding="utf-8")
            try:
                status, failed = tier1(tree)
            finally:
                path.write_text(text, encoding="utf-8")
            if status == 0:
                survived.append(name)
                print(f"survived  {name}", flush=True)
            else:
                print(f"killed    {name}  {len(failed)}: {' | '.join(failed) or f'exit status {status}'}", flush=True)
    print(f"{len(run)} Python slips run: {len(survived)} survived; {len(stale)} slips do not apply")
    return 1 if survived or stale else 0


if __name__ == "__main__":
    sys.exit(main())
