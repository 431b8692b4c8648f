#!/usr/bin/env python3
"""Print the SHA-256 of every output and every stdout of a fixed set of evopid commands.

One line per output: the command, the file name (or "stdout") and its digest. The set is
`tune` for experiments 1-3 and seeds 0-9, `tune` for experiments 1 and 2 with a population of one (the
parent alone, so no mutant is drawn), `tune` for experiments 1 and 2 and seeds 0-9 with wide sigmas (many
steps take a gain below 0, so the halving path runs often), `step` on both routes with one gain set, `oracle`
on both routes with four grids, and `step` on a test route of 30,000 samples, whose trace CSV
spans many of the CSV writer's chunks. The C kernel runs rows in blocks of sixteen: the 64-point
grid fills its blocks, and the 60- and 105-point ones end on a partial block. The 4,352-point grid
is more than grid_oracle scores in one kernel call, so it takes a full chunk and a partial one and
compares the minima across chunks. Each command runs in its
own empty directory with the relative `--out out`, so result.json, which records its output
directory, compares too. Diff the lines of two trees, or of one tree with and without --twin,
to check that they write the same bytes:

    PYTHONPATH=src python scripts/output_digests.py > c.txt
    PYTHONPATH=src python scripts/output_digests.py --twin > twin.txt
    diff c.txt twin.txt
"""

import argparse
import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

import evopid.plant
from evopid import EXPERIMENT_TABLE
from evopid.cli import cli_main

GAINS = "0.5,0.05,0.001,0.4,0.02,0"
# 5 x 4 x 3 = 60 points, twelve more than a multiple of sixteen
GRID = "kp = 0, 2, 8, 32, 128\nki = 0, 1, 4, 16\nkd = 0, 0.05, 0.2\n"
# 7 x 5 x 3 = 105 points, nine more than a multiple of sixteen
TAIL_GRID = "kp = 0, 0.5, 1, 2, 8, 32, 128\nki = 0, 0.25, 1, 4, 16\nkd = 0, 0.05, 0.2\n"
# 4 x 4 x 4 = 64 points, four full blocks
FULL_GRID = "kp = 0, 0.5, 4, 32\nki = 0, 0.25, 2, 16\nkd = 0, 0.01, 0.05, 0.2\n"
# 17 x 16 x 16 = 4,352 points, one chunk of harness._ORACLE_CHUNK = 4,096 and a partial one of 256; on both routes
# the linear minimum lies in the partial chunk (kp 32) and the angular one in the full chunk (kp 16)
CHUNKS_GRID = (
    "kp = 0, 0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32\n"
    "ki = 0, 0.1, 0.25, 0.5, 1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32\n"
    "kd = 0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.03, 0.05, 0.075, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1\n"
)
SEEDS = range(10)
# a 300 s test-route phase: 30,000 trace rows at the default sample rate
LONG_ROUTE = "route.test.phase_duration = 300.0\n"
# three generations of the parent alone: next_generation returns it without drawing or checking
SINGLE = "ep.population_size = 1\nep.max_generations = 3\n"
# sigmas wide enough that many steps overshoot below 0 and are halved: one for each mutation operator
WIDE_SIGMAS = {1: "mutation.sigma_absolute = 2\n", 2: "mutation.sigma_scaled = 3\n"}


def commands() -> list[str]:
    tune = [f"tune --experiment {e} --seed {s} --out out" for e in EXPERIMENT_TABLE for s in SEEDS]
    tune += [f"tune --experiment {e} --config single.cfg --out out" for e in (1, 2)]
    tune += [f"tune --experiment {e} --seed {s} --config wide{e}.cfg --out out" for e in WIDE_SIGMAS for s in SEEDS]
    routes = ("train", "test")
    step = [f"step --gains {GAINS} --route {route} --out out" for route in routes]
    step.append(f"step --gains {GAINS} --route test --config long.cfg --out out")
    grids = ("grid.cfg", "tail.cfg", "full.cfg", "chunks.cfg")
    oracle = [f"oracle --grid {grid} --route {route} --out out" for grid in grids for route in routes]
    return tune + step + oracle


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--twin", action="store_true", help="run the Python twin in place of the C kernel")
    args = parser.parse_args()
    if args.twin:
        evopid.plant._c_kernel = lambda: None

    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="evopid-digests-") as tmp:
        try:
            for number, command in enumerate(commands()):
                case = Path(tmp) / str(number)
                case.mkdir()
                os.chdir(case)
                (case / "grid.cfg").write_text(GRID, encoding="utf-8")
                (case / "tail.cfg").write_text(TAIL_GRID, encoding="utf-8")
                (case / "full.cfg").write_text(FULL_GRID, encoding="utf-8")
                (case / "chunks.cfg").write_text(CHUNKS_GRID, encoding="utf-8")
                (case / "long.cfg").write_text(LONG_ROUTE, encoding="utf-8")
                (case / "single.cfg").write_text(SINGLE, encoding="utf-8")
                for e, text in WIDE_SIGMAS.items():
                    (case / f"wide{e}.cfg").write_text(text, encoding="utf-8")
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli_main(command.split())
                if code != 0:
                    raise SystemExit(f"{command} exited {code}")
                print(f"{command}\tstdout\t{digest(stdout.getvalue().encode())}")
                out = case / "out"
                files = sorted(out.iterdir()) if out.is_dir() else [out]
                for path in files:
                    print(f"{command}\t{path.relative_to(case)}\t{digest(path.read_bytes())}")
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
