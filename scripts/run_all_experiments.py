#!/usr/bin/env python3
"""Run every preset tuning experiment and print one combined summary table.

Each experiment writes generations.csv, best_train_trace.csv, best_test_trace.csv,
and result.json into <out>/experiment_<id>/.
"""

import argparse
import sys
from pathlib import Path

from evopid import (
    EXPERIMENT_TABLE,
    ConfigError,
    EvaluationError,
    SimulationDiverged,
    build_experiment_spec,
    parse_config_file,
    render_result_table,
    run_experiment,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="RNG seed shared by every run")
    parser.add_argument("--out", type=Path, default=Path("results"), help="output root directory")
    parser.add_argument("--config", type=Path, default=None, help="flat key=value override file")
    args = parser.parse_args()
    lines = {}  # each --config key's line, to name if a spec rejects the key's value
    try:
        run_all(args, parse_config_file(args.config, lines) if args.config else {})
    except (ConfigError, EvaluationError, SimulationDiverged, ValueError, OSError) as exc:
        # as evopid's own commands report an error: one line on stderr, exit status 1
        if getattr(exc, "key", None) in lines:
            exc = f"{args.config}:{lines[exc.key]}: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None


def run_all(args: argparse.Namespace, overrides: dict[str, float]) -> None:
    records = []
    for experiment_id in EXPERIMENT_TABLE:
        spec = build_experiment_spec(
            experiment_id,
            seed=args.seed,
            output_dir=args.out / f"experiment_{experiment_id}",
            overrides=overrides,
        )
        print(f"running experiment {experiment_id} "
              f"({spec.ep.mutation.kind.value} mutation, population {spec.ep.population_size}) ...")
        record = run_experiment(spec)
        records.append(record)

    print()
    print(render_result_table(records))
    print(f"\noutputs under {args.out}/")


if __name__ == "__main__":
    main()
