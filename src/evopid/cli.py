"""Command-line entry points: tune, step, and oracle subcommands."""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from .ep import EvaluationError, Individual
from .harness import (
    EXPERIMENT_TABLE,
    ConfigError,
    build_environment,
    build_experiment_spec,
    grid_oracle,
    export_trace,
    parse_config_file,
    parse_grid_file,
    render_result_table,
    run_experiment,
    _write_json,
)
from .metrics import step_metrics
from .plant import SimulationDiverged, check_step_route, simulate_route


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evopid",
        description="Tune paired velocity PID gains with evolutionary programming on a surrogate plant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser("tune", help="run one preset tuning experiment and log every generation")
    tune.add_argument("--experiment", type=int, required=True, choices=EXPERIMENT_TABLE, help="preset experiment id")
    tune.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    tune.add_argument("--out", type=Path, default=None, help="output directory (default results/experiment_N)")
    tune.add_argument("--config", type=Path, default=None, help="flat key=value override file")
    tune.set_defaults(run=_cmd_tune)

    step = sub.add_parser("step", help="simulate one gain set on a route and report step metrics")
    step.add_argument(
        "--gains",
        required=True,
        help="six comma-separated gains: kpv,kiv,kdv,kpa,kia,kda",
    )
    step.add_argument("--route", required=True, choices=("train", "test"))
    step.add_argument("--out", type=Path, default=Path("step_trace.csv"), help="trace CSV path")
    step.add_argument("--config", type=Path, default=None, help="flat key=value override file")
    step.set_defaults(run=_cmd_step)

    oracle = sub.add_parser("oracle", help="exhaustive grid search baseline over gain values")
    oracle.add_argument("--grid", type=Path, required=True, help="grid file: lines `kp|ki|kd = v1, v2, ...`")
    oracle.add_argument("--route", choices=("train", "test"), default="train")
    oracle.add_argument("--out", type=Path, default=None, help="optional JSON output path")
    oracle.add_argument("--config", type=Path, default=None, help="flat key=value override file")
    oracle.set_defaults(run=_cmd_oracle)

    return parser


def _overrides(args: argparse.Namespace) -> dict[str, float]:
    args.lines = {}  # each --config key's line, kept for cli_main to name if a spec rejects the key's value
    return parse_config_file(args.config, args.lines) if args.config is not None else {}


def _cmd_tune(args: argparse.Namespace) -> int:
    spec = build_experiment_spec(
        args.experiment, seed=args.seed, output_dir=args.out, overrides=_overrides(args)
    )
    record = run_experiment(spec)
    print(render_result_table([record]))
    print(f"stop reason: {record.stop_reason.value} after {record.generations_run} generations")
    print(f"wrote generations.csv, best_train_trace.csv, best_test_trace.csv, result.json to {spec.output_dir}")
    return 0


def _parse_gains(text: str) -> Individual:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 6:
        raise ValueError(f"--gains needs 6 values (kpv,kiv,kdv,kpa,kia,kda), got {len(parts)}")
    return Individual.from_flat([float(p) for p in parts])


def _cmd_step(args: argparse.Namespace) -> int:
    individual = _parse_gains(args.gains)
    plant, sim, routes = build_environment(_overrides(args))
    route = routes[args.route]
    check_step_route(args.route, route, plant, sim)
    trace = simulate_route(individual, route, plant, sim)
    export_trace(trace, args.out)
    print(f"wrote trace to {args.out}")
    for name, channel in (("linear", trace.linear), ("angular", trace.angular)):
        m = step_metrics(channel, route)
        rise = "never reached 90%" if m.rise_time is None else f"{m.rise_time:.4f} s"
        print(
            f"{name:7s} rise_time={rise}  overshoot={m.overshoot:.4f}  "
            f"steady_state_error={m.steady_state_error:.6g}"
        )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    grid = parse_grid_file(args.grid)
    plant, sim, routes = build_environment(_overrides(args))
    result = grid_oracle(routes[args.route], plant, sim, grid)
    payload = {"route": args.route}
    for name, gains, ae in (
        ("linear", result.linear_gains, result.ae_linear),
        ("angular", result.angular_gains, result.ae_angular),
    ):
        fields = asdict(gains)
        payload[name] = {**fields, "ae": ae}
        gains_text = " ".join(f"{k}={v:.6g}" for k, v in fields.items())
        print(f"{name:7s} {gains_text}  ae={ae:.6g}")
    if args.out is not None:
        _write_json(args.out, payload)
        print(f"wrote {args.out}")
    return 0


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.run(args)
    except (ConfigError, EvaluationError, SimulationDiverged, ValueError, OSError) as exc:
        if getattr(exc, "key", None) in getattr(args, "lines", {}):  # a spec rejected a --config value: name its line
            exc = f"{args.config}:{args.lines[exc.key]}: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
