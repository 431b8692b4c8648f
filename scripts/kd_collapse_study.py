#!/usr/bin/env python3
"""Sweep seeds of the scaled-mutation experiment and compare the derivative gains before and after.

For each seed it prints the median kd of each channel over the initial population against the final kd of
the best individual, then the medians of both over the seeds and the number of seeds on which kd decreased
on both channels.
"""

import argparse
import statistics

from evopid import EPConfig, MutationKind, MutationSpec, build_environment, fitness_of, run_ep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds to sweep")
    parser.add_argument("--generations", type=int, default=100)
    parser.add_argument("--population", type=int, default=10)
    args = parser.parse_args()

    plant, sim, routes = build_environment()
    train = routes["train"]

    rows = []
    for seed in range(args.seeds):
        config = EPConfig(
            population_size=args.population,
            max_generations=args.generations,
            mutation=MutationSpec(MutationKind.SCALED),
            rng_seed=seed,
        )
        best, history, _ = run_ep(config, lambda ind: fitness_of(ind, train, plant, sim))
        gen0 = history[0].members
        rows.append(
            {
                "seed": seed,
                "init_kdv": statistics.median(m.individual.linear.kd for m in gen0),
                "init_kda": statistics.median(m.individual.angular.kd for m in gen0),
                "final_kdv": best.linear.kd,
                "final_kda": best.angular.kd,
            }
        )

    print(f"{'seed':>4}  {'median init kdv':>15}  {'final kdv':>12}  {'median init kda':>15}  {'final kda':>12}")
    for r in rows:
        print(
            f"{r['seed']:>4}  {r['init_kdv']:>15.3e}  {r['final_kdv']:>12.3e}"
            f"  {r['init_kda']:>15.3e}  {r['final_kda']:>12.3e}"
        )

    decreases = sum(
        1 for r in rows if r["final_kdv"] < r["init_kdv"] and r["final_kda"] < r["init_kda"]
    )
    print(
        f"\nmedians over seeds: kdv {statistics.median(r['init_kdv'] for r in rows):.3e}"
        f" -> {statistics.median(r['final_kdv'] for r in rows):.3e},"
        f" kda {statistics.median(r['init_kda'] for r in rows):.3e}"
        f" -> {statistics.median(r['final_kda'] for r in rows):.3e}"
    )
    print(f"derivative gain decreased on both channels for {decreases}/{len(rows)} seeds")


if __name__ == "__main__":
    main()
