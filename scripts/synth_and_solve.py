#!/usr/bin/env python3
"""End-to-end experiment: evolve an operator, then deploy it.

Synthesizes an operator for the bundled 6-city model, reports its fitness
against the hand-written 2-opt reference, and runs both through the
restarting hill climber.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from noodle import (
    EvolutionConfig,
    SearchConfig,
    evolve,
    load_model,
    parse,
    solve,
)

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--pop", type=int, default=200)
    ap.add_argument("--gens", type=int, default=50)
    ap.add_argument("--restarts", type=int, default=10)
    args = ap.parse_args()

    model = load_model((ROOT / "fixtures" / "tsp6.json").read_text())
    reference = parse((ROOT / "fixtures" / "two_opt.ndl").read_text())

    config = EvolutionConfig(population_size=args.pop, generations=args.gens, seed=args.seed)
    report = evolve(model, config)
    print(f"evolved in {report.wall_clock:.1f}s: {report.best_program}")
    print(f"  fitness: {report.best_fitness.to_json()}")

    search = SearchConfig(restarts=args.restarts, seed=args.seed)
    if report.best_fitness.tier == "STATIC_REJECT":
        print("no evolved operator passed analysis; solving with the reference only")
    else:
        evolved_result = solve(model, parse(report.best_program), search)
        print(f"evolved operator best tour cost:   {evolved_result.best_objective}")
    reference_result = solve(model, reference, search)
    print(f"reference 2-opt best tour cost:    {reference_result.best_objective}")


if __name__ == "__main__":
    main()
