"""Hill climbing with random restarts, driven by a synthesized operator.

The operator's raw neighborhood stays observable to the fitness layer;
here, at the deployment end, hard constraints filter neighbors and the
climber takes the first strictly improving feasible move under a seeded
shuffle.  Restarts are independent: restart i draws its start and shuffle
stream from (seed, i) alone, so the best over the first k restarts is a
prefix of the best over k+1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from noodle.lang.analyzer import DEFAULT_VAR_BUDGET, analyze
from noodle.lang.ast import Program, variables_used
from noodle.lang.interp import DEFAULT_CAP, DEFAULT_FUEL, neighbors
from noodle.model import Assignment, InfeasibleError, Model, is_feasible, objective, seed_assignment
from noodle.util import split_seed


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 10
    max_steps: int = 10_000
    neighbor_cap: int = DEFAULT_CAP
    fuel: int = DEFAULT_FUEL
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "max_steps", "neighbor_cap", "fuel"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class RestartTrace:
    steps: int
    objective: float


@dataclass(frozen=True)
class SearchResult:
    best_assignment: Assignment | None
    best_objective: float | None
    traces: tuple[RestartTrace, ...]
    neighbors_generated: int
    truncated: bool = False

    def to_json(self) -> dict:
        return {
            "best_values": list(self.best_assignment) if self.best_assignment else None,
            "best_objective": self.best_objective,
            "restarts": [{"steps": t.steps, "objective": t.objective} for t in self.traces],
            "neighbors_generated": self.neighbors_generated,
            "truncated": self.truncated,
        }


def hill_climb(
    model: Model,
    program: Program,
    start: Assignment,
    config: SearchConfig,
    rng: random.Random,
) -> tuple[Assignment, float, int, int, bool]:
    """First-improvement climb from a feasible start.

    Returns (assignment, objective, accepted steps, neighbors generated,
    whether any neighborhood was truncated).  Neighbors with any
    violation are discarded; ties in the shuffled order are broken by the
    rng stream, so runs are deterministic per seed.
    """
    if not is_feasible(model, start):
        raise InfeasibleError("infeasible start")
    current = start
    current_cost = objective(model, current)
    steps, generated, truncated = 0, 0, False
    while steps < config.max_steps:
        result = neighbors(program, model, current, fuel=config.fuel, cap=config.neighbor_cap)
        generated += len(result)
        truncated |= result.truncated
        candidates = list(result.assignments)
        rng.shuffle(candidates)
        moved = False
        for candidate in candidates:
            if not is_feasible(model, candidate):
                continue
            cost = objective(model, candidate)
            if cost < current_cost:
                current, current_cost = candidate, cost
                steps += 1
                moved = True
                break
        if not moved:
            break
    return current, current_cost, steps, generated, truncated


def solve(model: Model, program: Program, config: SearchConfig) -> SearchResult:
    """Run independent restarts and fold the best result deterministically."""
    # deployment accepts any variable budget the operator was bred under
    used = variables_used(program)
    budget = max(DEFAULT_VAR_BUDGET, max(used, default=0) + 1)
    diagnostics = analyze(program, model, budget=budget)
    if not diagnostics.ok:
        codes = ", ".join(sorted({d.code for d in diagnostics.errors}))
        raise ValueError(f"program fails analysis: {codes}")
    traces = []
    best: tuple[float, Assignment] | None = None
    generated, truncated = 0, False
    for i in range(config.restarts):
        start = seed_assignment(model, split_seed(config.seed, "start", i))
        rng = random.Random(split_seed(config.seed, "climb", i))
        assignment, cost, steps, restart_generated, restart_truncated = hill_climb(model, program, start, config, rng)
        generated += restart_generated
        truncated |= restart_truncated
        traces.append(RestartTrace(steps=steps, objective=cost))
        if best is None or cost < best[0]:
            best = (cost, assignment)
    return SearchResult(
        best_assignment=best[1] if best else None,
        best_objective=best[0] if best else None,
        traces=tuple(traces),
        neighbors_generated=generated,
        truncated=truncated,
    )
