"""The benchmark's workloads: their inputs, their timed calls, and the checks.

The benchmark builds the random models itself, from fixed instance
seeds; the workload seed is recorded but selects nothing.  The pinned
paper experiment reads the repository's ``fixtures/tsp6.json`` and
``fixtures/rediscovery_seeds.json``.  Noodle receives only model and
operator documents.  Nothing here imports ``scripts/``, so editing a
fixture script cannot move a workload.

The tour checks use only the cost matrix the benchmark generated and
never call noodle's interpreter or search code.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

SOLVE_RESTARTS = 3
SOLVE_SEARCH_SEED = 7
TSP_CITIES = 20
COLOR_VERTICES = 12
COLOR_EDGES = 19
COLOR_COUNT = 5
# Degree at most COLOR_COUNT - 1 lets any greedy order colour the graph,
# so seed_assignment never fails on a generated instance.
COLOR_MAX_DEGREE = COLOR_COUNT - 1
COLOR_SYNTH_SEEDS = (1, 2, 3)
# The random instances are fixed rather than drawn from the workload seed:
# search and evolution cost differ between instances (96 to 126 hill-climb
# neighborhoods over tour seeds 1-10; 11.6 s against 51 s of evolution on
# colouring seeds 1 and 2, on a 2-vCPU VM), which would swamp the change a
# commit makes.
TSP_INSTANCE_SEED = 1
COLOR_INSTANCE_SEED = 1
COLOR_POPULATION = 200
COLOR_GENERATIONS = 50
# acceptance criterion 6: a circuit-preserving operator with enough moves
REDISCOVERY_PRODUCTIVITY = 6


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _document_text(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def tsp_document(seed: int, cities: int = TSP_CITIES) -> dict:
    """Random Euclidean TSP on a 100 x 100 square, successor-array encoded.

    Costs are distances rounded to three decimals, and each variable's
    domain excludes its own position, as in the bundled tsp6 model.
    """
    rng = random.Random(f"solve-tsp{cities}/{seed}")
    points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(cities)]
    matrix = [
        [0.0 if i == j else round(math.dist(points[i], points[j]), 3) for j in range(cities)]
        for i in range(cities)
    ]
    names = [f"n{i}" for i in range(1, cities + 1)]
    return {
        "name": f"tsp{cities}-seed{seed}",
        "variables": [
            {"name": name, "domain": {"set": [v for v in range(1, cities + 1) if v != i]}}
            for i, name in enumerate(names, start=1)
        ],
        "groups": {"next": names},
        "constraints": [{"kind": "circuit", "scope": "next", "alias": "all_diff_next"}],
        "structural": 0,
        "objective": {"kind": "next_cost", "matrix": matrix},
    }


def coloring_document(seed: int) -> dict:
    """Random graph colouring with a fixed edge count and capped degree."""
    rng = random.Random(f"synth-color{COLOR_VERTICES}/{seed}")
    pairs = [(a, b) for a in range(COLOR_VERTICES) for b in range(a + 1, COLOR_VERTICES)]
    rng.shuffle(pairs)
    degree = [0] * COLOR_VERTICES
    edges = []
    for a, b in pairs:
        if degree[a] < COLOR_MAX_DEGREE and degree[b] < COLOR_MAX_DEGREE:
            edges.append((a, b))
            degree[a] += 1
            degree[b] += 1
            if len(edges) == COLOR_EDGES:
                break
    names = [f"v{i}" for i in range(1, COLOR_VERTICES + 1)]
    return {
        "name": f"color{COLOR_VERTICES}-seed{seed}",
        "variables": [{"name": name, "domain": {"lo": 1, "hi": COLOR_COUNT}} for name in names],
        "groups": {"colors": names},
        "constraints": [{"kind": "not_equal", "scope": [names[a], names[b]]} for a, b in sorted(edges)],
        "objective": {"kind": "distinct_count", "group": "colors"},
    }


def is_single_cycle(values) -> bool:
    """True iff the successor array is one cycle through every position."""
    n = len(values)
    if sorted(values) != list(range(1, n + 1)):
        return False
    node, length = 1, 0
    while True:
        node = values[node - 1]
        length += 1
        if node == 1:
            return length == n


def successor_cost(values, matrix) -> float:
    return sum(matrix[i][values[i] - 1] for i in range(len(values)))


def improving_reversal(values, matrix, cost: float) -> bool:
    """True iff some segment reversal of the tour is strictly cheaper."""
    path = [1]
    while len(path) < len(values):
        path.append(values[path[-1] - 1])
    n = len(path)
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            reversed_path = path[:i] + path[i : j + 1][::-1] + path[j + 1 :]
            successors = [0] * n
            for k, city in enumerate(reversed_path):
                successors[city - 1] = reversed_path[(k + 1) % n]
            if successor_cost(successors, matrix) < cost - 1e-9:
                return True
    return False


@dataclass
class Prepared:
    """Inputs for one run: the loaded model plus what the checks need."""

    model: object
    documents: dict[str, str]
    configs: list = field(default_factory=list)
    program: object = None
    matrix: list | None = None


@dataclass
class Checked:
    failed: list[bool]
    summary: dict


class SynthWorkload:
    """``evolve`` once per evolution seed; one operation per seed."""

    operations_per_call = 1

    def __init__(self, name: str, pinned: bool):
        self.name = name
        self.pinned = pinned

    def prepare(self, noodle, root: Path) -> Prepared:
        if self.pinned:
            text = (root / "fixtures" / "tsp6.json").read_text(encoding="utf-8")
            seeds_text = (root / "fixtures" / "rediscovery_seeds.json").read_text(encoding="utf-8")
            pinned = json.loads(seeds_text)
            population, generations, seeds = pinned["population_size"], pinned["generations"], pinned["seeds"]
            documents = {"fixtures/tsp6.json": text, "fixtures/rediscovery_seeds.json": seeds_text}
        else:
            text = _document_text(coloring_document(COLOR_INSTANCE_SEED))
            population, generations, seeds = COLOR_POPULATION, COLOR_GENERATIONS, COLOR_SYNTH_SEEDS
            documents = {f"{self.name} model": text}
        model = noodle.load_model(text)
        configs = [
            noodle.EvolutionConfig(population_size=population, generations=generations, seed=s) for s in seeds
        ]
        return Prepared(model=model, documents=documents, configs=configs)

    def call(self, noodle, prepared: Prepared, index: int, tracer) -> str:
        with tracer.span("evolution.evolve"):
            report = noodle.evolve(prepared.model, prepared.configs[index])
            return json.dumps(report.to_json(), sort_keys=True) + "\n"

    def check(self, noodle, prepared: Prepared, outputs: list[str]) -> Checked:
        """The best operator parses, analyzes, and re-scores to its reported fitness."""
        failed = []
        fitnesses = []
        for config, text in zip(prepared.configs, outputs):
            report = json.loads(text)
            reported = report["best"]["fitness"]
            fitnesses.append(reported)
            try:
                program = noodle.parse(report["best"]["program"])
                analyzed = noodle.analyze(program, prepared.model, budget=config.var_budget).ok
                samples = [noodle.seed_assignment(prepared.model, s) for s in report["sample_seeds"]]
                rescored = noodle.evaluate_fitness(
                    program,
                    prepared.model,
                    samples,
                    fuel=config.fuel,
                    cap=config.inspection_cap,
                    budget=config.var_budget,
                ).to_json()
            except Exception as exc:  # any failure of the check counts, and the run goes on
                print(f"perfbench: {self.name} seed {config.seed}: check raised {exc!r}", file=sys.stderr)
                failed.append(True)
                continue
            ok = analyzed and rescored == reported
            if not ok:
                print(
                    f"perfbench: {self.name} seed {config.seed}: analyzed={analyzed}, "
                    f"re-scored {rescored} != reported {reported}",
                    file=sys.stderr,
                )
            failed.append(not ok)
        summary = {"best_fitness": fitnesses}
        if self.pinned:
            hits = [
                f["tier"] == "VALID" and f["preserved"] >= 1 and f["productivity"] >= REDISCOVERY_PRODUCTIVITY
                for f in fitnesses
            ]
            summary["rediscovery_rate"] = sum(hits) / len(hits)
        return Checked(failed=failed, summary=summary)


class SolveWorkload:
    """``solve`` with the bundled 2-opt operator; one operation per restart."""

    name = "solve-tsp20"
    operations_per_call = SOLVE_RESTARTS

    def prepare(self, noodle, root: Path) -> Prepared:
        document = tsp_document(TSP_INSTANCE_SEED)
        text = _document_text(document)
        operator = (root / "fixtures" / "two_opt.ndl").read_text(encoding="utf-8")
        model = noodle.load_model(text)
        program = noodle.parse(operator)
        config = noodle.SearchConfig(restarts=SOLVE_RESTARTS, seed=SOLVE_SEARCH_SEED)
        return Prepared(
            model=model,
            documents={f"{self.name} model": text, "fixtures/two_opt.ndl": operator},
            configs=[config],
            program=program,
            matrix=document["objective"]["matrix"],
        )

    def call(self, noodle, prepared: Prepared, index: int, tracer) -> str:
        with tracer.span("search.solve"):
            result = noodle.solve(prepared.model, prepared.program, prepared.configs[index])
            return json.dumps(result.to_json(), sort_keys=True) + "\n"

    def check(self, noodle, prepared: Prepared, outputs: list[str]) -> Checked:
        """The best tour is one cycle, costs what it reports, and is 2-opt optimal.

        Each restart is an operation: it fails if its final cost is not a
        number at least the best cost; the restart that reports the best
        cost also fails when the best tour does not pass the checks.
        """
        result = json.loads(outputs[0])
        values, best = result["best_values"], result["best_objective"]
        costs = [r["objective"] for r in result["restarts"]]
        if len(costs) != SOLVE_RESTARTS or not isinstance(best, (int, float)):
            print(f"perfbench: {self.name}: malformed result {result}", file=sys.stderr)
            return Checked(failed=[True] * SOLVE_RESTARTS, summary={})
        tour_ok = (
            values is not None
            and is_single_cycle(values)
            and abs(successor_cost(values, prepared.matrix) - best) <= 1e-9 * max(1.0, abs(best))
            and not improving_reversal(values, prepared.matrix, best)
        )
        if not tour_ok:
            print(f"perfbench: {self.name}: best tour {values} fails the tour checks", file=sys.stderr)
        failed = []
        for cost in costs:
            ok = isinstance(cost, (int, float)) and cost >= best
            if ok and cost == best and not tour_ok:
                ok = False
            failed.append(not ok)
        return Checked(failed=failed, summary={"tour_cost": sum(costs) / len(costs), "best_cost": best})


WORKLOADS = {
    w.name: w
    for w in (SynthWorkload("synth-tsp6", pinned=True), SolveWorkload(), SynthWorkload("synth-color12", pinned=False))
}
