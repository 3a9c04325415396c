"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 2 compares neighborhoods as tours (successor arrays encode each
undirected tour twice, once per traversal direction, and the operator's
generators are symmetric in that choice); the canonical key folds the two
encodings together and the input tour itself is excluded.
"""

import json
import random
import time
from contextlib import contextmanager
from itertools import permutations

from noodle.evolution import EvolutionConfig, evaluate_fitness, evolve, sample_seeds_for
from noodle.grammar import derive_grammar, map_genome
from noodle.lang.analyzer import analyze, optimize
from noodle.lang.ast import render
from noodle.lang.interp import neighbors
from noodle.lang.parser import parse
from noodle.model import is_feasible, seed_assignment
from noodle.search import SearchConfig, hill_climb, solve

from tests.conftest import FIXTURES, fixture_text
from tests.oracles import (
    canonical_tour,
    nearest_neighbor_cost,
    path_to_successors,
    two_opt_neighborhood,
)
from tests.test_cli import run_cli

LEGACY_TEXT = fixture_text("legacy_two_opt.ndl")
FIXED_TOUR6 = (2, 3, 4, 5, 6, 1)


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.perf_counter() - started:.2f}s)")
        raise
    elapsed = time.perf_counter() - started
    verdict = "PASS" if elapsed < budget_s else "FAIL (time budget)"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_legacy_operator_round_trip(tsp6):
    with criterion(1, "legacy operator round trip", 1.0):
        program = parse(LEGACY_TEXT)
        assert len(program.body) == 2
        diagnostics = analyze(program, tsp6)
        assert diagnostics.errors == ()
        once = render(program)
        assert parse(once) == program
        assert render(parse(once)) == once


def test_criterion_2_two_opt_expressibility(tsp6, two_opt):
    with criterion(2, "2-opt expressibility", 5.0):
        start = FIXED_TOUR6
        result = neighbors(two_opt, tsp6, start)
        assert not result.truncated
        feasible = [a for a in result.assignments if is_feasible(tsp6, a)]

        oracle_arrays = two_opt_neighborhood(start)
        assert len(oracle_arrays) == 6 * (6 - 3) // 2 == 9
        # every oracle move is directly expressible as an emitted array
        assert oracle_arrays <= set(feasible)
        # as tours, the feasible neighborhood is exactly the 2-opt neighborhood
        produced = {canonical_tour(v) for v in feasible} - {canonical_tour(start)}
        expected = {canonical_tour(v) for v in oracle_arrays}
        assert produced == expected
        assert len(produced) == 9


def test_criterion_3_totality(tsp6):
    with criterion(3, "totality", 60.0):
        rng = random.Random(42)
        grammar = derive_grammar(tsp6, budget=6)
        sample = seed_assignment(tsp6, 42)
        executed = 0
        for _ in range(1000):
            genome = [rng.randrange(256) for _ in range(80)]
            outcome = map_genome(grammar, genome)
            if not outcome.ok:
                continue
            if not analyze(outcome.program, tsp6).ok:
                continue
            result = neighbors(optimize(outcome.program), tsp6, sample, fuel=1_000_000)
            assert not result.truncated, "a program needed more than the 1e6-step budget"
            executed += 1
        assert executed > 0


def test_criterion_4_syntactic_correctness(tsp6):
    with criterion(4, "syntactic correctness", 30.0):
        rng = random.Random(7)
        grammar = derive_grammar(tsp6, budget=6)
        successes = 0
        for _ in range(10_000):
            genome = [rng.randrange(256) for _ in range(80)]
            outcome = map_genome(grammar, genome)
            if not outcome.ok:
                continue
            text = render(outcome.program)
            assert parse(text) == outcome.program
            successes += 1
        assert successes > 0


def test_criterion_5_fitness_semantics(tsp6, tsp6_full, two_opt, single_swap):
    with criterion(5, "fitness semantics", 10.0):
        seeds = sample_seeds_for(EvolutionConfig(seed=0, sample_count=5))
        samples = [seed_assignment(tsp6, s) for s in seeds]
        fitness = evaluate_fitness(two_opt, tsp6, samples)
        assert fitness.tier == "VALID"
        assert fitness.preserved == 1

        swap_fitness = evaluate_fitness(single_swap, tsp6, samples)
        assert swap_fitness.preserved == 0
        # with self-positions back in the domains the swaps run and their
        # violations are what zero the preservation count
        full_samples = [seed_assignment(tsp6_full, s) for s in seeds]
        full_fitness = evaluate_fitness(single_swap, tsp6_full, full_samples)
        assert full_fitness.tier == "VALID"
        assert full_fitness.preserved == 0


def test_criterion_6_rediscovery(tsp6):
    pinned = json.loads(fixture_text("rediscovery_seeds.json"))
    with criterion(6, "rediscovery", 900.0):
        hits = []
        for seed in pinned["seeds"]:
            config = EvolutionConfig(
                population_size=pinned["population_size"],
                generations=pinned["generations"],
                seed=seed,
            )
            report = evolve(tsp6, config)
            fitness = report.best_fitness
            if fitness.tier == "VALID" and fitness.preserved >= 1 and fitness.productivity >= 6:
                hits.append(seed)
        assert hits, f"no pinned seed evolved a circuit-preserving operator: {pinned['seeds']}"


def test_criterion_7_search_deployment(tsp4, tsp6, two_opt):
    with criterion(7, "search deployment", 10.0):
        for i, rest in enumerate(permutations(range(2, 5))):
            start = path_to_successors([1, *rest])
            _, cost, *_ = hill_climb(tsp4, two_opt, start, SearchConfig(seed=i), random.Random(i))
            assert cost == 4

        result = solve(tsp6, two_opt, SearchConfig(restarts=10, seed=7))
        baseline = nearest_neighbor_cost(tsp6.objective.matrix)
        assert result.best_objective <= baseline + 1e-9


def test_criterion_8_determinism():
    with criterion(8, "determinism", 1800.0):
        synth_args = (
            "synth",
            "--model", str(FIXTURES / "tsp6.json"),
            "--seed", "4",
            "--pop", "60",
            "--gens", "8",
        )
        single = {"NOODLE_THREADS": "1"}
        first = run_cli(*synth_args, env_extra=single)
        second = run_cli(*synth_args, env_extra=single)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

        auto = run_cli(*synth_args, env_extra={"NOODLE_THREADS": "0"})
        best_fixed = json.loads(first.stdout)["best"]["fitness"]
        best_auto = json.loads(auto.stdout)["best"]["fitness"]
        assert best_fixed == best_auto

        solve_args = (
            "solve",
            "--model", str(FIXTURES / "tsp6.json"),
            "--op", str(FIXTURES / "two_opt.ndl"),
            "--seed", "9",
        )
        first = run_cli(*solve_args, env_extra=single)
        second = run_cli(*solve_args, env_extra=single)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
