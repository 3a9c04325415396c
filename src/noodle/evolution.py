"""Constraint-preservation fitness and the grammar-evolution loop.

A candidate is scored by running its neighborhoods on a handful of
feasible sample assignments and checking which constraint kinds stay
satisfied across every inspected neighbor, not only the feasible ones:
an operator preserves a kind only if no generated neighbor violates it.
Fitness comparison is lexicographic: tier (VALID > BARREN >
STATIC_REJECT), then kinds preserved, then productivity (the smallest
per-sample count of feasible neighbors), then fewer atoms.  `evolve`
scores each program once per run up to variable renaming, on the mapper's
key.  Samples that are equal share one run.  On a symmetric model
(`Model.symmetric`) a label-free program (`Diagnostics.label_free`) maps
one tour's completed neighborhood onto any other tour's, so the first
completed run on a tour stands for every tour.

`evolve` scores with ``notes=False``: a sample's run stops once no later
neighbor can change the score (see `evaluate_fitness`), which leaves the
notes unknown.  It then re-scores each distinct generation-best program
once in full, so every reported fitness carries exact notes.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field

from noodle.grammar import (
    CODONS,
    DEFAULT_GENOME_LENGTH,
    DEFAULT_MAX_DEPTH,
    DEFAULT_WRAP_LIMIT,
    MIN_VAR_BUDGET,
    derive_grammar,
    map_genome,
)
from noodle.lang.analyzer import DEFAULT_VAR_BUDGET, analyze, optimize
from noodle.lang.ast import Program, atom_count, render
from noodle.lang.interp import neighbors
from noodle.model import Assignment, Model, seed_assignment, violations
from noodle.util import split_seed

TIERS = ("STATIC_REJECT", "BARREN", "VALID")
DEFAULT_EVAL_FUEL = 20_000


@dataclass(frozen=True)
class Fitness:
    tier: str
    preserved: int = 0
    productivity: int = 0
    size_penalty: int = 0
    notes: tuple[str, ...] = field(default=(), compare=False)  # ("TRUNCATED",) or ()

    def key(self) -> tuple:
        return (TIERS.index(self.tier), self.preserved, self.productivity, -self.size_penalty)

    def __lt__(self, other: "Fitness") -> bool:
        return self.key() < other.key()

    def to_json(self) -> dict:
        return {
            "tier": self.tier,
            "preserved": self.preserved,
            "productivity": self.productivity,
            "size_penalty": self.size_penalty,
        }


@dataclass(frozen=True)
class EvolutionConfig:
    population_size: int = 200
    generations: int = 100
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.05
    elitism: int = 1
    sample_count: int = 5
    inspection_cap: int = 500
    seed: int = 0
    genome_length: int = DEFAULT_GENOME_LENGTH
    wrap_limit: int = DEFAULT_WRAP_LIMIT
    max_depth: int = DEFAULT_MAX_DEPTH
    var_budget: int = DEFAULT_VAR_BUDGET
    fuel: int = DEFAULT_EVAL_FUEL

    def __post_init__(self):
        if not 0.0 <= self.crossover_rate <= 1.0 or not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("rates must lie in [0, 1]")
        for name in ("population_size", "tournament_size", "sample_count", "genome_length"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("generations", "elitism", "inspection_cap", "wrap_limit", "max_depth", "fuel"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.var_budget < MIN_VAR_BUDGET:
            raise ValueError(f"var_budget must be at least {MIN_VAR_BUDGET}")
        if self.var_budget > CODONS:  # derive_grammar checks it too, but only once evolve has started
            raise ValueError(f"var_budget must be at most {CODONS}")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class GenerationStat:
    best_fitness: Fitness
    best_program: str
    mean_preserved: float


@dataclass(frozen=True)
class EvolutionReport:
    config: EvolutionConfig
    generations: tuple[GenerationStat, ...]
    best_program: str
    best_genome: tuple[int, ...]
    best_fitness: Fitness
    sample_seeds: tuple[int, ...]
    wall_clock: float = field(default=0.0, compare=False)

    def to_json(self) -> dict:
        # wall clock stays out of the serialized report so that reruns
        # with the same seed are byte-identical
        return {
            "config": self.config.to_json(),
            "generations": [
                {
                    "best": {"fitness": g.best_fitness.to_json(), "program": g.best_program},
                    "mean_preserved": g.mean_preserved,
                }
                for g in self.generations
            ],
            "best": {
                "program": self.best_program,
                "genome": list(self.best_genome),
                "fitness": self.best_fitness.to_json(),
            },
            "sample_seeds": list(self.sample_seeds),
        }


def evaluate_fitness(
    program: Program,
    model: Model,
    samples: list[Assignment],
    *,
    fuel: int = DEFAULT_EVAL_FUEL,
    cap: int = EvolutionConfig.inspection_cap,
    budget: int = DEFAULT_VAR_BUDGET,
    notes: bool = True,
) -> Fitness:
    """Score one candidate program against feasible sample assignments.

    Analyzer errors are rejected without running the interpreter (tier
    STATIC_REJECT).  Producing no neighbor at all on some sample is tier
    BARREN.  Otherwise the candidate is VALID:
    ``preserved`` counts the model's constraint kinds that `violations`
    names for no inspected neighbor, ``productivity`` the smallest
    per-sample count of feasible neighbors (those it names no kind for),
    at most ``cap`` since a run keeps no more, and ``size_penalty`` the
    optimized program's atom count.  Samples that share a run (see the
    module docstring) run once.

    Neighbors are scored as the interpreter finds them.  With
    ``notes=False`` a run stops once it is settled: it has found a
    neighbor, every kind of the model is broken, and its feasible count
    has reached ``cap`` and the lowest feasible count of the samples
    scored before it.  No later neighbor can then move the score, but the
    stopped run cannot tell whether its full run would have truncated, so
    the notes are left empty.  The default runs every sample in full and
    notes ``TRUNCATED`` exactly.
    """
    if not samples:
        raise ValueError("samples must be non-empty")
    diagnostics = analyze(program, model, budget=budget)
    if not diagnostics.ok:
        return Fitness(tier="STATIC_REJECT", size_penalty=atom_count(program))

    optimized = optimize(program)
    size = atom_count(optimized)
    kinds = {c.kind for c in model.constraints}
    broken: set[str] = set()
    productivity = None
    noted: tuple[str, ...] = ()  # ("TRUNCATED",) once a run truncates; stays empty with notes=False
    share_tours = diagnostics.label_free and model.symmetric
    tour_ran = False  # whether a run on a tour completed
    stop, every = not notes, len(kinds)
    feasible = bound = 0
    stopped = False

    def settled(neighbor: Assignment) -> bool:
        """Score one neighbor of the current run; true once the run is settled."""
        nonlocal feasible, stopped
        violated = violations(model, neighbor)
        if violated:
            broken.update(violated)
        else:
            feasible += 1
        stopped = stop and feasible >= bound and len(broken) == every
        return stopped

    for sample in dict.fromkeys(samples):  # equal samples share one run
        tour = False
        if share_tours:
            model.validate_assignment(sample)  # before satisfied, which would index past a short sample
            tour = model.constraints[0].satisfied(sample)
            if tour and tour_ran:
                continue
        feasible, stopped = 0, False
        # a run keeps at most cap neighbors and feasible counts only kept ones, so no count exceeds cap
        bound = cap if productivity is None else productivity
        result = neighbors(optimized, model, sample, fuel=fuel, cap=cap, until=settled)
        tour_ran = tour_ran or tour and not result.truncated and not stopped
        if notes and result.truncated:
            noted = ("TRUNCATED",)
        if len(result) == 0:
            return Fitness(tier="BARREN", size_penalty=size, notes=noted)
        productivity = feasible if productivity is None else min(productivity, feasible)
    return Fitness(
        tier="VALID",
        preserved=len(kinds - broken),
        productivity=productivity,
        size_penalty=size,
        notes=noted,
    )


def vary(
    parent_a: tuple[int, ...],
    parent_b: tuple[int, ...],
    rng: random.Random,
    *,
    crossover_rate: float,
    mutation_rate: float,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Single-point crossover followed by per-codon uniform mutation."""
    if len(parent_a) != len(parent_b):
        raise ValueError("parents must have equal genome lengths")
    length = len(parent_a)
    draw, getrandbits, bits = rng.random, rng.getrandbits, CODONS.bit_length()
    if length > 1 and draw() < crossover_rate:
        point = rng.randrange(1, length)
        parent_a, parent_b = parent_a[:point] + parent_b[point:], parent_b[:point] + parent_a[point:]
    # one draw per codon, in order, and a fresh codon drawn right after each hit
    children = [list(parent_a), list(parent_b)]
    for child in children:
        for i in range(length):
            if draw() < mutation_rate:
                codon = getrandbits(bits)
                while codon >= CODONS:  # randrange(CODONS)'s own rejection loop and draws, without its Python frames
                    codon = getrandbits(bits)
                child[i] = codon
    return tuple(children[0]), tuple(children[1])


def sample_seeds_for(config: EvolutionConfig) -> tuple[int, ...]:
    return tuple(split_seed(config.seed, "sample", i) for i in range(config.sample_count))


def evolve(model: Model, config: EvolutionConfig) -> EvolutionReport:
    """Run the full synthesis loop; bit-reproducible per (model, config)."""
    started = time.perf_counter()
    grammar = derive_grammar(model, budget=config.var_budget)
    seeds = sample_seeds_for(config)
    samples = [seed_assignment(model, s) for s in seeds]

    init_rng = random.Random(split_seed(config.seed, "init"))
    population = [
        tuple(init_rng.randrange(CODONS) for _ in range(config.genome_length))
        for _ in range(config.population_size)
    ]

    # one fitness per mapper key over the run (renaming moves neither analysis nor
    # fitness); optimized text is no key, as dropping a self-swap can leave no effect
    memo: dict[tuple[int, ...], Fitness] = {}
    exact: set[tuple[int, ...]] = set()  # keys whose memo entry carries exact notes

    def score(program: Program, notes: bool) -> Fitness:
        return evaluate_fitness(
            program, model, samples, fuel=config.fuel, cap=config.inspection_cap, budget=config.var_budget, notes=notes
        )

    invalid_mapping = Fitness(tier="STATIC_REJECT")
    best_genome = population[0]
    best_fitness = None
    best_program = ""
    stats: list[GenerationStat] = []

    generation_count = max(config.generations, 1)
    for gen in range(generation_count):
        outcomes = [
            map_genome(grammar, genome, wrap_limit=config.wrap_limit, max_depth=config.max_depth)
            for genome in population
        ]
        fitnesses = []
        for outcome in outcomes:
            if not outcome.ok:
                fitnesses.append(invalid_mapping)
                continue
            fitness = memo.get(outcome.key)
            if fitness is None:
                fitness = memo[outcome.key] = score(outcome.program, notes=False)
            fitnesses.append(fitness)

        keys = [f.key() for f in fitnesses]
        order = sorted(range(len(population)), key=keys.__getitem__, reverse=True)
        gen_best = order[0]
        gen_outcome = outcomes[gen_best]
        if gen_outcome.ok:
            if gen_outcome.key not in exact:  # the same score, now with exact notes
                exact.add(gen_outcome.key)
                memo[gen_outcome.key] = score(gen_outcome.program, notes=True)
            fitnesses[gen_best] = memo[gen_outcome.key]
        gen_program = render(optimize(gen_outcome.program)) if gen_outcome.ok else ""
        if best_fitness is None or fitnesses[gen_best] > best_fitness:
            best_fitness = fitnesses[gen_best]
            best_genome = population[gen_best]
            best_program = gen_program
        stats.append(
            GenerationStat(
                best_fitness=fitnesses[gen_best],
                best_program=gen_program,
                mean_preserved=sum(f.preserved for f in fitnesses) / len(fitnesses),
            )
        )

        if gen == generation_count - 1:
            break

        rng = random.Random(split_seed(config.seed, "gen", gen))
        next_population = [population[i] for i in order[: config.elitism]]

        def tournament() -> tuple[int, ...]:
            picks = [rng.randrange(len(population)) for _ in range(config.tournament_size)]
            winner = max(picks, key=lambda i: (keys[i], -i))
            return population[winner]

        while len(next_population) < config.population_size:
            child_a, child_b = vary(
                tournament(),
                tournament(),
                rng,
                crossover_rate=config.crossover_rate,
                mutation_rate=config.mutation_rate,
            )
            next_population.append(child_a)
            if len(next_population) < config.population_size:
                next_population.append(child_b)
        population = next_population

    return EvolutionReport(
        config=config,
        generations=tuple(stats),
        best_program=best_program,
        best_genome=best_genome,
        best_fitness=best_fitness,
        sample_seeds=seeds,
        wall_clock=time.perf_counter() - started,
    )
