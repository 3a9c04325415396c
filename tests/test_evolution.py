import itertools
import json
import random
from dataclasses import asdict

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import noodle.evolution
from noodle.evolution import EvolutionConfig, Fitness, evaluate_fitness, evolve, sample_seeds_for, vary
from noodle.grammar import CODONS, derive_grammar, map_genome
from noodle.lang.analyzer import DEFAULT_VAR_BUDGET, analyze, optimize
from noodle.lang.ast import render, variables_used
from noodle.lang.interp import neighbors
from noodle.lang.parser import parse
from noodle.model import InfeasibleError, is_feasible, load_model, seed_assignment, violations

from tests.conftest import CIRCUIT_WITH_ALL_DIFFERENT, fixture_text, narrowed_tsp6
from tests.test_analyzer import LABEL_FREE_CASES
from tests.oracles import reference_automorphic, reference_evaluate_fitness, relabelled, renamed


def samples_for(model, count=5, seed=0):
    return [seed_assignment(model, s) for s in sample_seeds_for(EvolutionConfig(seed=seed, sample_count=count))]


def has_samples(model, seed):
    """Whether evolution seed ``seed``'s samples lie in the model's domains."""
    try:
        samples_for(model, seed=seed)
    except InfeasibleError:
        return False
    return True


class TestFitnessOrdering:
    def test_tier_dominates(self):
        valid = Fitness(tier="VALID", preserved=0, productivity=0, size_penalty=50)
        barren = Fitness(tier="BARREN", preserved=0, productivity=0, size_penalty=1)
        reject = Fitness(tier="STATIC_REJECT")
        assert reject < barren < valid

    def test_preserved_beats_productivity(self):
        low = Fitness(tier="VALID", preserved=0, productivity=500, size_penalty=1)
        high = Fitness(tier="VALID", preserved=1, productivity=1, size_penalty=9)
        assert low < high

    def test_productivity_beats_size(self):
        small = Fitness(tier="VALID", preserved=1, productivity=5, size_penalty=1)
        big = Fitness(tier="VALID", preserved=1, productivity=6, size_penalty=9)
        assert small < big

    def test_smaller_programs_win_ties(self):
        lean = Fitness(tier="VALID", preserved=1, productivity=6, size_penalty=4)
        bloated = Fitness(tier="VALID", preserved=1, productivity=6, size_penalty=9)
        assert bloated < lean


class TestEvaluateFitness:
    def test_two_opt_preserves_circuit(self, tsp6, two_opt):
        fitness = evaluate_fitness(two_opt, tsp6, samples_for(tsp6))
        assert fitness.tier == "VALID"
        assert fitness.preserved == 1
        assert fitness.productivity >= 6

    def test_pure_test_program_static_reject(self, tsp6):
        program = parse("constraint(all_diff_next, t0, t1)")
        fitness = evaluate_fitness(program, tsp6, samples_for(tsp6))
        assert fitness.tier == "STATIC_REJECT"
        assert "NO_EFFECT" in {d.code for d in analyze(program, tsp6).errors}

    def test_single_swap_breaks_circuit_on_full_domains(self, tsp6_full):
        program = parse("constraint(circuit, t0, t1), swap_values(t0, t1)")
        fitness = evaluate_fitness(program, tsp6_full, samples_for(tsp6_full))
        assert fitness.tier == "VALID"
        assert fitness.preserved == 0

    def test_single_swap_is_barren_on_self_excluding_domains(self, tsp6, single_swap):
        fitness = evaluate_fitness(single_swap, tsp6, samples_for(tsp6))
        assert fitness.tier == "BARREN"
        assert fitness.preserved == 0

    def test_optimized_program_scores_like_raw(self, tsp6):
        raw = parse(
            "constraint(all_diff_next, t0, t1), swap_values(t0, t0), "
            "constraint(all_diff_next, t2, t3), constraint(all_diff_next, t2, t3), redirect(t0, t2)"
        )
        samples = samples_for(tsp6)
        assert evaluate_fitness(raw, tsp6, samples).key() == evaluate_fitness(optimize(raw), tsp6, samples).key()

    def test_empty_samples_rejected(self, tsp6, two_opt):
        with pytest.raises(ValueError, match="samples must be non-empty"):
            evaluate_fitness(two_opt, tsp6, [])

    def test_evaluation_is_order_independent(self, tsp6):
        grammar = derive_grammar(tsp6, budget=6)
        rng = random.Random(11)
        genomes = [tuple(rng.randrange(256) for _ in range(80)) for _ in range(30)]
        samples = samples_for(tsp6)

        def run(order):
            scores = {}
            for i in order:
                outcome = map_genome(grammar, genomes[i])
                scores[i] = evaluate_fitness(outcome.program, tsp6, samples).key() if outcome.ok else None
            return scores

        forward = run(range(30))
        shuffled_order = list(range(30))
        random.Random(5).shuffle(shuffled_order)
        assert run(shuffled_order) == forward


class TestVary:
    def test_zero_rates_clone(self):
        rng = random.Random(0)
        a, b = tuple(range(10)), tuple(range(10, 20))
        child_a, child_b = vary(a, b, rng, crossover_rate=0.0, mutation_rate=0.0)
        assert (child_a, child_b) == (a, b)

    def test_identical_parents_cross_to_themselves(self):
        rng = random.Random(0)
        a = tuple(random.Random(1).randrange(256) for _ in range(20))
        child_a, child_b = vary(a, a, rng, crossover_rate=1.0, mutation_rate=0.0)
        assert child_a == a and child_b == a

    def test_full_mutation_is_reproducible(self):
        a, b = tuple([0] * 20), tuple([255] * 20)
        first = vary(a, b, random.Random(9), crossover_rate=0.5, mutation_rate=1.0)
        second = vary(a, b, random.Random(9), crossover_rate=0.5, mutation_rate=1.0)
        assert first == second
        assert first[0] != a  # 20 resamples virtually never reproduce all-zero

    @pytest.mark.parametrize("mutation_rate", [0.0, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("crossover_rate", [0.0, 0.9])
    def test_codons_drawn_as_randrange_draws_them(self, crossover_rate, mutation_rate):
        # the rng stream, and with it every seeded output, is the one randrange(256) gives
        def reference(parent_a, parent_b, rng):
            if rng.random() < crossover_rate:
                point = rng.randrange(1, len(parent_a))
                parent_a, parent_b = parent_a[:point] + parent_b[point:], parent_b[:point] + parent_a[point:]
            return tuple(tuple(rng.randrange(256) if rng.random() < mutation_rate else c for c in p) for p in (parent_a, parent_b))

        for seed in range(50):
            genomes = random.Random(seed)
            a, b = (tuple(genomes.randrange(256) for _ in range(40)) for _ in range(2))
            rng, ref_rng = random.Random(seed), random.Random(seed)
            rates = {"crossover_rate": crossover_rate, "mutation_rate": mutation_rate}
            assert vary(a, b, rng, **rates) == reference(a, b, ref_rng)
            assert rng.getstate() == ref_rng.getstate()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            vary((1, 2), (1, 2, 3), random.Random(0), crossover_rate=0.9, mutation_rate=0.05)


class TestEvolve:
    def test_zero_generations_returns_initial_best(self, tsp6):
        config = EvolutionConfig(population_size=30, generations=0, seed=5)
        report = evolve(tsp6, config)
        assert len(report.generations) == 1
        assert report.best_fitness == report.generations[0].best_fitness

    def test_reports_are_reproducible(self, tsp6):
        config = EvolutionConfig(population_size=40, generations=6, seed=9)
        first = json.dumps(evolve(tsp6, config).to_json(), sort_keys=True)
        second = json.dumps(evolve(tsp6, config).to_json(), sort_keys=True)
        assert first == second

    def test_best_ever_is_monotone(self, tsp6):
        config = EvolutionConfig(population_size=60, generations=12, seed=1)
        report = evolve(tsp6, config)
        best_so_far = None
        for stat in report.generations:
            if best_so_far is not None:
                assert stat.best_fitness.key() >= best_so_far
            best_so_far = max(best_so_far or stat.best_fitness.key(), stat.best_fitness.key())
        assert report.best_fitness.key() == best_so_far

    def test_report_schema(self, tsp6):
        config = EvolutionConfig(population_size=20, generations=2, seed=2)
        payload = evolve(tsp6, config).to_json()
        assert set(payload) == {"config", "generations", "best", "sample_seeds"}
        assert set(payload["best"]) == {"program", "genome", "fitness"}
        for stat in payload["generations"]:
            assert set(stat) == {"best", "mean_preserved"}
        assert len(payload["sample_seeds"]) == config.sample_count

    def test_invalid_mappings_are_static_reject(self, tsp6):
        # one codon and no wrap cannot get past <program> ::= <conj>
        config = EvolutionConfig(population_size=10, generations=2, seed=3, genome_length=1, wrap_limit=0)
        grammar = derive_grammar(tsp6, budget=config.var_budget)
        assert {map_genome(grammar, (codon,), wrap_limit=0).invalid for codon in range(256)} == {"WRAP_LIMIT"}
        report = evolve(tsp6, config)
        assert report.best_fitness.tier == "STATIC_REJECT"
        assert report.best_program == ""
        assert all(stat.best_program == "" for stat in report.generations)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            EvolutionConfig(crossover_rate=1.5)
        with pytest.raises(ValueError):
            EvolutionConfig(population_size=0)
        with pytest.raises(ValueError, match=f"var_budget must be at most {CODONS}"):
            EvolutionConfig(var_budget=CODONS + 1)
        assert EvolutionConfig(var_budget=CODONS).var_budget == CODONS


genomes = st.lists(st.integers(0, 255), min_size=80, max_size=80)


class TestRenamed:
    """evolve memoizes fitness up to variable renaming, so renaming must not move a fitness."""

    @staticmethod
    def assert_renaming_is_invisible(model, genome):
        outcome = map_genome(derive_grammar(model, budget=DEFAULT_VAR_BUDGET), genome)
        assume(outcome.ok)
        program = outcome.program
        used = variables_used(program)
        assert used <= set(range(DEFAULT_VAR_BUDGET))
        once = renamed(program)
        assert renamed(once) == once
        assert parse(render(once)) == once
        assert variables_used(once) == set(range(len(used)))
        samples = samples_for(model)
        assert asdict(evaluate_fitness(program, model, samples)) == asdict(evaluate_fitness(once, model, samples))

    @settings(max_examples=150, deadline=None)
    @given(genome=genomes)
    def test_tsp6(self, genome, tsp6):
        self.assert_renaming_is_invisible(tsp6, genome)

    @settings(max_examples=150, deadline=None)
    @given(genome=genomes)
    def test_coloring_triangle(self, genome, triangle):
        self.assert_renaming_is_invisible(triangle, genome)

    def test_first_occurrence_order(self):
        program = parse("iterate(t4 - t2, t5, (constraint(c, t0, t4), swap_values(t0, t2)))")
        assert render(renamed(program)) == "iterate(t0 - t1, t2, (constraint(c, t3, t0), swap_values(t3, t1)))"

    def test_optimized_text_is_no_memo_key(self, tsp6):
        # optimizing drops the only effect, a self-swap: the program is
        # BARREN, while its optimized text alone fails analysis
        raw = parse("constraint(all_diff_next, t0, t1), swap_values(t1, t1)")
        samples = samples_for(tsp6)
        assert evaluate_fitness(raw, tsp6, samples).tier == "BARREN"
        optimized = parse(render(renamed(optimize(raw))))
        assert evaluate_fitness(optimized, tsp6, samples).tier == "STATIC_REJECT"
        assert {d.code for d in analyze(optimized, tsp6).errors} == {"NO_EFFECT"}
        assert render(renamed(raw)) != render(renamed(optimize(raw)))

    def test_evolve_scores_each_program_once_up_to_renaming(self, tsp6, monkeypatch):
        # once without notes; a generation's best once more, with them
        keys = {False: [], True: []}

        def counted(program, *args, notes=True, **kwargs):
            keys[notes].append(render(renamed(program)))
            return evaluate_fitness(program, *args, notes=notes, **kwargs)

        monkeypatch.setattr(noodle.evolution, "evaluate_fitness", counted)
        evolve(tsp6, EvolutionConfig(population_size=40, generations=6, seed=9))
        assert keys[False] and len(keys[False]) == len(set(keys[False]))
        assert keys[True] and len(keys[True]) == len(set(keys[True])) and set(keys[True]) <= set(keys[False])


# short genomes and few codon values make distinct genomes map to one program often
collision_genomes = st.lists(
    st.one_of(genomes, st.lists(st.integers(0, 7), min_size=1, max_size=12)), min_size=2, max_size=40
)


class TestDerivationKey:
    """The derivation is equal exactly when the texts are, and evolve's memo key
    exactly when the texts renamed in first-occurrence order are."""

    @staticmethod
    def assert_faithful(model, batch):
        grammar = derive_grammar(model, budget=DEFAULT_VAR_BUDGET)
        texts, derivations, renamed_texts, keys = {}, {}, {}, {}
        for genome in batch:
            outcome = map_genome(grammar, genome)
            if not outcome.ok:
                assert outcome.key is None
                continue
            text = render(outcome.program)
            assert texts.setdefault(outcome.derivation, text) == text
            assert derivations.setdefault(text, outcome.derivation) == outcome.derivation
            renamed_text = render(renamed(outcome.program))
            assert renamed_texts.setdefault(outcome.key, renamed_text) == renamed_text
            assert keys.setdefault(renamed_text, outcome.key) == outcome.key

    def test_key_derives_the_renamed_program(self, tsp6):
        grammar = derive_grammar(tsp6, budget=DEFAULT_VAR_BUDGET)
        rng = random.Random(3)
        for _ in range(300):
            outcome = map_genome(grammar, [rng.randrange(256) for _ in range(80)])
            if outcome.ok:
                assert map_genome(grammar, outcome.key).program == renamed(outcome.program)

    @settings(max_examples=150, deadline=None)
    @given(batch=collision_genomes)
    def test_tsp6(self, batch, tsp6):
        self.assert_faithful(tsp6, batch)

    @settings(max_examples=150, deadline=None)
    @given(batch=collision_genomes)
    def test_coloring_triangle(self, batch, triangle):
        self.assert_faithful(triangle, batch)

    def test_evolve_scores_every_mapped_program_up_to_renaming(self, tsp6, monkeypatch):
        mapped, scored = [], []

        def recorded(*args, **kwargs):
            outcome = map_genome(*args, **kwargs)
            mapped.append(outcome)
            return outcome

        def counted(program, *args, **kwargs):
            scored.append(render(renamed(program)))
            return evaluate_fitness(program, *args, **kwargs)

        monkeypatch.setattr(noodle.evolution, "map_genome", recorded)
        monkeypatch.setattr(noodle.evolution, "evaluate_fitness", counted)
        evolve(tsp6, EvolutionConfig(population_size=40, generations=6, seed=9))
        assert len(mapped) == 40 * 6
        # a missed program would be absent from scored, two merged ones would leave one unscored
        assert set(scored) == {render(renamed(o.program)) for o in mapped if o.ok}


@pytest.fixture
def runs(monkeypatch):
    """The samples that evaluate_fitness runs a neighborhood on, in order."""
    starts = []

    def counted(program, model, start, **kwargs):
        starts.append(start)
        return neighbors(program, model, start, **kwargs)

    monkeypatch.setattr(noodle.evolution, "neighbors", counted)
    return starts


def assert_scores_as_every_sample_run(program, model, samples):
    assert asdict(evaluate_fitness(program, model, samples)) == asdict(reference_evaluate_fitness(program, model, samples))


class TestSampleClasses:
    """Equal samples share a run.  On a symmetric model, a label-free program's first
    completed run on a tour stands for every tour; on any other model every distinct
    sample runs, even where a relabelling would map some samples onto each other."""

    @pytest.mark.parametrize("seed", json.loads(fixture_text("rediscovery_seeds.json"))["seeds"])
    def test_pinned_tsp6_samples_form_one_class(self, tsp6, two_opt, seed, runs):
        samples = samples_for(tsp6, seed=seed)
        assert tsp6.symmetric
        assert all(reference_automorphic(tsp6, samples[0], sample) for sample in samples)
        assert_scores_as_every_sample_run(two_opt, tsp6, samples)
        assert runs == samples[:1]

    def test_narrowed_domain_splits_the_class(self, tsp6, two_opt, runs):
        # n1 loses value 5, so a relabelling must fix positions 1 and 5: two tours stay
        # related only when 5 is as far from 1 along both.  The model is not symmetric,
        # so those partial classes share nothing and every distinct sample runs.
        samples = samples_for(tsp6)
        model = narrowed_tsp6(0, (2, 3, 4, 6))
        assert not model.symmetric
        pairs = {(i, j) for i, j in itertools.permutations(range(5), 2) if reference_automorphic(model, samples[i], samples[j])}
        assert pairs == {(0, 2), (2, 0), (0, 4), (4, 0), (2, 4), (4, 2), (1, 3), (3, 1)}
        assert_scores_as_every_sample_run(two_opt, model, samples)
        assert runs == samples

    def test_narrowed_domain_with_no_classes(self, tsp6):
        samples = samples_for(tsp6, seed=10)
        model = narrowed_tsp6(5, (2, 3, 5))
        assert len(set(samples)) == 5 and not model.symmetric
        assert not any(reference_automorphic(model, a, b) for a, b in itertools.permutations(samples, 2))

    @pytest.mark.parametrize("var", range(6))
    def test_automorphic_matches_every_position_permutation(self, tsp6, two_opt, var, runs):
        # narrowing a domain to the values the samples use breaks the symmetry,
        # so only equal samples share a run
        samples = samples_for(tsp6, seed=var + 1)
        model = narrowed_tsp6(var, sorted({sample[var] for sample in samples}))
        assert not model.symmetric
        assert_scores_as_every_sample_run(two_opt, model, samples)
        assert runs == list(dict.fromkeys(samples))

    def test_a_large_domain_outside_the_circuit(self, tsp6, two_opt, runs):
        # the circuit no longer covers every variable, which symmetric sees before it reads a domain
        document = json.loads(fixture_text("tsp6.json"))
        document["variables"].append({"name": "big", "domain": {"lo": 1, "hi": 1_000_000}})
        model = load_model(document)
        assert not model.symmetric
        tour = samples_for(tsp6)[0]
        samples = [(*tour, 2), relabelled(model, (*tour, 2), (3, 1, 2, 6, 4, 5)), (*tour, 999_999)]
        assert_scores_as_every_sample_run(two_opt, model, samples)
        assert runs == samples

    def test_synth_color12_samples_have_no_classes(self):
        from tests.test_seeded_output import perfbench_workloads

        workloads = perfbench_workloads()
        model = load_model(workloads.coloring_document(workloads.COLOR_INSTANCE_SEED))
        assert not model.symmetric
        for seed in workloads.COLOR_SYNTH_SEEDS:
            samples = samples_for(model, seed=seed)
            assert len(set(samples)) == len(samples)

    def test_label_free_program_runs_once_per_class(self, tsp6, two_opt, runs):
        samples = samples_for(tsp6, seed=1)  # its samples 0 and 1 are equal
        assert samples[0] == samples[1] and len(set(samples)) == 4
        assert_scores_as_every_sample_run(two_opt, tsp6, samples)
        assert runs == samples[:1]
        runs.clear()
        enumerating_body = parse("iterate(t0 - t1, t2, (constraint(all_diff_next, t1, t4), swap_values(t0, t4)))")
        assert evaluate_fitness(enumerating_body, tsp6, samples).tier == "VALID"
        assert runs == list(dict.fromkeys(samples))  # one run per distinct sample

    @pytest.mark.parametrize("text, label_free", LABEL_FREE_CASES)
    def test_label_free(self, tsp6_full, text, label_free, runs):
        program = parse(text)
        samples = samples_for(tsp6_full)
        assert len(set(samples)) == 5
        fitness = evaluate_fitness(program, tsp6_full, samples)
        assert asdict(fitness) == asdict(reference_evaluate_fitness(program, tsp6_full, samples))
        assert len(runs) == (1 if label_free or fitness.tier == "BARREN" else 5)

    def test_a_non_tour_sample_runs_after_a_tour(self, tsp6, two_opt, runs):
        samples = [samples_for(tsp6)[0], (2, 3, 1, 5, 6, 4)]  # the second is two 3-cycles
        assert_scores_as_every_sample_run(two_opt, tsp6, samples)
        assert runs == samples

    def test_a_truncated_run_stands_for_no_other_tour(self, tsp6, two_opt, runs):
        # at this fuel the runs find 5, 4, 6, 5 and 6 neighbors
        samples = samples_for(tsp6)
        fitness = evaluate_fitness(two_opt, tsp6, samples, fuel=200)
        assert fitness.notes == ("TRUNCATED",)
        assert asdict(fitness) == asdict(reference_evaluate_fitness(two_opt, tsp6, samples, fuel=200))
        assert runs == samples

    def test_a_short_sample_after_a_run_is_infeasible(self, tsp6, two_opt):
        # its circuit walk would index past its end
        samples = [samples_for(tsp6)[0], (2, 3, 4, 5, 6)]
        for evaluate in (evaluate_fitness, reference_evaluate_fitness):
            with pytest.raises(InfeasibleError, match="5 values"):
                evaluate(two_opt, tsp6, samples)


# models with late movers (see TestFitnessAgainstEverySampleRun.late_movers): a single
# kind and two kinds
LATE_MOVER_MODELS = [
    pytest.param(load_model(fixture_text("tsp6.json")), id="tsp6"),
    pytest.param(narrowed_tsp6(0, (2, 3, 4, 6)), id="asymmetric-domain"),
    pytest.param(load_model(CIRCUIT_WITH_ALL_DIFFERENT), id="circuit-with-all-different"),
]

fuels = st.sampled_from([0, 1, 5, 30, 200, 2_000, 20_000])
# enough to reach a late mover's late neighbor: caps 0 and 1 end a run at its first
late_fuels, late_caps = st.sampled_from([200, 2_000, 20_000]), st.sampled_from([2, 7, 500])
caps = st.sampled_from([0, 1, 2, 7, 500])
sample_plans = st.lists(st.tuples(st.sampled_from(["seed", "copy", "relabel"]), st.integers(0, 2**16)), min_size=1, max_size=6)


def planned_samples(model, plan):
    """Feasible samples: seeded ones, copies of earlier ones and earlier ones relabelled."""
    samples = []
    for kind, number in plan:
        if kind == "seed" or not samples:
            try:
                samples.append(seed_assignment(model, number))
            except InfeasibleError:
                pass
            continue
        source = samples[number % len(samples)]
        if kind == "copy":
            samples.append(source)
            continue
        sc = model.structural_constraint()
        positions = list(range(1, (len(sc.scope) if sc else max(source)) + 1))
        random.Random(number).shuffle(positions)
        if sc is not None:
            image = relabelled(model, source, tuple(positions))
        else:  # a renumbering of the values
            image = tuple(positions[v - 1] for v in source)
        try:
            model.validate_assignment(image)
        except InfeasibleError:
            continue
        if is_feasible(model, image):
            samples.append(image)
    return samples


class TestFitnessAgainstEverySampleRun:
    """evaluate_fitness with sample classes scores as running every sample does, notes included."""

    programs: dict[tuple, list] = {}

    @classmethod
    def evolved_programs(cls, model):
        """The programs an evolution run maps from its genomes that pass analysis, so that they run:
        the run of the first seed from 2 whose samples the model admits.  Keyed on the name and the
        variables: a model with a narrowed domain keeps its name but evolves its own programs."""
        key = model.name, model.variables
        if key not in cls.programs:
            seed = next(seed for seed in itertools.count(2) if has_samples(model, seed))
            found = {}

            def recorded(*args, **kwargs):
                outcome = map_genome(*args, **kwargs)
                if outcome.ok and outcome.key not in found and analyze(outcome.program, model).ok:
                    found[outcome.key] = outcome.program
                return outcome

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(noodle.evolution, "map_genome", recorded)
                evolve(model, EvolutionConfig(population_size=100, generations=30, seed=seed))
            cls.programs[key] = list(found.values())
        return cls.programs[key]

    moving: dict[tuple, list] = {}

    @classmethod
    def late_movers(cls, model):
        """(program, samples) pairs of the evolved programs and the five samples of evolution
        seeds 0-2 where a neighbor after a run's first still moves the score: it is feasible
        after an infeasible first, or breaks a kind no earlier neighbor broke.  A run that
        settles too early scores these wrong, and the sample plans above rarely reach them."""
        key = model.name, model.variables
        if key not in cls.moving:
            cls.moving[key] = []
            for seed in range(3):
                try:
                    samples = samples_for(model, seed=seed)
                except InfeasibleError:  # a narrowed domain that a seeded tour leaves
                    continue
                programs = cls.evolved_programs(model)
                cls.moving[key] += [(program, samples) for program in programs if cls.moves_late(optimize(program), model, samples)]
        return cls.moving[key]

    @staticmethod
    def moves_late(program, model, samples):
        broken = set()
        for sample in dict.fromkeys(samples):
            run = []
            neighbors(program, model, sample, fuel=20_000, cap=500, until=lambda values: run.append(violations(model, values)))
            for violated in run[1:]:
                if (run[0] and not violated) or violated - broken - run[0]:
                    return True
            for violated in run:
                broken |= violated
        return False

    @classmethod
    def draw_case(cls, model, data, plan):
        """An evolved program and its samples: planned ones, or with no plan a late mover's
        (more samples after them could break the kinds a wrong early stop misses)."""
        if plan is None:
            return data.draw(st.sampled_from(cls.late_movers(model)))
        return data.draw(st.sampled_from(cls.evolved_programs(model))), planned_samples(model, plan)

    def assert_matches_reference(self, model, data, plan, fuel, cap):
        program, samples = self.draw_case(model, data, plan)
        assume(samples)
        got = evaluate_fitness(program, model, samples, fuel=fuel, cap=cap)
        assert asdict(got) == asdict(reference_evaluate_fitness(program, model, samples, fuel=fuel, cap=cap))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), plan=sample_plans, fuel=fuels, cap=caps)
    def test_tsp6(self, tsp6, data, plan, fuel, cap):
        self.assert_matches_reference(tsp6, data, plan, fuel, cap)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), plan=sample_plans, fuel=fuels, cap=caps)
    def test_tsp6_with_an_asymmetric_domain(self, data, plan, fuel, cap):
        self.assert_matches_reference(narrowed_tsp6(0, (2, 3, 4, 6)), data, plan, fuel, cap)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), plan=sample_plans, fuel=fuels, cap=caps)
    def test_circuit_with_an_all_different(self, data, plan, fuel, cap):
        self.assert_matches_reference(load_model(CIRCUIT_WITH_ALL_DIFFERENT), data, plan, fuel, cap)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), plan=sample_plans, fuel=fuels, cap=caps)
    def test_coloring_triangle(self, triangle, data, plan, fuel, cap):
        self.assert_matches_reference(triangle, data, plan, fuel, cap)

    @pytest.mark.parametrize("model", LATE_MOVER_MODELS)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), fuel=late_fuels, cap=late_caps)
    def test_late_movers(self, model, data, fuel, cap):
        self.assert_matches_reference(model, data, None, fuel, cap)

    @pytest.mark.parametrize(
        "text",
        [
            "iterate(t0 - t1, t1, (iterate(t1 - t4, t4, (swap_values(t1, t0)))))",
            "iterate(t0 - t3, t4, (iterate(t3 - t1, t1, (swap_values(t3, t0)))))",
            "iterate(t0 - t3, t4, (iterate(t1 - t4, t1, (swap_values(t4, t0), swap_values(t0, t1))), constraint(all_diff_next, t0, t3)))",
            "iterate(t2 - t1, t0, (iterate(t3 - t4, t3, (swap_values(t4, t0))), swap_values(t0, t1)))",
        ],
    )
    def test_programs_that_read_a_label_order_run_every_sample(self, tsp6, text):
        # an inner walk from an unbound start: committed choice keeps the walk from
        # the first scope variable, so symmetric samples score differently
        program = parse(text)
        samples = samples_for(tsp6)
        assert not analyze(program, tsp6).label_free
        expected = reference_evaluate_fitness(program, tsp6, samples)
        assert asdict(expected) != asdict(reference_evaluate_fitness(program, tsp6, samples[:1]))
        assert asdict(evaluate_fitness(program, tsp6, samples)) == asdict(expected)


# no constraint: kinds is empty, so every kind is broken before any neighbor
UNCONSTRAINED = {"name": "unconstrained4", "variables": [{"name": f"v{i}", "domain": {"lo": 1, "hi": 3}} for i in range(1, 5)]}

# fuel 20,000 and cap 20 on perfbench's colour12 instance with the samples of seed 1:
# a later sample's run stops before the step at which its full run truncates
SETTLED_BEFORE_TRUNCATION = (
    "iterate(t4 - t2, t2, (constraint(not_equal, t0, t5))), swap_values(t0, t2), "
    "iterate(t2 - t5, t0, (constraint(not_equal, t2, t4), swap_values(t5, t2))), swap_values(t4, t5), "
    "iterate(t0 - t1, t2, (constraint(not_equal, t2, t3))), swap_values(t1, t0), swap_values(t3, t5)"
)


class TestSettledFitnessAgainstEverySampleRun:
    """A run stopped once settled scores as running every sample in full does; its notes
    are empty, and the default call, which never stops, keeps exact notes."""

    def assert_matches_reference(self, model, data, plan, fuel, cap):
        program, samples = TestFitnessAgainstEverySampleRun.draw_case(model, data, plan)
        assume(samples)
        expected = reference_evaluate_fitness(program, model, samples, fuel=fuel, cap=cap)
        settled = evaluate_fitness(program, model, samples, fuel=fuel, cap=cap, notes=False)
        assert settled.to_json() == expected.to_json()
        assert settled.notes == ()
        assert asdict(evaluate_fitness(program, model, samples, fuel=fuel, cap=cap)) == asdict(expected)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), plan=sample_plans, fuel=fuels, cap=caps)
    def test_tsp6(self, tsp6, data, plan, fuel, cap):
        self.assert_matches_reference(tsp6, data, plan, fuel, cap)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), plan=sample_plans, fuel=fuels, cap=caps)
    def test_tsp6_with_an_asymmetric_domain(self, data, plan, fuel, cap):
        self.assert_matches_reference(narrowed_tsp6(0, (2, 3, 4, 6)), data, plan, fuel, cap)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), plan=sample_plans, fuel=fuels, cap=caps)
    def test_circuit_with_an_all_different(self, data, plan, fuel, cap):
        self.assert_matches_reference(load_model(CIRCUIT_WITH_ALL_DIFFERENT), data, plan, fuel, cap)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), plan=sample_plans, fuel=fuels, cap=caps)
    def test_coloring_triangle(self, triangle, data, plan, fuel, cap):
        self.assert_matches_reference(triangle, data, plan, fuel, cap)

    @pytest.mark.parametrize("model", LATE_MOVER_MODELS)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), fuel=late_fuels, cap=late_caps)
    def test_late_movers(self, model, data, fuel, cap):
        self.assert_matches_reference(model, data, None, fuel, cap)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), plan=sample_plans, fuel=fuels, cap=caps)
    def test_no_constraints(self, data, plan, fuel, cap):
        self.assert_matches_reference(load_model(UNCONSTRAINED), data, plan, fuel, cap)

    @pytest.mark.parametrize(
        "model, text",
        [
            # the first run finds an infeasible neighbor, then feasible ones: it is settled
            # only at the cap, not at its first neighbor
            (fixture_text("tsp6.json"), "iterate(t1 - t5, t4, (redirect(t1, t5), iterate(t2 - t3, t3, (swap_values(t2, t1)))))"),
            # later runs break all_different only after a neighbor that breaks the circuit
            (CIRCUIT_WITH_ALL_DIFFERENT, "iterate(t1 - t5, t4, (constraint(circuit, t0, t4), swap_values(t5, t0)))"),
        ],
        ids=["bound-is-the-cap-first", "every-kind-broken"],
    )
    def test_settled_only_when_nothing_can_move_the_score(self, model, text):
        model, program = load_model(model), parse(text)
        for seed in range(3):
            samples = samples_for(model, seed=seed)
            expected = reference_evaluate_fitness(program, model, samples)
            assert evaluate_fitness(program, model, samples, notes=False).to_json() == expected.to_json()

    def test_a_stopped_run_drops_a_truncation(self, monkeypatch):
        from tests.test_seeded_output import perfbench_workloads

        workloads = perfbench_workloads()
        model = load_model(workloads.coloring_document(1))
        samples = samples_for(model, seed=1)
        program = parse(SETTLED_BEFORE_TRUNCATION)
        expected = reference_evaluate_fitness(program, model, samples, fuel=20_000, cap=20)
        assert expected.notes == ("TRUNCATED",)
        runs = {True: [], False: []}

        def recorded(program, model, start, **kwargs):
            result = neighbors(program, model, start, **kwargs)
            runs[notes].append((start, result.truncated, result.steps_used))
            return result

        monkeypatch.setattr(noodle.evolution, "neighbors", recorded)
        for notes in (True, False):
            got = evaluate_fitness(program, model, samples, fuel=20_000, cap=20, notes=notes)
            assert got.to_json() == expected.to_json()
            assert got.notes == (expected.notes if notes else ())
        # every sample still runs; the stopped runs end before the step at which one truncates
        assert [run[0] for run in runs[False]] == [run[0] for run in runs[True]] == samples
        assert any(run[1] for run in runs[True]) and not any(run[1] for run in runs[False])
        assert sum(run[2] for run in runs[False]) < sum(run[2] for run in runs[True])


class TestGenerationBestNotes:
    """evolve scores without notes, then re-scores each generation's best in full: every
    generation reports the fitness, notes included, of running its best program on every sample."""

    @staticmethod
    def model(name):
        if name == "colour12":
            from tests.test_seeded_output import perfbench_workloads

            workloads = perfbench_workloads()
            return load_model(workloads.coloring_document(workloads.COLOR_INSTANCE_SEED))
        return load_model(fixture_text(f"{name}.json"))

    @pytest.mark.parametrize("name", ["tsp6", "colour12", "coloring_path5"])
    @pytest.mark.parametrize("fuel, cap", [(100, 500), (2_000, 2), (300, 5)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_every_sample_run(self, name, fuel, cap, seed, monkeypatch):
        model = self.model(name)
        config = EvolutionConfig(population_size=50, generations=8, seed=seed, fuel=fuel, inspection_cap=cap)
        mapped = []

        def recorded(*args, **kwargs):
            outcome = map_genome(*args, **kwargs)
            mapped.append(outcome)
            return outcome

        monkeypatch.setattr(noodle.evolution, "map_genome", recorded)
        report = evolve(model, config)
        samples = [seed_assignment(model, s) for s in report.sample_seeds]
        scored = {}

        def reference(outcome):
            if not outcome.ok:
                return Fitness(tier="STATIC_REJECT")
            if outcome.key not in scored:
                scored[outcome.key] = reference_evaluate_fitness(outcome.program, model, samples, fuel=fuel, cap=cap)
            return scored[outcome.key]

        size = config.population_size
        for gen, stat in enumerate(report.generations):
            outcomes = mapped[gen * size : (gen + 1) * size]
            fitnesses = [reference(outcome) for outcome in outcomes]
            best = max(range(size), key=lambda i: (fitnesses[i].key(), -i))
            assert asdict(stat.best_fitness) == asdict(fitnesses[best])
            assert stat.best_program == (render(optimize(outcomes[best].program)) if outcomes[best].ok else "")
