import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noodle.grammar import derive_grammar, map_genome
from noodle.lang import interp
from noodle.lang.analyzer import analyze, optimize
from noodle.lang.interp import neighbors
from noodle.lang.parser import MAX_ITERATE_NESTING, parse
from noodle.model import load_model, seed_assignment

from tests.conftest import fixture_text, narrowed_tsp6, nested_iterates
from tests.oracles import is_tour, reference_neighbors


def values_of(result):
    return sorted(result.assignments)


class TestConstraintAndSwap:
    def test_three_city_swap_neighborhood(self, circuit3, swap_pair):
        result = neighbors(swap_pair, circuit3, (2, 3, 1))
        assert values_of(result) == [(1, 3, 2), (2, 1, 3), (3, 2, 1)]
        assert not result.truncated

    def test_input_never_a_member(self, circuit3, swap_pair):
        result = neighbors(swap_pair, circuit3, (2, 3, 1))
        assert (2, 3, 1) not in set(result.assignments)

    def test_failing_test_gives_empty_set(self):
        doc = {
            "name": "ad",
            "variables": [{"name": f"v{i}", "domain": {"lo": 1, "hi": 3}} for i in range(1, 4)],
            "groups": {"g": ["v1", "v2", "v3"]},
            "constraints": [{"kind": "all_different", "scope": "g"}],
        }
        model = load_model(doc)
        program = parse("constraint(all_different, t0, t1), swap_values(t0, t1)")
        result = neighbors(program, model, (1, 2, 3))
        assert len(result) == 0

    def test_swap_fails_when_value_leaves_domain(self, tsp6, single_swap):
        # with self-position excluded from every domain, swapping a successor
        # pair always writes a variable's own position: every branch dies
        start = (2, 3, 4, 5, 6, 1)
        result = neighbors(single_swap, tsp6, start)
        assert len(result) == 0

    def test_long_conjunction_runs_without_recursion(self, circuit3):
        text = ", ".join(["constraint(circuit, t0, t1)"] * 1500 + ["swap_values(t0, t1)"])
        result = neighbors(parse(text), circuit3, (2, 3, 1))
        assert values_of(result) == [(1, 3, 2), (2, 1, 3), (3, 2, 1)]

    def test_bound_pair_acts_as_test(self, circuit3):
        program = parse(
            "constraint(circuit, t0, t1), constraint(circuit, t1, t2), swap_values(t0, t2)"
        )
        result = neighbors(program, circuit3, (2, 3, 1))
        # chained generator: t2 is forced to t1's successor, 3 branches total
        assert len(result) == 3


class TestRedirect:
    def test_redirect_targets_structural_positions(self, circuit3):
        program = parse("constraint(circuit, t0, t1), redirect(t0, t0)")
        # pointing a variable at its own position is allowed by the full domains
        result = neighbors(program, circuit3, (2, 3, 1))
        assert values_of(result) == [(1, 3, 1), (2, 2, 1), (2, 3, 3)]

    def test_redirect_fails_outside_domain(self, tsp6):
        program = parse("constraint(all_diff_next, t0, t1), redirect(t0, t0)")
        result = neighbors(program, tsp6, (2, 3, 4, 5, 6, 1))
        assert len(result) == 0

    def test_redirect_without_structural_uses_variable_order(self, triangle):
        program = parse("constraint(not_equal, t0, t1), redirect(t0, t1)")
        result = neighbors(program, triangle, (1, 2, 3))
        # the kind name unions all three edges; each branch points one
        # endpoint's value at the other's variable-order position
        assert values_of(result) == [(1, 1, 3), (1, 2, 1), (1, 2, 2), (1, 3, 3), (2, 2, 3), (3, 2, 3)]


class TestIterate:
    def test_prefix_branches_and_stop_rule(self, circuit3):
        program = parse("constraint(circuit, t0, t1), iterate(t2 - t3, t1, (redirect(t3, t2)))")
        result = neighbors(program, circuit3, (2, 3, 1))
        expected = [(2, 1, 1), (2, 1, 2), (2, 3, 2), (3, 1, 1), (3, 3, 1), (3, 3, 2)]
        assert values_of(result) == expected

    def test_header_stays_bound_to_last_pair(self, circuit3):
        program = parse(
            "constraint(circuit, t0, t1), iterate(t2 - t3, t1, (redirect(t3, t2))), redirect(t1, t3)"
        )
        result = neighbors(program, circuit3, (2, 3, 1))
        assert values_of(result) == [(2, 1, 1), (2, 3, 2), (3, 1, 2), (3, 3, 1)]

    def test_committed_choice_takes_first_success_only(self, circuit3):
        # the body's generator binds on step one and persists; a free-choice
        # interpreter would emit three swaps here instead of one
        program = parse("iterate(t0 - t1, t2, (constraint(circuit, t3, t4), swap_values(t3, t4)))")
        result = neighbors(program, circuit3, (2, 3, 1))
        assert values_of(result) == [(3, 2, 1)]

    def test_walk_relation_snapshotted_at_entry(self, circuit3):
        # the body's redirects rewrite successors; a live walk would stop
        # after one step and never emit the two-step prefix (3, 3, 2)
        program = parse("constraint(circuit, t0, t1), iterate(t2 - t3, t1, (redirect(t3, t2)))")
        result = neighbors(program, circuit3, (2, 3, 1))
        assert (3, 3, 2) in set(result.assignments)

    def test_atom_fails_without_a_successful_step(self, tsp6):
        # swap of a successor pair dies on the self-excluding domains, so the
        # body fails at step one and the whole atom fails
        program = parse(
            "constraint(all_diff_next, t0, t1), iterate(t2 - t3, t1, (swap_values(t2, t3)))"
        )
        result = neighbors(program, tsp6, (2, 3, 4, 5, 6, 1))
        assert len(result) == 0

    def test_nesting_limit_runs(self, circuit3):
        program = parse(nested_iterates(MAX_ITERATE_NESTING))
        result = neighbors(program, circuit3, (2, 3, 1), fuel=2_000)
        assert result.truncated

    def test_unbound_start_branches_over_scope(self, circuit3):
        bound = parse("constraint(circuit, t0, t1), iterate(t2 - t3, t1, (redirect(t3, t2)))")
        free = parse("iterate(t2 - t3, t5, (redirect(t3, t2)))")
        start = (2, 3, 1)
        # a free start generates from every scope variable, which covers the
        # same walks the generator-bound version reaches
        assert values_of(neighbors(free, circuit3, start)) == values_of(neighbors(bound, circuit3, start))


class TestSafetyProperties:
    def test_purity_and_repeatability(self, tsp6, two_opt):
        start = (2, 3, 4, 5, 6, 1)
        first = neighbors(two_opt, tsp6, start)
        second = neighbors(two_opt, tsp6, start)
        assert start == (2, 3, 4, 5, 6, 1)
        assert first.assignments == second.assignments

    def test_fuel_exhaustion_truncates_without_raising(self, tsp6, two_opt):
        start = (2, 3, 4, 5, 6, 1)
        result = neighbors(two_opt, tsp6, start, fuel=25)
        assert result.truncated

    def test_cap_truncates(self, tsp6, two_opt):
        start = (2, 3, 4, 5, 6, 1)
        result = neighbors(two_opt, tsp6, start, cap=5)
        assert result.truncated
        assert len(result) == 5

    def test_exact_cap_is_not_truncation(self, circuit3, swap_pair):
        result = neighbors(swap_pair, circuit3, (2, 3, 1), cap=3)
        assert len(result) == 3
        assert not result.truncated

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_members_always_total_and_in_domain(self, seed, tsp6):
        rng = random.Random(seed)
        grammar = derive_grammar(tsp6, budget=6)
        outcome = map_genome(grammar, [rng.randrange(256) for _ in range(80)])
        if not outcome.ok or not analyze(outcome.program, tsp6).ok:
            return
        start = seed_assignment(tsp6, seed)
        result = neighbors(optimize(outcome.program), tsp6, start, fuel=50_000, cap=500)
        for member in result.assignments:
            tsp6.validate_assignment(member)

    def test_two_opt_emits_only_tours_here(self, tsp6, two_opt):
        start = (2, 3, 4, 5, 6, 1)
        result = neighbors(two_opt, tsp6, start)
        assert all(is_tour(a) for a in result.assignments)


def assert_matches_reference(program, model, start, **options):
    ours = neighbors(program, model, start, **options)
    ref = reference_neighbors(program, model, start, **options)
    assert (ours.assignments, ours.truncated, ours.steps_used) == (ref.assignments, ref.truncated, ref.steps_used)


def random_start(model, seed):
    """Values drawn from each domain: conflicts included, unlike ``seed_assignment``."""
    rng = random.Random(seed)
    return tuple(rng.choice(sorted(v.domain)) for v in model.variables)


# all_different over a group its domains cannot fill: the relation is the
# live conflict pairs, so it changes with every effect
ALL_DIFFERENT5 = load_model({
    "name": "all_different5",
    "variables": [{"name": f"v{i}", "domain": {"lo": 1, "hi": 3}} for i in range(1, 6)],
    "groups": {"g": [f"v{i}" for i in range(1, 6)]},
    "constraints": [{"kind": "all_different", "scope": "g"}],
})

# one name, two state-dependent constraints: "link" is the union of the
# circuit's successor pairs and the conflict pairs of n1..n3
SHARED_NAME5 = load_model({
    "name": "shared_name5",
    "variables": [{"name": f"n{i}", "domain": {"lo": 1, "hi": 5}} for i in range(1, 6)],
    "groups": {"next": [f"n{i}" for i in range(1, 6)]},
    "constraints": [
        {"kind": "circuit", "scope": "next", "alias": "link"},
        {"kind": "all_different", "scope": ["n1", "n2", "n3"], "alias": "link"},
    ],
    "structural": 0,
})

# a body variable bound by the body itself is unbound on the walk's first
# step and bound, so a test, on every later step
ITERATE_REBINDING = [
    "iterate(t1 - t2, t0, (constraint(all_diff_next, t3, t4), redirect(t1, t4)))",
    "iterate(t1 - t2, t0, (iterate(t5 - t6, t2, (constraint(all_diff_next, t3, t4), redirect(t5, t4)))))",
]


class TestAgainstReference:
    """Results, truncation and the exact stop step match the recursive reference."""

    @staticmethod
    def assert_same(model, genome_seed, start, fuel, cap):
        # random 80-codon genomes, as evolution draws them, until one maps
        # to a program that passes the analyzer
        grammar = derive_grammar(model, budget=6)
        rng = random.Random(genome_seed)
        while True:
            outcome = map_genome(grammar, [rng.randrange(256) for _ in range(80)])
            if outcome.ok and analyze(outcome.program, model).ok:
                break
        assert_matches_reference(outcome.program, model, start, fuel=fuel, cap=cap)

    @settings(max_examples=300, deadline=None)
    @given(genome_seed=st.integers(0, 2**32), sample_seed=st.integers(0, 1000), fuel=st.integers(0, 3000), cap=st.integers(0, 50))
    def test_tsp6(self, genome_seed, sample_seed, fuel, cap, tsp6):
        self.assert_same(tsp6, genome_seed, seed_assignment(tsp6, sample_seed), fuel, cap)

    @settings(max_examples=300, deadline=None)
    @given(genome_seed=st.integers(0, 2**32), sample_seed=st.integers(0, 1000), fuel=st.integers(0, 3000), cap=st.integers(0, 50))
    def test_not_equal_triangle(self, genome_seed, sample_seed, fuel, cap, triangle):
        self.assert_same(triangle, genome_seed, seed_assignment(triangle, sample_seed), fuel, cap)

    @settings(max_examples=200, deadline=None)
    @given(genome_seed=st.integers(0, 2**32), sample_seed=st.integers(0, 1000), fuel=st.integers(0, 3000), cap=st.integers(0, 50))
    def test_all_different_relation_follows_state(self, genome_seed, sample_seed, fuel, cap):
        self.assert_same(ALL_DIFFERENT5, genome_seed, random_start(ALL_DIFFERENT5, sample_seed), fuel, cap)

    @settings(max_examples=200, deadline=None)
    @given(genome_seed=st.integers(0, 2**32), sample_seed=st.integers(0, 1000), fuel=st.integers(0, 3000), cap=st.integers(0, 50))
    def test_one_name_two_constraints(self, genome_seed, sample_seed, fuel, cap):
        self.assert_same(SHARED_NAME5, genome_seed, random_start(SHARED_NAME5, sample_seed), fuel, cap)

    @pytest.mark.parametrize("text", ITERATE_REBINDING)
    def test_iterate_body_binding_becomes_test_after_first_step(self, text, tsp6):
        program = parse(text)
        for seed in range(30):
            assert_matches_reference(program, tsp6, seed_assignment(tsp6, seed))

    @settings(max_examples=200, deadline=None)
    @given(genome_seed=st.integers(0, 2**32), sample_seed=st.integers(0, 1000), fuel=st.integers(0, 3000), cap=st.integers(0, 50))
    def test_without_the_analyzer_filter(self, genome_seed, sample_seed, fuel, cap, tsp6):
        # any mapped program, so unbound effect operands occur and fail their branch
        grammar = derive_grammar(tsp6, budget=6)
        rng = random.Random(genome_seed)
        while not (outcome := map_genome(grammar, [rng.randrange(256) for _ in range(80)])).ok:
            pass
        assert_matches_reference(outcome.program, tsp6, seed_assignment(tsp6, sample_seed), fuel=fuel, cap=cap)


def assert_every_fuel_and_cap(program, model, start, caps=range(6)):
    """Match the reference at every fuel up to one past a full run, and at each cap in ``caps``."""
    fuel = 0
    while neighbors(program, model, start, fuel=fuel).truncated:
        assert_matches_reference(program, model, start, fuel=fuel)
        fuel += 1
    assert_matches_reference(program, model, start, fuel=fuel)
    assert_matches_reference(program, model, start, fuel=fuel + 1)
    for cap in caps:
        assert_matches_reference(program, model, start, cap=cap)


# iterate bodies whose committed choice runs through two or more generator
# stages: an enumerating constraint then another (a test once bound on later
# steps), or a nested iterate, which is a stage on every step
COMMITTED_CHOICE = [
    ("tsp6", "iterate(t0 - t1, t2, (constraint(all_diff_next, t3, t4), constraint(all_diff_next, t4, t5), swap_values(t3, t5)))"),
    ("tsp6_full", "iterate(t0 - t1, t2, (constraint(all_diff_next, t1, t3), iterate(t4 - t5, t3, (swap_values(t4, t5))), "
     "constraint(all_diff_next, t5, t6), swap_values(t0, t6)))"),
    ("tsp6_full", "iterate(t0 - t1, t2, (iterate(t3 - t4, t1, (swap_values(t3, t4))), constraint(all_diff_next, t4, t5), swap_values(t0, t5)))"),
]


class TestCommittedChoice:
    """A multi-stage iterate body stops at its first outcome, atom for atom and step for step as the reference."""

    @pytest.mark.parametrize("fixture, text", COMMITTED_CHOICE)
    def test_every_fuel_and_cap(self, fixture, text, request):
        model = request.getfixturevalue(fixture)
        program = parse(text)
        for seed in range(3):
            assert_every_fuel_and_cap(program, model, seed_assignment(model, seed), caps=(0, 1, 5))


class TestUnboundOperands:
    """A program that skipped the analyzer: an effect with an unbound operand spends its step and fails its branch."""

    @pytest.mark.parametrize(
        "text, steps",
        [
            ("swap_values(t0, t1)", 1),
            ("redirect(t0, t1)", 1),
            ("constraint(circuit, t0, t1), swap_values(t1, t2)", 4),  # the enumeration, then one per branch
            # a walk, then a redirect from an unbound variable and a circuit test: not joined
            ("constraint(circuit, t0, t1), iterate(t2 - t3, t1, (redirect(t3, t2))), redirect(t4, t0), constraint(circuit, t4, t3)", 22),
        ],
    )
    def test_effect_fails_its_branch(self, text, steps, circuit3):
        program = parse(text)
        result = neighbors(program, circuit3, (2, 3, 1))
        assert (result.assignments, result.truncated, result.steps_used) == ((), False, steps)
        assert_matches_reference(program, circuit3, (2, 3, 1))

    def test_no_fuel_truncates(self, circuit3):
        result = neighbors(parse("swap_values(t0, t1)"), circuit3, (2, 3, 1), fuel=0)
        assert (result.assignments, result.truncated, result.steps_used) == ((), True, 0)


def relabelled(name, order):
    """The fixture model with its variables redeclared: the j-th is the original's ``order[j]``-th, from 0."""
    document = json.loads(fixture_text(name))
    document["variables"] = [document["variables"][i] for i in order]
    return load_model(document)


def relabel(values, order):
    return tuple(values[i] for i in order)


def unlabel(values, order):
    original = [0] * len(order)
    for new, old in enumerate(order):
        original[old] = values[new]
    return tuple(original)


TSP6_ORDERS = [tuple(random.Random(seed).sample(range(6), 6)) for seed in range(5)]


class TestRelabelling:
    """Declaring a model's variables in another order renumbers them, which reorders the
    enumeration of every relation: the neighborhood, mapped back, stays the same, and
    where fuel or a cap stops exploring stays the reference's."""

    @pytest.mark.parametrize("order", TSP6_ORDERS)
    def test_two_opt(self, order, tsp6, two_opt):
        start = (2, 3, 4, 5, 6, 1)
        original = neighbors(two_opt, tsp6, start)
        model = relabelled("tsp6.json", order)
        result = neighbors(two_opt, model, relabel(start, order))
        assert not result.truncated and len(result) == len(original) == 19
        assert sorted(unlabel(values, order) for values in result.assignments) == list(original.assignments)
        for fuel, cap in [(500, 100_000), (1_000_000, 5), (1_000_000, 100_000)]:
            assert_matches_reference(two_opt, model, relabel(start, order), fuel=fuel, cap=cap)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_not_equal(self, order, triangle):
        program = parse("constraint(not_equal, t0, t1), swap_values(t0, t1)")
        original = neighbors(program, triangle, (1, 2, 3))
        model = relabelled("coloring_triangle.json", order)
        result = neighbors(program, model, relabel((1, 2, 3), order))
        assert sorted(unlabel(values, order) for values in result.assignments) == list(original.assignments)
        # the not_equal relation is built once per compile; a cap of one
        # keeps only the first branch, so that build must follow the order
        assert_matches_reference(program, model, relabel((1, 2, 3), order), cap=1)


class TestCompiledReuse:
    """Calls with the same program and model reuse one compile; fuel, cap and results start afresh."""

    def test_repeated_calls_match_reference(self, tsp6, two_opt, triangle, single_swap):
        not_equal_swap = parse("constraint(not_equal, t0, t1), swap_values(t0, t1)")
        calls = [
            (two_opt, tsp6, 1, {"fuel": 50}),  # fuel truncates
            (two_opt, tsp6, 2, {"cap": 3}),  # cap is hit
            (two_opt, tsp6, 3, {}),  # full fuel
            (not_equal_swap, triangle, 4, {"cap": 1}),  # second program, second model
            (two_opt, tsp6, 5, {"fuel": 50}),
            (single_swap, tsp6, 6, {}),  # second program, same model
            (two_opt, tsp6, 7, {"cap": 3}),
            (two_opt, triangle, 8, {"fuel": 3}),  # same program, second model
            (two_opt, tsp6, 9, {}),
        ]
        truncated = []
        for program, model, seed, options in calls:
            start = seed_assignment(model, seed)
            assert_matches_reference(program, model, start, **options)
            truncated.append(neighbors(program, model, start, **options).truncated)
        assert truncated[:3] == [True, True, False]

    def test_same_objects_keep_the_compile(self, tsp6, two_opt):
        neighbors(two_opt, tsp6, seed_assignment(tsp6, 1))
        explore = interp._last[2]
        neighbors(two_opt, tsp6, seed_assignment(tsp6, 2), fuel=10, cap=1)
        assert interp._last[2] is explore


def successor_model(cities):
    """Like tsp6 without costs: a tour as a successor array, each variable's own position left out of its domain."""
    names = [f"n{i}" for i in range(1, cities + 1)]
    return load_model({
        "name": f"successor{cities}",
        "variables": [{"name": name, "domain": {"set": [v for v in range(1, cities + 1) if v != i]}} for i, name in enumerate(names, 1)],
        "groups": {"next": names},
        "constraints": [{"kind": "circuit", "scope": "next", "alias": "all_diff_next"}],
        "structural": 0,
    })


class TestTwoOptSweep:
    """2-opt walks the tour from t1 once in each (t0, t1) branch's stage call and charges that walk's
    recorded steps for each later (t2, t3) pair of the call: the fuel spent between two prefixes passed
    on is charged in one go where the fuel left covers it, and the run truncates with no fuel left where not."""

    @pytest.mark.parametrize("cities", [6, 9])
    def test_every_fuel_and_cap(self, cities, two_opt, tsp6):
        model = tsp6 if cities == 6 else successor_model(cities)
        assert absorbs(two_opt, model)
        assert_every_fuel_and_cap(two_opt, model, seed_assignment(model, 0), caps=range(41))

    def test_twenty_cities(self, two_opt):
        model = successor_model(20)
        start = seed_assignment(model, 0)
        assert absorbs(two_opt, model)
        full = neighbors(two_opt, model, start)
        assert (len(full), full.steps_used, full.truncated) == (341, 30801, False)

        def matches(stop=None, **options):  # each side gets its own ``until``, stopping at the stop-th new neighbor
            ours = neighbors(two_opt, model, start, until=stop and stop_at(stop), **options)
            ref = reference_neighbors(two_opt, model, start, until=stop and stop_at(stop), **options)
            assert (ours.assignments, ours.truncated, ours.steps_used) == (ref.assignments, ref.truncated, ref.steps_used), (stop, options)

        for fuel in {*range(0, full.steps_used, full.steps_used // 22), 1, full.steps_used - 1, full.steps_used, full.steps_used + 1}:
            matches(fuel=fuel)
        for cap in (0, 1, 100, 340, 341):
            matches(cap=cap)
        for stop in (1, 170, 341):
            matches(stop)


def circuit_models(*circuits, structural=0, extra=False):
    """Four variables n1..n4 with domains 1..4 and one circuit per ``(alias, scope)``; with
    ``extra``, a fifth variable x beside them, tied to n1 by a not_equal."""
    names = ["n1", "n2", "n3", "n4"] + ["x"] * extra
    document = {
        "name": "circuits",
        "variables": [{"name": name, "domain": {"lo": 1, "hi": 4}} for name in names],
        "constraints": [{"kind": "circuit", "scope": scope, "alias": alias} for alias, scope in circuits]
        + [{"kind": "not_equal", "scope": ["x", "n1"]}] * extra,
    }
    if structural is not None:
        document["structural"] = structural
    return load_model(document)


# the structural circuit beside x: redirect's a or the test's c can be x, outside the walk scope
BESIDE_CIRCUIT = circuit_models(("next", ["n1", "n2", "n3", "n4"]), extra=True)
# "loop" names the structural circuit and a second one; "ring" a circuit that is not structural
TWO_CIRCUITS = circuit_models(("loop", ["n1", "n2", "n3", "n4"]), ("loop", ["n4", "n2", "n1", "n3"]), ("ring", ["n2", "n4", "n3", "n1"]))
# a circuit in a scope order other than the variable order that walks use without a structural one
UNSTRUCTURED = circuit_models(("ring", ["n3", "n1", "n4", "n2"]), structural=None)

# (model, program): a redirect followed by a constraint test.  When the test is on the
# redirected variable against the structural circuit alone and comes after a walk from a bound
# start that writes the test's c but neither a nor b, the walk joins them (JOINED); the rest
# are near-misses that keep the walk apart from the redirect and the test
REDIRECT_THEN_TEST = {
    "a beside the circuit": (BESIDE_CIRCUIT, "constraint(not_equal, t0, t1), constraint(next, t2, t3), redirect(t0, t2), constraint(next, t0, t2)"),
    "c beside the circuit": (BESIDE_CIRCUIT, "constraint(not_equal, t0, t1), constraint(not_equal, t4, t5), constraint(next, t2, t3), "
    "redirect(t2, t0), constraint(next, t2, t4)"),
    "b beside the circuit": (BESIDE_CIRCUIT, "constraint(not_equal, t0, t1), constraint(next, t2, t3), redirect(t2, t0), constraint(next, t2, t0)"),
    "a name covering two circuits": (TWO_CIRCUITS, "constraint(loop, t0, t1), constraint(loop, t2, t3), redirect(t0, t2), constraint(loop, t0, t3)"),
    "a circuit that is not structural": (TWO_CIRCUITS, "constraint(loop, t0, t1), constraint(loop, t2, t3), redirect(t0, t2), constraint(ring, t0, t3)"),
    "no structural circuit": (UNSTRUCTURED, "constraint(ring, t0, t1), constraint(ring, t2, t3), redirect(t0, t2), constraint(ring, t0, t3)"),
    "test on b": (BESIDE_CIRCUIT, "constraint(next, t0, t1), constraint(next, t2, t3), redirect(t0, t2), constraint(next, t2, t0)"),
    "test on another variable": (BESIDE_CIRCUIT, "constraint(next, t0, t1), constraint(next, t2, t3), redirect(t0, t2), constraint(next, t1, t2)"),
    "c unbound": (BESIDE_CIRCUIT, "constraint(next, t0, t1), redirect(t0, t1), constraint(next, t0, t2), redirect(t2, t1)"),
    "joined 2-opt": (BESIDE_CIRCUIT, "constraint(next, t0, t1), constraint(next, t2, t3), iterate(t4 - t5, t1, (redirect(t5, t4))), "
    "redirect(t0, t2), constraint(next, t0, t5), redirect(t1, t3)"),
    "joined on x": (BESIDE_CIRCUIT, "constraint(next, t0, t1), constraint(next, t2, t3), iterate(t4 - t5, t1, (redirect(t5, t4))), "
    "redirect(t0, t2), constraint(next, t0, t4)"),
    "joined on a body binding": (BESIDE_CIRCUIT, "constraint(next, t0, t1), constraint(next, t2, t0), "
    "iterate(t3 - t4, t1, (constraint(next, t4, t5), redirect(t5, t3))), redirect(t0, t2), constraint(next, t0, t5)"),
    "joined, an effect before": (BESIDE_CIRCUIT, "constraint(next, t0, t1), constraint(next, t2, t3), swap_values(t1, t3), "
    "iterate(t4 - t5, t1, (redirect(t5, t4))), redirect(t0, t2), constraint(next, t0, t5)"),  # the walk runs on the swapped state
    "joined in an iterate body": (BESIDE_CIRCUIT, "iterate(t0 - t1, t2, (iterate(t3 - t4, t1, (redirect(t4, t3))), "
    "redirect(t0, t2), constraint(next, t0, t4)))"),  # committed choice drops the prefixes after the first that passes
    "joined, a beside the walk": (BESIDE_CIRCUIT, "constraint(not_equal, t0, t1), constraint(next, t2, t3), "
    "iterate(t4 - t5, t3, (redirect(t5, t4))), redirect(t0, t2), constraint(next, t0, t5)"),  # a is x or n1
    "joined, a nested header rebinds the start": (BESIDE_CIRCUIT, "constraint(next, t0, t1), constraint(next, t2, t3), "
    "iterate(t4 - t5, t1, (iterate(t1 - t4, t5, (redirect(t4, t1))))), redirect(t0, t2), constraint(next, t0, t5), redirect(t1, t3)"),
    "joined, b's position outside a's domain": (load_model(fixture_text("tsp6.json")), "constraint(all_diff_next, t0, t1), "
    "iterate(t4 - t5, t1, (redirect(t5, t4))), redirect(t0, t0), constraint(all_diff_next, t0, t5)"),
    "joined, a body that writes no state": (load_model(fixture_text("tsp6.json")), "constraint(all_diff_next, t0, t1), "
    "constraint(all_diff_next, t4, t5), iterate(t2 - t3, t1, (constraint(all_diff_next, t2, t3))), redirect(t0, t4), "
    "constraint(all_diff_next, t0, t3)"),  # every prefix's state is the stage's input state, which the redirect must copy
    "a written by the walk": (BESIDE_CIRCUIT, "constraint(next, t0, t1), constraint(next, t2, t3), iterate(t4 - t5, t1, (redirect(t5, t4))), "
    "redirect(t4, t2), constraint(next, t4, t5)"),
    "b written by the walk": (BESIDE_CIRCUIT, "constraint(next, t0, t1), constraint(next, t2, t3), iterate(t4 - t5, t1, (redirect(t5, t4))), "
    "redirect(t0, t4), constraint(next, t0, t5)"),
    "c bound before the walk": (BESIDE_CIRCUIT, "constraint(next, t0, t1), constraint(next, t2, t3), iterate(t4 - t5, t1, (redirect(t5, t4))), "
    "redirect(t0, t2), constraint(next, t0, t3)"),
    "a rebound by a nested walk": (BESIDE_CIRCUIT, "constraint(next, t0, t1), constraint(next, t2, t3), "
    "iterate(t4 - t5, t1, (iterate(t0 - t3, t5, (redirect(t3, t0))))), redirect(t0, t2), constraint(next, t0, t5)"),
    "walk from an unbound start": (BESIDE_CIRCUIT, "constraint(next, t0, t1), iterate(t3 - t4, t2, (redirect(t4, t3))), "
    "redirect(t0, t1), constraint(next, t0, t4)"),
    "walk, then a name covering two circuits": (TWO_CIRCUITS, "constraint(loop, t0, t1), constraint(loop, t2, t3), "
    "iterate(t4 - t5, t1, (redirect(t5, t4))), redirect(t0, t2), constraint(loop, t0, t5)"),
    "walk, no structural circuit": (UNSTRUCTURED, "constraint(ring, t0, t1), constraint(ring, t2, t3), "
    "iterate(t4 - t5, t1, (redirect(t5, t4))), redirect(t0, t2), constraint(ring, t0, t5)"),
    "walk, then a test on another variable": (BESIDE_CIRCUIT, "constraint(next, t0, t1), constraint(next, t2, t3), "
    "iterate(t4 - t5, t1, (redirect(t5, t4))), redirect(t0, t2), constraint(next, t3, t5)"),
    # joined, with an enumeration just before the walk that the joined stage does not absorb
    "joined, the enumeration binds the start": (BESIDE_CIRCUIT, "constraint(next, t0, t1), constraint(next, t2, t3), "
    "iterate(t4 - t5, t3, (redirect(t5, t4))), redirect(t0, t2), constraint(next, t0, t5)"),
    "joined, the enumeration binds a": (BESIDE_CIRCUIT, "constraint(next, t2, t1), constraint(next, t0, t3), "
    "iterate(t4 - t5, t1, (redirect(t5, t4))), redirect(t0, t2), constraint(next, t0, t5)"),
    "joined, the enumeration binds what the body reads": (BESIDE_CIRCUIT, "constraint(next, t0, t1), constraint(next, t2, t3), "
    "iterate(t4 - t5, t1, (constraint(next, t4, t3), redirect(t5, t4))), redirect(t0, t2), constraint(next, t0, t5)"),
    "joined, the enumeration has an operand bound": (BESIDE_CIRCUIT, "constraint(next, t0, t1), constraint(next, t2, t3), "
    "constraint(next, t3, t4), iterate(t4 - t5, t1, (redirect(t5, t4))), redirect(t0, t2), constraint(next, t0, t5)"),
    "joined, the enumeration binds one variable twice": (BESIDE_CIRCUIT, "constraint(next, t0, t1), constraint(next, t2, t2), "
    "iterate(t4 - t5, t1, (redirect(t5, t4))), redirect(t0, t2), constraint(next, t0, t5)"),
}
JOINED = {case for case in REDIRECT_THEN_TEST if case.startswith("joined")}
# the joined cases whose stage absorbs the enumeration just before the walk
ABSORBED = {"joined 2-opt", "joined on x", "joined, a nested header rebinds the start", "joined, a body that writes no state"}


def joined_stages(program, model):
    """The ``joined`` closures of ``program``'s compile on ``model``: walks joined to the redirect and the test after them."""
    seen, todo, stages = set(), [interp._compile(program, model)], []
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, (tuple, list)):
            todo += item
        elif hasattr(item, "__code__"):
            if item.__code__.co_name == "joined":
                stages.append(item)
            for cell in item.__closure__ or ():
                try:
                    todo.append(cell.cell_contents)
                except ValueError:  # a variable its compile left unset
                    pass
    return stages


def joins(program, model):
    """Whether ``program`` compiles on ``model`` with a walk joined to the redirect and the test after it."""
    return bool(joined_stages(program, model))


def absorbs(program, model):
    """Whether a joined walk in ``program``'s compile on ``model`` absorbs the enumeration just before it."""
    return any(dict(zip(stage.__code__.co_freevars, stage.__closure__))["absorbs"].cell_contents for stage in joined_stages(program, model))


class TestRedirectThenCircuitTest:
    """``redirect(a, b), constraint(S, a, c)`` with S the structural circuit alone, joined to a
    walk before it or not: results, truncation and steps stay the reference's."""

    def test_two_opt_on_twenty_cities(self, two_opt):
        # TestTwoOptSweep covers tsp6 and nine cities at every fuel
        from tests.test_seeded_output import perfbench_workloads

        model = load_model(perfbench_workloads().tsp_document(1))
        start = seed_assignment(model, 0)
        full = neighbors(two_opt, model, start).steps_used
        first = neighbors(two_opt, model, start, until=lambda values: True).steps_used
        # every fuel up to past the first neighbor: truncation lands on each step of the
        # redirects and the tests before it, failed tests included
        for fuel in [*range(first + 2), *range(first + 2, full, 997), full, full + 1]:
            assert_matches_reference(two_opt, model, start, fuel=fuel)
        for cap in (0, 1, 40, 340, 341):
            assert_matches_reference(two_opt, model, start, cap=cap)

    def test_redirect_outside_the_domain_spends_one_step(self, tsp6):
        # a's own position is outside its domain: each redirect fails, and its test never runs
        program = parse("constraint(all_diff_next, t0, t1), redirect(t0, t0), constraint(all_diff_next, t0, t0)")
        start = (2, 3, 4, 5, 6, 1)
        assert neighbors(program, tsp6, start) == reference_neighbors(program, tsp6, start) == interp.NeighborSet((), False, 1 + 6)

    def test_narrowed_domain(self, two_opt):
        model = narrowed_tsp6(0, (2, 3, 4, 6))
        for seed in range(3):
            assert_every_fuel_and_cap(two_opt, model, random_start(model, seed))

    @pytest.mark.parametrize("case", REDIRECT_THEN_TEST)
    def test_matches_reference(self, case):
        model, text = REDIRECT_THEN_TEST[case]
        program = parse(text)
        assert analyze(program, model).ok
        assert joins(program, model) == (case in JOINED)
        assert absorbs(program, model) == (case in ABSORBED)
        for seed in range(4):
            assert_every_fuel_and_cap(program, model, random_start(model, seed))

    def test_a_repeated_value_passes_twice(self):
        # the successor array (2, 3, 2, 1) walks n1 -> n2 -> n3 -> n2 -> n3: for b = n2 the
        # prefixes after steps 1 and 3 both pass, and only a = n4 (the branch whose walk starts
        # at n1) sets n4 to 2, so both neighbors below come from that one joined stage
        model, text = REDIRECT_THEN_TEST["joined 2-opt"]
        program = parse(text.removesuffix(", redirect(t1, t3)"))
        start = (2, 3, 2, 1, 1)
        assert {(2, 1, 2, 2, 1), (2, 3, 2, 2, 1)} <= set(neighbors(program, model, start).assignments)
        assert_every_fuel_and_cap(program, model, start)

    def test_two_opt_joined_stages_on_twenty_cities(self, two_opt):
        # the first branch binds t0 and t2 to n1: n1's own position is outside its domain,
        # so the redirect would fail on each of the walk's 19 prefixes, one step each; the
        # second binds t2 to n2, and only the prefix whose t5 is n2 passes, with two steps
        # spent on each prefix before it and after it.  Fuel runs out on each skipped run's
        # last step, on the step before it and on the step after it
        from tests.test_seeded_output import perfbench_workloads

        model = load_model(perfbench_workloads().tsp_document(1))
        start = seed_assignment(model, 0)
        assert 1 not in model.variables[0].domain
        walk = len(start) - 1  # prefixes, each a walk step and its redirect
        first = 3 + 2 * walk + walk  # two enumerations, the iterate, the walk and its skipped run
        t5 = start[start[0] - 1]  # the walk from t1 = succ(n1) steps to succ^2(n1) first
        k = 0
        while t5 != 2:
            t5, k = start[t5 - 1], k + 1
        before = first + 1 + 2 * walk + 2 * k  # the iterate, the walk's recorded steps and the run before n2's prefix
        after = before + 2 + 1 + 2 * (walk - k - 1)  # the redirect and the test, redirect(t1, t3), the run after
        assert neighbors(two_opt, model, start, until=lambda values: True).steps_used == before + 3
        for boundary in (first, before, after):
            for fuel in (boundary - 1, boundary, boundary + 1):
                assert_matches_reference(two_opt, model, start, fuel=fuel)
                result = neighbors(two_opt, model, start, fuel=fuel)
                assert result.truncated and result.steps_used == fuel
                assert len(result) == (fuel >= before + 3)


# (model, the name its constraints go by)
REUSE_MODELS = [(load_model(fixture_text("tsp6.json")), "all_diff_next"), (ALL_DIFFERENT5, "all_different"), (SHARED_NAME5, "link")]

# walks after enumerations, effects, tests and other walks, none joined to a redirect and a
# test after them, so each runs afresh on every branch that reaches it: headers that rebind
# an entry variable and nested headers included
WALK_REUSE = {
    "bound start": "constraint({n}, t0, t1), constraint({n}, t2, t3), iterate(t4 - t5, t1, (swap_values(t4, t5))), swap_values(t0, t2)",
    "header rebinds an enumerated variable": "constraint({n}, t0, t1), constraint({n}, t2, t3), "
    "iterate(t2 - t4, t1, (swap_values(t2, t4))), swap_values(t0, t3)",
    "unbound start": "constraint({n}, t0, t1), iterate(t2 - t3, t4, (swap_values(t2, t3))), swap_values(t0, t4)",
    "body reads an enumerated variable": "constraint({n}, t0, t1), constraint({n}, t2, t3), "
    "iterate(t4 - t5, t1, (constraint({n}, t4, t0), swap_values(t4, t5))), swap_values(t2, t5)",
    "body binds a variable": "constraint({n}, t0, t1), iterate(t2 - t3, t0, (constraint({n}, t3, t4), swap_values(t2, t4))), swap_values(t1, t4)",
    "enumeration binds x": "constraint({n}, t4, t0), constraint({n}, t1, t2), iterate(t4 - t5, t1, (swap_values(t4, t5))), swap_values(t0, t4)",
    "enumeration binds y and the start": "constraint({n}, t0, t5), iterate(t4 - t5, t0, (swap_values(t4, t5))), swap_values(t0, t5)",
    "test in between": "constraint({n}, t0, t1), constraint({n}, t2, t3), constraint({n}, t1, t2), "
    "iterate(t4 - t5, t0, (swap_values(t4, t5))), swap_values(t0, t3)",
    "effect before the enumeration": "constraint({n}, t0, t1), swap_values(t0, t1), constraint({n}, t2, t3), "
    "iterate(t4 - t5, t2, (swap_values(t4, t5))), swap_values(t1, t5)",
    "effect in between, not marked": "constraint({n}, t0, t1), constraint({n}, t2, t3), swap_values(t0, t2), "
    "iterate(t4 - t5, t1, (swap_values(t4, t5)))",
    "a nested header rebinds an entry variable": "constraint({n}, t0, t1), constraint({n}, t2, t3), "
    "iterate(t4 - t5, t1, (iterate(t0 - t6, t5, (swap_values(t0, t6))))), swap_values(t0, t2)",
    "nested in an iterate body": "iterate(t0 - t1, t2, (constraint({n}, t3, t4), iterate(t5 - t6, t1, (swap_values(t5, t6))), swap_values(t3, t6)))",
}


class TestWalkReuse:
    """Walks that are not joined, each run afresh on every branch that reaches it, stay the
    reference's at every fuel and cap."""

    @pytest.mark.parametrize("model, name", REUSE_MODELS, ids=lambda value: getattr(value, "name", None))
    @pytest.mark.parametrize("shape", WALK_REUSE)
    def test_matches_reference(self, shape, model, name):
        program = parse(WALK_REUSE[shape].format(n=name))
        for seed in range(2):
            assert_every_fuel_and_cap(program, model, random_start(model, seed))


TSP6, TSP6_FULL = load_model(fixture_text("tsp6.json")), load_model(fixture_text("tsp6_full.json"))
FUZZ_MODELS = (BESIDE_CIRCUIT, TWO_CIRCUITS, TSP6, TSP6_FULL)
FUZZ_VARIABLES = [f"t{i}" for i in range(7)]


@st.composite
def walk_then_test(draw):
    """(model, NDL text): two enumerations, a walk from a bound start, ``redirect(a, b), constraint(S, a, c)``
    and an optional tail, with a, b and the start bound by the enumerations.  Each variable mostly
    keeps its role (enumerated, header or free) and each operand is mostly one bound where it stands,
    c mostly one the walk writes, so that most cases join.  The enumeration just before the walk is
    drawn to be absorbed or as one of the near-misses that keep it apart: it binds the start, binds a,
    binds a variable the body reads, has an operand bound already, or binds one variable twice.  Of
    2,000 drawn cases, 516 joined and 134 of those absorbed the enumeration."""
    model = draw(st.sampled_from(FUZZ_MODELS))
    name = st.sampled_from(sorted({name for c in model.constraints for name in c.names}))
    var = st.sampled_from(FUZZ_VARIABLES)
    roles = draw(st.permutations(FUZZ_VARIABLES))
    miss = draw(st.one_of(st.none(), st.sampled_from(("start", "a", "read", "bound", "twice"))))  # half absorbable

    def pick(among):
        return draw(var) if draw(st.integers(0, 3)) == 3 or not among else draw(st.sampled_from(sorted(among)))

    first = {roles[0], roles[1]}
    u = pick({roles[2]})
    v = u if miss == "twice" else pick(first if miss == "bound" else {roles[3]})
    entry = first | {u, v}
    seen = entry - {u, v} if miss is None else entry  # what the body may read or rebind of them

    def body(bound, depth):  # swaps, redirects, constraints and walks nested at most two deep inside the first
        atoms = []
        for head in draw(st.lists(st.sampled_from(("iterate", "swap_values", "redirect", "constraint")[depth > 1:]), min_size=1, max_size=3)):
            if head == "iterate":
                x, y, start = pick(seen), pick(bound), pick(bound)  # mostly a header that rebinds an enumerated variable
                bound |= {x, y, start}
                atoms.append(f"iterate({x} - {y}, {start}, ({body(bound, depth + 1)}))")
            elif head == "constraint":
                u, v = pick(bound), pick(bound)
                bound |= {u, v}
                atoms.append(f"constraint({draw(name)}, {u}, {v})")
            else:
                atoms.append(f"{head}({pick(bound)}, {pick(bound)})")
        return ", ".join(atoms)

    x, y = pick({roles[4]}), pick({roles[5]})
    bound = seen | {x, y}
    read = f"constraint({draw(name)}, {x}, {pick({u, v})}), " if miss == "read" else ""
    walk = f"iterate({x} - {y}, {pick({u, v} if miss == 'start' else first)}, ({read}{body(bound, 0)}))"
    a = pick({u, v} if miss == "a" else first)
    atoms = [f"constraint({draw(name)}, {roles[0]}, {roles[1]})", f"constraint({draw(name)}, {u}, {v})", walk,
             f"redirect({a}, {pick(entry)})", f"constraint({draw(name)}, {a}, {pick(bound - entry | {x, y})})"]
    if draw(st.booleans()):
        atoms.append(f"{draw(st.sampled_from(('swap_values', 'redirect')))}({pick(entry)}, {pick(bound)})")
    return model, ", ".join(atoms)


def stop_at(k):
    """An ``until`` that ends the run at the k-th new neighbor."""
    seen = []
    return lambda values: seen.append(values) or len(seen) == k


class TestJoinedShapes:
    """A differential fuzz over walks that may join the redirect and the test after them: nested
    headers, rebound enumerated variables, and bodies that bind or read what the join reads."""

    # one case per near miss of the absorption rule: a rule that absorbed the enumeration
    # there gets the case wrong from every start, where only a few percent of drawn cases
    # would show it
    @example(case=(TSP6, "constraint(all_diff_next, t0, t1), constraint(all_diff_next, t2, t3), iterate(t4 - t5, t3, (redirect(t5, t4))), "
                   "redirect(t0, t2), constraint(all_diff_next, t0, t5), redirect(t1, t3)"), seed=0, fuel=5000, cap=60, k=20)  # binds the start
    @example(case=(TSP6_FULL, "constraint(all_diff_next, t2, t1), constraint(all_diff_next, t0, t3), iterate(t4 - t5, t1, (redirect(t5, t4))), "
                   "redirect(t0, t2), constraint(all_diff_next, t0, t5)"), seed=1, fuel=5000, cap=60, k=20)  # binds a
    @example(case=(TSP6_FULL, "constraint(all_diff_next, t0, t1), constraint(all_diff_next, t2, t3), "
                   "iterate(t4 - t5, t1, (constraint(all_diff_next, t4, t3), redirect(t5, t4))), redirect(t0, t2), constraint(all_diff_next, t0, t5)"),
             seed=2, fuel=5000, cap=60, k=20)  # binds what the body reads
    @example(case=(TSP6, "constraint(all_diff_next, t0, t1), constraint(all_diff_next, t2, t3), constraint(all_diff_next, t3, t4), "
                   "iterate(t4 - t5, t1, (redirect(t5, t4))), redirect(t0, t2), constraint(all_diff_next, t0, t5)"),
             seed=3, fuel=5000, cap=60, k=20)  # has an operand bound
    @example(case=(BESIDE_CIRCUIT, "constraint(next, t0, t1), constraint(next, t2, t2), iterate(t4 - t5, t1, (redirect(t5, t4))), redirect(t0, t2), "
                   "constraint(next, t0, t5), swap_values(t1, t2)"), seed=4, fuel=5000, cap=60, k=20)  # binds one variable twice
    @settings(max_examples=500, deadline=None)
    @given(case=walk_then_test(), seed=st.integers(0, 1000), fuel=st.integers(0, 5000), cap=st.integers(0, 60), k=st.integers(1, 20))
    def test_matches_reference(self, case, seed, fuel, cap, k):
        model, text = case
        program = parse(text)
        start = random_start(model, seed)
        full = neighbors(program, model, start).steps_used
        fuel %= full + 2  # any fuel up to one past a full run, each as likely
        # and the fuels that run out on a full run's last two steps, where a repeated walk
        # that is the run's last work decides alone whether the run truncates
        for last in (full - 1, full):
            assert_matches_reference(program, model, start, fuel=max(last, 0))
        assert_matches_reference(program, model, start, fuel=fuel, cap=cap)
        ours = neighbors(program, model, start, fuel=fuel, cap=cap, until=stop_at(k))
        ref = reference_neighbors(program, model, start, fuel=fuel, cap=cap, until=stop_at(k))
        assert (ours.assignments, ours.truncated, ours.steps_used) == (ref.assignments, ref.truncated, ref.steps_used)


class TestStopHook:
    """``until`` sees each new neighbor once, in discovery order; a true answer ends the run
    with the neighbors found so far, untruncated, having spent no more steps than a full run."""

    @staticmethod
    def program_for(model, genome_seed):
        grammar = derive_grammar(model, budget=6)
        rng = random.Random(genome_seed)
        while True:
            outcome = map_genome(grammar, [rng.randrange(256) for _ in range(80)])
            if outcome.ok and analyze(outcome.program, model).ok:
                return optimize(outcome.program)

    def assert_stop_hook(self, model, genome_seed, sample_seed, fuel, cap, k):
        program = self.program_for(model, genome_seed)
        start = seed_assignment(model, sample_seed)
        full = neighbors(program, model, start, fuel=fuel, cap=cap)
        seen = []
        never = neighbors(program, model, start, fuel=fuel, cap=cap, until=lambda values: seen.append(values))
        ref = reference_neighbors(program, model, start, fuel=fuel, cap=cap)
        triple = (full.assignments, full.truncated, full.steps_used)
        assert (never.assignments, never.truncated, never.steps_used) == triple
        assert (ref.assignments, ref.truncated, ref.steps_used) == triple
        assert len(seen) == len(set(seen)) and sorted(seen) == list(full.assignments)

        calls = []
        stopped = neighbors(program, model, start, fuel=fuel, cap=cap, until=lambda values: calls.append(values) or len(calls) == k)
        if len(calls) < k:  # fewer than k neighbors: the hook never stopped the run
            assert (stopped.assignments, stopped.truncated, stopped.steps_used) == triple
            return
        assert calls == seen[:k]
        assert list(stopped.assignments) == sorted(calls)
        assert not stopped.truncated
        assert stopped.steps_used <= full.steps_used

    @settings(max_examples=300, deadline=None)
    @given(genome_seed=st.integers(0, 2**32), sample_seed=st.integers(0, 1000), fuel=st.integers(0, 3000), cap=st.integers(0, 50), k=st.integers(1, 20))
    def test_tsp6(self, genome_seed, sample_seed, fuel, cap, k, tsp6):
        self.assert_stop_hook(tsp6, genome_seed, sample_seed, fuel, cap, k)

    @settings(max_examples=300, deadline=None)
    @given(genome_seed=st.integers(0, 2**32), sample_seed=st.integers(0, 1000), fuel=st.integers(0, 3000), cap=st.integers(0, 50), k=st.integers(1, 20))
    def test_not_equal_triangle(self, genome_seed, sample_seed, fuel, cap, k, triangle):
        self.assert_stop_hook(triangle, genome_seed, sample_seed, fuel, cap, k)

    def test_two_opt_stops_at_its_first_neighbor(self, tsp6, two_opt):
        start = (2, 3, 4, 5, 6, 1)
        full = neighbors(two_opt, tsp6, start)
        first = neighbors(two_opt, tsp6, start, until=lambda values: True)
        assert len(first) == 1 and first.assignments[0] in full.assignments
        assert not first.truncated and 0 < first.steps_used < full.steps_used
        # the hook leaves the kept compile and its fuel counter as a full run needs them
        assert neighbors(two_opt, tsp6, start) == full
