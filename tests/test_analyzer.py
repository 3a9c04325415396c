import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noodle.grammar import derive_grammar, map_genome
from noodle.lang.analyzer import analyze, optimize
from noodle.lang.ast import atom_count, render
from noodle.lang.interp import neighbors
from noodle.lang.parser import parse

from tests.conftest import fixture_text
from tests.oracles import renamed

# (text, label-free): no iterate body holds an enumerating constraint or an iterate from an unbound start
LABEL_FREE_CASES = [
    (fixture_text("two_opt.ndl"), True),
    ("constraint(all_diff_next, t0, t1), swap_values(t0, t1)", True),
    ("iterate(t0 - t1, t2, (swap_values(t0, t1)))", True),
    ("iterate(t0 - t1, t2, (constraint(all_diff_next, t3, t4), swap_values(t3, t4)))", False),
    ("constraint(all_diff_next, t0, t1), iterate(t2 - t3, t0, (constraint(all_diff_next, t2, t4), redirect(t2, t4)))", False),
    ("iterate(t0 - t1, t2, (iterate(t3 - t4, t5, (swap_values(t3, t4)))))", False),
    ("iterate(t0 - t1, t2, (iterate(t3 - t4, t0, (swap_values(t3, t4)))))", True),
]


def error_codes(diagnostics):
    return {d.code for d in diagnostics.errors}


class TestAnalyze:
    def test_unbound_effect(self, tsp4):
        diagnostics = analyze(parse("swap_values(t0, t1)"), tsp4)
        assert error_codes(diagnostics) == {"UNBOUND_EFFECT"}

    def test_duplicate_test_and_no_effect(self, circuit3):
        program = parse("constraint(circuit, t0, t1), constraint(circuit, t0, t1)")
        diagnostics = analyze(program, circuit3)
        assert error_codes(diagnostics) == {"NO_EFFECT"}

    def test_legacy_operator_is_clean(self, tsp6):
        program = parse(fixture_text("legacy_two_opt.ndl"))
        diagnostics = analyze(program, tsp6)
        assert diagnostics.ok
        assert diagnostics.errors == ()

    def test_two_opt_program_is_clean(self, tsp6, two_opt):
        assert analyze(two_opt, tsp6).ok

    def test_unknown_constraint(self, tsp4):
        program = parse("constraint(no_such, t0, t1), swap_values(t0, t1)")
        assert "UNKNOWN_CONSTRAINT" in error_codes(analyze(program, tsp4))

    def test_kind_name_resolves_alongside_alias(self, tsp4):
        # tsp4's constraint is aliased all_diff_next but its kind name works too
        program = parse("constraint(circuit, t0, t1), swap_values(t0, t1)")
        assert analyze(program, tsp4).ok

    def test_self_swap_is_not_an_error(self, circuit3):
        program = parse("constraint(circuit, t0, t1), swap_values(t0, t0), swap_values(t0, t1)")
        assert analyze(program, circuit3).errors == ()

    def test_var_budget(self, circuit3):
        program = parse("constraint(circuit, t0, t9), swap_values(t0, t9)")
        assert "VAR_BUDGET_EXCEEDED" in error_codes(analyze(program, circuit3, budget=6))
        assert analyze(program, circuit3, budget=10).ok

    def test_iterate_header_binds_for_later_effects(self, circuit3):
        program = parse("constraint(circuit, t0, t1), iterate(t2 - t3, t0, (swap_values(t2, t3))), swap_values(t2, t0)")
        assert analyze(program, circuit3).ok

    def test_bindings_made_inside_body_persist(self, circuit3):
        program = parse("iterate(t0 - t1, t2, (constraint(circuit, t3, t4))), swap_values(t3, t4)")
        assert analyze(program, circuit3).ok

    def test_effects_do_not_bind(self, circuit3):
        program = parse("constraint(circuit, t0, t1), swap_values(t0, t1), swap_values(t2, t0)")
        assert "UNBOUND_EFFECT" in error_codes(analyze(program, circuit3))


class TestLabelFree:
    @pytest.mark.parametrize("text, label_free", LABEL_FREE_CASES)
    def test_label_free(self, tsp6, text, label_free):
        assert analyze(parse(text), tsp6).label_free is label_free

    @staticmethod
    def assert_invariant(model, genome):
        # fitness runs the optimized program, and evolve's memo is keyed on the renamed derivation
        outcome = map_genome(derive_grammar(model), genome)
        assume(outcome.ok)
        label_free = analyze(outcome.program, model).label_free
        assert analyze(optimize(outcome.program), model).label_free is label_free
        assert analyze(renamed(outcome.program), model).label_free is label_free

    @settings(max_examples=300, deadline=None)
    @given(genome=st.lists(st.integers(0, 255), min_size=80, max_size=80))
    def test_optimize_and_renaming_keep_it_on_tsp6(self, genome, tsp6):
        self.assert_invariant(tsp6, genome)

    @settings(max_examples=300, deadline=None)
    @given(genome=st.lists(st.integers(0, 255), min_size=80, max_size=80))
    def test_optimize_and_renaming_keep_it_on_the_coloring_triangle(self, genome, triangle):
        self.assert_invariant(triangle, genome)


class TestOptimize:
    def test_self_swap_removed(self):
        program = parse("constraint(circuit, t0, t1), swap_values(t0, t0), swap_values(t0, t1)")
        optimized = optimize(program)
        assert atom_count(optimized) == 2
        assert render(optimized) == "constraint(circuit, t0, t1), swap_values(t0, t1)"

    def test_clean_program_unchanged(self, two_opt):
        assert optimize(two_opt) == two_opt

    def test_idempotent(self):
        program = parse(
            "constraint(circuit, t0, t1), constraint(circuit, t0, t1), swap_values(t1, t1), swap_values(t0, t1)"
        )
        once = optimize(program)
        assert optimize(once) == once

    def test_sole_atom_conjunctions_stay_non_empty(self):
        program = parse("iterate(t0 - t1, t2, (swap_values(t3, t3))), swap_values(t0, t1)")
        optimized = optimize(program)
        assert render(optimized) == render(program)

    def test_duplicate_test_removal_preserves_neighbors(self, tsp4):
        duplicated = parse(
            "constraint(all_diff_next, t0, t1), constraint(all_diff_next, t0, t1), swap_values(t0, t1)"
        )
        optimized = optimize(duplicated)
        assert atom_count(optimized) == 2
        start = (2, 3, 4, 1)
        before = neighbors(duplicated, tsp4, start)
        after = neighbors(optimized, tsp4, start)
        assert before.assignments == after.assignments

    def test_optimizer_sound_on_200_random_programs(self):
        import random

        from noodle.grammar import derive_grammar, map_genome
        from noodle.model import load_model

        model = load_model(
            {
                "name": "circuit5",
                "variables": [{"name": f"v{i}", "domain": {"lo": 1, "hi": 5}} for i in range(1, 6)],
                "groups": {"next": [f"v{i}" for i in range(1, 6)]},
                "constraints": [{"kind": "circuit", "scope": "next"}],
                "structural": 0,
            }
        )
        rng = random.Random(13)
        grammar = derive_grammar(model, budget=5)
        start = (2, 3, 4, 5, 1)
        compared = 0
        attempts = 0
        while compared < 200 and attempts < 20_000:
            attempts += 1
            genome = [rng.randrange(256) for _ in range(60)]
            outcome = map_genome(grammar, genome)
            if not outcome.ok or not analyze(outcome.program, model, budget=5).ok:
                continue
            before = neighbors(outcome.program, model, start, fuel=500_000)
            after = neighbors(optimize(outcome.program), model, start, fuel=500_000)
            assert not before.truncated and not after.truncated
            assert before.assignments == after.assignments
            compared += 1
        assert compared == 200
