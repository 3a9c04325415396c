import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noodle.grammar import CODONS, DEFAULT_MAX_DEPTH, NT, derive_grammar, map_genome, render_grammar
from noodle.lang.analyzer import analyze
from noodle.lang.ast import render
from noodle.lang.parser import parse
from noodle.model import load_model
from tests.oracles import text_map_genome

genomes = st.lists(st.integers(0, 255), min_size=80, max_size=80)
short_genomes = st.lists(st.integers(0, 255), min_size=1, max_size=40)
depths = st.one_of(st.just(DEFAULT_MAX_DEPTH), st.integers(1, 16))


@pytest.fixture(scope="module")
def two_constraint_model():
    return load_model(
        {
            "name": "both",
            "variables": [{"name": f"v{i}", "domain": {"lo": 1, "hi": 4}} for i in range(1, 5)],
            "groups": {"next": [f"v{i}" for i in range(1, 5)]},
            "constraints": [
                {"kind": "circuit", "scope": "next"},
                {"kind": "all_different", "scope": "next"},
            ],
            "structural": 0,
        }
    )


@pytest.fixture(scope="module")
def no_constraint_model():
    return load_model(
        {
            "name": "free",
            "variables": [{"name": name, "domain": {"lo": 1, "hi": 3}} for name in ("a", "b")],
        }
    )


@pytest.fixture(scope="module")
def no_structural_model():
    return load_model(
        {
            "name": "flat",
            "variables": [{"name": f"v{i}", "domain": {"lo": 1, "hi": 3}} for i in range(1, 4)],
            "groups": {"g": ["v1", "v2", "v3"]},
            "constraints": [{"kind": "all_different", "scope": "g"}],
        }
    )


class TestDeriveGrammar:
    def test_tsp_grammar_counts(self, tsp6):
        rules = derive_grammar(tsp6, budget=6)
        assert len(rules["<cname>"]) == 1
        assert len(rules["<var>"]) == 6
        assert len(rules["<effect>"]) == 2

    def test_two_constraints_two_names(self, two_constraint_model):
        rules = derive_grammar(two_constraint_model, budget=4)
        assert len(rules["<cname>"]) == 2

    def test_no_structural_drops_redirect(self, no_structural_model):
        rules = derive_grammar(no_structural_model, budget=3)
        assert len(rules["<effect>"]) == 1

    def test_budget_floor(self, tsp6):
        with pytest.raises(ValueError):
            derive_grammar(tsp6, budget=1)

    def test_budget_ceiling(self, tsp6):
        # one <var> alternative per codon value: a larger budget offers variables no genome selects
        assert len(derive_grammar(tsp6, budget=CODONS)["<var>"]) == CODONS
        with pytest.raises(ValueError, match=f"budget must be at most {CODONS}"):
            derive_grammar(tsp6, budget=CODONS + 1)

    def test_every_nonterminal_has_alternatives(self, tsp6, no_constraint_model):
        for model in (tsp6, no_constraint_model):
            rules = derive_grammar(model, budget=6)
            for alternatives in rules.values():
                assert len(alternatives) >= 1
                for symbols, *_ in alternatives:
                    assert {text for kind, text in symbols if kind == NT} <= rules.keys()

    def test_no_constraint_drops_test_atom(self, no_constraint_model):
        rules = derive_grammar(no_constraint_model, budget=3)
        assert "<test>" not in rules
        assert "<cname>" not in rules
        assert len(rules["<atom>"]) == 2


class TestMapGenome:
    def test_all_zero_genome(self, tsp6):
        grammar = derive_grammar(tsp6, budget=6)
        outcome = map_genome(grammar, [0] * 80)
        assert outcome.ok
        assert render(outcome.program) == "constraint(all_diff_next, t0, t0)"
        assert len(outcome.derivation) == 7

    def test_wrap_limit(self, tsp6):
        grammar = derive_grammar(tsp6, budget=6)
        outcome = map_genome(grammar, [0], wrap_limit=0)
        assert not outcome.ok
        assert outcome.invalid == "WRAP_LIMIT"

    def test_depth_limit(self, tsp6):
        grammar = derive_grammar(tsp6, budget=6)
        # codon 1 always picks the recursive conjunction alternative
        outcome = map_genome(grammar, [1] * 200, wrap_limit=50)
        assert outcome.invalid == "DEPTH_LIMIT"

    def test_deterministic(self, tsp6):
        grammar = derive_grammar(tsp6, budget=6)
        genome = [random.Random(3).randrange(256) for _ in range(80)]
        first = map_genome(grammar, genome)
        second = map_genome(grammar, genome)
        assert first == second

    @settings(max_examples=300, deadline=None)
    @given(genome=genomes)
    def test_successful_mappings_parse_and_render_losslessly(self, genome, tsp6):
        grammar = derive_grammar(tsp6, budget=6)
        outcome = map_genome(grammar, genome)
        if not outcome.ok:
            return
        text = render(outcome.program)
        assert parse(text) == outcome.program

    @settings(max_examples=200, deadline=None)
    @given(genome=genomes, data=st.data())
    def test_codons_beyond_consumed_prefix_are_silent(self, genome, data, tsp6):
        grammar = derive_grammar(tsp6, budget=6)
        outcome = map_genome(grammar, genome)
        if not outcome.ok or len(outcome.derivation) >= len(genome):
            return
        index = data.draw(st.integers(len(outcome.derivation), len(genome) - 1))
        mutated = list(genome)
        mutated[index] = (mutated[index] + 1) % 256
        assert map_genome(grammar, mutated).program == outcome.program

    @settings(max_examples=200, deadline=None)
    @given(genome=genomes)
    def test_mapped_programs_respect_budget(self, genome, tsp6):
        grammar = derive_grammar(tsp6, budget=6)
        outcome = map_genome(grammar, genome)
        if not outcome.ok:
            return
        diagnostics = analyze(outcome.program, tsp6, budget=6)
        assert "VAR_BUDGET_EXCEEDED" not in {d.code for d in diagnostics.errors}

    def test_alternative_order_is_contract(self, tsp6):
        grammar = derive_grammar(tsp6, budget=6)
        permuted = {lhs: tuple(reversed(alts)) if lhs == "<var>" else alts for lhs, alts in grammar.items()}
        genome = [0] * 80
        assert render(map_genome(grammar, genome).program) != render(map_genome(permuted, genome).program)


class TestMapperAgainstReference:
    """``map_genome`` builds the same program as deriving text and parsing it."""

    @staticmethod
    def assert_same(grammar, genome, wrap_limit, max_depth):
        outcome = map_genome(grammar, genome, wrap_limit=wrap_limit, max_depth=max_depth)
        expected = text_map_genome(grammar, genome, wrap_limit, max_depth)
        assert (outcome.program, len(outcome.derivation), outcome.invalid) == expected
        if max_depth == DEFAULT_MAX_DEPTH:
            assert map_genome(grammar, genome, wrap_limit=wrap_limit) == outcome
            assert text_map_genome(grammar, genome, wrap_limit) == expected

    @settings(max_examples=300, deadline=None)
    @given(genome=short_genomes, wrap_limit=st.integers(0, 3), max_depth=depths)
    def test_tsp6(self, genome, wrap_limit, max_depth, tsp6):
        self.assert_same(derive_grammar(tsp6, budget=6), genome, wrap_limit, max_depth)

    @settings(max_examples=300, deadline=None)
    @given(genome=short_genomes, wrap_limit=st.integers(0, 3), max_depth=depths)
    def test_without_structural_circuit(self, genome, wrap_limit, max_depth, no_structural_model):
        self.assert_same(derive_grammar(no_structural_model, budget=3), genome, wrap_limit, max_depth)

    def test_deep_conjunction_maps_without_recursion(self, tsp6):
        # <atom> "," <conj> with a t0/t0 swap 2,000 times, then a last swap
        genome = [0] + [1, 1, 0, 0, 0] * 2000 + [0, 1, 0, 0, 0]
        grammar = derive_grammar(tsp6, budget=6)
        outcome = map_genome(grammar, genome, wrap_limit=0, max_depth=100_000)
        assert outcome.ok
        assert len(outcome.derivation) == len(genome)
        assert len(outcome.program.body) == 2001


class TestRenderGrammar:
    def test_contains_cname_line(self, tsp6):
        text = render_grammar(derive_grammar(tsp6, budget=6))
        assert '<cname> ::= "all_diff_next"' in text

    def test_stable_across_calls(self, tsp6):
        grammar = derive_grammar(tsp6, budget=6)
        assert render_grammar(grammar) == render_grammar(grammar)

    def test_declaration_order_of_names(self, two_constraint_model):
        text = render_grammar(derive_grammar(two_constraint_model, budget=4))
        assert '<cname> ::= "circuit" | "all_different"' in text

    def test_every_nonterminal_once_on_lhs(self, tsp6):
        text = render_grammar(derive_grammar(tsp6, budget=6))
        lhs = [line.split(" ::= ")[0] for line in text.strip().splitlines()]
        assert len(lhs) == len(set(lhs))
