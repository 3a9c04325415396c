import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noodle.lang.ast import ConstraintAtom, Iterate, Program, Redirect, Swap, Var, render
from noodle.lang.parser import MAX_ITERATE_NESTING, ParseError, parse

from tests.conftest import fixture_text, nested_iterates

LEGACY_TEXT = (
    "constraint(all_diff_next,t0,t1), iterate(t3 - t4, t0, "
    "(constraint(all_diff_next,t4,t1), swap_values(t1,t0), swap_values(t4,t0)))"
)


def variables(max_index=9):
    return st.builds(Var, index=st.integers(0, max_index))


def atoms(depth=2):
    leaf = st.one_of(
        st.builds(ConstraintAtom, name=st.sampled_from(["circuit", "all_diff_next", "not_equal"]), a=variables(), b=variables()),
        st.builds(Swap, a=variables(), b=variables()),
        st.builds(Redirect, a=variables(), b=variables()),
    )
    if depth == 0:
        return leaf
    return st.one_of(
        leaf,
        st.builds(
            Iterate,
            x=variables(),
            y=variables(),
            start=variables(),
            body=st.lists(atoms(depth - 1), min_size=1, max_size=3).map(tuple),
        ),
    )


programs = st.lists(atoms(), min_size=1, max_size=4).map(lambda body: Program(body=tuple(body)))


class TestParse:
    def test_legacy_operator_structure(self):
        program = parse(LEGACY_TEXT)
        assert len(program.body) == 2
        loop = program.body[1]
        assert isinstance(loop, Iterate)
        assert len(loop.body) == 3
        assert loop.x == Var(3) and loop.y == Var(4) and loop.start == Var(0)

    def test_empty_input_is_syntax_error(self):
        with pytest.raises(ParseError):
            parse("")

    def test_unknown_atom_head(self):
        with pytest.raises(ParseError, match="unknown atom head"):
            parse("shuffle(t0)")

    def test_arity_mismatch_too_few(self):
        with pytest.raises(ParseError, match="too few arguments"):
            parse("constraint(circuit, t0)")

    def test_arity_mismatch_too_many(self):
        with pytest.raises(ParseError, match="too many arguments"):
            parse("swap_values(t0, t1, t2)")

    def test_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse("swap_values(t0, t1),\nshuffle(t2)")
        assert err.value.line == 2
        assert err.value.column == 1

    def test_iterate_nesting_limit(self):
        program = parse(nested_iterates(MAX_ITERATE_NESTING))
        assert render(program) == nested_iterates(MAX_ITERATE_NESTING)
        assert parse(render(program)) == program
        with pytest.raises(ParseError, match="nested more than") as err:
            parse(nested_iterates(MAX_ITERATE_NESTING + 1))
        # the position of the first iterate past the limit
        assert (err.value.line, err.value.column) == (1, MAX_ITERATE_NESTING * len("iterate(t0 - t1, t2, (") + 1)

    def test_conjunction_with_prolog_style_separator(self):
        a = parse("swap_values(t0, t1) /\\ swap_values(t1, t2)")
        b = parse("swap_values(t0, t1), swap_values(t1, t2)")
        assert a == b

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("swap_values(t0, t1) swap_values(t1, t2)")

    def test_variables_need_index(self):
        with pytest.raises(ParseError, match="program variable"):
            parse("swap_values(foo, t1)")


class TestRender:
    def test_canonical_spacing(self):
        assert render(parse("swap_values(t0,t1)")) == "swap_values(t0, t1)"

    def test_nested_iterate_parenthesized(self):
        text = "iterate(t0 - t1, t2, (iterate(t3 - t4, t0, (swap_values(t3, t4)))))"
        assert render(parse(text)) == text

    def test_legacy_operator_round_trip_is_fixpoint(self):
        once = render(parse(LEGACY_TEXT))
        assert parse(once) == parse(LEGACY_TEXT)
        assert render(parse(once)) == once

    def test_fixture_operators_round_trip(self):
        for name in ("two_opt.ndl", "single_swap.ndl", "swap_pair.ndl", "legacy_two_opt.ndl"):
            text = fixture_text(name)
            program = parse(text)
            assert parse(render(program)) == program

    @settings(max_examples=200)
    @given(program=programs)
    def test_parse_render_round_trip(self, program):
        assert parse(render(program)) == program

    @settings(max_examples=100)
    @given(program=programs)
    def test_render_is_stable(self, program):
        once = render(program)
        assert render(parse(once)) == once
