import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noodle.lang.ast import ConstraintAtom, Iterate, Program, Redirect, Swap, Var, render
from noodle.lang.parser import MAX_ITERATE_NESTING, ParseError, parse

from tests.conftest import FIXTURES, fixture_text, nested_iterates, overlong_digits
from tests.oracles import ParseError as ReferenceParseError
from tests.oracles import reference_parse

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

HEADS = ["constraint", "swap_values", "redirect", "iterate"]
EDIT_PIECES = list("(),- \t\n\r/\\$") + ["/\\"] + HEADS


@st.composite
def edited_programs(draw):
    """Rendered programs with a few characters or atom heads inserted, deleted or replaced."""
    text = render(draw(programs))
    for _ in range(draw(st.integers(1, 5))):
        at = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(EDIT_PIECES))
        cut = draw(st.integers(0, 1))
        text = text[:at] + draw(st.sampled_from([piece, ""])) + text[at + cut :]
    return text


token_soup = st.lists(
    st.sampled_from(HEADS + ["t0", "t1", "t12", "t", "tx", "circuit", "_a1", "7", "(", ")", ",", "-", "/\\", "/", "\\", " ", "\n", "\t", "\r\n", "\x0b", "\u00a0", "$", "\u00e9"]),
    max_size=30,
).map("".join)


def parse_outcome(text):
    """The program, or the error's position and text, from the package parser and from the reference."""
    try:
        program = parse(text)
    except ParseError as exc:
        assert str(exc) == f"{exc.line}:{exc.column}: {exc.message}"
        program = (exc.line, exc.column, str(exc))
    try:
        expected = reference_parse(text)
    except ReferenceParseError as exc:
        expected = (exc.line, exc.column, str(exc))
    return program, expected


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

    def test_overlong_variable_index(self):
        with pytest.raises(ParseError, match="too long in swap_values") as err:
            parse(f"swap_values(t0,\n  t{overlong_digits()})")
        assert (err.value.line, err.value.column) == (2, 3)

    def test_error_message_without_position(self):
        with pytest.raises(ParseError) as err:
            parse("swap_values(t0 t1)")
        assert err.value.message == "expected ',' in swap_values, found 't1'"
        assert str(err.value) == "1:16: " + err.value.message

    def test_variables_need_index(self):
        with pytest.raises(ParseError, match="program variable"):
            parse("swap_values(foo, t1)")


class TestAgainstReference:
    """``parse`` gives the reference parser's program or its error position and message."""

    @settings(max_examples=500)
    @given(text=edited_programs())
    def test_edited_programs(self, text):
        program, expected = parse_outcome(text)
        assert program == expected

    @settings(max_examples=500)
    @given(text=token_soup)
    def test_token_soup(self, text):
        program, expected = parse_outcome(text)
        assert program == expected

    @pytest.mark.parametrize(
        "text",
        [
            nested_iterates(MAX_ITERATE_NESTING),
            nested_iterates(MAX_ITERATE_NESTING + 1),
            # the 101st header is broken after and before its "("
            nested_iterates(MAX_ITERATE_NESTING + 1).replace("iterate(t0 - t1, t2, (swap", "iterate(t0 t1, t2, (swap"),
            nested_iterates(MAX_ITERATE_NESTING + 1).replace("iterate(t0 - t1, t2, (swap", "iterate t0 - t1, t2, (swap"),
            # the 100th header is broken
            nested_iterates(MAX_ITERATE_NESTING).replace("iterate(t0 - t1, t2, (swap", "iterate(t0 - t1 t2, (swap"),
        ],
        ids=["100", "101", "101-bad-header", "101-bad-head", "100-bad-header"],
    )
    def test_nesting_limit(self, text):
        program, expected = parse_outcome(text)
        assert program == expected

    def test_fixture_operators(self):
        for path in sorted(FIXTURES.glob("*.ndl")):
            program, expected = parse_outcome(path.read_text(encoding="utf-8"))
            assert program == expected and isinstance(program, Program)

    def test_long_blank_runs_parse_in_linear_time(self):
        blanks = " " * 200_000
        text = f"swap_values(t0, t1){blanks}, swap_values(t1, t2){blanks}"
        started = time.process_time()
        program = parse(text)
        assert time.process_time() - started < 1.0
        assert len(program.body) == 2


class TestAst:
    def test_program_needs_an_atom(self):
        with pytest.raises(ValueError, match="at least one atom"):
            Program(body=())

    def test_iterate_needs_an_atom(self):
        with pytest.raises(ValueError, match="at least one atom"):
            Iterate(x=Var(0), y=Var(1), start=Var(2), body=())


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
