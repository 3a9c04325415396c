"""Problem-specialized BNF derivation and genotype->phenotype mapping.

The grammar is derived from a constraint model: constraint surface names
become the alternatives of ``<cname>`` (no constraints, no ``<test>``),
the variable budget sizes ``<var>``, and ``redirect`` is only offered when
the model has a structural circuit to give positions meaning.  Each
alternative carries the AST constructor its nonterminals feed and, for the
mapper, those nonterminals reversed.  Mapping a codon genome yields its
derivation (the chosen alternative indices in pre-order), or an Invalid
outcome when the wrap or depth limit trips.  The grammar is unambiguous:
equal derivations mean equal program texts.  A mapped genome's key is the
derivation of its program with the variables renamed t0, t1, ... in
first-occurrence order, so equal keys mean equal texts up to renaming.
Alternative order is part of the contract: mapping indexes alternatives by
codon value modulo their count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Sequence

from noodle.lang.analyzer import DEFAULT_VAR_BUDGET
from noodle.lang.ast import ConstraintAtom, Iterate, Program, Redirect, Swap, Var
from noodle.model import Model

DEFAULT_GENOME_LENGTH = 80
DEFAULT_WRAP_LIMIT = 2
DEFAULT_MAX_DEPTH = 12
MIN_VAR_BUDGET = 2

NT = "NT"
T = "T"

Symbol = tuple[str, str]  # (NT, "<conj>") or (T, "constraint(")
# (symbols, build, children): build takes the values of the symbols' nonterminals
# in order (without any, it is the value) and children lists them in reverse
Alternative = tuple[tuple[Symbol, ...], Any, tuple[str, ...]]
Grammar = dict[str, tuple[Alternative, ...]]  # left-hand side -> alternatives, "<program>" first


@dataclass(frozen=True)
class MappingOutcome:
    """A genome's derivation, or its prefix and the Invalid reason that stopped it."""

    derivation: tuple[int, ...]  # chosen alternative indices, in pre-order
    grammar: Grammar = field(compare=False, repr=False)
    invalid: str | None = None  # WRAP_LIMIT or DEPTH_LIMIT
    key: tuple[int, ...] | None = field(default=None, compare=False)  # None when invalid

    @property
    def ok(self) -> bool:
        return self.invalid is None

    @cached_property
    def program(self) -> Program | None:
        """The syntax tree, built on first use; None when invalid."""
        if not self.ok:
            return None
        work = ["<program>"]
        chosen = []  # (build, arity) of each expansion, in pre-order
        for choice in self.derivation:
            _, build, children = self.grammar[work.pop()][choice]
            work += children
            chosen.append((build, len(children)))
        # children follow their parent in pre-order, so folding from the end
        # leaves an expansion's child values on top of the stack, leftmost last
        values = []
        for build, arity in reversed(chosen):
            if arity:
                build = build(*values[: -arity - 1 : -1])
                del values[-arity:]
            values.append(build)
        return values[0]


def derive_grammar(model: Model, budget: int = DEFAULT_VAR_BUDGET) -> Grammar:
    """Derive the operator grammar for a model.

    ``budget`` is the number of program variables offered (t0..t{budget-1}).
    Binding discipline is deliberately not encoded here; the static
    analyzer rejects ill-bound programs after mapping.
    """
    if budget < MIN_VAR_BUDGET:
        raise ValueError(f"budget must be at least {MIN_VAR_BUDGET}")

    def nt(name: str) -> Symbol:
        return (NT, name)

    def t(text: str) -> Symbol:
        return (T, text)

    effect_alts = [
        ((t("swap_values("), nt("<var>"), t(","), nt("<var>"), t(")")), Swap),
    ]
    if model.structural is not None:
        effect_alts.append(((t("redirect("), nt("<var>"), t(","), nt("<var>"), t(")")), Redirect))
    names = model.constraint_names()
    atoms = ("<test>", "<effect>", "<loop>") if names else ("<effect>", "<loop>")

    rules = {
        "<program>": (((nt("<conj>"),), Program),),
        "<conj>": (((nt("<atom>"),), lambda atom: (atom,)), ((nt("<atom>"), t(","), nt("<conj>")), lambda atom, rest: (atom, *rest))),
        "<atom>": tuple(((nt(atom),), lambda value: value) for atom in atoms),
        "<test>": (((t("constraint("), nt("<cname>"), t(","), nt("<var>"), t(","), nt("<var>"), t(")")), ConstraintAtom),),
        "<effect>": tuple(effect_alts),
        "<loop>": (
            ((t("iterate("), nt("<var>"), t("-"), nt("<var>"), t(","), nt("<var>"), t(","), t("("), nt("<conj>"), t(")"), t(")")), Iterate),
        ),
        "<cname>": tuple(((t(name),), name) for name in names),
        "<var>": tuple(((t(f"t{i}"),), Var(i)) for i in range(budget)),
    }
    if not names:
        del rules["<test>"], rules["<cname>"]
    return {lhs: tuple((s, b, tuple(x for k, x in reversed(s) if k == NT)) for s, b in alts) for lhs, alts in rules.items()}


def map_genome(
    grammar: Grammar,
    genome: Sequence[int],
    wrap_limit: int = DEFAULT_WRAP_LIMIT,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> MappingOutcome:
    """Leftmost grammatical-evolution mapping, one codon per expansion.

    The alternative index, recorded in the derivation, is the next codon modulo
    the alternative count.  The codon stream may wrap at most ``wrap_limit``
    times; running out after the final wrap yields Invalid(WRAP_LIMIT).
    Expanding a nonterminal deeper than ``max_depth`` yields Invalid(DEPTH_LIMIT).
    """
    if not genome:
        raise ValueError("genome must be non-empty")
    budget = len(genome) * (wrap_limit + 1)
    names = ["<program>"]  # nonterminals left to expand, leftmost last; None ends a level
    depth = 0  # of the nonterminal on top
    derivation, key, fresh = [], [], {}  # key: the derivation, <var> choices renumbered by first occurrence
    while names:
        name = names.pop()
        if name is None:
            depth -= 1
            continue
        if depth >= max_depth:
            return MappingOutcome(tuple(derivation), grammar, "DEPTH_LIMIT")
        reads = len(derivation)  # one codon per expansion
        if reads >= budget:
            return MappingOutcome(tuple(derivation), grammar, "WRAP_LIMIT")
        alts = grammar[name]
        choice = genome[reads % len(genome)] % len(alts)
        derivation.append(choice)
        key.append(fresh.setdefault(choice, len(fresh)) if name == "<var>" else choice)
        children = alts[choice][2]
        if children:
            names.append(None)
            names += children
            depth += 1
    return MappingOutcome(tuple(derivation), grammar, key=tuple(key))


def render_grammar(grammar: Grammar) -> str:
    """BNF text with one left-hand side per line, alternative order preserved."""
    lines = []
    for lhs, alts in grammar.items():
        rendered = []
        for symbols, *_ in alts:
            rendered.append(" ".join(sym if kind == NT else f'"{sym}"' for kind, sym in symbols))
        lines.append(f"{lhs} ::= " + " | ".join(rendered))
    return "\n".join(lines) + "\n"
