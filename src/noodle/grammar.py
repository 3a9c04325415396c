"""Problem-specialized BNF derivation and genotype->phenotype mapping.

The grammar is derived from a constraint model: constraint surface names
become the alternatives of ``<cname>``, the variable budget sizes
``<var>``, and the ``redirect`` effect is only offered when the model has
a structural circuit to give positions meaning.  Mapping a codon genome
through the grammar always yields syntactically correct NDL text (or an
Invalid outcome when the wrap or depth limit trips); alternative order is
part of the contract because mapping indexes alternatives by codon value
modulo the alternative count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from noodle.lang.ast import Program
from noodle.lang.parser import parse
from noodle.model import Model

DEFAULT_GENOME_LENGTH = 80
DEFAULT_WRAP_LIMIT = 2
DEFAULT_MAX_DEPTH = 12
MIN_VAR_BUDGET = 2

NT = "NT"
T = "T"

Symbol = tuple[str, str]  # (NT, "<conj>") or (T, "constraint(")


@dataclass(frozen=True)
class Grammar:
    rules: tuple[tuple[str, tuple[tuple[Symbol, ...], ...]], ...]
    start: str = "<program>"
    max_depth: int = DEFAULT_MAX_DEPTH

    def alternatives(self, name: str) -> tuple[tuple[Symbol, ...], ...]:
        for lhs, alts in self.rules:
            if lhs == name:
                return alts
        raise KeyError(name)

    def nonterminals(self) -> list[str]:
        return [lhs for lhs, _ in self.rules]


@dataclass(frozen=True)
class MappingOutcome:
    """A mapped program plus codons consumed, or an Invalid reason."""

    program: Program | None
    consumed: int
    invalid: str | None = None  # WRAP_LIMIT or DEPTH_LIMIT

    @property
    def ok(self) -> bool:
        return self.invalid is None


def derive_grammar(model: Model, budget: int = 6, max_depth: int = DEFAULT_MAX_DEPTH) -> Grammar:
    """Derive the operator grammar for a model.

    ``budget`` is the number of program variables offered (t0..t{budget-1});
    ``max_depth`` is recorded as the grammar's default derivation depth
    limit.  Binding discipline is deliberately not encoded here; the
    static analyzer rejects ill-bound programs after mapping.
    """
    if budget < MIN_VAR_BUDGET:
        raise ValueError(f"variable budget must be at least {MIN_VAR_BUDGET}")

    def nt(name: str) -> Symbol:
        return (NT, name)

    def t(text: str) -> Symbol:
        return (T, text)

    effect_alts = [
        (t("swap_values("), nt("<var>"), t(","), nt("<var>"), t(")")),
    ]
    if model.structural is not None:
        effect_alts.append((t("redirect("), nt("<var>"), t(","), nt("<var>"), t(")")))

    rules = (
        ("<program>", ((nt("<conj>"),),)),
        ("<conj>", ((nt("<atom>"),), (nt("<atom>"), t(","), nt("<conj>")))),
        ("<atom>", ((nt("<test>"),), (nt("<effect>"),), (nt("<loop>"),))),
        ("<test>", ((t("constraint("), nt("<cname>"), t(","), nt("<var>"), t(","), nt("<var>"), t(")")),)),
        ("<effect>", tuple(effect_alts)),
        (
            "<loop>",
            ((t("iterate("), nt("<var>"), t("-"), nt("<var>"), t(","), nt("<var>"), t(","), t("("), nt("<conj>"), t(")"), t(")")),),
        ),
        ("<cname>", tuple((t(name),) for name in model.constraint_names())),
        ("<var>", tuple((t(f"t{i}"),) for i in range(budget))),
    )
    return Grammar(rules=rules, max_depth=max_depth)


def map_genome(
    grammar: Grammar,
    genome: Sequence[int],
    wrap_limit: int = DEFAULT_WRAP_LIMIT,
    max_depth: int | None = None,
) -> MappingOutcome:
    """Leftmost grammatical-evolution mapping, one codon per expansion.

    The alternative index is the next codon modulo the alternative count.
    The codon stream may wrap at most ``wrap_limit`` times; running out
    after the final wrap yields Invalid(WRAP_LIMIT).  Expanding a
    nonterminal deeper than ``max_depth`` yields Invalid(DEPTH_LIMIT).
    """
    if not genome:
        raise ValueError("genome must be non-empty")
    if max_depth is None:
        max_depth = grammar.max_depth
    budget = len(genome) * (wrap_limit + 1)
    reads = 0
    output: list[str] = []
    work: deque[tuple[Symbol, int]] = deque([((NT, grammar.start), 0)])
    while work:
        (kind, text), depth = work.popleft()
        if kind == T:
            output.append(text)
            continue
        if depth >= max_depth:
            return MappingOutcome(program=None, consumed=reads, invalid="DEPTH_LIMIT")
        if reads >= budget:
            return MappingOutcome(program=None, consumed=reads, invalid="WRAP_LIMIT")
        codon = genome[reads % len(genome)]
        reads += 1
        alts = grammar.alternatives(text)
        chosen = alts[codon % len(alts)]
        for symbol in reversed(chosen):
            work.appendleft((symbol, depth + 1))
    return MappingOutcome(program=parse("".join(output)), consumed=reads)


def render_grammar(grammar: Grammar) -> str:
    """BNF text with one left-hand side per line, alternative order preserved."""
    lines = []
    for lhs, alts in grammar.rules:
        rendered = []
        for alt in alts:
            rendered.append(" ".join(sym if kind == NT else f'"{sym}"' for kind, sym in alt))
        lines.append(f"{lhs} ::= " + " | ".join(rendered))
    return "\n".join(lines) + "\n"
