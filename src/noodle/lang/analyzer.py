"""Static analysis and code optimization for NDL programs.

The analyzer enforces the binding discipline the grammar deliberately does
not encode: tests and iterate headers bind program variables, effects
never do, so an effect operand without a prior binding occurrence is an
error.  Diagnostics are the result, never an exception.

The same walk reports whether the program is label-free: no iterate body
holds an enumeration (a constraint with an operand unbound on the walk's
first step) or an iterate from an unbound start.  Committed choice keeps
a body's first outcome, and sorted pairs and walk-scope order are label
orders, so only a label-free program's completed neighborhoods move with
a relabelling of the model that maps one start onto another.

Error codes: UNBOUND_EFFECT, NO_EFFECT, UNKNOWN_CONSTRAINT,
VAR_BUDGET_EXCEEDED.
"""

from __future__ import annotations

from dataclasses import dataclass

from noodle.lang.ast import ConstraintAtom, Iterate, Program, Redirect, Swap, variables_used, walk
from noodle.model import Model

DEFAULT_VAR_BUDGET = 6


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str


@dataclass(frozen=True)
class Diagnostics:
    errors: tuple[Diagnostic, ...]
    label_free: bool  # see the module docstring

    @property
    def ok(self) -> bool:
        return not self.errors


def analyze(program: Program, model: Model, budget: int = DEFAULT_VAR_BUDGET) -> Diagnostics:
    errors: list[Diagnostic] = []
    bound: set[int] = set()
    label_free = True

    def visit_conj(atoms, in_body: bool) -> None:
        nonlocal label_free
        for atom in atoms:
            if isinstance(atom, ConstraintAtom):
                if not model.constraints_by_name(atom.name):
                    errors.append(Diagnostic("UNKNOWN_CONSTRAINT", f"{atom.name!r} matches no model constraint or alias"))
                if in_body and not {atom.a.index, atom.b.index} <= bound:
                    label_free = False
                bound.update((atom.a.index, atom.b.index))
            elif isinstance(atom, (Swap, Redirect)):
                head = "swap_values" if isinstance(atom, Swap) else "redirect"
                unbound = [v for v in (atom.a, atom.b) if v.index not in bound]
                if unbound:
                    names = ", ".join(str(v) for v in dict.fromkeys(unbound))
                    errors.append(Diagnostic("UNBOUND_EFFECT", f"{head} operand ({names}) has no prior binding occurrence"))
            else:  # Iterate; the header binds x, y, and start if free
                if in_body and atom.start.index not in bound:
                    label_free = False
                bound.update((atom.x.index, atom.y.index, atom.start.index))
                visit_conj(atom.body, True)

    visit_conj(program.body, False)

    if not any(isinstance(a, (Swap, Redirect)) for a in walk(program.body)):
        errors.append(Diagnostic("NO_EFFECT", "program contains no swap_values or redirect"))

    over_budget = sorted(v for v in variables_used(program) if v >= budget)
    if over_budget:
        names = ", ".join(f"t{v}" for v in over_budget)
        errors.append(Diagnostic("VAR_BUDGET_EXCEEDED", f"{names} beyond budget of {budget} variables (t0..t{budget - 1})"))

    return Diagnostics(errors=tuple(errors), label_free=label_free)


def _optimize_conj(atoms) -> tuple:
    cleaned = []
    for atom in atoms:
        if isinstance(atom, Iterate):
            atom = Iterate(x=atom.x, y=atom.y, start=atom.start, body=_optimize_conj(atom.body))
        if isinstance(atom, Swap) and atom.a == atom.b:
            continue
        if isinstance(atom, ConstraintAtom) and cleaned and cleaned[-1] == atom:
            continue
        cleaned.append(atom)
    if not cleaned:
        # a conjunction must stay non-empty; keep the first (inert) atom
        cleaned = [atoms[0]]
    return tuple(cleaned)


def optimize(program: Program) -> Program:
    """Drop self-swaps and adjacent duplicate tests; idempotent.

    Both removals are no-ops at run time (a self-swap always succeeds
    without touching state; an adjacent duplicate test re-checks the same
    pair against an unchanged relation), so the induced neighbor set is
    preserved.
    """
    return Program(body=_optimize_conj(program.body))
