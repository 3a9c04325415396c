"""NDL abstract syntax and the canonical renderer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Var:
    index: int

    def __str__(self) -> str:
        return f"t{self.index}"


@dataclass(frozen=True)
class ConstraintAtom:
    name: str
    a: Var
    b: Var


@dataclass(frozen=True)
class Swap:
    a: Var
    b: Var


@dataclass(frozen=True)
class Redirect:
    a: Var
    b: Var


@dataclass(frozen=True)
class Iterate:
    x: Var
    y: Var
    start: Var
    body: tuple["Atom", ...]

    def __post_init__(self):
        if not self.body:
            raise ValueError("iterate body must hold at least one atom")


Atom = Union[ConstraintAtom, Swap, Redirect, Iterate]


@dataclass(frozen=True)
class Program:
    body: tuple[Atom, ...]

    def __post_init__(self):
        if not self.body:
            raise ValueError("program must hold at least one atom")


def _render_atom(atom: Atom) -> str:
    if isinstance(atom, ConstraintAtom):
        return f"constraint({atom.name}, {atom.a}, {atom.b})"
    if isinstance(atom, Swap):
        return f"swap_values({atom.a}, {atom.b})"
    if isinstance(atom, Redirect):
        return f"redirect({atom.a}, {atom.b})"
    inner = ", ".join(_render_atom(a) for a in atom.body)
    return f"iterate({atom.x} - {atom.y}, {atom.start}, ({inner}))"


def render(program: Program) -> str:
    """Canonical single-line text; parsing it back yields an equal AST."""
    return ", ".join(_render_atom(a) for a in program.body)


def walk(atoms):
    """Every atom of ``atoms`` in pre-order, iterate bodies included."""
    for atom in atoms:
        yield atom
        if isinstance(atom, Iterate):
            yield from walk(atom.body)


def atom_count(program: Program) -> int:
    """Number of atom nodes, counting iterate bodies recursively."""
    return sum(1 for _ in walk(program.body))


def variables_used(program: Program) -> set[int]:
    """Indices of every program variable occurring in the program."""
    return {
        v.index
        for atom in walk(program.body)
        for v in ((atom.x, atom.y, atom.start) if isinstance(atom, Iterate) else (atom.a, atom.b))
    }
