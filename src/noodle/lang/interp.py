"""Total, fuel-bounded, nondeterministic NDL interpreter.

``neighbors`` explores every derivation branch of a program depth-first
and returns the distinct terminal assignments other than the start.

Atom semantics, with R the union of ``ConstraintDecl.pairs`` over the
constraints a name denotes, on the live state:

* ``constraint(name, a, b)``: with both operands unbound, branch over all
  pairs of R, binding them; with one bound, branch over the matching
  pairs; with both bound, succeed iff the bound pair is in R.
* ``swap_values(a, b)``: both bound; exchange the two variables' values,
  failing the branch if either landing value is outside the receiving
  variable's domain.
* ``redirect(a, b)``: both bound; set a's value to b's walk position
  (its 1-based position in the structural group, or in variable order
  when the model has no structural constraint), failing the branch if
  that position is outside a's domain.
* ``iterate(x - y, s, body)``: snapshot the structural successor relation
  at loop entry (the canonical chain x1 -> x2 -> ... -> xn without a
  structural constraint) and walk it from s's binding, one pair per step.
  Each step rebinds (x, y) to the current pair and runs the body with
  committed choice (first success only).  The walk stops when the body
  fails, when the next pair would revisit the start node, when the
  snapshot has no successor for the current node, or after group-size
  steps.
  Every prefix of 1..k successful steps continues the derivation as a
  separate branch; at least one successful step is required.  An unbound
  s branches over the walk scope, generator-style.

Bindings grow monotonically along a branch except for iterate headers,
which rebind x and y at every step.  Effects in one branch never leak
into a sibling: state is copied before every write.

A conjunction runs as one depth-first loop over a stack holding an
outcome iterator per matched atom, so its length never deepens the
Python stack; only iterate nesting does, and the parser bounds that.

Totality: every branch point is finite (relations have at most n^2
pairs, walks at most group-size steps) and programs are finite, so the
interpreter terminates even with unlimited fuel.  Fuel merely bounds the
cost: when it runs out the remaining branches are abandoned and the
result is flagged truncated, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass

from noodle.lang.ast import ConstraintAtom, Iterate, Program, Redirect, Swap
from noodle.model import Assignment, Model

DEFAULT_FUEL = 1_000_000
DEFAULT_CAP = 100_000


@dataclass(frozen=True)
class NeighborSet:
    assignments: tuple[Assignment, ...]
    truncated: bool
    steps_used: int = 0

    def __len__(self) -> int:
        return len(self.assignments)


class _Truncated(Exception):
    pass


def neighbors(
    program: Program,
    model: Model,
    start: Assignment,
    fuel: int = DEFAULT_FUEL,
    cap: int = DEFAULT_CAP,
    _reverse_pairs: bool = False,
) -> NeighborSet:
    """Materialize the neighborhood of ``start`` under ``program``.

    Callers are expected to have run the analyzer first; programs that
    slipped past it (unbound effect operands at run time) simply fail
    their branches.  ``start`` is never mutated.
    """
    model.validate_assignment(start)
    domains = [v.domain for v in model.variables]
    names = {name for c in model.constraints for name in c.names}
    by_name = {name: model.constraints_by_name(name) for name in names}
    walk_pos = model.walk_positions()
    walk_scope = model.walk_scope()
    structural = model.structural_constraint()
    chain = dict(zip(walk_scope, walk_scope[1:]))
    start_values = tuple(start)
    results: set[tuple[int, ...]] = set()
    remaining = fuel

    def spend() -> None:
        nonlocal remaining
        if remaining <= 0:
            raise _Truncated
        remaining -= 1

    def relation(name: str, state: list[int]) -> list[tuple[int, int]]:
        constraints = by_name.get(name, ())
        if len(constraints) == 1:  # one constraint's pairs never repeat
            pairs = constraints[0].pairs(state)
        else:
            pairs = {p for c in constraints for p in c.pairs(state)}
        return sorted(pairs, reverse=_reverse_pairs)

    def run(atoms, env, state):
        """Outcomes of a conjunction, depth-first: one iterator per matched atom."""
        last = len(atoms)
        stack = [eval_atom(atoms[0], env, state)]
        depth = 1  # len(stack), kept in a local: this loop is the hot path
        while depth:
            for env2, state2 in stack[-1]:
                if depth == last:
                    yield env2, state2
                else:
                    stack.append(eval_atom(atoms[depth], env2, state2))
                    depth += 1
                    break
            else:
                stack.pop()
                depth -= 1

    def eval_atom(atom, env, state):
        spend()
        if isinstance(atom, ConstraintAtom):
            pairs = relation(atom.name, state)
            ai, bi = atom.a.index, atom.b.index
            bound_a, bound_b = env.get(ai), env.get(bi)
            if bound_a is not None and bound_b is not None:
                if (bound_a, bound_b) in pairs:
                    yield env, state
                return
            for u, v in pairs:
                if bound_a is not None and u != bound_a:
                    continue
                if bound_b is not None and v != bound_b:
                    continue
                if ai == bi and u != v:
                    continue
                env2 = dict(env)
                env2[ai] = u
                env2[bi] = v
                yield env2, state
            return

        if isinstance(atom, Swap):
            a, b = env.get(atom.a.index), env.get(atom.b.index)
            if a is None or b is None:
                return
            va, vb = state[a - 1], state[b - 1]
            if vb not in domains[a - 1] or va not in domains[b - 1]:
                return
            state2 = list(state)
            state2[a - 1], state2[b - 1] = vb, va
            yield env, state2
            return

        if isinstance(atom, Redirect):
            a, b = env.get(atom.a.index), env.get(atom.b.index)
            if a is None or b is None:
                return
            position = walk_pos.get(b)
            if position is None or position not in domains[a - 1]:
                return
            state2 = list(state)
            state2[a - 1] = position
            yield env, state2
            return

        # Iterate.  The successor snapshot is a function of the state at
        # entry: the structural circuit's pairs (unique per variable) or
        # the canonical chain; a node outside it has no successor.
        succ = chain if structural is None else dict(structural.pairs(state))
        start_binding = env.get(atom.start.index)
        if start_binding is None:
            candidates = walk_scope
        else:
            candidates = (start_binding,)
        for start_vid in candidates:
            walk_env = env
            if start_binding is None:
                walk_env = dict(env)
                walk_env[atom.start.index] = start_vid
            prefixes = []
            cur = start_vid
            walk_state = state
            for _ in range(len(walk_scope)):
                nxt = succ.get(cur)
                if nxt is None or nxt == start_vid:
                    break
                if atom.x.index == atom.y.index and cur != nxt:
                    break
                spend()
                env_step = dict(walk_env)
                env_step[atom.x.index] = cur
                env_step[atom.y.index] = nxt
                outcome = next(run(atom.body, env_step, walk_state), None)
                if outcome is None:
                    break
                walk_env, walk_state = outcome
                prefixes.append((walk_env, walk_state))
                cur = nxt
            yield from prefixes

    try:
        for _, state in run(program.body, {}, list(start_values)):
            candidate = tuple(state)
            if candidate == start_values or candidate in results:
                continue
            if len(results) >= cap:
                raise _Truncated
            results.add(candidate)
        truncated = False
    except _Truncated:
        truncated = True

    return NeighborSet(assignments=tuple(sorted(results)), truncated=truncated, steps_used=fuel - remaining)
