"""Total, fuel-bounded, nondeterministic NDL interpreter.

``neighbors`` compiles the program into one closure per atom, then
explores every derivation branch depth-first and returns the distinct
terminal assignments other than the start.  A program is compiled once
per (program, model) pair and reused across starts: the last compile is
kept while the same objects come back, as in one fitness evaluation's
samples or one climb's steps.

Atom semantics, with R the union of ``ConstraintDecl.pairs`` over the
constraints a name denotes, on the live state:

* ``constraint(name, a, b)``: with both operands unbound, branch over all
  pairs of R, binding them; with one bound, branch over the matching
  pairs; with both bound, succeed iff the bound pair is in R.  That test
  asks ``ConstraintDecl.holds`` of each constraint under the name, so R
  is built only to enumerate.  When every constraint under the name is
  not_equal, R ignores the state: it is built and sorted once per
  compile, and the test is membership in it.
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
into a sibling: bindings and state are copied before every write.

Which variables are bound at an atom is therefore fixed by the program
text, so each atom's closure is specialised to its operands' boundness
when it is compiled.  The one place boundness varies is an iterate body:
a variable the body binds itself is unbound on the walk's first step and
bound on every later step, so the body is compiled once for each, with a
memo on (body, bound set) that keeps nested iterates from doubling per
level.  Bindings live in a list with one slot per program variable.

A conjunction runs as one depth-first loop over a stack holding an
outcome iterator per matched generator atom (an enumerating constraint
or an iterate; the tests and effects after it run fused with it), so its
length never deepens the Python stack; only iterate nesting does, and
the parser bounds that.  The loop hands each outcome to a callback:
``explore`` collects them all, and an iterate body's committed choice
stops at the first, so a walk step is a plain call, not a generator.

Totality: every branch point is finite (relations have at most n^2
pairs, walks at most group-size steps) and programs are finite, so the
interpreter terminates even with unlimited fuel.  Fuel merely bounds the
cost: one step per atom visit and per walk step; when it runs out the
remaining branches are abandoned and the result is flagged truncated,
never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass

from noodle.lang.ast import ConstraintAtom, Iterate, Program, Redirect, Swap, variables_used
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


# (program, model, explore) of the last compile, matched by identity.
# Its runs share one fuel counter: noodle runs single threaded.
_last: tuple | None = None


def neighbors(
    program: Program,
    model: Model,
    start: Assignment,
    fuel: int = DEFAULT_FUEL,
    cap: int = DEFAULT_CAP,
) -> NeighborSet:
    """Materialize the neighborhood of ``start`` under ``program``.

    Callers are expected to have run the analyzer first; programs that
    slipped past it (unbound effect operands at run time) simply fail
    their branches.  ``start`` is never mutated.
    """
    global _last
    model.validate_assignment(start)
    if _last is None or _last[0] is not program or _last[1] is not model:
        _last = program, model, _compile(program, model)
    return _last[2](tuple(start), fuel, cap)


def _compile(program: Program, model: Model):
    """``explore(start, fuel, cap) -> NeighborSet`` for ``program`` on ``model``."""
    domains = [v.domain for v in model.variables]
    walk_pos = model.walk_positions()
    walk_scope = model.walk_scope()
    structural = model.structural_constraint() is not None
    chain = dict(zip(walk_scope, walk_scope[1:]))
    slots = {index: slot for slot, index in enumerate(sorted(variables_used(program)))}
    remaining = 0
    by_name: dict[str, tuple] = {}  # name -> (relation, holds)
    compiled: dict[tuple, tuple] = {}  # (id(atoms), bound set) -> (conjunction, bound set after)

    def lookup(name: str):
        """The relation (state -> sorted pairs) and the point test a name denotes."""
        if name not in by_name:
            constraints = model.constraints_by_name(name)
            if all(c.kind == "not_equal" for c in constraints):
                # the relation ignores the state: build it once, test by membership
                static = sorted({p for c in constraints for p in c.pairs(())})
                members = frozenset(static)

                def relation(state):
                    return static

                def holds(state, a, b):
                    return (a, b) in members
            elif len(constraints) == 1:  # one constraint's pairs never repeat
                pairs, holds = constraints[0].pairs, constraints[0].holds

                def relation(state):
                    return sorted(pairs(state))
            else:

                def relation(state):
                    return sorted({p for c in constraints for p in c.pairs(state)})

                def holds(state, a, b):
                    return any(c.holds(state, a, b) for c in constraints)

            by_name[name] = relation, holds
        return by_name[name]

    # A compiled conjunction is (head, stages).  Tests and effects compile
    # to steps: (env, state) -> one outcome or None.  Constraint
    # enumerations and iterates compile to generators: (env, state) -> an
    # iterator of outcomes.  Each generator becomes a stage together with
    # the steps that follow it (fused into one), and steps before the first
    # generator are the head.  Every atom spends one step of fuel when it
    # starts, in the same order as if each had a stack level of its own.

    def spend() -> None:
        nonlocal remaining
        if remaining <= 0:
            raise _Truncated
        remaining -= 1

    def runner(conj):
        """``run(env, state, emit=None)``: outcomes to ``emit`` depth-first; the first it accepts (or the first), else None."""
        head, stages = conj
        last = len(stages)

        def run(env, state, emit=None):
            if head is not None:
                outcome = head(env, state)
                if outcome is None:
                    return None
                env, state = outcome
            if not last:
                return (env, state) if emit is None or emit(env, state) else None
            stack = [stages[0][0](env, state)]
            depth = 1  # len(stack), kept in a local: this loop is the hot path
            while depth:
                for env2, state2 in stack[-1]:
                    tail = stages[depth - 1][1]
                    if tail is not None:
                        outcome = tail(env2, state2)
                        if outcome is None:
                            continue
                        env2, state2 = outcome
                    if depth == last:
                        if emit is None or emit(env2, state2):
                            return env2, state2
                    else:
                        stack.append(stages[depth][0](env2, state2))
                        depth += 1
                        break
                else:
                    stack.pop()
                    depth -= 1
            return None

        return run

    def fuse(steps):
        """One step running ``steps`` in order, or None for no steps."""
        if len(steps) <= 1:
            return steps[0] if steps else None

        def fused(env, state):
            for step in steps:
                outcome = step(env, state)
                if outcome is None:
                    return None
                env, state = outcome
            return env, state

        return fused

    def compile_conj(atoms, bound: frozenset):
        """The compiled conjunction and the variables bound after it, memoized."""
        key = (id(atoms), bound)
        if key not in compiled:
            live = set(bound)
            closures = [COMPILERS[type(atom)](atom, live) for atom in atoms]
            stages, steps = [], []  # built back to front
            for closure, is_step in reversed(closures):
                if is_step:
                    steps.append(closure)
                else:
                    stages.append((closure, fuse(steps[::-1])))
                    steps = []
            compiled[key] = (fuse(steps[::-1]), tuple(reversed(stages))), frozenset(live)
        return compiled[key]

    def fail(env, state):
        """An effect with an operand the analyzer missed unbound: it spends its step and fails."""
        spend()
        return None

    def compile_constraint(atom: ConstraintAtom, bound: set):
        relation, holds = lookup(atom.name)
        ai, bi = atom.a.index, atom.b.index
        sa, sb = slots[ai], slots[bi]
        a_bound, b_bound = ai in bound, bi in bound
        bound.update((ai, bi))

        if a_bound and b_bound:

            def test(env, state):
                spend()
                return (env, state) if holds(state, env[sa], env[sb]) else None

            return test, True

        same = ai == bi  # constraint(name, t, t) binds t to u only where u == v

        def bind(env, state):
            spend()
            a = env[sa] if a_bound else None
            b = env[sb] if b_bound else None
            for u, v in relation(state):
                if (a is None or u == a) and (b is None or v == b) and (u == v or not same):
                    env2 = env[:]
                    env2[sa] = u
                    env2[sb] = v
                    yield env2, state

        return bind, False

    def compile_swap(atom: Swap, bound: set):
        if atom.a.index not in bound or atom.b.index not in bound:
            return fail, True
        sa, sb = slots[atom.a.index], slots[atom.b.index]

        def swap(env, state):
            spend()
            a, b = env[sa], env[sb]
            va, vb = state[a - 1], state[b - 1]
            if vb not in domains[a - 1] or va not in domains[b - 1]:
                return None
            state2 = state[:]
            state2[a - 1], state2[b - 1] = vb, va
            return env, state2

        return swap, True

    def compile_redirect(atom: Redirect, bound: set):
        if atom.a.index not in bound or atom.b.index not in bound:
            return fail, True
        sa, sb = slots[atom.a.index], slots[atom.b.index]

        def redirect(env, state):
            spend()
            a = env[sa]
            position = walk_pos.get(env[sb])
            if position is None or position not in domains[a - 1]:
                return None
            state2 = state[:]
            state2[a - 1] = position
            return env, state2

        return redirect, True

    def first_outcome(conj):
        """(env, state) -> the conjunction's first outcome or None: committed choice."""
        return runner(conj) if conj[1] else conj[0]

    def compile_iterate(atom: Iterate, bound: set):
        xi, yi, si = atom.x.index, atom.y.index, atom.start.index
        sx, sy, ss = slots[xi], slots[yi], slots[si]
        start_bound = si in bound
        bound.update((xi, yi, si))
        conj, bound_later = compile_conj(atom.body, frozenset(bound))
        first = first_outcome(conj)
        later = first_outcome(compile_conj(atom.body, bound_later)[0])
        bound |= bound_later
        same = xi == yi
        steps = range(len(walk_scope))

        def walk(env, state, start_vid):
            # Successors come from the state at entry, which effects copy, never write: the
            # structural circuit's (its domains hold only scope positions) or the canonical chain's.
            if not start_bound:
                env = env[:]
                env[ss] = start_vid
            prefixes = []
            cur, walk_state, body = start_vid, state, first
            for _ in steps:
                if structural:
                    nxt = walk_scope[state[cur - 1] - 1] if cur in walk_pos else None
                else:
                    nxt = chain.get(cur)
                if nxt is None or nxt == start_vid or same and cur != nxt:
                    break
                spend()
                env_step = env[:]
                env_step[sx] = cur
                env_step[sy] = nxt
                outcome = body(env_step, walk_state)
                if outcome is None:
                    break
                env, walk_state = outcome
                prefixes.append(outcome)
                cur, body = nxt, later
            return prefixes

        def iterate(env, state):
            spend()  # then one walk from a bound start, or lazily one from each scope variable
            if start_bound:
                return iter(walk(env, state, env[ss]))
            return (outcome for start_vid in walk_scope for outcome in walk(env, state, start_vid))

        return iterate, False

    COMPILERS = {ConstraintAtom: compile_constraint, Swap: compile_swap, Redirect: compile_redirect, Iterate: compile_iterate}

    run = runner(compile_conj(program.body, frozenset())[0])

    def explore(start_values: Assignment, fuel: int, cap: int) -> NeighborSet:
        nonlocal remaining
        remaining = fuel
        results: set[tuple[int, ...]] = set()

        def keep(env, state) -> None:
            candidate = tuple(state)
            if candidate != start_values and candidate not in results:
                if len(results) >= cap:
                    raise _Truncated
                results.add(candidate)

        try:
            run([None] * len(slots), list(start_values), keep)
            truncated = False
        except _Truncated:
            truncated = True
        return NeighborSet(assignments=tuple(sorted(results)), truncated=truncated, steps_used=fuel - remaining)

    return explore
