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

A walk joins the enumeration before it and the two atoms after it into
one stage in one shape, 2-opt's: ``constraint(S', u, v)`` of two distinct
unbound variables, ``iterate(x - y, s, body)`` from a bound start, then
``redirect(a, u), constraint(S, a, c)`` with S naming the structural
circuit alone (compared by identity), where the walk writes c (its
header, its body or a nested header does) and writes neither a nor u,
and u and v are none of s, a and the entry values the body reads.  Every
other shape runs atom by atom.  The circuit's ``holds(values, a, c)`` is
``a in positions and values[a-1] == positions[c]``, its positions are
``walk_pos``, the redirect sets ``values[a-1]`` to ``walk_pos[u]``, and
``walk_pos`` is one-to-one, so a prefix passes both atoms iff its c is
u, u's position is in a's domain and a is in the circuit; and no pair
changes what the walk or a reads, so one walk and one a serve every pair.
The stage charges the enumeration's step and takes the sorted relation
once per state object; then, for each pair in relation order, it charges
what the atoms would: the iterate's step, the walk (run for the first
pair, its recorded steps for the rest) and what the redirect and the
test spend on each prefix, one step when u's position is outside a's
domain (the redirect fails), else two.  It indexes the walk's prefixes
by c's value (a list: on a state that is not a permutation the walk can
repeat a value) and yields, for each prefix that passes, a copy of its
state with a redirected.  The charges between two prefixes passed on are
summed into one subtraction, and when the fuel left does not cover the
sum, ``remaining`` drops to 0 and the run truncates: step by step, each
charge c fails iff c exceeds the fuel left and leaves 0 behind, and
nothing observable (an emit, ``until`` or the cap) happens between them,
so neighbors, truncation and ``steps_used`` are unchanged.  Only a
prefix passed on copies the bindings and the state.  In 2-opt this makes
one stage per (t0, t1), passing on one prefix per (t2, t3), not ~19.

A conjunction runs as one depth-first loop over a stack holding an
outcome iterator per matched generator atom (an enumerating constraint
or an iterate); the tests and effects after it run as one chain of calls,
each passing its outcome straight to the next, split every ``MAX_CHAIN``
steps so that a conjunction's length never deepens the Python stack far;
only iterate nesting does, and the parser bounds that.  The loop hands
each outcome to a callback: ``explore`` collects them all, and an iterate
body's committed choice stops at the first, so a walk step is a plain
call, not a generator.  ``explore`` offers each new neighbor to the
caller's ``until``, if any; a true answer accepts it and ends the run.

No walk outlives the stage call that ran it.

Totality: every branch point is finite (relations have at most n^2
pairs, walks at most group-size steps) and programs are finite, so the
interpreter terminates even with unlimited fuel.  Fuel merely bounds the
cost: one step per atom visit and per walk step; when it runs out the
remaining branches are abandoned and the result is flagged truncated,
never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass

from noodle.lang.ast import ConstraintAtom, Iterate, Program, Redirect, Swap, variables_used, walk as preorder
from noodle.model import Assignment, Model

DEFAULT_FUEL = 1_000_000
DEFAULT_CAP = 100_000
MAX_CHAIN = 64  # steps called one from the next before a chain is split into stages


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
    until=None,
) -> NeighborSet:
    """Materialize the neighborhood of ``start`` under ``program``.

    Callers are expected to have run the analyzer first; programs that
    slipped past it (unbound effect operands at run time) simply fail
    their branches.  ``start`` is never mutated.

    ``until(assignment)``, when given, is called once for each new
    distinct non-start neighbor, in discovery order, after the cap check
    and after the neighbor is kept.  When it returns true exploration
    ends there: the result holds the neighbors found so far, is not
    truncated, and counts the steps spent.  ``until`` must not call
    ``neighbors``: the compiled runs share one fuel counter.
    """
    global _last
    model.validate_assignment(start)
    if _last is None or _last[0] is not program or _last[1] is not model:
        _last = program, model, _compile(program, model)
    return _last[2](tuple(start), fuel, cap, until)


def _compile(program: Program, model: Model):
    """``explore(start, fuel, cap, until) -> NeighborSet`` for ``program`` on ``model``."""
    domains = [v.domain for v in model.variables]
    walk_pos = model.walk_positions()
    walk_scope = model.walk_scope()
    circuit = model.structural_constraint()
    structural = circuit is not None
    chain = dict(zip(walk_scope, walk_scope[1:]))
    slots = {index: slot for slot, index in enumerate(sorted(variables_used(program)))}
    remaining = 0
    by_name: dict[str, tuple] = {}  # name -> (relation, holds)
    compiled: dict[tuple, tuple] = {}  # (id(atoms), bound set) -> (conjunction, bound set after)
    enumerated = (None,)  # (closure, a, b, relation) of the last enumeration of two distinct unbound variables

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
                tests = [c.holds for c in constraints]

                def relation(state):
                    return sorted({p for c in constraints for p in c.pairs(state)})

                def holds(state, a, b):
                    return any(test(state, a, b) for test in tests)

            by_name[name] = relation, holds
        return by_name[name]

    # A compiled conjunction is (head, stages).  Tests and effects compile
    # to steps: (env, state) -> one outcome or None, made by ``make(then)``
    # to pass their outcome on to ``then``, the step after them, so a run
    # of steps is one chain of calls.  Constraint enumerations and iterates
    # compile to generators: (env, state) -> an iterator of outcomes.  Each
    # generator becomes a stage together with the chain that follows it,
    # and the chain before the first generator is the head.  Every atom
    # spends one step of fuel when it starts, checked inline, in the same
    # order as if each had a stack level of its own.

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
            depth, tail = 1, stages[0][1]  # len(stack) and the top stage's chain, kept in locals: this loop is the hot path
            while depth:
                for env2, state2 in stack[-1]:
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
                        tail = stages[depth][1]
                        depth += 1
                        break
                else:
                    stack.pop()
                    depth -= 1
                    tail = stages[depth - 1][1]  # at depth 0 the loop ends and tail goes unread
            return None

        return run

    def compile_conj(atoms, bound: frozenset):
        """The compiled conjunction and the variables bound after it, memoized."""
        key = (id(atoms), bound)
        if key not in compiled:
            live, closures = set(bound), []
            for i, atom in (rest := enumerate(atoms)):  # an iterate gets the closures so far, whose last it may absorb, and the two atoms after it, which it takes from rest if they join it
                closures.append(compile_iterate(atom, live, closures, atoms[i + 1:i + 3], rest) if type(atom) is Iterate else COMPILERS[type(atom)](atom, live))
            stages, then, length = [], None, 0  # built back to front
            for closure, is_step in reversed(closures):
                if is_step and length == MAX_CHAIN:  # the chain so far as a stage of its own, one outcome or none
                    stages.append(((lambda env, state, chain=then: filter(None, [chain(env, state)])), None))
                    then, length = None, 0
                if is_step:
                    then, length = closure(then), length + 1
                else:
                    stages.append((closure, then))
                    then, length = None, 0
            compiled[key] = (then, tuple(reversed(stages))), frozenset(live)
        return compiled[key]

    def spend(cost):
        """Charge ``cost`` steps in one go: one at a time, they would run out at the same point."""
        nonlocal remaining
        if cost > remaining:
            remaining = 0
            raise _Truncated
        remaining -= cost

    def fail(env, state):
        """An effect with an operand the analyzer missed unbound: it spends its step and fails."""
        nonlocal remaining
        if remaining <= 0:
            raise _Truncated
        remaining -= 1
        return None

    def compile_constraint(atom: ConstraintAtom, bound: set):
        nonlocal enumerated
        relation, holds = lookup(atom.name)
        ai, bi = atom.a.index, atom.b.index
        sa, sb = slots[ai], slots[bi]
        a_bound, b_bound = ai in bound, bi in bound
        bound.update((ai, bi))

        if a_bound and b_bound:

            def make(then):
                def test(env, state):
                    nonlocal remaining
                    if remaining <= 0:
                        raise _Truncated
                    remaining -= 1
                    if not holds(state, env[sa], env[sb]):
                        return None
                    return then(env, state) if then else (env, state)

                return test

            return make, True

        same = ai == bi  # constraint(name, t, t) binds t to u only where u == v

        def bind(env, state):
            nonlocal remaining
            if remaining <= 0:
                raise _Truncated
            remaining -= 1
            a = env[sa] if a_bound else None
            b = env[sb] if b_bound else None
            for u, v in relation(state):
                if (a is None or u == a) and (b is None or v == b) and (u == v or not same):
                    env2 = env[:]
                    env2[sa] = u
                    env2[sb] = v
                    yield env2, state

        if not (a_bound or b_bound or same):  # a walk right after it may join it
            enumerated = bind, ai, bi, relation
        return bind, False

    def compile_swap(atom: Swap, bound: set):
        if atom.a.index not in bound or atom.b.index not in bound:
            return lambda then: fail, True
        sa, sb = slots[atom.a.index], slots[atom.b.index]

        def make(then):
            def swap(env, state):
                nonlocal remaining
                if remaining <= 0:
                    raise _Truncated
                remaining -= 1
                a, b = env[sa], env[sb]
                va, vb = state[a - 1], state[b - 1]
                if vb not in domains[a - 1] or va not in domains[b - 1]:
                    return None
                state2 = state[:]
                state2[a - 1], state2[b - 1] = vb, va
                return then(env, state2) if then else (env, state2)

            return swap

        return make, True

    def compile_redirect(atom: Redirect, bound: set):
        if atom.a.index not in bound or atom.b.index not in bound:
            return lambda then: fail, True
        sa, sb = slots[atom.a.index], slots[atom.b.index]

        def make(then):
            def redirect(env, state):
                nonlocal remaining
                if remaining <= 0:
                    raise _Truncated
                remaining -= 1
                a = env[sa]
                position = walk_pos.get(env[sb])
                if position is None or position not in domains[a - 1]:
                    return None
                state2 = state[:]
                state2[a - 1] = position
                return then(env, state2) if then else (env, state2)

            return redirect

        return make, True

    def first_outcome(conj):
        """(env, state) -> the conjunction's first outcome or None: committed choice."""
        return runner(conj) if conj[1] else conj[0]

    def compile_iterate(atom: Iterate, bound: set, closures, after, rest):
        before = enumerated if closures and closures[-1][0] is enumerated[0] else None  # read before the body's compile moves it
        xi, yi, si = atom.x.index, atom.y.index, atom.start.index
        sx, sy, ss = slots[xi], slots[yi], slots[si]
        start_bound = si in bound
        # constraint(S', u, v) of two unbound variables just before a walk from a bound start, then
        # redirect(a, u), constraint(S, a, c) with a bound and S naming the structural circuit alone
        redirect, test = after if len(after) == 2 else (None, None)
        join = (before is not None and start_bound and type(redirect) is Redirect and type(test) is ConstraintAtom
                and test.a == redirect.a and redirect.b.index == before[1] and redirect.a.index in bound
                and len(named := model.constraints_by_name(test.name)) == 1 and named[0] is circuit)
        if join:
            entry = set(bound)
        bound.update((xi, yi, si))
        conj, bound_later = compile_conj(atom.body, frozenset(bound))
        conj_later = compile_conj(atom.body, bound_later)[0]
        first, later = first_outcome(conj), first_outcome(conj_later)
        bound |= bound_later
        if join:  # what a walk writes: what its body binds, its header and nested ones
            _, ui, vi, relation = before
            ai = redirect.a.index
            writes = bound - entry | {v.index for inner in (atom, *preorder(atom.body)) if type(inner) is Iterate for v in (inner.x, inner.y)}
            written = [slots[v] for v in sorted(writes)]
            # the walk writes c but neither a nor u, and u and v are none of what one walk and one a
            # serve every pair with: the start, the entry values the body reads and a
            join = (test.b.index in writes and not {ai, ui} & writes
                    and not {ui, vi} & (variables_used(Program(atom.body)) - {xi, yi} | {si, ai}))
        same = xi == yi
        steps = range(len(walk_scope))

        def walk(env, state, start_vid):
            nonlocal remaining
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
                if remaining <= 0:
                    raise _Truncated
                remaining -= 1
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

        if join:
            next(rest), next(rest)  # the stage runs the redirect and the test, so compile_conj skips them
            closures.pop()  # and the enumeration: one walk, and one a, serve every pair it binds
            sa, su, sv, sc = slots[ai], slots[ui], slots[vi], slots[test.b.index]
            pairs_state = pairs = None  # the last state seen and its relation

            def joined(env, state):
                """For each pair (u, v) the enumeration binds: the walk's prefixes whose c is u that pass the redirect
                and the test, redirected, each after the fuel spent since the last one passed on, and then that for the rest."""
                nonlocal remaining, pairs_state, pairs
                if state is not pairs_state:  # states are never written, so identity is equality
                    pairs_state, pairs = state, relation(state)
                index = None  # each c value's prefixes, with their positions, once the walk has run
                a = env[sa]
                domain, inside = domains[a - 1], a in walk_pos  # the redirect's domain check; the test's, with c = u
                due = 1  # the fuel spent since the last prefix passed on: the enumeration's step
                for u, v in pairs:
                    position = walk_pos.get(u)
                    cost = 1 if position is None or position not in domain else 2  # what the redirect and the test spend on a prefix
                    if index is None:  # the iterate's step, then the walk
                        spend(due + 1)
                        entry_remaining, due, index = remaining, 0, {}
                        prefixes = walk(env, state, env[ss])
                        for k, (walked, walk_state) in enumerate(prefixes):
                            index.setdefault(walked[sc], []).append((k, walked, walk_state))
                        walk_steps, count = 1 + entry_remaining - remaining, len(prefixes)  # the iterate's step and the walk's; its prefixes
                    else:  # the iterate's step and the walk this call ran: no pair changes what it reads
                        due += walk_steps
                    done = 0
                    for k, walked, walk_state in index.get(u, ()) if cost == 2 and inside else ():
                        spend(due + (k + 1 - done) * cost)  # the prefixes since the last passed on, and this one
                        due, done = 0, k + 1
                        outcome = env[:], walk_state[:]  # the current bindings plus the pair and what the walk writes; a copy: prefixes share states
                        outcome[1][a - 1] = position
                        outcome[0][su], outcome[0][sv] = u, v
                        for slot in written:
                            outcome[0][slot] = walked[slot]
                        yield outcome
                    due += (count - done) * cost
                spend(due)

            return joined, False

        def iterate(env, state):
            nonlocal remaining
            if remaining <= 0:
                raise _Truncated
            remaining -= 1  # then one walk from a bound start, or lazily one from each scope variable
            if start_bound:
                return iter(walk(env, state, env[ss]))
            return (outcome for start_vid in walk_scope for outcome in walk(env, state, start_vid))

        return iterate, False

    COMPILERS = {ConstraintAtom: compile_constraint, Swap: compile_swap, Redirect: compile_redirect}

    run = runner(compile_conj(program.body, frozenset())[0])

    def explore(start_values: Assignment, fuel: int, cap: int, until) -> NeighborSet:
        nonlocal remaining
        remaining = fuel
        results: set[tuple[int, ...]] = set()

        def keep(env, state):  # a true answer ends the run: the runner returns at the first outcome emit accepts
            candidate = tuple(state)
            if candidate != start_values and candidate not in results:
                if len(results) >= cap:
                    raise _Truncated
                results.add(candidate)
                return until is not None and until(candidate)

        truncated = False
        try:
            run([None] * len(slots), list(start_values), keep)
        except _Truncated:
            truncated = True
        return NeighborSet(tuple(sorted(results)), truncated, fuel - remaining)

    return explore
