"""Independent reference implementations used to freeze expected values.

Everything here works on plain successor arrays or cost matrices and
never calls into the package's interpreter or search code, so the tests
comparing the two stay two-sided.  The reference genome mapper reads only
the grammar's symbols and builds its program through NDL text and the
reference parser, never through the alternatives' AST constructors.  The
reference interpreter is the recursive generator chain the package's
flat-loop interpreter replaced; it shares only the model's constraint
definitions (``ConstraintDecl.pairs``, walk positions) and the result
type.  The reference parser is the hand-written tokenizer and per-head
recursive descent that the package's scan-and-table parser replaced.
The reference automorphism test tries every permutation of the circuit
positions, not only the alignments of two cycles.  Two exceptions run
the package's interpreter: `is_local_optimum`, a checker on the
climber's result, and `reference_evaluate_fitness`, the fitness that
runs every sample, which the package's sample classes must reproduce.
"""

import re
from collections import deque
from dataclasses import dataclass
from itertools import permutations

from noodle.evolution import DEFAULT_EVAL_FUEL, Fitness
from noodle.grammar import DEFAULT_MAX_DEPTH
from noodle.lang.analyzer import DEFAULT_VAR_BUDGET, analyze, optimize
from noodle.lang.ast import ConstraintAtom, Iterate, Program, Redirect, Swap, Var, atom_count
from noodle.lang.interp import DEFAULT_CAP, DEFAULT_FUEL, NeighborSet, neighbors
from noodle.model import Assignment, InfeasibleError, Model, is_feasible, objective, violations


def successor_cycles(values: tuple[int, ...]) -> int | None:
    """Number of cycles of the successor array, or None if not a permutation."""
    n = len(values)
    if sorted(values) != list(range(1, n + 1)):
        return None
    seen = set()
    cycles = 0
    for start in range(1, n + 1):
        if start in seen:
            continue
        cycles += 1
        node = start
        while node not in seen:
            seen.add(node)
            node = values[node - 1]
    return cycles


def is_tour(values: tuple[int, ...]) -> bool:
    return successor_cycles(values) == 1


def tour_path(values: tuple[int, ...]) -> list[int]:
    """City sequence starting at city 1, following successors."""
    path = [1]
    while len(path) < len(values):
        path.append(values[path[-1] - 1])
    return path


def path_to_successors(path: list[int]) -> tuple[int, ...]:
    succ = [0] * len(path)
    for k, city in enumerate(path):
        succ[city - 1] = path[(k + 1) % len(path)]
    return tuple(succ)


def canonical_tour(values: tuple[int, ...]) -> tuple[int, ...]:
    """Orientation-free key: the lexicographically smaller traversal from city 1."""
    forward = tuple(tour_path(values))
    pred = {values[i]: i + 1 for i in range(len(values))}
    backward = [1]
    while len(backward) < len(values):
        backward.append(pred[backward[-1]])
    return min(forward, tuple(backward))


def two_opt_neighborhood(values: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All proper segment reversals of the tour, as successor arrays.

    Reversing the segment between path positions i..j removes the two
    edges around it; the (1, n-1) pair is skipped because those edges
    share the anchor city and the "move" is just the reversed traversal.
    n(n-3)/2 distinct tours result.
    """
    path = tour_path(values)
    n = len(path)
    out = set()
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            if i == 1 and j == n - 1:
                continue
            out.add(path_to_successors(path[:i] + path[i : j + 1][::-1] + path[j + 1 :]))
    return out


def tour_cost(values: tuple[int, ...], matrix) -> float:
    return sum(matrix[i][values[i] - 1] for i in range(len(values)))


def best_tour_cost(matrix) -> float:
    """Exhaustive minimum over all tours (n small)."""
    n = len(matrix)
    best = None
    for rest in permutations(range(2, n + 1)):
        values = path_to_successors([1, *rest])
        cost = tour_cost(values, matrix)
        best = cost if best is None else min(best, cost)
    return best


def steepest_two_opt_descent(values: tuple[int, ...], matrix) -> tuple[tuple[int, ...], float]:
    """Greedy best-improvement descent over segment reversals."""
    current = values
    cost = tour_cost(current, matrix)
    while True:
        candidates = [(tour_cost(nb, matrix), nb) for nb in sorted(two_opt_neighborhood(current))]
        best_cost, best_nb = min(candidates, key=lambda pair: pair[0])
        if best_cost >= cost:
            return current, cost
        current, cost = best_nb, best_cost


def nearest_neighbor_cost(matrix, start: int = 1) -> float:
    """Classic nearest-neighbor construction heuristic."""
    n = len(matrix)
    unvisited = set(range(1, n + 1)) - {start}
    cost = 0.0
    city = start
    while unvisited:
        nxt = min(unvisited, key=lambda c: (matrix[city - 1][c - 1], c))
        cost += matrix[city - 1][nxt - 1]
        unvisited.remove(nxt)
        city = nxt
    return cost + matrix[city - 1][start - 1]


def greedy_coloring(order: list[int], adjacency: dict[int, set[int]]) -> dict[int, int]:
    """Smallest-unused-color greedy over the given vertex order."""
    colors: dict[int, int] = {}
    for vertex in order:
        used = {colors[w] for w in adjacency[vertex] if w in colors}
        color = 1
        while color in used:
            color += 1
        colors[vertex] = color
    return colors


def renamed(program: Program) -> Program:
    """The program with its variables renumbered t0, t1, ... in first-occurrence order."""
    fresh: dict[int, Var] = {}

    def var(v: Var) -> Var:
        return fresh.setdefault(v.index, Var(len(fresh)))

    def rename(atom):
        if isinstance(atom, Iterate):  # arguments run left to right: x, y, start, then the body
            return Iterate(var(atom.x), var(atom.y), var(atom.start), tuple(map(rename, atom.body)))
        if isinstance(atom, ConstraintAtom):
            return ConstraintAtom(atom.name, var(atom.a), var(atom.b))
        return type(atom)(var(atom.a), var(atom.b))

    return Program(tuple(map(rename, program.body)))


def text_map_genome(grammar, genome, wrap_limit: int = 2, max_depth: int = DEFAULT_MAX_DEPTH):
    """Leftmost derivation that joins terminal strings, then parses the text.

    Returns ``(program, consumed, invalid)`` with the mapper's codon,
    wrap-limit and depth-limit rules.
    """
    rules = {lhs: [symbols for symbols, *_ in alts] for lhs, alts in grammar.items()}
    budget = len(genome) * (wrap_limit + 1)
    reads = 0
    output = []
    work = deque([(("NT", "<program>"), 0)])
    while work:
        (kind, text), depth = work.popleft()
        if kind != "NT":
            output.append(text)
            continue
        if depth >= max_depth:
            return None, reads, "DEPTH_LIMIT"
        if reads >= budget:
            return None, reads, "WRAP_LIMIT"
        alts = rules[text]
        chosen = alts[genome[reads % len(genome)] % len(alts)]
        reads += 1
        work.extendleft((symbol, depth + 1) for symbol in reversed(chosen))
    return reference_parse("".join(output)), reads, None


class _OutOfFuel(Exception):
    pass


class _CapReached(Exception):
    pass


class _Context:
    """Per-call lookup tables; the model itself is never mutated."""

    def __init__(self, model: Model):
        self.domains = [v.domain for v in model.variables]
        names = {name for c in model.constraints for name in c.names}
        self.by_name = {name: model.constraints_by_name(name) for name in names}
        self.walk_pos = model.walk_positions()
        self.walk_scope = model.walk_scope()
        self.structural = model.structural_constraint()
        self.chain = dict(zip(self.walk_scope, self.walk_scope[1:]))

    def relation(self, name: str, state: list[int]) -> list[tuple[int, int]]:
        constraints = self.by_name.get(name, ())
        if len(constraints) == 1:  # one constraint's pairs never repeat
            pairs = constraints[0].pairs(state)
        else:
            pairs = {p for c in constraints for p in c.pairs(state)}
        return sorted(pairs)

    def walk_successors(self, state: list[int]) -> dict[int, int]:
        """Snapshot successor map for iterate.

        Built from the structural circuit (a function of the scope, so
        every entry is unique) or from the canonical variable chain; a
        variable outside the map is a missing successor and stops walks.
        """
        if self.structural is None:
            return self.chain
        return dict(self.structural.pairs(state))


def reference_neighbors(
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
    their branches.  ``start`` is never mutated.  ``until`` is called on
    each new neighbor once it is kept, and a true answer ends the run
    untruncated, as in ``neighbors``.
    """
    model.validate_assignment(start)
    ctx = _Context(model)
    start_values = tuple(start)
    results: set[tuple[int, ...]] = set()
    truncated = False
    remaining = [fuel]

    def spend() -> None:
        if remaining[0] <= 0:
            raise _OutOfFuel
        remaining[0] -= 1

    def eval_seq(atoms, idx, env, state):
        if idx == len(atoms):
            yield env, state
            return
        for env2, state2 in eval_atom(atoms[idx], env, state):
            yield from eval_seq(atoms, idx + 1, env2, state2)

    def eval_atom(atom, env, state):
        spend()
        if isinstance(atom, ConstraintAtom):
            relation = ctx.relation(atom.name, state)
            ai, bi = atom.a.index, atom.b.index
            bound_a, bound_b = env.get(ai), env.get(bi)
            if bound_a is not None and bound_b is not None:
                if (bound_a, bound_b) in relation:
                    yield env, state
                return
            for u, v in relation:
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
            if vb not in ctx.domains[a - 1] or va not in ctx.domains[b - 1]:
                return
            state2 = list(state)
            state2[a - 1], state2[b - 1] = vb, va
            yield env, state2
            return

        if isinstance(atom, Redirect):
            a, b = env.get(atom.a.index), env.get(atom.b.index)
            if a is None or b is None:
                return
            position = ctx.walk_pos.get(b)
            if position is None or position not in ctx.domains[a - 1]:
                return
            state2 = list(state)
            state2[a - 1] = position
            yield env, state2
            return

        # Iterate
        start_binding = env.get(atom.start.index)
        if start_binding is None:
            candidates = ctx.walk_scope
        else:
            candidates = (start_binding,)
        for start_vid in candidates:
            succ = ctx.walk_successors(state)
            env_walk = env
            if start_binding is None:
                env_walk = dict(env)
                env_walk[atom.start.index] = start_vid
            prefixes = []
            cur = start_vid
            walk_state = state
            walk_env = env_walk
            for _ in range(len(ctx.walk_scope)):
                nxt = succ.get(cur)
                if nxt is None or nxt == start_vid:
                    break
                if atom.x.index == atom.y.index and cur != nxt:
                    break
                spend()
                env_step = dict(walk_env)
                env_step[atom.x.index] = cur
                env_step[atom.y.index] = nxt
                body_run = eval_seq(atom.body, 0, env_step, walk_state)
                outcome = next(body_run, None)
                body_run.close()
                if outcome is None:
                    break
                walk_env, walk_state = outcome
                prefixes.append((walk_env, walk_state))
                cur = nxt
            yield from prefixes

    def explore():
        for _, state in eval_seq(program.body, 0, {}, list(start_values)):
            candidate = tuple(state)
            if candidate == start_values or candidate in results:
                continue
            if len(results) >= cap:
                raise _CapReached
            results.add(candidate)
            if until is not None and until(candidate):
                return

    try:
        explore()
    except _OutOfFuel:
        truncated = True
    except _CapReached:
        truncated = True

    assignments = tuple(v for v in sorted(results))
    return NeighborSet(assignments=assignments, truncated=truncated, steps_used=fuel - remaining[0])

ATOM_HEADS = ("constraint", "swap_values", "redirect", "iterate")
# Rendering, analysis and execution recurse once per iterate level;
# evolved programs nest about 4 deep under the default depth limit.
MAX_ITERATE_NESTING = 100

_VAR_RE = re.compile(r"t\d+\Z")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, PUNCT, EOF
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        if text.startswith("/\\", i):
            tokens.append(_Token("PUNCT", ",", line, column))
            i += 2
            column += 2
            continue
        if ch in "(),-":
            tokens.append(_Token("PUNCT", ch, line, column))
            i += 1
            column += 1
            continue
        m = IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("IDENT", m.group(), line, column))
            column += len(m.group())
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("EOF", "", line, column))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def error(self, message: str, token: _Token | None = None):
        tok = token or self.current
        raise ParseError(message, tok.line, tok.column)

    def advance(self) -> _Token:
        tok = self.current
        self.pos += 1
        return tok

    def expect(self, text: str, context: str) -> _Token:
        tok = self.current
        if tok.kind == "EOF":
            self.error(f"unexpected end of input, expected {text!r} {context}")
        if tok.text != text:
            if text == "," and tok.text == ")":
                self.error(f"too few arguments {context}")
            if text == ")" and tok.text == ",":
                self.error(f"too many arguments {context}")
            self.error(f"expected {text!r} {context}, found {tok.text!r}")
        return self.advance()

    def parse_program(self) -> Program:
        if self.current.kind == "EOF":
            self.error("empty program")
        body = self.parse_conj()
        if self.current.kind != "EOF":
            self.error(f"unexpected trailing input {self.current.text!r}")
        return Program(body=body)

    def parse_conj(self) -> tuple:
        atoms = [self.parse_atom()]
        while self.current.text == ",":
            self.advance()
            atoms.append(self.parse_atom())
        return tuple(atoms)

    def parse_var(self, context: str) -> Var:
        tok = self.current
        if tok.kind != "IDENT" or not _VAR_RE.match(tok.text):
            self.error(f"expected a program variable (t0, t1, ...) {context}, found {tok.text!r}")
        self.advance()
        return Var(index=int(tok.text[1:]))

    def parse_name(self, context: str) -> str:
        tok = self.current
        if tok.kind != "IDENT":
            self.error(f"expected a constraint name {context}, found {tok.text!r}")
        self.advance()
        return tok.text

    def parse_atom(self):
        tok = self.current
        if tok.kind != "IDENT":
            self.error(f"expected an atom, found {tok.text!r}")
        if tok.text not in ATOM_HEADS:
            self.error(f"unknown atom head {tok.text!r}")
        head = self.advance().text
        ctx = f"in {head}"
        self.expect("(", ctx)
        if head == "constraint":
            name = self.parse_name(ctx)
            self.expect(",", ctx)
            a = self.parse_var(ctx)
            self.expect(",", ctx)
            b = self.parse_var(ctx)
            self.expect(")", ctx)
            return ConstraintAtom(name=name, a=a, b=b)
        if head in ("swap_values", "redirect"):
            a = self.parse_var(ctx)
            self.expect(",", ctx)
            b = self.parse_var(ctx)
            self.expect(")", ctx)
            return Swap(a=a, b=b) if head == "swap_values" else Redirect(a=a, b=b)
        # iterate
        if self.nesting == MAX_ITERATE_NESTING:
            self.error(f"iterate nested more than {MAX_ITERATE_NESTING} deep", tok)
        x = self.parse_var(ctx)
        self.expect("-", ctx)
        y = self.parse_var(ctx)
        self.expect(",", ctx)
        start = self.parse_var(ctx)
        self.expect(",", ctx)
        self.expect("(", "opening iterate body")
        self.nesting += 1
        body = self.parse_conj()
        self.nesting -= 1
        self.expect(")", "closing iterate body")
        self.expect(")", ctx)
        return Iterate(x=x, y=y, start=start, body=body)


def reference_parse(text: str) -> Program:
    """Parse NDL text into a :class:`Program`; raises :class:`ParseError`."""
    return _Parser(_tokenize(text)).parse_program()


def is_local_optimum(
    model: Model,
    program: Program,
    assignment: Assignment,
    fuel: int = DEFAULT_FUEL,
    cap: int = DEFAULT_CAP,
) -> bool:
    """True iff no feasible neighbor has a strictly lower objective."""
    if not is_feasible(model, assignment):
        raise InfeasibleError("infeasible assignment")
    cost = objective(model, assignment)
    result = neighbors(program, model, assignment, fuel=fuel, cap=cap)
    return not any(
        is_feasible(model, nb) and objective(model, nb) < cost for nb in result.assignments
    )


def relabelled(model: Model, assignment: Assignment, positions: tuple[int, ...]) -> tuple[int, ...]:
    """The image of ``assignment`` when circuit position p moves to ``positions[p - 1]``.

    The structural scope's variable at p moves to the one at the new
    position, and every value 1..n is renumbered the same way; other
    variables and values stay.
    """
    scope = model.structural_constraint().scope
    var_map = {scope[p - 1]: scope[q - 1] for p, q in enumerate(positions, 1)}
    image = list(assignment)
    for vid, value in enumerate(assignment, 1):
        image[var_map.get(vid, vid) - 1] = positions[value - 1] if 1 <= value <= len(positions) else value
    return tuple(image)


def reference_automorphic(model: Model, a: Assignment, b: Assignment) -> bool:
    """Whether some renumbering of the circuit positions maps ``a`` onto ``b`` and the model onto itself."""
    sc = model.structural_constraint()
    if sc is None or sum(c.kind == "circuit" for c in model.constraints) != 1:
        return False
    scope = sc.scope
    for positions in permutations(range(1, len(scope) + 1)):
        if relabelled(model, a, positions) != tuple(b):
            continue
        var_map = {scope[p - 1]: scope[q - 1] for p, q in enumerate(positions, 1)}
        domains_map = all(
            {positions[v - 1] if 1 <= v <= len(scope) else v for v in decl.domain}
            == model.variables[var_map.get(vid, vid) - 1].domain
            for vid, decl in enumerate(model.variables, 1)
        )
        others = [(c.kind, c.alias, frozenset(c.scope)) for c in model.constraints if c is not sc]
        images = [(kind, alias, frozenset(var_map.get(v, v) for v in members)) for kind, alias, members in others]
        if domains_map and sorted(images, key=repr) == sorted(others, key=repr):
            return True
    return False


def reference_evaluate_fitness(
    program: Program,
    model: Model,
    samples: list[Assignment],
    *,
    fuel: int = DEFAULT_EVAL_FUEL,
    cap: int = 500,
    budget: int = DEFAULT_VAR_BUDGET,
) -> Fitness:
    """Score one candidate program against feasible sample assignments.

    Analyzer errors are rejected without running the interpreter (tier
    STATIC_REJECT).  Producing no neighbor at all on some sample is tier
    BARREN.  Otherwise the candidate is VALID:
    ``preserved`` counts the model's constraint kinds that `violations`
    names for no inspected neighbor, ``productivity`` the smallest
    per-sample count of feasible neighbors (those it names no kind for),
    and ``size_penalty`` the optimized program's atom count.
    """
    if not analyze(program, model, budget=budget).ok:
        return Fitness(tier="STATIC_REJECT", size_penalty=atom_count(program))

    optimized = optimize(program)
    size = atom_count(optimized)
    kinds = {c.kind for c in model.constraints}
    broken: set[str] = set()
    productivity = None
    notes: list[str] = []
    for sample in samples:
        result = neighbors(optimized, model, sample, fuel=fuel, cap=cap)
        if result.truncated and "TRUNCATED" not in notes:
            notes.append("TRUNCATED")
        if len(result) == 0:
            return Fitness(tier="BARREN", size_penalty=size, notes=tuple(notes))
        feasible = 0
        for nb in result.assignments:
            violated = violations(model, nb)
            feasible += not violated
            broken |= violated
        productivity = feasible if productivity is None else min(productivity, feasible)
    return Fitness(
        tier="VALID",
        preserved=len(kinds - broken),
        productivity=min(productivity, cap),
        size_penalty=size,
        notes=tuple(notes),
    )
