"""Constraint-model layer: problem representation, checking, and sampling.

A model declares integer variables with finite domains (interval
domains hold at most `MAX_DOMAIN_SIZE` values in total), named variable
groups, and constraints drawn from a small catalog (circuit,
all_different, not_equal).  An assignment is a plain tuple of ints;
`validate_assignment` checks one against a model.  Each kind's meaning
is defined once, on `ConstraintDecl`: `satisfied`; `pairs`, the binary
relation over variables a constraint induces, which the NDL interpreter
enumerates; and `holds`, the point query on that relation, which
answers the interpreter's tests.  `violations` names the kinds an
assignment breaks, and `is_feasible` whether it breaks none.  Domains
double as the pruning mechanism for degenerate moves (an effect writing
an out-of-domain value kills its derivation branch).  `Model.symmetric`
says whether every tour of the model is a relabelling of every other.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field
from functools import cached_property

from noodle.lang.parser import IDENT_RE

CONSTRAINT_KINDS = ("circuit", "all_different", "not_equal")
OBJECTIVE_KINDS = ("none", "next_cost", "distinct_count")
MAX_DOMAIN_SIZE = 1_000_000  # values in all interval domains together, checked before each is built


class ModelError(ValueError):
    """Raised for malformed model documents; carries a path into the document."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class InfeasibleError(ValueError):
    """Raised when a feasible assignment cannot be produced or is required."""


@dataclass(frozen=True)
class VarDecl:
    name: str
    domain: frozenset[int]


@dataclass(frozen=True)
class ConstraintDecl:
    kind: str
    scope: tuple[int, ...]  # variable ids
    alias: str | None = None

    @property
    def names(self) -> tuple[str, ...]:
        return (self.alias, self.kind) if self.alias else (self.kind,)

    def satisfied(self, values: tuple[int, ...]) -> bool:
        """Satisfaction under ``values``: for circuit, one cycle covering every scope
        position; for all_different and not_equal (a 2-scope all_different), no equal scope values."""
        if self.kind == "not_equal":
            a, b = self.scope
            return values[a - 1] != values[b - 1]
        if self.kind == "circuit":
            n = len(self.scope)
            pos = 1
            for step in range(n):
                pos = values[self.scope[pos - 1] - 1]
                if not 1 <= pos <= n:
                    return False
                if pos == 1:
                    return step == n - 1
            return False
        return len({values[vid - 1] for vid in self.scope}) == len(self.scope)

    def pairs(self, values: tuple[int, ...]) -> list[tuple[int, int]]:
        """The binary relation this constraint induces under ``values``, without repeats.

        circuit: the successor relation {(x, y) : value(x) = position(y)},
        skipping a variable whose value is no scope position;
        all_different: current conflict pairs, both orderings;
        not_equal: both orderings of its static scope pair.
        """
        scope = self.scope
        if self.kind == "not_equal":
            a, b = scope
            return [(a, b), (b, a)]
        pairs = []
        if self.kind == "circuit":
            n = len(scope)
            for vid in scope:
                value = values[vid - 1]
                if 1 <= value <= n:
                    pairs.append((vid, scope[value - 1]))
        else:
            for i, a in enumerate(scope):
                for b in scope[i + 1 :]:
                    if values[a - 1] == values[b - 1]:
                        pairs += [(a, b), (b, a)]
        return pairs

    @cached_property
    def holds(self):
        """``holds(values, a, b)``: whether ``(a, b) in self.pairs(values)``, answered without
        building the relation.  The test is specialised to the kind on first use, so a caller
        that keeps it pays no dispatch per query."""
        scope = self.scope
        if self.kind == "not_equal":
            return lambda values, a, b: (a, b) == scope or (b, a) == scope
        positions = {vid: i + 1 for i, vid in enumerate(scope)}
        if self.kind == "circuit":
            return lambda values, a, b: a in positions and values[a - 1] == positions.get(b)
        return lambda values, a, b: a != b and a in positions and b in positions and values[a - 1] == values[b - 1]


@dataclass(frozen=True)
class ObjectiveSpec:
    kind: str = "none"
    matrix: tuple[tuple[float, ...], ...] | None = None  # next_cost only
    group: str | None = None  # distinct_count only


Assignment = tuple[int, ...]  # position i-1 holds the value of variable i


@dataclass(frozen=True)
class Model:
    name: str
    variables: tuple[VarDecl, ...]
    groups: dict[str, tuple[int, ...]] = field(default_factory=dict)
    constraints: tuple[ConstraintDecl, ...] = ()
    structural: int | None = None  # index of the designated circuit in constraints
    objective: ObjectiveSpec = ObjectiveSpec()

    def constraints_by_name(self, name: str) -> list[ConstraintDecl]:
        """Constraints whose alias or kind matches ``name``."""
        return [c for c in self.constraints if name in c.names]

    def constraint_names(self) -> list[str]:
        """Distinct surface names (alias if present, else kind), declaration order."""
        seen: list[str] = []
        for c in self.constraints:
            name = c.alias or c.kind
            if name not in seen:
                seen.append(name)
        return seen

    def structural_constraint(self) -> ConstraintDecl | None:
        # load_model validates the index, so it always names a circuit
        return self.constraints[self.structural] if self.structural is not None else None

    def walk_scope(self) -> tuple[int, ...]:
        """The variables walks run over: the structural scope, else all in declaration order."""
        sc = self.structural_constraint()
        return sc.scope if sc is not None else tuple(range(1, len(self.variables) + 1))

    def walk_positions(self) -> dict[int, int]:
        """1-based position of each variable along the walk scope.

        This is the target coordinate system of the `redirect` effect.
        """
        return {vid: i + 1 for i, vid in enumerate(self.walk_scope())}

    @cached_property
    def symmetric(self) -> bool:
        """Whether relabelling positions maps the model onto itself and any tour onto any other: the
        structural circuit is the only constraint and covers every variable, and either every domain
        holds all positions or each variable's domain holds all positions but its own."""
        if self.structural is None or len(self.constraints) != 1 or len(self.constraints[0].scope) != len(self.variables):
            return False
        domains = [self.variables[vid - 1].domain for vid in self.constraints[0].scope]
        positions = frozenset(range(1, len(domains) + 1))
        return all(d == positions for d in domains) or all(d == positions - {p} for p, d in enumerate(domains, 1))

    def validate_assignment(self, assignment: Assignment) -> None:
        if len(assignment) != len(self.variables):
            raise InfeasibleError(
                f"assignment has {len(assignment)} values, model has {len(self.variables)} variables"
            )
        for decl, value in zip(self.variables, assignment):
            if value not in decl.domain:
                raise InfeasibleError(f"value {value} outside domain of variable {decl.name!r}")


def _require(condition: bool, message: str, path: str) -> None:
    if not condition:
        raise ModelError(message, path)


def _is_int(value) -> bool:
    """A JSON integer; ``true`` and ``false`` load as ``bool``, an ``int`` subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_domain(spec, path: str, room: int) -> frozenset[int]:
    """A variable's domain; an interval may hold at most ``room`` values."""
    _require(isinstance(spec, dict), "domain must be an object", path)
    if "lo" in spec or "hi" in spec:
        _require("lo" in spec and "hi" in spec, "interval domain needs both 'lo' and 'hi'", path)
        lo, hi = spec["lo"], spec["hi"]
        _require(_is_int(lo) and _is_int(hi), "interval bounds must be integers", path)
        _require(lo <= hi, "empty domain", path)
        _require(
            hi - lo < room,
            f"interval domain has more than {MAX_DOMAIN_SIZE:,} values, counting the interval domains before it",
            path,
        )
        return frozenset(range(lo, hi + 1))
    if "set" in spec:
        values = spec["set"]
        _require(isinstance(values, list) and all(_is_int(v) for v in values), "domain set must be a list of integers", path)
        _require(len(values) > 0, "empty domain", path)
        _require(len(set(values)) == len(values), "duplicate values in domain set", path)
        return frozenset(values)
    raise ModelError("domain must have 'lo'/'hi' or 'set'", path)


def _decode(document):
    """A JSON text decoded, or an already parsed document as it is."""
    if not isinstance(document, (str, bytes)):
        return document
    try:
        return json.loads(document)
    except (ValueError, RecursionError) as exc:  # bad bytes and over-long integers are ValueErrors
        raise ModelError(f"not valid JSON: {exc}") from exc


def load_model(document) -> Model:
    """Build a validated :class:`Model` from a JSON text or parsed object.

    Errors carry a path into the document, e.g. ``constraints[1].kind``.
    """
    document = _decode(document)
    _require(isinstance(document, dict), "model document must be an object", "")

    name = document.get("name", "")
    _require(isinstance(name, str), "name must be a string", "name")

    raw_vars = document.get("variables")
    _require(isinstance(raw_vars, list) and raw_vars, "variables must be a non-empty list", "variables")
    variables = []
    ids_by_name: dict[str, int] = {}
    room = MAX_DOMAIN_SIZE  # interval values the document may still build
    for i, rv in enumerate(raw_vars):
        path = f"variables[{i}]"
        _require(isinstance(rv, dict), "variable must be an object", path)
        vname = rv.get("name")
        _require(isinstance(vname, str) and vname, "variable needs a name", f"{path}.name")
        _require(vname not in ids_by_name, f"duplicate variable name {vname!r}", f"{path}.name")
        spec = rv.get("domain")
        domain = _parse_domain(spec, f"{path}.domain", room)
        if "lo" in spec:  # parsed, so an interval
            room -= len(domain)
        ids_by_name[vname] = i + 1
        variables.append(VarDecl(name=vname, domain=domain))

    def resolve_var(vname, path: str) -> int:
        _require(isinstance(vname, str), "variable reference must be a name string", path)
        _require(vname in ids_by_name, f"unknown variable {vname!r}", path)
        return ids_by_name[vname]

    groups: dict[str, tuple[int, ...]] = {}
    raw_groups = document.get("groups", {})
    _require(isinstance(raw_groups, dict), "groups must be an object", "groups")
    for gname, members in raw_groups.items():
        path = f"groups.{gname}"
        _require(isinstance(members, list) and members, "group must be a non-empty list", path)
        ids = tuple(resolve_var(m, f"{path}[{k}]") for k, m in enumerate(members))
        _require(len(set(ids)) == len(ids), "duplicate group member", path)
        groups[gname] = ids

    constraints = []
    raw_constraints = document.get("constraints", [])
    _require(isinstance(raw_constraints, list), "constraints must be a list", "constraints")
    for i, rc in enumerate(raw_constraints):
        path = f"constraints[{i}]"
        _require(isinstance(rc, dict), "constraint must be an object", path)
        kind = rc.get("kind")
        _require(kind in CONSTRAINT_KINDS, f"unknown constraint kind {kind!r}", f"{path}.kind")
        scope_spec = rc.get("scope")
        if isinstance(scope_spec, str):
            _require(scope_spec in groups, f"unknown group {scope_spec!r}", f"{path}.scope")
            scope = groups[scope_spec]
        elif isinstance(scope_spec, list):
            scope = tuple(resolve_var(m, f"{path}.scope[{k}]") for k, m in enumerate(scope_spec))
            _require(len(set(scope)) == len(scope), "duplicate variable in scope", f"{path}.scope")
        else:
            raise ModelError("scope must be a group name or a list of variable names", f"{path}.scope")
        if kind == "not_equal":
            _require(len(scope) == 2, "not_equal scope must have exactly 2 variables", f"{path}.scope")
        else:
            _require(len(scope) >= 1, f"{kind} scope must be non-empty", f"{path}.scope")
        if kind == "circuit":
            positions = set(range(1, len(scope) + 1))
            for vid in scope:
                decl = variables[vid - 1]
                _require(
                    decl.domain <= positions,
                    f"domain of {decl.name!r} not contained in circuit positions 1..{len(scope)}",
                    f"{path}.scope",
                )
        alias = rc.get("alias")
        _require(
            alias is None or isinstance(alias, str) and IDENT_RE.fullmatch(alias),
            "alias must be an identifier (a letter or '_', then letters, digits or '_')",
            f"{path}.alias",
        )
        constraints.append(ConstraintDecl(kind=kind, scope=scope, alias=alias))

    structural = document.get("structural")
    if structural is not None:
        _require(_is_int(structural) and 0 <= structural < len(constraints), "structural must index a constraint", "structural")
        _require(constraints[structural].kind == "circuit", "structural constraint must be of kind 'circuit'", "structural")

    obj_spec = document.get("objective", {"kind": "none"})
    _require(isinstance(obj_spec, dict), "objective must be an object", "objective")
    okind = obj_spec.get("kind", "none")
    _require(okind in OBJECTIVE_KINDS, f"unknown objective kind {okind!r}", "objective.kind")
    matrix = None
    ogroup = None
    if okind == "next_cost":
        _require(structural is not None, "next_cost objective requires a structural constraint", "objective")
        side = len(constraints[structural].scope)
        raw_matrix = obj_spec.get("matrix")
        _require(isinstance(raw_matrix, list) and len(raw_matrix) == side, f"matrix must have {side} rows", "objective.matrix")
        rows = []
        for r, row in enumerate(raw_matrix):
            path = f"objective.matrix[{r}]"
            _require(isinstance(row, list) and len(row) == side, f"matrix row must have {side} entries", path)
            for c, entry in enumerate(row):
                _require((_is_int(entry) or isinstance(entry, float)) and abs(entry) <= sys.float_info.max, "matrix entries must be finite numbers", f"{path}[{c}]")
                _require(r == c or entry >= 0, "off-diagonal costs must be non-negative", f"{path}[{c}]")
            rows.append(tuple(row))
        matrix = tuple(rows)  # its row maxima bound every tour's cost
        _require(math.isfinite(sum(map(max, matrix), 0.0)), "a tour's cost must sum to a finite number", "objective.matrix")
    elif okind == "distinct_count":
        ogroup = obj_spec.get("group")
        _require(isinstance(ogroup, str) and ogroup in groups, f"unknown group {ogroup!r}", "objective.group")

    return Model(
        name=name,
        variables=tuple(variables),
        groups=groups,
        constraints=tuple(constraints),
        structural=structural,
        objective=ObjectiveSpec(kind=okind, matrix=matrix, group=ogroup),
    )


def load_assignment(document) -> Assignment:
    """Parse an assignment document ``{"values": [...]}``."""
    document = _decode(document)
    _require(isinstance(document, dict) and isinstance(document.get("values"), list), "assignment document must be {'values': [...]}", "values")
    values = document["values"]
    _require(all(_is_int(v) for v in values), "values must be integers", "values")
    return tuple(values)


def violations(model: Model, assignment: Assignment) -> set[str]:
    """The kinds that have at least one unsatisfied constraint under ``assignment``."""
    return {c.kind for c in model.constraints if not c.satisfied(assignment)}


def is_feasible(model: Model, assignment: Assignment) -> bool:
    return all(c.satisfied(assignment) for c in model.constraints)


def objective(model: Model, assignment: Assignment):
    """Objective value; smaller is better.  `none` scores 0."""
    spec = model.objective
    if spec.kind == "none":
        return 0
    if spec.kind == "next_cost":
        scope = model.structural_constraint().scope
        return sum(spec.matrix[i][assignment[vid - 1] - 1] for i, vid in enumerate(scope))
    # distinct_count
    return len({assignment[vid - 1] for vid in model.groups[spec.group]})


def seed_assignment(model: Model, rng_seed: int) -> Assignment:
    """Sample a feasible assignment, deterministic per (model, seed).

    Circuit scopes get a random single cycle from a seeded permutation.
    Remaining variables are colored greedily over a seeded connected
    order (breadth-first from a random root, neighbor order shuffled):
    each variable takes the smallest domain value not used by an
    already-colored partner of a not_equal or all_different constraint.
    The connected order keeps greedy cheap on sparse graphs; on paths it
    never needs a third color.
    """
    rng = random.Random(rng_seed)
    values: list[int | None] = [None] * len(model.variables)

    for c in model.constraints:
        if c.kind != "circuit":
            continue
        order = list(range(len(c.scope)))
        rng.shuffle(order)
        for k, scope_idx in enumerate(order):
            successor_pos = order[(k + 1) % len(order)] + 1
            values[c.scope[scope_idx] - 1] = successor_pos

    pending = [vid for vid in range(1, len(values) + 1) if values[vid - 1] is None]
    partners: dict[int, set[int]] = {vid: set() for vid in pending}
    for c in model.constraints:
        if c.kind == "circuit":
            continue
        for a in c.scope:
            for b in c.scope:
                if a != b and a in partners:
                    partners[a].add(b)

    roots = list(pending)
    rng.shuffle(roots)
    queued = set()
    queue: list[int] = []
    for root in roots:
        if root in queued:
            continue
        queue.append(root)
        queued.add(root)
        head = len(queue) - 1
        while head < len(queue):
            vid = queue[head]
            head += 1
            fringe = sorted(w for w in partners[vid] if w in partners and w not in queued)
            rng.shuffle(fringe)
            for w in fringe:
                queue.append(w)
                queued.add(w)

    for vid in queue:
        used = {values[p - 1] for p in partners[vid] if values[p - 1] is not None}
        free = sorted(model.variables[vid - 1].domain - used)
        if not free:
            raise InfeasibleError("infeasible seed")
        values[vid - 1] = free[0]

    assignment = tuple(values)
    model.validate_assignment(assignment)
    if not is_feasible(model, assignment):
        raise InfeasibleError("infeasible seed")
    return assignment
