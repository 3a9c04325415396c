"""Independent reference implementations used to freeze expected values.

Everything here works on plain successor arrays or cost matrices and
never calls into the package's interpreter or search code, so the tests
comparing the two stay two-sided.  The reference genome mapper reads only
the grammar's symbols and builds its program through NDL text and the
parser, never through the alternatives' AST constructors.
"""

from collections import deque
from itertools import permutations

from noodle.lang.parser import parse


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


def text_map_genome(grammar, genome, wrap_limit: int = 2, max_depth: int | None = None):
    """Leftmost derivation that joins terminal strings, then parses the text.

    Returns ``(program, consumed, invalid)`` with the mapper's codon,
    wrap-limit and depth-limit rules.
    """
    rules = {lhs: [symbols for symbols, _ in alts] for lhs, alts in grammar.rules}
    if max_depth is None:
        max_depth = grammar.max_depth
    budget = len(genome) * (wrap_limit + 1)
    reads = 0
    output = []
    work = deque([(("NT", grammar.start), 0)])
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
    return parse("".join(output)), reads, None
