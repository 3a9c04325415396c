"""Outside-in layer tracing for the benchmark's traced run.

Each hook replaces one public noodle function at the module attribute its
caller looks it up by (``noodle.evolution.neighbors`` is the name
``evaluate_fitness`` calls, ``noodle.search.neighbors`` the one
``hill_climb`` calls) with a wrapper that records a span: name, start,
end, parent span and operation id.  An operation is one ``evolve`` call
or one hill-climbing restart.  Spans stay in memory as integer columns
and are written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.

Counters are taken from return values at the same boundaries.  A hook
whose attribute no longer exists is reported as an absent layer, whose
metrics read zero; noodle itself is never edited.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager


def _mapped(counts, outcome):
    counts["grammar.invalid"] += not outcome.ok


def _analyzed(counts, diagnostics):
    counts["analyzer.rejected"] += not diagnostics.ok


def _neighbors(counts, result):
    counts["interp.neighbors"] += len(result)
    counts["interp.steps"] += result.steps_used
    counts["interp.truncated"] += bool(result.truncated)


def _search_neighbors(counts, result):
    _neighbors(counts, result)
    counts["search.neighborhoods"] += 1
    counts["search.neighbors_generated"] += len(result)


def _feasible(counts, feasible):
    counts["search.feasibility_checks"] += 1
    counts["search.feasible"] += bool(feasible)


def _climbed(counts, result):
    counts["search.climb_steps"] += result[2]


# (module, attribute, span name, counter, whether the call is an operation)
HOOKS = (
    ("noodle.evolution", "map_genome", "grammar.map_genome", _mapped, False),
    ("noodle.grammar", "parse", "parser.parse", None, False),
    ("noodle.evolution", "analyze", "analyzer.analyze", _analyzed, False),
    ("noodle.search", "analyze", "analyzer.analyze", _analyzed, False),
    ("noodle.evolution", "optimize", "analyzer.optimize", None, False),
    ("noodle.evolution", "evaluate_fitness", "evolution.evaluate_fitness", None, False),
    ("noodle.evolution", "vary", "evolution.vary", None, False),
    ("noodle.evolution", "neighbors", "interp.neighbors", _neighbors, False),
    ("noodle.search", "neighbors", "interp.neighbors", _search_neighbors, False),
    ("noodle.evolution", "violations", "model.check", None, False),
    ("noodle.search", "is_feasible", "model.check", _feasible, False),
    ("noodle.search", "objective", "model.objective", None, False),
    ("noodle.search", "hill_climb", "search.hill_climb", _climbed, True),
)


class NullTracer:
    """Stands in for :class:`Tracer` in untraced passes."""

    @contextmanager
    def span(self, name: str):
        yield


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[list[int]] = []  # [span index, child ns, enclosing op]
        self._current_op = -1
        self._ops = 0
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._installed: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int, new_op: bool) -> None:
        index = len(self.name)
        enclosing = self._current_op
        if new_op:
            self._current_op = self._ops
            self._ops += 1
        self.name.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self._current_op)
        self.end.append(0)
        self._stack.append([index, 0, enclosing])
        self.start.append(time.perf_counter_ns())

    def _close(self) -> None:
        end = time.perf_counter_ns()
        index, child_ns, enclosing = self._stack.pop()
        duration = end - self.start[index]
        self.end[index] = end
        name_id = self.name[index]
        self.calls[name_id] += 1
        self.total_ns[name_id] += duration
        self.self_ns[name_id] += duration - child_ns
        if self._stack:
            self._stack[-1][1] += duration
        self._current_op = enclosing

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark itself makes; it is an operation."""
        self._open(self._name_id(name), True)
        try:
            yield
        finally:
            self._close()

    def _wrap(self, function, name: str, counter, new_op: bool):
        name_id = self._name_id(name)
        counts = self.counts

        @functools.wraps(function)
        def traced(*args, **kwargs):
            self._open(name_id, new_op)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                try:
                    counter(counts, result)
                except (AttributeError, TypeError, IndexError):
                    # the function now returns another shape; its counters read zero
                    self.uncounted.add(name)
            return result

        return traced

    def install(self) -> None:
        for module_name, attribute, name, counter, new_op in HOOKS:
            module = sys.modules.get(module_name)
            if module is None or not callable(getattr(module, attribute, None)):
                self.absent.append(f"{module_name}.{attribute}")
                continue
            original = getattr(module, attribute)
            setattr(module, attribute, self._wrap(original, name, counter, new_op))
            self._installed.append((module, attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attribute, original = self._installed.pop()
            setattr(module, attribute, original)

    def _layer(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of one span name."""
        name_id = self._ids.get(name)
        if name_id is None:
            return 0, 0.0, 0.0
        return self.calls[name_id], self.total_ns[name_id] / 1e9, self.self_ns[name_id] / 1e9

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit); a ratio with no base reads 0."""

        def ratio(part, whole):
            return part / whole if whole else 0.0

        c = self.counts
        map_calls, _, map_self = self._layer("grammar.map_genome")
        parse_calls, parse_s, _ = self._layer("parser.parse")
        analyze_calls, analyze_s, _ = self._layer("analyzer.analyze")
        _, optimize_s, _ = self._layer("analyzer.optimize")
        fitness_calls, _, _ = self._layer("evolution.evaluate_fitness")
        _, vary_s, _ = self._layer("evolution.vary")
        _, _, loop_self = self._layer("evolution.evolve")
        neighbors_calls, neighbors_s, _ = self._layer("interp.neighbors")
        check_calls, check_s, _ = self._layer("model.check")
        objective_calls, objective_s, _ = self._layer("model.objective")
        climbs, _, climb_self = self._layer("search.hill_climb")
        # programs the loop looked up in its memo: every genome that mapped
        evaluations = map_calls - c["grammar.invalid"]
        # hill_climb checks its start once before inspecting any neighbor
        inspected = c["search.feasibility_checks"] - climbs
        feasible = c["search.feasible"] - climbs
        return {
            "grammar.map_calls": (map_calls, "count"),
            "grammar.map_self_s": (map_self, "s"),
            "grammar.invalid_ratio": (ratio(c["grammar.invalid"], map_calls), "ratio"),
            "parser.parse_calls": (parse_calls, "count"),
            "parser.parse_s": (parse_s, "s"),
            "analyzer.analyze_calls": (analyze_calls, "count"),
            "analyzer.reject_ratio": (ratio(c["analyzer.rejected"], analyze_calls), "ratio"),
            "analyzer.analyze_s": (analyze_s, "s"),
            "analyzer.optimize_s": (optimize_s, "s"),
            "evolution.evaluations": (evaluations, "count"),
            "evolution.fitness_calls": (fitness_calls, "count"),
            "evolution.memo_hit_ratio": (ratio(evaluations - fitness_calls, evaluations), "ratio"),
            "evolution.vary_s": (vary_s, "s"),
            "evolution.loop_self_s": (loop_self, "s"),
            "interp.neighbors_calls": (neighbors_calls, "count"),
            "interp.neighbors_s": (neighbors_s, "s"),
            "interp.steps": (c["interp.steps"], "count"),
            "interp.steps_per_s": (ratio(c["interp.steps"], neighbors_s), "1/s"),
            "interp.neighbors_per_call": (ratio(c["interp.neighbors"], neighbors_calls), "count"),
            "interp.truncated_calls": (c["interp.truncated"], "count"),
            "model.check_calls": (check_calls, "count"),
            "model.check_s": (check_s, "s"),
            "model.objective_calls": (objective_calls, "count"),
            "model.objective_s": (objective_s, "s"),
            "search.neighborhoods": (c["search.neighborhoods"], "count"),
            "search.neighbors_generated": (c["search.neighbors_generated"], "count"),
            "search.inspected_ratio": (ratio(inspected, c["search.neighbors_generated"]), "ratio"),
            "search.feasible_ratio": (ratio(feasible, inspected), "ratio"),
            "search.climb_steps": (c["search.climb_steps"], "count"),
            "search.climb_self_s": (climb_self, "s"),
        }

    def write(self, path, meta: dict) -> None:
        """Write every span as columns; times are ns from the first span's start."""
        origin = self.start[0] if len(self.start) else 0
        document = dict(meta)
        document["absent_hooks"] = self.absent
        document["spans"] = {
            "names": self.names,
            "name": self.name.tolist(),
            "start_ns": [t - origin for t in self.start],
            "end_ns": [t - origin for t in self.end],
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
