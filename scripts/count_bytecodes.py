#!/usr/bin/env python3
"""Count the bytecodes, Python calls and generator stages that the interpreter
runs per fuel step, and the bytecodes that fitness evaluation runs per call.

Everything inside each traced call is counted with ``sys.settrace``
opcode events, on fixed inputs:

* ``solve-tsp20``: the first ``neighbors`` call of perfbench's
  solve-tsp20 workload (``fixtures/two_opt.ndl`` on its 20-city instance,
  first restart), with the program compiled before counting starts;
* ``solve-tsp30``: the same on the 30-city instance of the same seed, so
  that a saving that grows with the tour's length shows as a count;
* ``synth-tsp6``: every ``neighbors`` call of a small evolution on
  ``fixtures/tsp6.json`` (seed 1, population 200, 5 generations), compiles
  included;
* ``synth-tsp6 evaluate_fitness`` and ``synth-color12 evaluate_fitness``:
  every ``evaluate_fitness`` call of that evolution, and of the same
  evolution on perfbench's 12-vertex colouring instance, analysis and
  rejected programs included.

Unlike timings, the counts do not move with the machine's load, so they
show what a change to the interpreter or to fitness evaluation saves.
Calls include generator resumptions.  Generators count each generator the
interpreter's own code starts: its enumerations, joined walks and walks from
an unbound start, each one per branch that reaches it, and the ``any`` over
the tests of a name that covers several constraints.  Prints one JSON object.

    python3 scripts/count_bytecodes.py
"""

import dis
import functools
import inspect
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from noodle import EvolutionConfig, SearchConfig, evolve, load_model, parse, solve
from perfbench.workloads import COLOR_INSTANCE_SEED, SOLVE_SEARCH_SEED, TSP_INSTANCE_SEED, coloring_document, tsp_document

INTERP = str(Path("lang") / "interp.py")


@functools.cache
def first_resume(code):
    """The offset at which a generator of ``code`` first runs: its 'call' event there starts it."""
    return next(i.offset for i in dis.get_instructions(code) if i.opname == "RESUME")


def counted(run, name, source, calls=None):
    """Calls, fuel steps, bytecodes, Python calls and interpreter generators started inside the first
    ``calls`` calls of the function ``name`` defined in a file ending in ``source`` that ``run()``
    makes (all if None)."""
    counts = {"calls": 0, "steps": 0, "call": 0, "opcode": 0, "generators": 0}
    inside = []  # the frame being counted

    def trace(frame, event, arg):
        if inside:
            counts[event] = counts.get(event, 0) + 1
            code = frame.f_code
            if event == "call" and code.co_flags & inspect.CO_GENERATOR and code.co_filename.endswith(INTERP) and frame.f_lasti == first_resume(code):
                counts["generators"] += 1
            if event == "return" and frame is inside[0]:
                counts["steps"] += getattr(arg, "steps_used", 0)
                inside.pop()
            frame.f_trace_opcodes = True
            return trace
        if event == "call" and frame.f_code.co_name == name and frame.f_code.co_filename.endswith(source):
            if calls is None or counts["calls"] < calls:
                counts["calls"] += 1
                inside.append(frame)
                return trace(frame, event, arg)
        return None

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return counts


def per_step(counts):
    steps = counts["steps"]
    return {"neighbors_calls": counts["calls"], "steps": steps, "bytecodes_per_step": counts["opcode"] / steps,
            "calls_per_step": counts["call"] / steps, "generators": counts["generators"], "generators_per_step": counts["generators"] / steps}


def per_fitness_call(counts):
    return {"fitness_calls": counts["calls"], "bytecodes": counts["opcode"],
            "bytecodes_per_call": counts["opcode"] / counts["calls"]}


def first_neighborhood(cities, two_opt):
    """Per-step counts of the first ``neighbors`` call of a ``solve`` restart on perfbench's TSP instance."""
    model = load_model(json.dumps(tsp_document(TSP_INSTANCE_SEED, cities)))
    search = SearchConfig(restarts=1, max_steps=1, seed=SOLVE_SEARCH_SEED)
    solve(model, two_opt, search)  # compiles two_opt, which the counted call reuses
    return per_step(counted(lambda: solve(model, two_opt, search), "neighbors", INTERP, calls=1))


def main():
    two_opt = parse((ROOT / "fixtures" / "two_opt.ndl").read_text())
    tsp6 = load_model((ROOT / "fixtures" / "tsp6.json").read_text())
    color12 = load_model(json.dumps(coloring_document(COLOR_INSTANCE_SEED)))
    evolution = EvolutionConfig(population_size=200, generations=5, seed=1)
    fitness = ("evaluate_fitness", "evolution.py")
    print(json.dumps({
        "solve-tsp20": first_neighborhood(20, two_opt),
        "solve-tsp30": first_neighborhood(30, two_opt),
        "synth-tsp6": per_step(counted(lambda: evolve(tsp6, evolution), "neighbors", INTERP)),
        "synth-tsp6 evaluate_fitness": per_fitness_call(counted(lambda: evolve(tsp6, evolution), *fitness)),
        "synth-color12 evaluate_fitness": per_fitness_call(counted(lambda: evolve(color12, evolution), *fitness)),
    }, indent=2))


if __name__ == "__main__":
    main()
