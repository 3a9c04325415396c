#!/usr/bin/env python3
"""Count the bytecodes and Python calls the interpreter runs per fuel step.

Everything inside each ``neighbors`` call is traced with ``sys.settrace``
opcode events, on two fixed inputs:

* ``solve-tsp20``: the first neighborhood of perfbench's solve-tsp20
  workload (``fixtures/two_opt.ndl`` on its 20-city instance, first
  restart), with the program compiled before counting starts;
* ``synth-tsp6``: every ``neighbors`` call of a small evolution on
  ``fixtures/tsp6.json`` (seed 1, population 200, 5 generations), compiles
  included.

Unlike timings, the counts do not move with the machine's load, so they
show what a change to the interpreter saves per step.  Calls include
generator resumptions.  Prints one JSON object.

    python3 scripts/count_bytecodes.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from noodle import EvolutionConfig, SearchConfig, evolve, load_model, parse, solve
from perfbench.workloads import SOLVE_SEARCH_SEED, TSP_INSTANCE_SEED, tsp_document

INTERP = str(Path("lang") / "interp.py")


def counted(run, calls=None):
    """Bytecodes and calls per fuel step inside the first ``calls`` ``neighbors`` calls ``run()`` makes (all if None)."""
    counts = {"neighbors": 0, "steps": 0, "call": 0, "opcode": 0}
    inside = []  # the neighbors frame being counted

    def trace(frame, event, arg):
        if inside:
            counts[event] = counts.get(event, 0) + 1
            if event == "return" and frame is inside[0]:
                counts["steps"] += arg.steps_used
                inside.pop()
            frame.f_trace_opcodes = True
            return trace
        if event == "call" and frame.f_code.co_name == "neighbors" and frame.f_code.co_filename.endswith(INTERP):
            if calls is None or counts["neighbors"] < calls:
                counts["neighbors"] += 1
                inside.append(frame)
                return trace(frame, event, arg)
        return None

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    steps = counts["steps"]
    return {"neighbors_calls": counts["neighbors"], "steps": steps,
            "bytecodes_per_step": counts["opcode"] / steps, "calls_per_step": counts["call"] / steps}


def main():
    tsp20 = load_model(json.dumps(tsp_document(TSP_INSTANCE_SEED)))
    two_opt = parse((ROOT / "fixtures" / "two_opt.ndl").read_text())
    search = SearchConfig(restarts=1, max_steps=1, seed=SOLVE_SEARCH_SEED)
    solve(tsp20, two_opt, search)  # compiles two_opt, which the next call reuses
    tsp6 = load_model((ROOT / "fixtures" / "tsp6.json").read_text())
    evolution = EvolutionConfig(population_size=200, generations=5, seed=1)
    print(json.dumps({
        "solve-tsp20": counted(lambda: solve(tsp20, two_opt, search), calls=1),
        "synth-tsp6": counted(lambda: evolve(tsp6, evolution)),
    }, indent=2))


if __name__ == "__main__":
    main()
