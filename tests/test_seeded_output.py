"""The seeded-output contract: a workload's output digest equals the stored one.

perfbench only warns when a digest differs; this makes every workload's
digest a test: solve-tsp20 runs the hill climber, synth-color12 and
synth-tsp6 the evolution loop and its fitness memo (a wrong memo key has
moved only the synth-tsp6 digest).  They build the inputs
with perfbench's own workload code (read, never edited) and run the same
calls the benchmark times.  The same runs total what the ``neighbors``
calls of fitness and of the hill climber return, as perfbench's traced
run counts them, so a change that claims to keep every traced count
shows it here.  Last, perfbench's tracer (also read, never edited) must
still hook and count every layer it reads.
"""

import contextlib
import importlib.util
import json
import sys

import noodle
import noodle.evolution
import noodle.search

from tests.conftest import ROOT, fixture_text

PERFBENCH = ROOT / "perfbench"

# per workload, over its neighbors calls: calls, steps, neighbors returned, truncated calls
NEIGHBORS_TOTALS = {
    "solve-tsp20": (110, 3_388_110, 37_510, 0),
    "synth-color12": (2_235, 1_104_380, 28_735, 16),
    "synth-tsp6": (10_448, 1_912_680, 59_033, 0),
}


def perfbench_module(stem: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def perfbench_workloads():
    return perfbench_module("workloads")


class NoSpans:
    def span(self, name: str):
        return contextlib.nullcontext()


def assert_digest_matches_expected(name: str, monkeypatch):
    totals = [0, 0, 0, 0]
    for module in (noodle.evolution, noodle.search):  # the names their callers look neighbors up by

        def counted(*args, run=module.neighbors, **kwargs):
            result = run(*args, **kwargs)
            for i, value in enumerate((1, result.steps_used, len(result), result.truncated)):
                totals[i] += value
            return result

        monkeypatch.setattr(module, "neighbors", counted)
    workloads = perfbench_workloads()
    workload = workloads.WORKLOADS[name]
    prepared = workload.prepare(noodle, ROOT)
    outputs = [workload.call(noodle, prepared, i, NoSpans()) for i in range(len(prepared.configs))]
    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))["outputs"][name]
    assert workloads.sha256("".join(outputs)) == expected
    assert tuple(totals) == NEIGHBORS_TOTALS[name]


def test_solve_tsp20_digest_matches_expected(monkeypatch):
    assert_digest_matches_expected("solve-tsp20", monkeypatch)


def test_synth_color12_digest_matches_expected(monkeypatch):
    assert_digest_matches_expected("synth-color12", monkeypatch)


def test_synth_tsp6_digest_matches_expected(monkeypatch):
    assert_digest_matches_expected("synth-tsp6", monkeypatch)


def test_tracer_hooks_count_every_layer():
    # perfbench's traced run reads each layer through a hook on the name its caller looks
    # up and counts from what the call returns; a renamed function or a changed return
    # shape would make that layer's metrics read zero without failing the run
    tracer = perfbench_module("tracer").Tracer()
    model = noodle.load_model(fixture_text("tsp6.json"))
    program = noodle.parse(fixture_text("two_opt.ndl"))
    tracer.install()
    try:
        result = noodle.solve(model, program, noodle.SearchConfig(restarts=3, seed=7))
        noodle.evolve(model, noodle.EvolutionConfig(population_size=10, generations=2, seed=1))
    finally:
        tracer.uninstall()
    assert not tracer.uncounted
    assert set(tracer.absent) <= {"noodle.grammar.parse"}  # the grammar builds trees without the parser
    assert tracer.counts["search.climb_steps"] == sum(trace.steps for trace in result.traces) > 0
