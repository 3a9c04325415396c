"""The seeded-output contract: a workload's output digest equals the stored one.

perfbench only warns when a digest differs; this makes every workload's
digest a test: solve-tsp20 runs the hill climber, synth-color12 and
synth-tsp6 the evolution loop and its fitness memo (a wrong memo key has
moved only the synth-tsp6 digest).  They build the inputs
with perfbench's own workload code (read, never edited) and run the same
calls the benchmark times.
"""

import contextlib
import importlib.util
import json
import sys

import noodle

from tests.conftest import ROOT

PERFBENCH = ROOT / "perfbench"


def perfbench_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


class NoSpans:
    def span(self, name: str):
        return contextlib.nullcontext()


def assert_digest_matches_expected(name: str):
    workloads = perfbench_workloads()
    workload = workloads.WORKLOADS[name]
    prepared = workload.prepare(noodle, ROOT)
    outputs = [workload.call(noodle, prepared, i, NoSpans()) for i in range(len(prepared.configs))]
    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))["outputs"][name]
    assert workloads.sha256("".join(outputs)) == expected


def test_solve_tsp20_digest_matches_expected():
    assert_digest_matches_expected("solve-tsp20")


def test_synth_color12_digest_matches_expected():
    assert_digest_matches_expected("synth-color12")


def test_synth_tsp6_digest_matches_expected():
    assert_digest_matches_expected("synth-tsp6")
