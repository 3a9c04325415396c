"""The seeded-output contract: a workload's output digest equals the stored one.

perfbench only warns when a digest differs; this makes the solve-tsp20
digest a test.  It builds the inputs with perfbench's own workload code
(read, never edited) and runs the same call the benchmark times.
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


def test_solve_tsp20_digest_matches_expected():
    workloads = perfbench_workloads()
    workload = workloads.WORKLOADS["solve-tsp20"]
    prepared = workload.prepare(noodle, ROOT)
    outputs = [workload.call(noodle, prepared, i, NoSpans()) for i in range(len(prepared.configs))]
    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))["outputs"]["solve-tsp20"]
    assert workloads.sha256("".join(outputs)) == expected
