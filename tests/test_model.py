import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noodle.model import (
    InfeasibleError,
    ModelError,
    is_feasible,
    load_assignment,
    load_model,
    objective,
    seed_assignment,
    violations,
)

from noodle.evolution import EvolutionConfig, evolve
from noodle.lang.interp import neighbors
from noodle.lang.parser import parse
from noodle.search import SearchConfig, solve
from tests.conftest import CIRCUIT_WITH_ALL_DIFFERENT, ROOT, fixture_text, narrowed_tsp6, overlong_digits

CLI_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
from tests.oracles import greedy_coloring, reference_automorphic, successor_cycles


def circuit_model_doc(n: int) -> dict:
    return {
        "name": f"circuit{n}",
        "variables": [{"name": f"v{i}", "domain": {"lo": 1, "hi": n}} for i in range(1, n + 1)],
        "groups": {"next": [f"v{i}" for i in range(1, n + 1)]},
        "constraints": [{"kind": "circuit", "scope": "next"}],
        "structural": 0,
    }


class TestLoadModel:
    def test_four_city_document(self, tsp4):
        assert len(tsp4.variables) == 4
        assert len(tsp4.constraints) == 1
        assert tsp4.constraints[0].kind == "circuit"
        assert tsp4.constraints[0].alias == "all_diff_next"
        assert tsp4.structural == 0
        assert tsp4.objective.kind == "next_cost"

    def test_unknown_constraint_kind(self):
        doc = circuit_model_doc(3)
        doc["constraints"] = [{"kind": "cumulative", "scope": "next"}]
        doc.pop("structural")
        with pytest.raises(ModelError, match="unknown constraint kind"):
            load_model(json.dumps(doc))

    def test_empty_interval_domain(self):
        doc = circuit_model_doc(3)
        doc["variables"][1]["domain"] = {"lo": 5, "hi": 2}
        with pytest.raises(ModelError, match="empty domain") as err:
            load_model(doc)
        assert "variables[1]" in str(err.value)

    def test_dangling_variable_reference(self):
        doc = circuit_model_doc(3)
        doc["groups"]["next"][2] = "ghost"
        with pytest.raises(ModelError, match="unknown variable"):
            load_model(doc)

    def test_duplicate_group_member(self):
        doc = circuit_model_doc(3)
        doc["groups"]["next"] = ["v1", "v2", "v2"]
        with pytest.raises(ModelError, match="duplicate"):
            load_model(doc)

    def test_structural_must_be_circuit(self):
        doc = {
            "name": "bad",
            "variables": [{"name": "a", "domain": {"lo": 1, "hi": 2}}, {"name": "b", "domain": {"lo": 1, "hi": 2}}],
            "constraints": [{"kind": "not_equal", "scope": ["a", "b"]}],
            "structural": 0,
        }
        with pytest.raises(ModelError, match="structural"):
            load_model(doc)

    def test_circuit_domain_outside_positions(self):
        doc = circuit_model_doc(3)
        doc["variables"][0]["domain"] = {"lo": 1, "hi": 4}
        with pytest.raises(ModelError, match="positions"):
            load_model(doc)

    def test_not_equal_arity(self):
        doc = circuit_model_doc(3)
        doc["constraints"] = [{"kind": "not_equal", "scope": ["v1", "v2", "v3"]}]
        doc.pop("structural")
        with pytest.raises(ModelError, match="exactly 2"):
            load_model(doc)

    def test_matrix_shape_checked(self):
        doc = circuit_model_doc(3)
        doc["objective"] = {"kind": "next_cost", "matrix": [[0, 1], [1, 0]]}
        with pytest.raises(ModelError, match="matrix"):
            load_model(doc)

    @pytest.mark.parametrize(
        "cities, matrix, path",
        [
            (1, "[[NaN]]", "objective.matrix[0][0]"),
            (3, "[[0, 1, Infinity], [1, 0, 1], [1, 1, 0]]", "objective.matrix[0][2]"),
            (3, "[[0, 1, 1], [1e999, 0, 1], [1, 1, 0]]", "objective.matrix[1][0]"),  # loads as inf
        ],
        ids=["NaN on the diagonal", "Infinity", "1e999"],
    )
    def test_non_finite_costs_rejected(self, cities, matrix, path):
        # a non-finite cost would reach stdout as Infinity or NaN, neither of them JSON
        doc = circuit_model_doc(cities)
        doc["objective"] = {"kind": "next_cost", "matrix": "MATRIX"}
        with pytest.raises(ModelError, match="finite") as err:
            load_model(json.dumps(doc).replace('"MATRIX"', matrix))
        assert err.value.path == path

    @pytest.mark.parametrize(
        "matrix, path",
        [
            ("[[0, 1e308, 1e308, 1e308], [1e308, 0, 1e308, 1e308], [1e308, 1e308, 0, 1e308], [1e308, 1e308, 1e308, 0]]", "objective.matrix"),
            (f"[[0, {10**400}, 1.5, 1.5], [1.5, 0, 1.5, 1.5], [1.5, 1.5, 0, 1.5], [1.5, 1.5, 1.5, 0]]", "objective.matrix[0][1]"),
        ],
        ids=["finite entries, an infinite tour", "an integer beyond the float range"],
    )
    def test_tour_costs_overflowing_a_float_rejected(self, matrix, path):
        # each entry is a JSON number, but a tour's cost would be Infinity on stdout or an OverflowError
        doc = circuit_model_doc(4)
        doc["objective"] = {"kind": "next_cost", "matrix": "MATRIX"}
        with pytest.raises(ModelError, match="finite") as err:
            load_model(json.dumps(doc).replace('"MATRIX"', matrix))
        assert err.value.path == path

    def test_duplicate_domain_set_values(self):
        doc = circuit_model_doc(3)
        doc["variables"][0]["domain"] = {"set": [1, 2, 2]}
        with pytest.raises(ModelError, match="duplicate"):
            load_model(doc)

    def test_assignment_document_roundtrip(self):
        assignment = load_assignment('{"values": [2, 3, 1]}')
        assert assignment == (2, 3, 1)

    def test_non_identifier_alias(self):
        doc = circuit_model_doc(3)
        doc["constraints"][0]["alias"] = "a-b ne"
        with pytest.raises(ModelError) as err:
            load_model(doc)
        assert err.value.path == "constraints[0].alias"

    @pytest.mark.parametrize(
        "key, value, path",
        [
            ("domain", {"lo": True, "hi": 3}, "variables[0].domain"),
            ("domain", {"set": [True, 2, 3]}, "variables[0].domain"),
            ("objective", {"kind": "next_cost", "matrix": [[0, True, 1], [1, 0, 1], [1, 1, 0]]}, "objective.matrix[0][1]"),
            ("structural", False, "structural"),
        ],
    )
    def test_json_booleans_are_not_integers(self, key, value, path):
        doc = circuit_model_doc(3)
        (doc["variables"][0] if key == "domain" else doc)[key] = value
        with pytest.raises(ModelError) as err:
            load_model(doc)
        assert err.value.path == path

    @pytest.mark.parametrize("load", [load_model, load_assignment])
    def test_deeply_nested_json(self, load):
        with pytest.raises(ModelError, match="not valid JSON"):
            load("[" * 100_000)

    @pytest.mark.parametrize("load", [load_model, load_assignment])
    def test_undecodable_bytes(self, load):
        with pytest.raises(ModelError, match="not valid JSON"):
            load('{"values": [1, 2]}'.encode("utf-16-le")[:-1])

    @pytest.mark.parametrize("load", [load_model, load_assignment])
    def test_overlong_integer(self, load):
        with pytest.raises(ModelError, match="not valid JSON"):
            load(f'{{"values": [{overlong_digits()}]}}')

    def test_assignment_booleans_are_not_integers(self):
        with pytest.raises(ModelError, match="integers"):
            load_assignment('{"values": [true, 2, 3]}')

    @pytest.mark.parametrize("lo, hi", [(0, 10**6), (-(10**12), 10**12)])
    def test_oversized_interval_domain_rejected_before_it_is_built(self, lo, hi):
        doc = {"variables": [{"name": "a", "domain": {"lo": 1, "hi": 2}}, {"name": "b", "domain": {"lo": lo, "hi": hi}}]}
        with pytest.raises(ModelError, match="more than 1,000,000 values") as err:
            load_model(doc)
        assert err.value.path == "variables[1].domain"

    def test_interval_domains_bounded_in_total(self):
        # each interval is under the limit; the second crosses it in sum
        half = {"lo": 1, "hi": 600_000}
        doc = {"variables": [{"name": "a", "domain": half}, {"name": "b", "domain": half}]}
        with pytest.raises(ModelError, match="more than 1,000,000 values") as err:
            load_model(doc)
        assert err.value.path == "variables[1].domain"


JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# mostly near-misses of a tsp6 assignment, so each branch below is reached
ASSIGNMENT_DOCUMENTS = (
    st.fixed_dictionaries({"values": st.lists(st.integers(0, 7), min_size=5, max_size=7)})
    | st.fixed_dictionaries({"values": st.lists(st.integers(1, 6), min_size=6, max_size=6)})
    | st.fixed_dictionaries({"values": st.lists(JSON_LEAVES, max_size=7)})
    | JSON_VALUES
)


class TestAssignmentDocuments:
    @settings(max_examples=300, deadline=None)
    @given(document=ASSIGNMENT_DOCUMENTS, as_text=st.booleans())
    def test_load_validate_and_run_or_fail_cleanly(self, tsp6, two_opt, document, as_text):
        try:
            assignment = load_assignment(json.dumps(document) if as_text else document)
        except ModelError:
            return
        assert type(assignment) is tuple
        assert all(type(v) is int for v in assignment)
        try:
            tsp6.validate_assignment(assignment)
        except InfeasibleError:
            return
        result = neighbors(two_opt, tsp6, assignment, fuel=2_000)
        assert all(type(nb) is tuple for nb in result.assignments)


@st.composite
def model_documents(draw):
    """Routing or colouring documents of up to five variables; some with one value of another shape."""
    names = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True))
    n = len(names)
    groups = {"g": draw(st.permutations(names))}
    constraints = []
    if draw(st.booleans()):  # a tour: successor positions along g
        domains = st.sampled_from([{"lo": 1, "hi": n}, {"set": list(range(1, n + 1))}])
        constraints.append({"kind": "circuit", "scope": "g", "alias": "link"})
    else:
        domains = st.builds(lambda lo, size: {"lo": lo, "hi": lo + size}, st.integers(-1, 3), st.integers(0, 4)) | st.builds(
            lambda values: {"set": values}, st.lists(st.integers(0, 6), min_size=1, max_size=5, unique=True)
        )
    others = [st.fixed_dictionaries({"kind": st.just("all_different"), "scope": st.lists(st.sampled_from(names), min_size=1, unique=True)})]
    if n >= 2:
        pair = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
        others.append(st.fixed_dictionaries({"kind": st.just("not_equal"), "scope": pair}, optional={"alias": st.just("link")}))
    constraints += draw(st.lists(st.one_of(others), max_size=3))
    structural = 0 if constraints and constraints[0]["kind"] == "circuit" and draw(st.booleans()) else None
    objectives = [{"kind": "none"}, {"kind": "distinct_count", "group": "g"}]
    if structural is not None:
        objectives.append({"kind": "next_cost", "matrix": [[abs(r - c) for c in range(n)] for r in range(n)]})
    document = {
        "name": "fuzz",
        "variables": [{"name": name, "domain": draw(domains)} for name in names],
        "groups": groups,
        "constraints": constraints,
        "structural": structural,
        "objective": draw(st.sampled_from(objectives)),
    }
    if draw(st.sampled_from(range(5))) == 0:
        document[draw(st.sampled_from(sorted(document)))] = draw(JSON_VALUES)
    return document


class TestModelDocuments:
    """Every document loads or raises ModelError; every loaded model runs the pipeline to a documented outcome."""

    @settings(max_examples=400, deadline=None)
    @given(document=model_documents(), seed=st.integers(0, 3))
    def test_load_then_evolve_and_solve(self, document, seed):
        try:
            model = load_model(document)
        except ModelError:
            return
        programs = [parse("iterate(t0 - t1, t2, (swap_values(t0, t1)))")]
        try:
            report = evolve(model, EvolutionConfig(population_size=4, generations=1, seed=seed, fuel=2_000))
        except InfeasibleError:  # no feasible sample assignment
            return
        if report.best_program:
            programs.append(parse(report.best_program))
        for program in programs:
            try:
                result = solve(model, program, SearchConfig(restarts=1, seed=seed, fuel=2_000))
            except InfeasibleError:  # greedy colouring can fail from one seed's order and not another's
                continue
            except ValueError as exc:
                assert str(exc).startswith("program fails analysis: ")
                continue
            model.validate_assignment(result.best_assignment)
            assert is_feasible(model, result.best_assignment)

    @pytest.mark.parametrize(
        "document, codes",
        [
            ({"variables": [{"name": "a", "domain": {"lo": 1, "hi": 2}}]}, (0, 0, 0)),
            (
                {
                    "variables": [{"name": v, "domain": {"lo": 1, "hi": 1}} for v in "ab"],
                    "constraints": [{"kind": "not_equal", "scope": ["a", "b"]}],
                },
                (0, 1, 1),
            ),
            ({"variables": [{"name": "a", "domain": {"lo": 1, "hi": 2}}], "structural": 0}, (2, 2, 2)),
        ],
    )
    def test_cli_exit_codes(self, document, codes, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(document), encoding="utf-8")
        op = tmp_path / "op.ndl"
        op.write_text("iterate(t0 - t1, t2, (swap_values(t0, t1)))", encoding="utf-8")
        commands = [
            ["check", str(model)],
            ["synth", "--model", str(model), "--seed", "1", "--pop", "4", "--gens", "1"],
            ["solve", "--model", str(model), "--op", str(op), "--seed", "1", "--restarts", "1"],
        ]
        for command, code in zip(commands, codes):
            proc = subprocess.run([sys.executable, "-m", "noodle", *command], capture_output=True, text=True, env=CLI_ENV, timeout=300)
            assert proc.returncode == code, proc.stderr
            if code:
                assert proc.stdout == "" and proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class TestCheck:
    def test_circuit_true_on_full_cycle(self, tsp4):
        assert tsp4.constraints[0].satisfied((2, 3, 4, 1)) is True

    def test_circuit_false_on_two_cycles(self, tsp4):
        assert tsp4.constraints[0].satisfied((2, 1, 4, 3)) is False

    def test_not_equal_false_on_equal_values(self, triangle):
        assert triangle.constraints[0].satisfied((1, 1, 2)) is False


class TestViolations:
    def test_triangle_all_same_color(self, triangle):
        assert violations(triangle, (1, 1, 1)) == {"not_equal"}

    def test_feasible_tour(self, tsp4):
        assert violations(tsp4, (2, 3, 4, 1)) == set()

    def test_short_cycle_counts_once(self, tsp4):
        # 1->2->3->1 covers only three of four positions
        assert violations(tsp4, (2, 3, 1, 1)) == {"circuit"}

    def test_names_only_the_broken_kinds(self):
        names = ["v1", "v2", "v3", "v4"]
        doc = circuit_model_doc(4)
        doc["constraints"] += [{"kind": "all_different", "scope": names}, {"kind": "not_equal", "scope": names[:2]}]
        model = load_model(doc)
        assert violations(model, (2, 1, 4, 3)) == {"circuit"}
        assert violations(model, (1, 1, 2, 3)) == {"circuit", "all_different", "not_equal"}
        assert violations(model, (2, 3, 4, 1)) == set()


def tours(model):
    """Every assignment of the model that satisfies its structural circuit."""
    circuit = model.structural_constraint()
    for values in itertools.product(*(sorted(v.domain) for v in model.variables)):
        if circuit.satisfied(values):
            yield values


def tsp6_with(key, entry):
    """tsp6 with one more entry in its document's ``key`` list."""
    document = json.loads(fixture_text("tsp6.json"))
    document[key].append(entry)
    return load_model(document)


class TestSymmetric:
    """Model.symmetric against reference_automorphic, which tries every renumbering of the circuit positions."""

    @pytest.mark.parametrize("fixture", ["tsp4", "circuit3"])
    def test_every_tour_pair_is_related(self, fixture, request):
        model = request.getfixturevalue(fixture)
        assert model.symmetric
        every = list(tours(model))
        assert all(reference_automorphic(model, a, b) for a, b in itertools.product(every, repeat=2))

    @pytest.mark.parametrize("fixture", ["tsp6", "tsp6_full"])
    def test_sampled_tour_pairs_are_related(self, fixture, request):
        model = request.getfixturevalue(fixture)
        assert model.symmetric
        sampled = [seed_assignment(model, seed) for seed in range(8)]
        assert all(reference_automorphic(model, a, b) for a, b in itertools.combinations(sampled, 2))

    def test_solve_tsp20_instance(self):
        from tests.test_seeded_output import perfbench_workloads

        workloads = perfbench_workloads()
        assert load_model(workloads.tsp_document(workloads.TSP_INSTANCE_SEED)).symmetric

    @pytest.mark.parametrize(
        "model, a, b",
        [
            # n1 without 5: a relabelling must fix positions 1 and 5
            (narrowed_tsp6(0, (2, 3, 4, 6)), (2, 3, 4, 5, 6, 1), (2, 5, 4, 6, 3, 1)),
            # a seventh variable outside the circuit: relabelling fixes the values 7 and 8
            (tsp6_with("variables", {"name": "x", "domain": {"lo": 1, "hi": 8}}), (2, 3, 4, 5, 6, 1, 7), (2, 3, 4, 5, 6, 1, 8)),
            # the all_different ties n1 to c1 and c2, whose values must stay among 1..3
            (load_model(CIRCUIT_WITH_ALL_DIFFERENT), (2, 3, 4, 5, 1, 1, 3), (2, 3, 4, 5, 1, 3, 1)),
            # a not_equal on n1 and n2, which a tour always satisfies: positions 1 and 2 must stay
            # a pair, adjacent along the first tour and not along the second
            (tsp6_with("constraints", {"kind": "not_equal", "scope": ["n1", "n2"]}), (2, 3, 4, 5, 6, 1), (3, 4, 2, 5, 6, 1)),
        ],
        ids=["narrowed-domain", "extra-variable", "circuit-with-all-different", "extra-constraint"],
    )
    def test_asymmetric_models(self, model, a, b):
        assert not model.symmetric
        assert is_feasible(model, a) and is_feasible(model, b)
        model.validate_assignment(a)
        model.validate_assignment(b)
        assert not reference_automorphic(model, a, b)

    def test_no_structural_circuit(self, triangle):
        assert not triangle.symmetric
        document = json.loads(fixture_text("tsp6.json"))
        del document["structural"], document["objective"]
        assert not load_model(document).symmetric


class TestRelationPairs:
    def test_circuit_successor_relation(self, tsp4):
        pairs = set(tsp4.constraints[0].pairs((2, 3, 4, 1)))
        assert pairs == {(1, 2), (2, 3), (3, 4), (4, 1)}

    def test_circuit_value_outside_positions_has_no_successor(self, tsp4):
        pairs = set(tsp4.constraints[0].pairs((0, 3, 4, 1)))
        assert pairs == {(2, 3), (3, 4), (4, 1)}

    def test_all_different_conflict_pairs(self):
        doc = {
            "name": "ad",
            "variables": [{"name": f"v{i}", "domain": {"lo": 1, "hi": 3}} for i in range(1, 4)],
            "groups": {"g": ["v1", "v2", "v3"]},
            "constraints": [{"kind": "all_different", "scope": "g"}],
        }
        model = load_model(doc)
        pairs = set(model.constraints[0].pairs((1, 2, 2)))
        assert pairs == {(2, 3), (3, 2)}

    def test_not_equal_static_pair(self, triangle):
        constraint = triangle.constraints[0]
        a, b = constraint.scope
        for values in [(1, 2, 3), (1, 1, 1), (3, 2, 1)]:
            assert set(constraint.pairs(values)) == {(a, b), (b, a)}

    @given(values=st.lists(st.integers(1, 4), min_size=4, max_size=4))
    def test_all_different_relation_symmetric(self, values):
        doc = {
            "name": "ad",
            "variables": [{"name": f"v{i}", "domain": {"lo": 1, "hi": 4}} for i in range(1, 5)],
            "groups": {"g": [f"v{i}" for i in range(1, 5)]},
            "constraints": [{"kind": "all_different", "scope": "g"}],
        }
        model = load_model(doc)
        pairs = set(model.constraints[0].pairs(tuple(values)))
        assert {(b, a) for a, b in pairs} == pairs


    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 6), data=st.data())
    def test_pairs_never_repeat(self, n, data):
        names = [f"v{i}" for i in range(1, n + 1)]
        doc = {
            "name": "mixed",
            "variables": [{"name": v, "domain": {"lo": 1, "hi": n}} for v in names],
            "constraints": [
                {"kind": "circuit", "scope": names},
                {"kind": "all_different", "scope": names},
                {"kind": "not_equal", "scope": names[:2]},
            ],
        }
        values = tuple(data.draw(st.integers(0, n + 1)) for _ in range(n))
        for constraint in load_model(doc).constraints:
            pairs = constraint.pairs(values)
            assert len(pairs) == len(set(pairs))

    @settings(max_examples=300, deadline=None)
    @given(total=st.integers(2, 7), data=st.data())
    def test_holds_is_membership_in_pairs(self, total, data):
        # scopes are drawn subsets in drawn order, so some ids fall outside
        # them; every id pair is asked, a == b included
        names = [f"v{i}" for i in range(1, total + 1)]
        scope = data.draw(st.lists(st.sampled_from(names), min_size=2, max_size=total, unique=True))
        doc = {
            "name": "mixed",
            "variables": [{"name": v, "domain": {"lo": 1, "hi": len(scope)}} for v in names],
            "constraints": [
                {"kind": "circuit", "scope": scope},
                {"kind": "all_different", "scope": scope},
                {"kind": "not_equal", "scope": scope[:2]},
            ],
        }
        values = tuple(data.draw(st.integers(0, len(scope) + 1)) for _ in names)
        for constraint in load_model(doc).constraints:
            pairs = set(constraint.pairs(values))
            for a, b in itertools.product(range(1, total + 1), repeat=2):
                assert constraint.holds(values, a, b) == ((a, b) in pairs), (constraint.kind, a, b)

    @settings(max_examples=300, deadline=None)
    @given(total=st.integers(2, 7), data=st.data())
    def test_circuit_test_after_a_redirect(self, total, data):
        # redirect(a, b) then constraint(S, a, c), S the structural circuit alone: the
        # interpreter passes the test iff a is in the walk scope and c is b, before it
        # writes the state; that is the circuit's holds on the redirected state
        names = [f"v{i}" for i in range(1, total + 1)]
        scope = data.draw(st.lists(st.sampled_from(names), min_size=2, max_size=total, unique=True))
        model = load_model({
            "name": "circuit",
            "variables": [{"name": v, "domain": {"lo": 1, "hi": len(scope)}} for v in names],
            "constraints": [{"kind": "circuit", "scope": scope}],
            "structural": 0,
        })
        circuit, walk_pos = model.structural_constraint(), model.walk_positions()
        values = tuple(data.draw(st.integers(0, len(scope) + 1)) for _ in names)
        for a, b, c in itertools.product(range(1, total + 1), repeat=3):
            if b not in walk_pos:  # the redirect fails before the test
                continue
            redirected = list(values)
            redirected[a - 1] = walk_pos[b]
            assert (a in walk_pos and c == b) == circuit.holds(redirected, a, c), (a, b, c)


class TestCircuitAgainstCycleOracle:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(3, 8), data=st.data())
    def test_check_iff_single_cycle(self, n, data):
        model = load_model(circuit_model_doc(n))
        values = tuple(data.draw(st.integers(1, n)) for _ in range(n))
        assert model.constraints[0].satisfied(values) == (successor_cycles(values) == 1)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(3, 8), data=st.data())
    def test_check_iff_relation_pairs_form_one_covering_cycle(self, n, data):
        model = load_model(circuit_model_doc(n))
        values = tuple(data.draw(st.integers(1, n)) for _ in range(n))
        pairs = set(model.constraints[0].pairs(values))
        succ = dict(pairs)
        node, seen = 1, set()
        while node not in seen:
            seen.add(node)
            node = succ[node]
        single_cover = node == 1 and len(seen) == n and len(pairs) == n
        assert model.constraints[0].satisfied(values) == single_cover

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(3, 6), data=st.data())
    def test_violations_zero_iff_all_checks_pass(self, n, data):
        model = load_model(circuit_model_doc(n))
        values = tuple(data.draw(st.integers(1, n)) for _ in range(n))
        all_ok = all(c.satisfied(values) for c in model.constraints)
        assert (violations(model, values) == set()) == all_ok


class TestDistinctnessAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 6), data=st.data())
    def test_all_different_check_iff_pairwise_distinct(self, n, data):
        doc = {
            "name": "ad",
            "variables": [{"name": f"v{i}", "domain": {"lo": 1, "hi": n}} for i in range(1, n + 1)],
            "constraints": [{"kind": "all_different", "scope": [f"v{i}" for i in range(1, n + 1)]}],
        }
        model = load_model(doc)
        values = tuple(data.draw(st.integers(1, n)) for _ in range(n))
        distinct = all(x != y for x, y in itertools.combinations(values, 2))
        assert model.constraints[0].satisfied(values) == distinct

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 5), data=st.data())
    def test_not_equal_check_iff_scope_values_differ(self, n, data):
        a, b = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        doc = {
            "name": "ne",
            "variables": [{"name": f"v{i}", "domain": {"lo": 1, "hi": 3}} for i in range(1, n + 1)],
            "constraints": [{"kind": "not_equal", "scope": [f"v{a}", f"v{b}"]}],
        }
        model = load_model(doc)
        values = tuple(data.draw(st.integers(1, 3)) for _ in range(n))
        assert model.constraints[0].satisfied(values) == (values[a - 1] != values[b - 1])


class TestObjective:
    def test_four_city_optimal_tour_costs_4(self, tsp4):
        assert objective(tsp4, (2, 3, 4, 1)) == 4

    def test_four_city_cross_tour_costs_6(self, tsp4):
        assert objective(tsp4, (3, 4, 2, 1)) == 6

    def test_4_is_the_exhaustive_minimum(self, tsp4):
        from tests.oracles import best_tour_cost

        assert best_tour_cost(tsp4.objective.matrix) == 4

    def test_distinct_count(self, triangle):
        assert objective(triangle, (1, 2, 1)) == 2

    @given(perm=st.permutations(range(4)), tour=st.permutations(range(2, 5)))
    def test_relabeling_invariance(self, perm, tour):
        # permuting variables and the cost matrix together leaves the cost alone
        base = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
        relabeled = [[base[perm[i]][perm[j]] for j in range(4)] for i in range(4)]
        doc_a = circuit_model_doc(4)
        doc_a["objective"] = {"kind": "next_cost", "matrix": base}
        doc_b = circuit_model_doc(4)
        doc_b["objective"] = {"kind": "next_cost", "matrix": relabeled}
        model_a, model_b = load_model(doc_a), load_model(doc_b)

        path = [1, *tour]
        values = [0] * 4
        for k, city in enumerate(path):
            values[city - 1] = path[(k + 1) % 4]
        inverse = {perm[i]: i for i in range(4)}
        relabeled_values = [0] * 4
        for i in range(4):
            relabeled_values[inverse[i]] = inverse[values[i] - 1] + 1
        cost_a = objective(model_a, tuple(values))
        cost_b = objective(model_b, tuple(relabeled_values))
        assert cost_a == cost_b


class TestSeedAssignment:
    def test_circuit_model_always_feasible(self, tsp6):
        for seed in range(25):
            assignment = seed_assignment(tsp6, seed)
            assert violations(tsp6, assignment) == set()

    def test_path_coloring_never_needs_third_color(self, path5):
        for seed in range(200):
            assignment = seed_assignment(path5, seed)
            assert is_feasible(path5, assignment)
            assert len(set(assignment)) <= 2

    def test_connected_greedy_orders_stay_bipartite_on_path(self):
        # oracle: greedy over every connected order of the 5-path stays at 2 colors
        adjacency = {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3, 5}, 5: {4}}
        worst = 0
        for order in itertools.permutations(range(1, 6)):
            connected = all(
                any(w in order[:k] for w in adjacency[order[k]]) for k in range(1, 5)
            )
            if not connected:
                continue
            colors = greedy_coloring(list(order), adjacency)
            worst = max(worst, max(colors.values()))
        assert worst == 2

    def test_same_seed_same_assignment(self, tsp6, path5):
        for model in (tsp6, path5):
            assert seed_assignment(model, 7) == seed_assignment(model, 7)

    def test_infeasible_when_domain_too_small(self):
        doc = {
            "name": "tight",
            "variables": [{"name": v, "domain": {"lo": 1, "hi": 1}} for v in ("a", "b")],
            "constraints": [{"kind": "not_equal", "scope": ["a", "b"]}],
        }
        model = load_model(doc)
        with pytest.raises(InfeasibleError, match="infeasible seed"):
            seed_assignment(model, 0)

    def test_triangle_uses_three_colors(self, triangle):
        for seed in range(20):
            assignment = seed_assignment(triangle, seed)
            assert is_feasible(triangle, assignment)
            assert objective(triangle, assignment) == 3
