import importlib.util
import json
import os
import subprocess
import sys

import pytest

from tests.conftest import FIXTURES, ROOT, fixture_text, nested_iterates, overlong_digits


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "noodle", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def fixture(name):
    return str(FIXTURES / name)


class TestCheck:
    def test_valid_model_exits_zero(self):
        proc = run_cli("check", fixture("tsp4.json"))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["variables"] == 4
        assert payload["constraints"] == {"circuit": 1}

    def test_structural_is_the_document_index(self):
        proc = run_cli("check", fixture("tsp6.json"))
        assert json.loads(fixture_text("tsp6.json"))["structural"] == 0
        assert json.loads(proc.stdout)["structural"] == 0
        proc = run_cli("check", fixture("coloring_triangle.json"))
        assert json.loads(proc.stdout)["structural"] is None

    def test_schema_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "variables": [{"name": "a", "domain": {"lo": 5, "hi": 2}}]}')
        proc = run_cli("check", str(bad))
        assert proc.returncode == 2
        assert "empty domain" in proc.stderr
        assert proc.stdout == ""

    def test_missing_file_exits_two(self):
        proc = run_cli("check", "no-such-file.json")
        assert proc.returncode == 2

    def test_deeply_nested_document_exits_two(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        proc = run_cli("check", str(deep))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.rstrip("\n")]
        assert proc.stderr.startswith(f"error: {deep}: not valid JSON")

    def test_oversized_interval_domain_exits_two(self, tmp_path):
        model = tmp_path / "huge.json"
        model.write_text(json.dumps({"variables": [{"name": "a", "domain": {"lo": 1, "hi": 10**12}}]}))
        proc = run_cli("check", str(model))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.rstrip("\n")]
        assert proc.stderr.startswith(f"error: {model}: variables[0].domain: interval domain has more than")

    def test_interval_domains_over_the_total_exit_two(self, tmp_path):
        model = tmp_path / "wide.json"
        half = {"lo": 1, "hi": 600_000}
        model.write_text(json.dumps({"variables": [{"name": "a", "domain": half}, {"name": "b", "domain": half}]}))
        proc = run_cli("check", str(model))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: {model}: variables[1].domain: interval domain has more than")

    def test_non_utf8_model_exits_two(self, tmp_path):
        model = tmp_path / "latin1.json"
        model.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        proc = run_cli("check", str(model))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.rstrip("\n")]
        assert proc.stderr.startswith(f"error: cannot read {model}: not UTF-8")


class TestParse:
    def test_prints_canonical_form(self):
        proc = run_cli("parse", fixture("two_opt.ndl"))
        assert proc.returncode == 0
        assert proc.stdout.startswith("constraint(all_diff_next, t0, t1), ")

    def test_syntax_error_one_line_with_position(self, tmp_path):
        bad = tmp_path / "bad.ndl"
        bad.write_text("swap_values(t0, t1),\nshuffle(t2)\n")
        proc = run_cli("parse", str(bad))
        assert proc.returncode == 2
        diagnostic_lines = [line for line in proc.stderr.splitlines() if line]
        assert len(diagnostic_lines) == 1
        assert ":2:1:" in diagnostic_lines[0]

    def test_iterate_nesting_past_limit_exits_two(self, tmp_path):
        from noodle.lang.parser import MAX_ITERATE_NESTING

        deep = tmp_path / "deep.ndl"
        deep.write_text(nested_iterates(MAX_ITERATE_NESTING + 1))
        proc = run_cli("parse", str(deep))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")
        assert "nested more than" in proc.stderr


    def test_overlong_variable_index_exits_two(self, tmp_path):
        op = tmp_path / "long.ndl"
        op.write_text(f"swap_values(t0, t{overlong_digits()})")
        proc = run_cli("parse", str(op))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {op}:1:17: program variable index too long in swap_values\n"

    def test_non_utf8_operator_exits_two(self, tmp_path):
        op = tmp_path / "latin1.ndl"
        op.write_bytes(b"swap_values(t0, t1) \xa7")
        proc = run_cli("parse", str(op))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.rstrip("\n")]
        assert proc.stderr.startswith(f"error: cannot read {op}: not UTF-8")


class TestGrammar:
    def test_prints_bnf(self):
        proc = run_cli("grammar", "--model", fixture("tsp6.json"))
        assert proc.returncode == 0
        assert '<cname> ::= "all_diff_next"' in proc.stdout
        assert proc.stdout.count('"t5"') == 1

    def test_budget_flag(self):
        proc = run_cli("grammar", "--model", fixture("tsp6.json"), "--budget", "3")
        assert '"t2"' in proc.stdout
        assert '"t3"' not in proc.stdout

    def test_budget_of_one_per_codon(self):
        # codons are 0..255, so a genome can select t255 but never t256
        proc = run_cli("grammar", "--model", fixture("tsp6.json"), "--budget", "256")
        assert proc.returncode == 0
        assert '"t255"' in proc.stdout
        assert '"t256"' not in proc.stdout


class TestNeighbors:
    def test_line_count_matches_library(self, circuit3, swap_pair):
        from noodle.lang.interp import neighbors

        expected = neighbors(swap_pair, circuit3, (2, 3, 1))
        proc = run_cli(
            "neighbors",
            "--model", fixture("circuit3.json"),
            "--assignment", fixture("tour3.json"),
            "--op", fixture("swap_pair.ndl"),
        )
        assert proc.returncode == 0
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(lines) == len(expected) == 3
        assert [tuple(entry["values"]) for entry in lines] == list(expected.assignments)

    def test_long_conjunction_exits_zero(self, tmp_path):
        op = tmp_path / "long.ndl"
        op.write_text(", ".join(["constraint(circuit, t0, t1)"] * 1500 + ["swap_values(t0, t1)"]))
        proc = run_cli(
            "neighbors",
            "--model", fixture("circuit3.json"),
            "--assignment", fixture("tour3.json"),
            "--op", str(op),
        )
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 3

    def test_strict_truncation_exits_one(self):
        proc = run_cli(
            "neighbors",
            "--model", fixture("tsp6.json"),
            "--assignment", fixture("tour6.json"),
            "--op", fixture("two_opt.ndl"),
            "--fuel", "10",
            "--strict",
        )
        assert proc.returncode == 1
        assert "truncated" in proc.stderr

    def test_truncation_without_strict_warns_only(self):
        proc = run_cli(
            "neighbors",
            "--model", fixture("tsp6.json"),
            "--assignment", fixture("tour6.json"),
            "--op", fixture("two_opt.ndl"),
            "--fuel", "10",
        )
        assert proc.returncode == 0
        assert "truncated" in proc.stderr

    def test_deeply_nested_assignment_exits_two(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        proc = run_cli(
            "neighbors",
            "--model", fixture("tsp6.json"),
            "--assignment", str(deep),
            "--op", fixture("two_opt.ndl"),
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.rstrip("\n")]
        assert proc.stderr.startswith(f"error: {deep}: not valid JSON")

    def test_analyzer_errors_exit_one(self, tmp_path):
        op = tmp_path / "bad.ndl"
        op.write_text("swap_values(t0, t1)\n")
        proc = run_cli(
            "neighbors",
            "--model", fixture("circuit3.json"),
            "--assignment", fixture("tour3.json"),
            "--op", str(op),
        )
        assert proc.returncode == 1
        assert "UNBOUND_EFFECT" in proc.stderr


class TestSolve:
    def test_result_json_and_determinism(self):
        args = (
            "solve",
            "--model", fixture("tsp6.json"),
            "--op", fixture("two_opt.ndl"),
            "--seed", "5",
            "--restarts", "3",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert len(payload["restarts"]) == 3
        assert payload["best_objective"] == min(t["objective"] for t in payload["restarts"])

    def test_non_finite_cost_exits_two(self, tmp_path):
        model = json.loads(fixture_text("tsp4.json"))
        model["objective"]["matrix"][0][2] = float("inf")
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        proc = run_cli("solve", "--model", str(path), "--op", fixture("two_opt.ndl"), "--seed", "1")
        assert proc.returncode == 2
        assert proc.stdout == "" and "objective.matrix[0][2]" in proc.stderr and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("fill, entry, path", [(1e308, 1e308, "objective.matrix"), (1.5, 10**400, "objective.matrix[0][2]")], ids=["sum", "entry"])
    def test_overflowing_tour_cost_exits_two(self, tmp_path, fill, entry, path):
        # every off-diagonal 1e308 sums to Infinity; an integer past the float range cannot be summed with 1.5
        model = json.loads(fixture_text("tsp4.json"))
        model["objective"]["matrix"] = [[0 if r == c else fill for c in range(4)] for r in range(4)]
        model["objective"]["matrix"][0][2] = entry
        model_path = tmp_path / "overflow.json"
        model_path.write_text(json.dumps(model), encoding="utf-8")
        proc = run_cli("solve", "--model", str(model_path), "--op", fixture("two_opt.ndl"), "--seed", "1")
        assert proc.returncode == 2
        assert proc.stdout == "" and f"{path}:" in proc.stderr and proc.stderr.count("\n") == 1


class TestSynth:
    def test_report_written_and_deterministic(self, tmp_path):
        out = tmp_path / "best.ndl"
        report_path = tmp_path / "report.json"
        args = (
            "synth",
            "--model", fixture("tsp6.json"),
            "--seed", "3",
            "--pop", "30",
            "--gens", "3",
            "--out", str(out),
            "--report", str(report_path),
        )
        first = run_cli(*args)
        assert first.returncode == 0
        payload = json.loads(first.stdout)
        assert report_path.read_text() == first.stdout
        assert out.read_text().strip() == payload["best"]["program"]
        second = run_cli(*args)
        assert second.stdout == first.stdout

    def test_model_without_constraints(self, tmp_path):
        model = tmp_path / "free.json"
        model.write_text(json.dumps({"variables": [{"name": n, "domain": {"lo": 1, "hi": 3}} for n in ("a", "b")]}))
        proc = run_cli("synth", "--model", str(model), "--seed", "1", "--pop", "20", "--gens", "3")
        assert proc.returncode == 0, proc.stderr
        json.loads(proc.stdout)

    def test_budget_of_one_per_codon(self):
        proc = run_cli("synth", "--model", fixture("tsp6.json"), "--seed", "1", "--budget", "256", "--pop", "4", "--gens", "1")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["config"]["var_budget"] == 256

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_output_exits_two_before_evolving(self, tmp_path, flag, target):
        path = tmp_path / "missing" / "x.out" if target == "missing-directory" else tmp_path
        proc = run_cli("synth", "--model", fixture("tsp6.json"), "--seed", "1", "--pop", "4", "--gens", "1", flag, str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.rstrip("\n")]
        assert proc.stderr.startswith(f"error: cannot write {path}: ")

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_write_failure_exits_one_naming_the_path(self, flag):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full to fail writes")
        proc = run_cli("synth", "--model", fixture("tsp6.json"), "--seed", "1", "--pop", "4", "--gens", "1", flag, "/dev/full")
        assert proc.returncode == 1
        json.loads(proc.stdout)  # the report still goes to stdout
        assert proc.stderr.splitlines() == [proc.stderr.rstrip("\n")]
        assert proc.stderr.startswith("error: cannot write /dev/full: ")

    @pytest.mark.parametrize("limit, code", [(("--cap", "2"), 1), (("--fuel", "100"), 0)])
    def test_strict_exits_one_when_a_generation_best_truncates(self, limit, code):
        # at cap 2 every generation's best hits the cap; at fuel 100 no generation's best truncates
        proc = run_cli("synth", "--model", fixture("tsp6.json"), "--seed", "1", "--pop", "50", "--gens", "5", *limit, "--strict")
        assert proc.returncode == code, proc.stderr
        json.loads(proc.stdout)

    def test_thread_env_validated(self):
        proc = run_cli(
            "synth",
            "--model", fixture("tsp6.json"),
            "--seed", "1",
            "--pop", "10",
            "--gens", "1",
            env_extra={"NOODLE_THREADS": "bogus"},
        )
        assert proc.returncode == 2
        assert "NOODLE_THREADS" in proc.stderr


class TestMisc:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.startswith("noodle ")

    def test_usage_error_exit_code(self):
        proc = run_cli("synth", "--model", fixture("tsp6.json"))  # missing --seed
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("synth", "--model", fixture("tsp6.json"), "--seed", "1", "--pop", "0"),
            ("synth", "--model", fixture("tsp6.json"), "--seed", "1", "--budget", "1"),
            ("grammar", "--model", fixture("tsp6.json"), "--budget", "1"),
            ("solve", "--model", fixture("tsp6.json"), "--op", fixture("two_opt.ndl"), "--seed", "1", "--restarts", "-1"),
            ("neighbors", "--model", fixture("tsp6.json"), "--assignment", fixture("tour6.json"), "--op", fixture("two_opt.ndl"), "--cap", "-1"),
            ("neighbors", "--model", fixture("tsp6.json"), "--assignment", fixture("tour6.json"), "--op", fixture("two_opt.ndl"), "--fuel", "-3"),
            ("neighbors", "--model", fixture("tsp6.json"), "--assignment", fixture("tour6.json"), "--op", fixture("two_opt.ndl"), "--budget", "0"),
        ],
    )
    def test_config_errors_exit_two_with_one_line(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "args, flag",
        [
            (("synth", "--pop", "0"), "--pop"),
            (("synth", "--samples", "0"), "--samples"),
            (("synth", "--genome-length", "0"), "--genome-length"),
            (("synth", "--budget", "1"), "--budget"),
            (("synth", "--cap", "-1"), "--cap"),
            (("synth", "--fuel", "-1"), "--fuel"),
            (("grammar", "--budget", "1"), "--budget"),
            (("solve", "--op", fixture("two_opt.ndl"), "--restarts", "-1"), "--restarts"),
            (("solve", "--op", fixture("two_opt.ndl"), "--max-steps", "-1"), "--max-steps"),
            (("solve", "--op", fixture("two_opt.ndl"), "--cap", "-1"), "--cap"),
            (("solve", "--op", fixture("two_opt.ndl"), "--fuel", "-1"), "--fuel"),
            (("neighbors", "--assignment", fixture("tour6.json"), "--op", fixture("two_opt.ndl"), "--budget", "0"), "--budget"),
            (("grammar", "--budget", "257"), "--budget"),
            (("synth", "--budget", "257", "--pop", "4", "--gens", "1"), "--budget"),
        ],
    )
    def test_range_errors_name_the_flag(self, args, flag):
        command, *rest = args
        seed = ("--seed", "1") if command in ("synth", "solve") else ()
        proc = run_cli(command, "--model", fixture("tsp6.json"), *seed, *rest)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.rstrip("\n")]
        assert proc.stderr.startswith(f"error: {flag} must be ")

    def test_public_surface(self):
        import re

        import noodle

        assert sorted(noodle.__all__) == [
            "EvolutionConfig", "ModelError", "ParseError", "SearchConfig", "analyze", "evaluate_fitness",
            "evolve", "load_model", "parse", "seed_assignment", "solve",
        ]
        used = set()
        for path in [ROOT / "perfbench" / "workloads.py", *sorted((ROOT / "scripts").glob("*.py"))]:
            text = path.read_text(encoding="utf-8")
            used.update(re.findall(r"\bnoodle\.(\w+)", text))
            for names in re.findall(r"^from noodle import (\([^)]*\)|.*)", text, re.MULTILINE):
                used.update(re.findall(r"\w+", names))
        assert "evaluate_fitness" in used
        assert used <= set(noodle.__all__)

    def test_scripts_run(self):
        for script, *args in (
            ("synth_and_solve.py", "--pop", "4", "--gens", "1", "--restarts", "1"),
            ("scan_seeds.py", "--seeds", "1", "--pop", "4", "--gens", "1"),
        ):
            command = [sys.executable, str(ROOT / "scripts" / script), *args]
            proc = subprocess.run(command, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, f"{script}: {proc.stderr}"

    def test_make_fixtures_reproduces_the_committed_fixtures(self, tmp_path):
        spec = importlib.util.spec_from_file_location("make_fixtures", ROOT / "scripts" / "make_fixtures.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        script.FIXTURES = tmp_path
        script.main()
        written = sorted(path.name for path in tmp_path.iterdir())
        # scripts/scan_seeds.py chose the one fixture this script does not write
        assert written == sorted(path.name for path in FIXTURES.iterdir() if path.name != "rediscovery_seeds.json")
        for name in written:
            assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name

    def test_stdout_machine_parseable_everywhere(self):
        proc = run_cli("check", fixture("coloring_triangle.json"))
        json.loads(proc.stdout)
