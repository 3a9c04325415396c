"""Command-line entry point wiring the pipeline end to end.

Machine-readable data (JSON, JSON lines, NDL text, BNF text) goes to
stdout; all human-facing diagnostics go to stderr.  Exit codes: 0 on
success, 1 on runtime failures (infeasible inputs; a failed output write;
truncation under --strict), 2 on usage, parse, or schema errors.
Truncation by fuel or neighbor caps is a warning by default so that
synthesis runs tolerate expensive candidates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack, contextmanager

from noodle import __version__
from noodle.evolution import EvolutionConfig, evolve
from noodle.grammar import derive_grammar, render_grammar
from noodle.lang.analyzer import DEFAULT_VAR_BUDGET, analyze
from noodle.lang.ast import render
from noodle.lang.interp import DEFAULT_CAP, DEFAULT_FUEL, neighbors
from noodle.lang.parser import ParseError, parse
from noodle.model import InfeasibleError, ModelError, load_assignment, load_model
from noodle.search import SearchConfig, solve

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}", EXIT_USAGE) from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})", EXIT_USAGE) from exc


def _open_output(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}", EXIT_USAGE) from exc


def _load_model(path: str):
    try:
        return load_model(_read_file(path))
    except ModelError as exc:
        raise CliError(f"{path}: {exc}", EXIT_USAGE) from exc


def _load_program(path: str):
    try:
        return parse(_read_file(path))
    except ParseError as exc:
        raise CliError(f"{path}:{exc.line}:{exc.column}: {exc.message}", EXIT_USAGE) from exc


def _thread_cap() -> int:
    """Parallelism cap from NOODLE_THREADS (0 = auto).

    Evaluations and restarts are pure and independently parallelizable;
    the current implementation runs them sequentially, which always
    respects the cap and keeps reports bit-reproducible.
    """
    raw = os.environ.get("NOODLE_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        raise CliError(f"NOODLE_THREADS must be an integer, got {raw!r}", EXIT_USAGE)
    if value < 0:
        raise CliError("NOODLE_THREADS must be non-negative", EXIT_USAGE)
    return value


# the flag that sets each config field (or grammar budget) a range error names
_FLAGS = {
    "population_size": "--pop", "generations": "--gens", "sample_count": "--samples",
    "genome_length": "--genome-length", "var_budget": "--budget", "budget": "--budget",
    "inspection_cap": "--cap", "neighbor_cap": "--cap", "restarts": "--restarts",
    "max_steps": "--max-steps", "fuel": "--fuel",
}


@contextmanager
def _usage_errors():
    """Report a ``ValueError`` from building a config or a grammar as a usage error, naming the flag."""
    try:
        yield
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        raise CliError(f"{_FLAGS.get(name, name)} {rest}", EXIT_USAGE) from exc


def _emit(data) -> None:
    sys.stdout.write(json.dumps(data, sort_keys=True) + "\n")


def cmd_check(args) -> int:
    model = _load_model(args.model)
    kinds: dict[str, int] = {}
    for c in model.constraints:
        kinds[c.kind] = kinds.get(c.kind, 0) + 1
    _emit(
        {
            "name": model.name,
            "variables": len(model.variables),
            "groups": sorted(model.groups),
            "constraints": kinds,
            "structural": model.structural,
            "objective": model.objective.kind,
        }
    )
    return EXIT_OK


def cmd_parse(args) -> int:
    program = _load_program(args.ndl)
    sys.stdout.write(render(program) + "\n")
    return EXIT_OK


def cmd_grammar(args) -> int:
    model = _load_model(args.model)
    with _usage_errors():
        grammar = derive_grammar(model, budget=args.budget)
    sys.stdout.write(render_grammar(grammar))
    return EXIT_OK


def cmd_neighbors(args) -> int:
    for flag, value in (("--fuel", args.fuel), ("--cap", args.cap)):
        if value < 0:
            raise CliError(f"{flag} must be non-negative", EXIT_USAGE)
    if args.budget < 1:
        raise CliError("--budget must be at least 1", EXIT_USAGE)
    model = _load_model(args.model)
    program = _load_program(args.op)
    try:
        assignment = load_assignment(_read_file(args.assignment))
        model.validate_assignment(assignment)
    except (ModelError, InfeasibleError) as exc:
        raise CliError(f"{args.assignment}: {exc}", EXIT_USAGE) from exc
    diagnostics = analyze(program, model, budget=args.budget)
    if not diagnostics.ok:
        for d in diagnostics.errors:
            print(f"error[{d.code}]: {d.message}", file=sys.stderr)
        return EXIT_RUNTIME
    result = neighbors(program, model, assignment, fuel=args.fuel, cap=args.cap)
    for nb in result.assignments:
        _emit({"values": list(nb)})
    if result.truncated:
        print("warning: neighborhood truncated (fuel or cap exhausted)", file=sys.stderr)
        if args.strict:
            return EXIT_RUNTIME
    return EXIT_OK


def cmd_synth(args) -> int:
    _thread_cap()
    model = _load_model(args.model)
    with _usage_errors():
        config = EvolutionConfig(
            population_size=args.pop,
            generations=args.gens,
            sample_count=args.samples,
            inspection_cap=args.cap,
            fuel=args.fuel,
            seed=args.seed,
            genome_length=args.genome_length,
            var_budget=args.budget,
        )
    with ExitStack() as files:
        # opened before evolving, so an unwritable path costs no evolution
        report_file = files.enter_context(_open_output(args.report)) if args.report else None
        out_file = files.enter_context(_open_output(args.out)) if args.out else None
        report = evolve(model, config)
        payload = json.dumps(report.to_json(), sort_keys=True) + "\n"
        sys.stdout.write(payload)
        for path, handle, text in ((args.report, report_file, payload), (args.out, out_file, report.best_program + "\n")):
            if handle:
                try:  # close flushes here: a failed flush would fail again, unguarded, in the stack's close
                    handle.write(text)
                    handle.close()
                except OSError as exc:
                    raise CliError(f"cannot write {path}: {exc.strerror}", EXIT_RUNTIME) from exc
    print(f"synth finished in {report.wall_clock:.2f}s, best tier {report.best_fitness.tier}", file=sys.stderr)
    if args.strict and any("TRUNCATED" in g.best_fitness.notes for g in report.generations):
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_solve(args) -> int:
    _thread_cap()
    model = _load_model(args.model)
    program = _load_program(args.op)
    with _usage_errors():
        config = SearchConfig(
            restarts=args.restarts,
            max_steps=args.max_steps,
            neighbor_cap=args.cap,
            fuel=args.fuel,
            seed=args.seed,
        )
    try:
        result = solve(model, program, config)
    except (ValueError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    _emit(result.to_json())
    if result.truncated:
        print("warning: some neighborhoods were truncated", file=sys.stderr)
        if args.strict:
            return EXIT_RUNTIME
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noodle", description="Neighborhood operator synthesis toolkit")
    parser.add_argument("--version", action="version", version=f"noodle {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a model document")
    p.add_argument("model")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("parse", help="parse an NDL file and print its canonical form")
    p.add_argument("ndl")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("grammar", help="print the BNF grammar derived from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_VAR_BUDGET)
    p.set_defaults(func=cmd_grammar)

    p = sub.add_parser("neighbors", help="materialize an operator's neighborhood as JSON lines")
    p.add_argument("--model", required=True)
    p.add_argument("--assignment", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--budget", type=int, default=DEFAULT_VAR_BUDGET)
    p.add_argument("--strict", action="store_true", help="treat truncation as an error")
    p.set_defaults(func=cmd_neighbors)

    p = sub.add_parser("synth", help="evolve an operator for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pop", type=int, default=EvolutionConfig.population_size)
    p.add_argument("--gens", type=int, default=EvolutionConfig.generations)
    p.add_argument("--samples", type=int, default=EvolutionConfig.sample_count)
    p.add_argument("--cap", type=int, default=EvolutionConfig.inspection_cap)
    p.add_argument("--fuel", type=int, default=EvolutionConfig.fuel)
    p.add_argument("--genome-length", type=int, default=EvolutionConfig.genome_length)
    p.add_argument("--budget", type=int, default=EvolutionConfig.var_budget)
    p.add_argument("--out", help="write the best operator's NDL text here")
    p.add_argument("--report", help="write the report JSON here as well as stdout")
    p.add_argument("--strict", action="store_true", help="exit 1 when a generation's best program has a TRUNCATED note")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("solve", help="hill-climb with restarts using an operator")
    p.add_argument("--model", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--restarts", type=int, default=SearchConfig.restarts)
    p.add_argument("--max-steps", type=int, default=SearchConfig.max_steps)
    p.add_argument("--cap", type=int, default=SearchConfig.neighbor_cap)
    p.add_argument("--fuel", type=int, default=SearchConfig.fuel)
    p.add_argument("--strict", action="store_true", help="exit 1 when any neighborhood was truncated")
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
