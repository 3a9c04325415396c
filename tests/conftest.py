import json
import pathlib
import sys

import pytest

from noodle import load_model, parse

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def narrowed_tsp6(var, values):
    """tsp6 with one variable's domain narrowed to ``values``."""
    document = json.loads(fixture_text("tsp6.json"))
    document["variables"][var]["domain"] = {"set": list(values)}
    return load_model(document)


# a circuit whose domains hold self-loops, beside two variables that an all_different
# ties to the circuit's first variable; their values 1..3 are circuit positions too
CIRCUIT_WITH_ALL_DIFFERENT = {
    "name": "circuit5-and-pair",
    "variables": [{"name": f"n{i}", "domain": {"lo": 1, "hi": 5}} for i in range(1, 6)]
    + [{"name": name, "domain": {"lo": 1, "hi": 3}} for name in ("c1", "c2")],
    "groups": {"next": [f"n{i}" for i in range(1, 6)]},
    "constraints": [{"kind": "circuit", "scope": "next"}, {"kind": "all_different", "scope": ["c1", "c2", "n1"]}],
    "structural": 0,
}


def nested_iterates(depth: int) -> str:
    """NDL text with ``depth`` iterates nested around one swap."""
    return "iterate(t0 - t1, t2, (" * depth + "swap_values(t0, t1)" + "))" * depth


def overlong_digits() -> str:
    """One digit more than ``int()`` converts from a string; skips where nothing limits it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() converts integer strings of any length here")
    return "1" * (limit + 1)


@pytest.fixture(scope="session")
def tsp4():
    return load_model(fixture_text("tsp4.json"))


@pytest.fixture(scope="session")
def tsp6():
    return load_model(fixture_text("tsp6.json"))


@pytest.fixture(scope="session")
def tsp6_full():
    return load_model(fixture_text("tsp6_full.json"))


@pytest.fixture(scope="session")
def circuit3():
    return load_model(fixture_text("circuit3.json"))


@pytest.fixture(scope="session")
def triangle():
    return load_model(fixture_text("coloring_triangle.json"))


@pytest.fixture(scope="session")
def path5():
    return load_model(fixture_text("coloring_path5.json"))


@pytest.fixture(scope="session")
def two_opt():
    return parse(fixture_text("two_opt.ndl"))


@pytest.fixture(scope="session")
def single_swap():
    return parse(fixture_text("single_swap.ndl"))


@pytest.fixture(scope="session")
def swap_pair():
    return parse(fixture_text("swap_pair.ndl"))
