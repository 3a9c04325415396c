"""Noodle: synthesis of local-search neighborhood operators from constraint models.

The toolkit derives a problem-specific grammar from a constraint model,
evolves neighborhood operators written in a small total declarative
language (NDL), scores them by how many constraint kinds they keep
satisfied, and deploys the best operator inside a restarting hill climber.
"""

from noodle.model import ModelError, load_model, seed_assignment
from noodle.lang.parser import ParseError, parse
from noodle.lang.analyzer import analyze
from noodle.evolution import EvolutionConfig, evaluate_fitness, evolve
from noodle.search import SearchConfig, solve

__version__ = "0.1.0"

__all__ = [
    "EvolutionConfig",
    "ModelError",
    "ParseError",
    "SearchConfig",
    "analyze",
    "evaluate_fitness",
    "evolve",
    "load_model",
    "parse",
    "seed_assignment",
    "solve",
]
