import random
from itertools import permutations

import pytest

from noodle.lang.interp import neighbors
from noodle.model import InfeasibleError, is_feasible, objective, seed_assignment
from noodle.search import SearchConfig, hill_climb, solve
from noodle.util import split_seed

from tests.oracles import (
    is_local_optimum,
    nearest_neighbor_cost,
    path_to_successors,
    steepest_two_opt_descent,
    tour_cost,
)


def all_tours(n):
    for rest in permutations(range(2, n + 1)):
        yield path_to_successors([1, *rest])


class TestHillClimb:
    def test_reaches_the_verified_optimum_from_cost_6(self, tsp4, two_opt):
        start = (3, 4, 2, 1)
        assert objective(tsp4, start) == 6
        result, cost, steps, *_ = hill_climb(tsp4, two_opt, start, SearchConfig(seed=0), random.Random(0))
        assert cost == 4
        assert steps >= 1
        assert is_feasible(tsp4, result)

    def test_objective_never_increases(self, tsp4, two_opt):
        for i, start in enumerate(all_tours(4)):
            result, cost, *_ = hill_climb(tsp4, two_opt, start, SearchConfig(seed=i), random.Random(i))
            assert cost <= objective(tsp4, start)
            assert is_feasible(tsp4, result)

    def test_max_steps_zero_returns_start(self, tsp4, two_opt):
        start = (3, 4, 2, 1)
        result, cost, steps, *_ = hill_climb(
            tsp4, two_opt, start, SearchConfig(max_steps=0, seed=0), random.Random(0)
        )
        assert result == start and steps == 0

    def test_empty_neighborhood_returns_start(self, tsp6, single_swap):
        start = (2, 3, 4, 5, 6, 1)
        result, cost, steps, *_ = hill_climb(
            tsp6, single_swap, start, SearchConfig(seed=0), random.Random(0)
        )
        assert result == start and steps == 0

    def test_infeasible_start_rejected(self, tsp4, two_opt):
        with pytest.raises(InfeasibleError):
            hill_climb(tsp4, two_opt, (1, 2, 3, 4), SearchConfig(seed=0), random.Random(0))

    def test_result_is_local_optimum_when_converged(self, tsp6, two_opt):
        start = (2, 3, 4, 5, 6, 1)
        result, _, steps, *_ = hill_climb(tsp6, two_opt, start, SearchConfig(seed=3), random.Random(3))
        assert steps < SearchConfig().max_steps
        assert is_local_optimum(tsp6, two_opt, result)

    def test_matches_descent_oracle_cost_from_every_start(self, tsp4, two_opt):
        for i, start in enumerate(all_tours(4)):
            _, cost, *_ = hill_climb(tsp4, two_opt, start, SearchConfig(seed=i), random.Random(i))
            _, oracle_cost = steepest_two_opt_descent(start, tsp4.objective.matrix)
            assert cost == oracle_cost

    def test_trajectory_stays_feasible_with_strictly_decreasing_cost(self, tsp6, two_opt):
        # replaying the same rng stream with growing step limits exposes
        # every intermediate assignment of the full climb
        start = (3, 6, 5, 1, 2, 4)
        costs = []
        for limit in range(0, 6):
            result, cost, steps, *_ = hill_climb(
                tsp6, two_opt, start, SearchConfig(max_steps=limit, seed=5), random.Random(5)
            )
            assert is_feasible(tsp6, result)
            costs.append(cost)
            if steps < limit:
                break
        assert all(b < a for a, b in zip(costs, costs[1:]))

    def test_counts_neighbors_and_truncation(self, tsp6, two_opt):
        start = (2, 3, 4, 5, 6, 1)
        config = SearchConfig(max_steps=1, seed=0)
        *_, generated, truncated = hill_climb(tsp6, two_opt, start, config, random.Random(0))
        assert (generated, truncated) == (len(neighbors(two_opt, tsp6, start)), False)
        config = SearchConfig(max_steps=1, fuel=25, seed=0)
        *_, generated, truncated = hill_climb(tsp6, two_opt, start, config, random.Random(0))
        assert (generated, truncated) == (len(neighbors(two_opt, tsp6, start, fuel=25)), True)

    def test_matches_descent_oracle_cost_on_six_cities(self, tsp6, two_opt):
        start = (3, 6, 5, 1, 2, 4)  # the tour 1-3-5-2-6-4
        assert is_feasible(tsp6, start)
        _, cost, *_ = hill_climb(tsp6, two_opt, start, SearchConfig(seed=1), random.Random(1))
        _, oracle_cost = steepest_two_opt_descent(start, tsp6.objective.matrix)
        assert cost == pytest.approx(oracle_cost)


class TestIsLocalOptimum:
    def test_optimal_tour_is_local_optimum(self, tsp4, two_opt):
        assert is_local_optimum(tsp4, two_opt, (2, 3, 4, 1))

    def test_cost_six_tour_is_not(self, tsp4, two_opt):
        assert not is_local_optimum(tsp4, two_opt, (3, 4, 2, 1))

    def test_empty_neighborhood_is_vacuously_optimal(self, tsp6, single_swap):
        assert is_local_optimum(tsp6, single_swap, (2, 3, 4, 5, 6, 1))

    def test_infeasible_input_rejected(self, tsp4, two_opt):
        with pytest.raises(InfeasibleError):
            is_local_optimum(tsp4, two_opt, (1, 1, 1, 1))


class TestSolve:
    def test_deterministic(self, tsp6, two_opt):
        config = SearchConfig(restarts=4, seed=11)
        assert solve(tsp6, two_opt, config) == solve(tsp6, two_opt, config)

    def test_prefix_monotonicity(self, tsp6, two_opt):
        five = solve(tsp6, two_opt, SearchConfig(restarts=5, seed=2))
        ten = solve(tsp6, two_opt, SearchConfig(restarts=10, seed=2))
        assert ten.best_objective <= five.best_objective
        assert ten.traces[:5] == five.traces

    def test_best_is_min_over_traces_and_feasible(self, tsp6, two_opt):
        result = solve(tsp6, two_opt, SearchConfig(restarts=6, seed=4))
        assert result.best_objective == min(t.objective for t in result.traces)
        assert is_feasible(tsp6, result.best_assignment)

    def test_beats_or_ties_nearest_neighbor(self, tsp6, two_opt):
        result = solve(tsp6, two_opt, SearchConfig(restarts=10, seed=7))
        baseline = nearest_neighbor_cost(tsp6.objective.matrix)
        assert result.best_objective <= baseline + 1e-9

    def test_analysis_failure_rejected(self, tsp6):
        from noodle.lang.parser import parse

        with pytest.raises(ValueError, match="analysis"):
            solve(tsp6, parse("swap_values(t0, t1)"), SearchConfig(seed=0))

    def test_totals_are_the_restarts_sums(self, tsp6, two_opt):
        config = SearchConfig(restarts=3, seed=3, fuel=300)
        climbs = [
            hill_climb(
                tsp6,
                two_opt,
                seed_assignment(tsp6, split_seed(3, "start", i)),
                config,
                random.Random(split_seed(3, "climb", i)),
            )
            for i in range(3)
        ]
        result = solve(tsp6, two_opt, config)
        assert [(t.steps, t.objective) for t in result.traces] == [(climb[2], climb[1]) for climb in climbs]
        assert result.neighbors_generated == sum(climb[3] for climb in climbs) > 0
        assert result.truncated == any(climb[4] for climb in climbs)

    def test_zero_restarts(self, tsp6, two_opt):
        result = solve(tsp6, two_opt, SearchConfig(restarts=0, seed=0))
        assert result.best_assignment is None
        assert result.traces == ()
