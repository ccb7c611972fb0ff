"""Tests for exact improvement-graph analysis."""

import pytest

from repro.analysis.paths import (
    improvement_graph,
    is_acyclic,
    longest_improvement_path,
    reachable_equilibria,
    sink_configurations,
)
from repro.core.equilibrium import enumerate_equilibria
from repro.core.factories import random_configuration, random_game
from repro.exceptions import InvalidModelError


class TestGraphStructure:
    @pytest.mark.parametrize("seed", range(5))
    def test_sinks_are_exactly_the_equilibria(self, seed):
        game = random_game(5, 2, seed=seed)
        graph = improvement_graph(game)
        assert sorted(sink_configurations(graph), key=hash) == sorted(
            enumerate_equilibria(game), key=hash
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_graph_is_acyclic(self, seed):
        """Theorem 1, decided exactly on the full configuration space."""
        game = random_game(5, 2, seed=seed)
        assert is_acyclic(improvement_graph(game))

    def test_edges_are_better_responses(self):
        game = random_game(4, 2, seed=9)
        graph = improvement_graph(game)
        for config, successors in graph.items():
            for successor in successors:
                movers = [
                    miner
                    for miner in game.miners
                    if config.coin_of(miner) != successor.coin_of(miner)
                ]
                assert len(movers) == 1
                (mover,) = movers
                assert game.payoff(mover, successor) > game.payoff(mover, config)

    def test_size_guard(self):
        game = random_game(20, 3, seed=0)
        with pytest.raises(InvalidModelError, match="limit"):
            improvement_graph(game, limit=100)


class TestLongestPath:
    def test_upper_bounds_every_trajectory(self):
        from repro.learning.engine import LearningEngine
        from repro.learning.policies import MinimalGainPolicy
        from repro.learning.schedulers import SmallestFirstScheduler

        game = random_game(5, 2, seed=3)
        bound = longest_improvement_path(improvement_graph(game))
        engine = LearningEngine(
            policy=MinimalGainPolicy(), scheduler=SmallestFirstScheduler()
        )
        for seed in range(10):
            trajectory = engine.run(
                game, random_configuration(game, seed=seed), seed=seed
            )
            assert trajectory.length <= bound

    def test_zero_for_single_miner_single_coin(self):
        game = random_game(1, 1, seed=0)
        assert longest_improvement_path(improvement_graph(game)) == 0

    def test_positive_when_unstable_states_exist(self):
        game = random_game(4, 2, seed=4)
        graph = improvement_graph(game)
        has_unstable = any(successors for successors in graph.values())
        bound = longest_improvement_path(graph)
        assert (bound > 0) == has_unstable


class TestReachability:
    def test_reachable_sinks_are_stable(self):
        game = random_game(5, 2, seed=5)
        start = random_configuration(game, seed=6)
        sinks = reachable_equilibria(game, start)
        assert sinks
        for sink in sinks:
            assert game.is_stable(sink)

    def test_sampled_basins_subset_of_reachable(self):
        from repro.analysis.basins import basin_profile

        game = random_game(5, 2, seed=7)
        start = random_configuration(game, seed=8)
        reachable = set(reachable_equilibria(game, start))
        from repro.learning.engine import LearningEngine

        engine = LearningEngine(record="steps")
        for seed in range(10):
            final = engine.run(game, start, seed=seed).final
            assert final in reachable

    def test_stable_start_reaches_itself_only(self):
        from repro.core.equilibrium import greedy_equilibrium

        game = random_game(5, 2, seed=9)
        equilibrium = greedy_equilibrium(game)
        assert reachable_equilibria(game, equilibrium) == [equilibrium]
