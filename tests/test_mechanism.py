"""Tests for the dynamic reward design mechanism (Algorithm 2)."""

import itertools

import pytest

from repro.core.equilibrium import enumerate_equilibria
from repro.core.factories import random_configuration, random_game
from repro.core.game import Game
from repro.design.mechanism import DynamicRewardDesign
from repro.exceptions import NotAnEquilibriumError, RewardDesignError
from repro.learning.policies import MinimalGainPolicy, RandomImprovingPolicy
from repro.learning.schedulers import SmallestFirstScheduler


def _game_with_equilibria(min_count=2, seed_range=range(20), n=6, k=2):
    for seed in seed_range:
        game = random_game(n, k, seed=seed)
        equilibria = enumerate_equilibria(game)
        if len(equilibria) >= min_count:
            return game, equilibria
    raise AssertionError("no game with enough equilibria found")


class TestEndToEnd:
    def test_moves_between_all_pairs(self):
        game, equilibria = _game_with_equilibria()
        for s0, sf in itertools.permutations(equilibria[:3], 2):
            result = DynamicRewardDesign().run(game, s0, sf, seed=1)
            assert result.success
            assert result.final == sf

    def test_adversarial_learner(self):
        game, equilibria = _game_with_equilibria()
        mechanism = DynamicRewardDesign(
            policy=MinimalGainPolicy(), scheduler=SmallestFirstScheduler()
        )
        result = mechanism.run(game, equilibria[0], equilibria[-1], seed=2)
        assert result.success

    def test_identity_run_costs_nothing_after_stage_milestones(self):
        game, equilibria = _game_with_equilibria()
        s0 = equilibria[0]
        result = DynamicRewardDesign().run(game, s0, s0, seed=3)
        assert result.success
        assert result.final == s0

    def test_stage_reports_cover_all_stages(self):
        game, equilibria = _game_with_equilibria()
        result = DynamicRewardDesign().run(game, equilibria[0], equilibria[1], seed=4)
        assert [r.stage for r in result.stage_reports] == list(
            range(1, len(game.miners) + 1)
        )

    def test_ledger_tracks_positive_cost(self):
        game, equilibria = _game_with_equilibria()
        result = DynamicRewardDesign().run(game, equilibria[0], equilibria[1], seed=5)
        assert result.ledger.total() > 0
        assert result.ledger.peak_excess_per_round() > 0
        assert result.ledger.total_rounds() >= result.total_steps

    def test_feasible_mode_reaches_target(self):
        game, equilibria = _game_with_equilibria()
        mechanism = DynamicRewardDesign(mode="feasible")
        result = mechanism.run(game, equilibria[0], equilibria[1], seed=6)
        assert result.success
        assert result.final == equilibria[1]

    def test_audit_mode_passes_silently(self):
        game, equilibria = _game_with_equilibria()
        mechanism = DynamicRewardDesign(audit=True)
        result = mechanism.run(game, equilibria[0], equilibria[-1], seed=7)
        assert result.success


class TestContract:
    def test_unstable_initial_rejected(self):
        game, equilibria = _game_with_equilibria()
        for seed in range(30):
            unstable = random_configuration(game, seed=seed)
            if not game.is_stable(unstable):
                with pytest.raises(NotAnEquilibriumError, match="initial"):
                    DynamicRewardDesign().run(game, unstable, equilibria[0])
                return
        pytest.skip("no unstable configuration found")

    def test_unstable_target_rejected(self):
        game, equilibria = _game_with_equilibria()
        for seed in range(30):
            unstable = random_configuration(game, seed=seed)
            if not game.is_stable(unstable):
                with pytest.raises(NotAnEquilibriumError, match="target"):
                    DynamicRewardDesign().run(game, equilibria[0], unstable)
                return
        pytest.skip("no unstable configuration found")

    def test_duplicate_powers_rejected(self):
        game = Game.create([2, 2, 1, 1], [3, 1])
        equilibria = enumerate_equilibria(game)
        if len(equilibria) < 2:
            pytest.skip("degenerate game has too few equilibria")
        with pytest.raises(RewardDesignError, match="strictly decreasing"):
            DynamicRewardDesign().run(game, equilibria[0], equilibria[1])

    def test_unknown_mode_rejected(self):
        with pytest.raises(RewardDesignError, match="mode"):
            DynamicRewardDesign(mode="yolo")


class TestScaling:
    def test_larger_game(self):
        game = random_game(10, 3, seed=9)
        from repro.core.equilibrium import greedy_equilibrium
        from repro.learning.engine import LearningEngine

        first = greedy_equilibrium(game)
        engine = LearningEngine(record="steps")
        second = None
        for seed in range(20):
            candidate = engine.run(
                game, random_configuration(game, seed=seed), seed=seed
            ).final
            if candidate != first:
                second = candidate
                break
        if second is None:
            pytest.skip("game appears to have a unique learned equilibrium")
        result = DynamicRewardDesign().run(game, first, second, seed=10)
        assert result.success
        assert result.total_iterations >= len(game.miners) - 1
