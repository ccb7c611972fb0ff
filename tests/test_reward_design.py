"""Tests for the reward design functions H_1 and H_i (Eqs. 4–5)."""

import pytest

from repro.core.equilibrium import greedy_equilibrium
from repro.core.factories import random_configuration, random_game
from repro.design.reward_design import stage1_rewards, stage_rewards
from repro.design.stages import intermediate_configuration, ordered_miners
from repro.exceptions import RewardDesignError
from repro.learning.engine import LearningEngine


@pytest.fixture
def game():
    return random_game(5, 3, seed=2)


@pytest.fixture
def target(game):
    return greedy_equilibrium(game)


class TestStage1:
    def test_unique_equilibrium_is_everyone_on_destination(self, game, target):
        designed = game.with_rewards(stage1_rewards(game, target))
        milestone = intermediate_configuration(game, target, 1)
        assert designed.is_stable(milestone)
        # From several random starts, learning must land exactly there.
        engine = LearningEngine(record="steps")
        for seed in range(5):
            start = random_configuration(game, seed=seed)
            final = engine.run(designed, start, seed=seed).final
            assert final == milestone

    def test_only_destination_boosted(self, game, target):
        designed = stage1_rewards(game, target)
        destination = target.coin_of(ordered_miners(game)[0])
        for coin in game.coins:
            if coin == destination:
                assert designed[coin] > game.rewards[coin]
            else:
                assert designed[coin] == game.rewards[coin]

    def test_dominates_base_rewards(self, game, target):
        assert stage1_rewards(game, target).dominates(game.rewards)


class TestStageI:
    def test_equalizes_non_destination_rpus(self, game, target):
        stage = 2
        config = intermediate_configuration(game, target, stage - 1)
        if config == intermediate_configuration(game, target, stage):
            pytest.skip("trivial stage for this target")
        designed = stage_rewards(game, target, stage, config)
        designed_game = game.with_rewards(designed)
        ceiling = game.max_rpu(config)
        destination = target.coin_of(ordered_miners(game)[stage - 1])
        for coin in game.coins:
            rpu = designed_game.rpu(coin, config)
            if coin == destination:
                if rpu is not None:
                    assert rpu > ceiling
            elif rpu is not None:
                assert rpu == ceiling

    def test_mover_has_unique_better_response(self, game, target):
        from repro.design.stages import mover_index

        stage = 2
        config = intermediate_configuration(game, target, stage - 1)
        if config == intermediate_configuration(game, target, stage):
            pytest.skip("trivial stage for this target")
        designed_game = game.with_rewards(stage_rewards(game, target, stage, config))
        miners = ordered_miners(game)
        mover = miners[mover_index(game, target, stage, config) - 1]
        destination = target.coin_of(miners[stage - 1])
        # Lemma 1's first claim: the only better-response step in the
        # designed game is the mover going to the destination.
        unstable = designed_game.unstable_miners(config)
        assert unstable == (mover,)
        assert designed_game.better_response_moves(mover, config) == (destination,)

    def test_paper_mode_zeroes_empty_coins(self, game, target):
        stage = 2
        config = intermediate_configuration(game, target, stage - 1)
        if config == intermediate_configuration(game, target, stage):
            pytest.skip("trivial stage for this target")
        designed = stage_rewards(game, target, stage, config, mode="paper")
        for coin in game.coins:
            if game.coin_power(coin, config) == 0:
                assert designed[coin] == 0

    def test_feasible_mode_floors_at_base(self, game, target):
        stage = 2
        config = intermediate_configuration(game, target, stage - 1)
        if config == intermediate_configuration(game, target, stage):
            pytest.skip("trivial stage for this target")
        designed = stage_rewards(game, target, stage, config, mode="feasible")
        assert designed.dominates(game.rewards)

    def test_stage_one_rejected(self, game, target):
        config = intermediate_configuration(game, target, 1)
        with pytest.raises(RewardDesignError, match="i ≥ 2"):
            stage_rewards(game, target, 1, config)
