"""Tests for better-response policies."""

import numpy as np
import pytest

from repro.core.factories import random_configuration, random_game
from repro.learning.policies import (
    STANDARD_POLICIES,
    BestResponsePolicy,
    EpsilonGreedyPolicy,
    FirstImprovingPolicy,
    MaxRpuPolicy,
    MinimalGainPolicy,
    RandomImprovingPolicy,
)
from repro.learning.view import ExactView

ALL_POLICIES = list(STANDARD_POLICIES) + [
    FirstImprovingPolicy(),
    EpsilonGreedyPolicy(0.5),
]


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def game():
    return random_game(6, 3, seed=7)


def _an_unstable_state(game, seed=0):
    for offset in range(50):
        config = random_configuration(game, seed=seed + offset)
        unstable = game.unstable_miners(config)
        if unstable:
            return config, unstable[0]
    raise AssertionError("could not find an unstable configuration")


class TestContract:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    def test_returns_improving_move(self, policy, game, rng):
        config, miner = _an_unstable_state(game)
        choice = policy.choose_view(ExactView(game, config), miner, rng)
        assert choice is not None
        assert game.is_better_response(miner, choice, config)

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    def test_returns_none_when_stable(self, policy, game, rng):
        from repro.core.equilibrium import greedy_equilibrium

        equilibrium = greedy_equilibrium(game)
        view = ExactView(game, equilibrium)
        for miner in game.miners:
            assert policy.choose_view(view, miner, rng) is None


class TestSpecifics:
    def test_best_response_maximizes(self, game, rng):
        config, miner = _an_unstable_state(game)
        choice = BestResponsePolicy().choose_view(ExactView(game, config), miner, rng)
        best = max(
            game.payoff_after_move(miner, coin, config) for coin in game.coins
        )
        assert game.payoff_after_move(miner, choice, config) == best

    def test_minimal_gain_minimizes(self, game, rng):
        config, miner = _an_unstable_state(game)
        choice = MinimalGainPolicy().choose_view(ExactView(game, config), miner, rng)
        gains = {
            coin: game.payoff_after_move(miner, coin, config) - game.payoff(miner, config)
            for coin in game.better_response_moves(miner, config)
        }
        assert gains[choice] == min(gains.values())

    def test_minimal_not_worse_than_best(self, game, rng):
        config, miner = _an_unstable_state(game)
        minimal = MinimalGainPolicy().choose_view(ExactView(game, config), miner, rng)
        best = BestResponsePolicy().choose_view(ExactView(game, config), miner, rng)
        assert game.payoff_after_move(miner, minimal, config) <= game.payoff_after_move(
            miner, best, config
        )

    def test_max_rpu_picks_highest_post_move_rpu(self, game, rng):
        config, miner = _an_unstable_state(game)
        choice = MaxRpuPolicy().choose_view(ExactView(game, config), miner, rng)
        moves = game.better_response_moves(miner, config)
        rpus = {
            coin: game.rewards[coin] / (game.coin_power(coin, config) + miner.power)
            for coin in moves
        }
        assert rpus[choice] == max(rpus.values())

    def test_first_improving_deterministic(self, game, rng):
        config, miner = _an_unstable_state(game)
        policy = FirstImprovingPolicy()
        view = ExactView(game, config)
        assert policy.choose_view(view, miner, rng) == policy.choose_view(
            view, miner, np.random.default_rng(99)
        )

    def test_epsilon_bounds_validated(self):
        with pytest.raises(ValueError, match="epsilon"):
            EpsilonGreedyPolicy(1.5)

    def test_random_improving_covers_all_moves(self, game):
        config, miner = _an_unstable_state(game)
        moves = set(game.better_response_moves(miner, config))
        if len(moves) < 2:
            pytest.skip("need a state with ≥ 2 improving moves")
        seen = {
            RandomImprovingPolicy().choose_view(
                ExactView(game, config), miner, np.random.default_rng(i)
            )
            for i in range(50)
        }
        assert seen == moves
