"""Tests for the asymmetric (restricted) game extension."""

import pytest

from repro.core.configuration import Configuration
from repro.core.factories import random_game
from repro.core.restricted import RestrictedGame
from repro.exceptions import InvalidConfigurationError, InvalidModelError
from repro.learning.engine import LearningEngine
from repro.learning.policies import (
    MaxRpuPolicy,
    MinimalGainPolicy,
    RandomImprovingPolicy,
)


@pytest.fixture
def game():
    return random_game(6, 4, seed=3)


@pytest.fixture
def restricted(game):
    # Even-indexed coins are sha256d, odd are scrypt; miners alternate.
    coin_algorithms = {
        coin.name: ("sha256d" if index % 2 == 0 else "scrypt")
        for index, coin in enumerate(game.coins)
    }
    miner_hardware = {
        miner.name: ("sha256d" if index % 2 == 0 else "scrypt")
        for index, miner in enumerate(game.miners)
    }
    return RestrictedGame.by_algorithm(game, coin_algorithms, miner_hardware)


def _legal_start(restricted, pick=0):
    assignment = {
        miner: restricted.allowed_coins(miner)[pick % len(restricted.allowed_coins(miner))]
        for miner in restricted.miners
    }
    return Configuration.from_mapping(restricted.miners, assignment)


class TestConstruction:
    def test_allowed_sets_follow_hardware(self, game, restricted):
        for index, miner in enumerate(game.miners):
            algorithm = "sha256d" if index % 2 == 0 else "scrypt"
            expected = {
                coin
                for i, coin in enumerate(game.coins)
                if ("sha256d" if i % 2 == 0 else "scrypt") == algorithm
            }
            assert set(restricted.allowed_coins(miner)) == expected

    def test_every_miner_needs_an_option(self, game):
        coin_algorithms = {coin.name: "sha256d" for coin in game.coins}
        miner_hardware = {miner.name: "scrypt" for miner in game.miners}
        with pytest.raises(InvalidModelError, match="at least one"):
            RestrictedGame.by_algorithm(game, coin_algorithms, miner_hardware)

    def test_missing_miner_rejected(self, game):
        with pytest.raises(InvalidModelError, match="misses"):
            RestrictedGame(game, {game.miners[0]: [game.coins[0]]})

    def test_unknown_coin_rejected(self, game):
        from repro.core.coin import Coin

        allowed = {miner: [game.coins[0]] for miner in game.miners}
        allowed[game.miners[0]] = [Coin("DOGE")]
        with pytest.raises(InvalidModelError, match="unknown coin"):
            RestrictedGame(game, allowed)

    def test_missing_hardware_class_rejected(self, game):
        coin_algorithms = {coin.name: "sha256d" for coin in game.coins}
        with pytest.raises(InvalidModelError, match="hardware"):
            RestrictedGame.by_algorithm(game, coin_algorithms, {})


class TestStrategicStructure:
    def test_moves_are_subset_of_unrestricted(self, game, restricted):
        config = _legal_start(restricted)
        for miner in game.miners:
            legal = set(restricted.better_response_moves(miner, config))
            free = set(game.better_response_moves(miner, config))
            assert legal <= free
            assert all(restricted.is_allowed(miner, coin) for coin in legal)

    def test_validate_rejects_illegal_configuration(self, game, restricted):
        miner = game.miners[0]
        forbidden = next(
            coin for coin in game.coins if not restricted.is_allowed(miner, coin)
        )
        config = _legal_start(restricted).move(miner, forbidden)
        with pytest.raises(InvalidConfigurationError, match="cannot mine"):
            restricted.validate_configuration(config)

    def test_stability_is_relative_to_restriction(self, game, restricted):
        # A restricted-stable configuration need not be free-stable, but
        # a free-stable legal configuration is restricted-stable.
        engine = LearningEngine()
        final = engine.run(restricted, _legal_start(restricted), seed=1).final
        assert restricted.is_stable(final)

    def test_best_response_is_legal(self, game, restricted):
        config = _legal_start(restricted, pick=1)
        for miner in game.miners:
            choice = restricted.best_response(miner, config)
            if choice is not None:
                assert restricted.is_allowed(miner, choice)


class TestRestrictedLearning:
    @pytest.mark.parametrize(
        "policy",
        [RandomImprovingPolicy(), MaxRpuPolicy(), MinimalGainPolicy()],
        ids=["random", "best", "minimal"],
    )
    def test_converges(self, restricted, policy):
        engine = LearningEngine(policy=policy)
        trajectory = engine.run(restricted, _legal_start(restricted), seed=2)
        assert trajectory.converged
        assert restricted.is_stable(trajectory.final)

    def test_potential_still_monotone(self, restricted):
        engine = LearningEngine()
        trajectory = engine.run(restricted, _legal_start(restricted), seed=3)
        for i in range(len(trajectory.configurations) - 1):
            assert (
                restricted.compare_potential(
                    trajectory.configurations[i], trajectory.configurations[i + 1]
                )
                < 0
            )

    def test_illegal_start_rejected(self, game, restricted):
        miner = game.miners[0]
        forbidden = next(
            coin for coin in game.coins if not restricted.is_allowed(miner, coin)
        )
        config = _legal_start(restricted).move(miner, forbidden)
        with pytest.raises(InvalidConfigurationError):
            LearningEngine().run(restricted, config)

    @pytest.mark.parametrize("form", ["allowed", "restricted-game"])
    @pytest.mark.parametrize("backend", ["fast", "exact", "class"])
    def test_masked_run_rejects_illegal_start(self, backend, form):
        # Every miner may mine c1/c2 only, yet all start on c3: the run
        # must refuse the start instead of converging off-mask.
        game = random_game(4, 3, seed=1)
        mask = {miner: game.coins[:2] for miner in game.miners}
        start = Configuration(game.miners, [game.coins[2]] * len(game.miners))
        engine = LearningEngine(backend=backend)
        with pytest.raises(InvalidConfigurationError, match="cannot mine"):
            if form == "allowed":
                engine.run(game, start, seed=0, allowed=mask)
            else:
                engine.run(RestrictedGame(game, mask), start, seed=0)


class TestRestrictedEquilibrium:
    def test_greedy_is_stable(self, restricted):
        equilibrium = restricted.greedy_equilibrium()
        restricted.validate_configuration(equilibrium)
        assert restricted.is_stable(equilibrium)

    @pytest.mark.parametrize("seed", range(5))
    def test_greedy_stable_across_games(self, seed):
        game = random_game(8, 4, seed=seed)
        coin_algorithms = {
            coin.name: ("a" if i < 2 else "b") for i, coin in enumerate(game.coins)
        }
        miner_hardware = {
            miner.name: ("a" if i % 3 else "b") for i, miner in enumerate(game.miners)
        }
        restricted = RestrictedGame.by_algorithm(game, coin_algorithms, miner_hardware)
        assert restricted.is_stable(restricted.greedy_equilibrium())
