"""Tests for the equilibrium toolkit (Appendix A, Lemma 2)."""

import pytest

from repro.core.assumptions import check_never_alone
from repro.core.configuration import Configuration
from repro.core.equilibrium import (
    best_insertion_coin,
    enumerate_equilibria,
    equilibrium_payoff_spread,
    greedy_equilibrium,
    iter_equilibria,
    two_distinct_equilibria,
)
from repro.core.factories import random_game
from repro.core.game import Game
from repro.core.miner import sorted_by_power
from repro.exceptions import InvalidModelError


def _insertion_reference(game):
    """Appendix A by rebuilding the partial state for every insertion."""
    placed, choices, partial = [], [], None
    for miner in sorted_by_power(game.miners):
        placed.append(miner)
        choices.append(best_insertion_coin(game, partial, miner))
        partial = Configuration(placed, choices)
    return Configuration.from_mapping(game.miners, dict(partial))


class TestGreedyEquilibrium:
    @pytest.mark.parametrize("seed", range(10))
    def test_always_stable(self, seed):
        game = random_game(7, 3, seed=seed)
        assert game.is_stable(greedy_equilibrium(game))

    def test_single_miner_takes_best_coin(self):
        game = Game.create([5], [2, 9, 4])
        equilibrium = greedy_equilibrium(game)
        assert equilibrium.coin_of(game.miners[0]) == game.coin_named("c2")

    def test_deterministic(self):
        game = random_game(6, 3, seed=3)
        assert greedy_equilibrium(game) == greedy_equilibrium(game)

    def test_heavy_coin_attracts_heavy_miner(self):
        # One dominant coin: the largest miner must sit on it.
        game = Game.create([10, 1, 1], [1000, 1])
        equilibrium = greedy_equilibrium(game)
        assert equilibrium.coin_of(game.miners[0]) == game.coin_named("c1")


    def test_running_mass_matches_insertion_reference(self):
        game = random_game(250, 4)
        assert greedy_equilibrium(game) == _insertion_reference(game)

    @pytest.mark.parametrize("reverse", [False, True], ids=["game-order", "reversed"])
    def test_masked_greedy_matches_insertion_reference(self, reverse):
        # Equal rewards and powers make insertions tie among the allowed
        # coins; the earliest coin in game order must win whatever
        # order the mask lists them in.
        for game in (random_game(40, 4, seed=2), Game.create([2, 1, 1, 1], [5, 5, 5, 5])):
            mask = {}
            for i, miner in enumerate(game.miners):
                coins = [game.coins[j] for j in range(4) if (i + j) % 3]
                mask[miner] = coins[::-1] if reverse else coins
            masked = game.with_allowed(mask)
            assert greedy_equilibrium(masked) == _insertion_reference(masked)


class TestBestInsertionCoin:
    def test_empty_state_picks_max_reward(self):
        game = Game.create([3], [1, 7, 2])
        assert best_insertion_coin(game, None, game.miners[0]) == game.coin_named("c2")

    def test_crowding_pushes_to_other_coin(self):
        game = Game.create([10, 1], [10, 9])
        p1, p2 = game.miners
        partial = Configuration([p1], [game.coin_named("c1")])
        # Joining c1 yields 10·1/11 < 9·1/1 on c2.
        assert best_insertion_coin(game, partial, p2) == game.coin_named("c2")


class TestEnumeration:
    def test_matches_stability_predicate(self):
        game = random_game(5, 2, seed=1)
        listed = set(enumerate_equilibria(game))
        for config in game.all_configurations():
            assert (config in listed) == game.is_stable(config)

    def test_iter_matches_list(self):
        game = random_game(4, 2, seed=2)
        assert list(iter_equilibria(game)) == enumerate_equilibria(game)

    def test_limit_guard(self):
        game = random_game(30, 3, seed=0)
        with pytest.raises(InvalidModelError, match="limit"):
            enumerate_equilibria(game, limit=1000)

    def test_at_least_one_equilibrium_exists(self):
        # Proposition 3: every game has a pure equilibrium.
        for seed in range(5):
            game = random_game(5, 2, seed=seed)
            assert enumerate_equilibria(game), f"no equilibrium for seed {seed}"


class TestTwoDistinctEquilibria:
    def test_produces_two_stable_distinct(self):
        for seed in range(30):
            game = random_game(8, 2, seed=seed, ensure_generic=True)
            if not check_never_alone(game, exhaustive_limit=300):
                continue
            first, second = two_distinct_equilibria(game)
            assert first != second
            assert game.is_stable(first)
            assert game.is_stable(second)
            return
        pytest.skip("no A1-satisfying game found in 30 seeds")

    def test_needs_two_miners(self):
        game = Game.create([1], [1, 1])
        with pytest.raises(InvalidModelError, match="two miners"):
            two_distinct_equilibria(game)

    def test_needs_two_coins(self):
        game = Game.create([2, 1], [1])
        with pytest.raises(InvalidModelError, match="two coins"):
            two_distinct_equilibria(game)


class TestPayoffSpread:
    def test_spread_bounds(self):
        game = random_game(5, 2, seed=4)
        equilibria = enumerate_equilibria(game)
        low, high = equilibrium_payoff_spread(game, equilibria)
        assert low <= high

    def test_empty_rejected(self):
        game = random_game(3, 2, seed=0)
        with pytest.raises(InvalidModelError):
            equilibrium_payoff_spread(game, [])
