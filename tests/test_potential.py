"""Tests for potential functions: ordinal, symmetric, exact refutation."""

from fractions import Fraction

import pytest

from repro.core.configuration import Configuration
from repro.core.factories import random_configuration, random_game
from repro.core.game import Game
from repro.core.potential import (
    compare_potential,
    exact_potential_cycle_defect,
    find_nonzero_four_cycle,
    is_strictly_increasing_along,
    potential_rank,
    proposition1_counterexample,
    rpu_list,
    symmetric_potential,
)
from repro.exceptions import InvalidModelError
from repro.learning.engine import LearningEngine


class TestProposition1:
    def test_paper_defect_is_two_thirds(self):
        _, defect = proposition1_counterexample()
        assert defect == Fraction(2, 3)

    def test_witness_search_finds_cycle(self):
        game, _ = proposition1_counterexample()
        witness = find_nonzero_four_cycle(game)
        assert witness is not None
        assert witness[5] != 0

    def test_single_miner_game_has_exact_potential(self):
        # With one miner there are no two-player 4-cycles at all, so the
        # search must return None (the game trivially has an exact
        # potential: the miner's own payoff).
        game = Game.create([3], [5, 2])
        assert find_nonzero_four_cycle(game) is None

    def test_cycle_requires_distinct_miners(self):
        game, _ = proposition1_counterexample()
        p1 = game.miners[0]
        c1, c2 = game.coins
        start = Configuration(game.miners, [c1, c1])
        with pytest.raises(InvalidModelError, match="distinct"):
            exact_potential_cycle_defect(game, start, p1, c2, p1, c2)


class TestRpuList:
    def test_sorted_ascending(self):
        game = Game.create([2, 1], [1, 1])
        c1 = game.coins[0]
        config = Configuration(game.miners, [c1, c1])
        entries = rpu_list(game, config)
        # c1 occupied with RPU 1/3; c2 empty (sorted last).
        assert entries[0][0] == Fraction(1, 3)
        assert entries[1][0] is None

    def test_ties_broken_by_coin_index(self):
        game = Game.create([1, 1], [1, 1])
        c1, c2 = game.coins
        config = Configuration(game.miners, [c1, c2])
        entries = rpu_list(game, config)
        assert entries[0][1] == 0 and entries[1][1] == 1


class TestComparePotential:
    def test_better_response_step_increases(self):
        game = Game.create([2, 1], [1, 1])
        c1, c2 = game.coins
        s1 = Configuration(game.miners, [c1, c1])
        s2 = s1.move(game.miners[1], c2)
        assert compare_potential(game, s1, s2) == -1
        assert compare_potential(game, s2, s1) == 1

    def test_equal_configurations(self):
        game = random_game(4, 2, seed=0)
        config = random_configuration(game, seed=1)
        assert compare_potential(game, config, config) == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_along_random_trajectories(self, seed):
        game = random_game(6, 3, seed=seed)
        engine = LearningEngine()
        trajectory = engine.run(
            game, random_configuration(game, seed=seed + 50), seed=seed
        )
        assert is_strictly_increasing_along(game, trajectory.configurations)


class TestPotentialRank:
    def test_rank_orders_match_compare(self):
        game = Game.create([2, 1], [3, 1])
        configs = list(game.all_configurations())
        for a in configs:
            for b in configs:
                ranks = potential_rank(game, a) - potential_rank(game, b)
                cmp = compare_potential(game, a, b)
                if cmp == 0:
                    assert ranks == 0
                else:
                    assert (ranks < 0) == (cmp < 0)

    def test_rank_is_positive_int(self):
        game = Game.create([2, 1], [1, 2])
        config = next(game.all_configurations())
        assert potential_rank(game, config) >= 1


class TestSymmetricPotential:
    def test_requires_constant_rewards(self):
        game = Game.create([1, 2], [1, 2])
        config = random_configuration(game, seed=0)
        with pytest.raises(InvalidModelError, match="equal"):
            symmetric_potential(game, config)

    def test_decreases_for_moves_between_occupied_coins(self):
        # Proposition 4: H(s) = Σ 1/M_c strictly decreases — valid for
        # moves whose target is occupied (see the docstring caveat).
        game = Game.create([3, 2, 1], [1, 1])
        c1, c2 = game.coins
        p3 = game.miners[2]
        s = Configuration(game.miners, [c1, c2, c1])  # both coins occupied
        assert game.is_better_response(p3, c2, s)
        moved = s.move(p3, c2)
        assert symmetric_potential(game, moved) < symmetric_potential(game, s)

    def test_can_increase_for_moves_into_empty_coins(self):
        # The documented caveat, pinned as behaviour: a move into an
        # empty coin adds a fresh 1/m_p term.
        game = Game.create([2, 1], [1, 1])
        c1, c2 = game.coins
        s1 = Configuration(game.miners, [c1, c1])
        s2 = s1.move(game.miners[1], c2)
        assert symmetric_potential(game, s2) > symmetric_potential(game, s1)

    @pytest.mark.parametrize("seed", range(5))
    def test_decreases_on_random_symmetric_games(self, seed):
        from repro.core.coin import RewardFunction

        base = random_game(6, 3, seed=seed)
        game = base.with_rewards(RewardFunction.constant(base.coins, 10))
        engine = LearningEngine()
        trajectory = engine.run(
            game, random_configuration(game, seed=seed + 9), seed=seed
        )
        for i, step in enumerate(trajectory.steps):
            before = trajectory.configurations[i]
            after = trajectory.configurations[i + 1]
            if game.coin_power(step.target, before) > 0:
                assert symmetric_potential(game, after) < symmetric_potential(
                    game, before
                )
