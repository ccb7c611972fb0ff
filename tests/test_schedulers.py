"""Tests for activation schedulers."""

import numpy as np
import pytest

from repro.core.factories import random_configuration, random_game
from repro.learning.schedulers import (
    LargestFirstScheduler,
    RoundRobinScheduler,
    SmallestFirstScheduler,
    UniformRandomScheduler,
)
from repro.learning.view import ExactView


@pytest.fixture
def game():
    return random_game(6, 3, seed=7)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _unstable_state(game, min_unstable=2):
    for seed in range(100):
        config = random_configuration(game, seed=seed)
        unstable = game.unstable_miners(config)
        if len(unstable) >= min_unstable:
            return ExactView(game, config), unstable
    raise AssertionError("no state with enough unstable miners")


class TestExtremeSchedulers:
    def test_largest_first(self, game, rng):
        view, unstable = _unstable_state(game)
        pick = LargestFirstScheduler().pick_view(view, unstable, rng)
        assert pick.power == max(m.power for m in unstable)

    def test_smallest_first(self, game, rng):
        view, unstable = _unstable_state(game)
        pick = SmallestFirstScheduler().pick_view(view, unstable, rng)
        assert pick.power == min(m.power for m in unstable)


class TestUniform:
    def test_picks_from_unstable_set(self, game, rng):
        view, unstable = _unstable_state(game)
        for _ in range(20):
            assert UniformRandomScheduler().pick_view(view, unstable, rng) in unstable

    def test_eventually_picks_everyone(self, game):
        view, unstable = _unstable_state(game, min_unstable=2)
        scheduler = UniformRandomScheduler()
        seen = {
            scheduler.pick_view(view, unstable, np.random.default_rng(i))
            for i in range(100)
        }
        assert seen == set(unstable)


class TestRoundRobin:
    def test_cycles_in_miner_order(self, game, rng):
        view, unstable = _unstable_state(game, min_unstable=2)
        scheduler = RoundRobinScheduler()
        first = scheduler.pick_view(view, unstable, rng)
        second = scheduler.pick_view(view, unstable, rng)
        assert first != second or len(unstable) == 1

    def test_reset_restarts_cursor(self, game, rng):
        view, unstable = _unstable_state(game, min_unstable=2)
        scheduler = RoundRobinScheduler()
        first = scheduler.pick_view(view, unstable, rng)
        scheduler.pick_view(view, unstable, rng)
        scheduler.reset()
        assert scheduler.pick_view(view, unstable, rng) == first

    def test_skips_stable_miners(self, game, rng):
        view, unstable = _unstable_state(game)
        scheduler = RoundRobinScheduler()
        for _ in range(2 * len(game.miners)):
            assert scheduler.pick_view(view, unstable, rng) in unstable
