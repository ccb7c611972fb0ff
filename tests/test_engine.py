"""Tests for the better-response learning engine."""

import pytest

from repro.core.equilibrium import greedy_equilibrium
from repro.core.factories import random_configuration, random_game
from repro.exceptions import ConvergenceError
from repro.learning.engine import LearningEngine, converge
from repro.learning.policies import BetterResponsePolicy, MinimalGainPolicy
from repro.learning.schedulers import SmallestFirstScheduler


class TestConvergence:
    @pytest.mark.parametrize("seed", range(5))
    def test_converges_to_stable(self, seed):
        game = random_game(8, 3, seed=seed)
        engine = LearningEngine()
        trajectory = engine.run(game, random_configuration(game, seed=seed), seed=seed)
        assert trajectory.converged
        assert game.is_stable(trajectory.final)

    def test_starting_at_equilibrium_takes_zero_steps(self):
        game = random_game(6, 2, seed=1)
        equilibrium = greedy_equilibrium(game)
        trajectory = LearningEngine().run(game, equilibrium, seed=0)
        assert trajectory.length == 0
        assert trajectory.final == equilibrium

    def test_every_step_improves_the_mover(self):
        game = random_game(7, 3, seed=2)
        trajectory = LearningEngine().run(
            game, random_configuration(game, seed=3), seed=4
        )
        for step in trajectory.steps:
            assert step.gain > 0

    def test_trajectory_configurations_are_consistent(self):
        game = random_game(5, 2, seed=5)
        trajectory = LearningEngine(record="configs").run(
            game, random_configuration(game, seed=6), seed=7
        )
        for index, step in enumerate(trajectory.steps):
            before = trajectory.configurations[index]
            after = trajectory.configurations[index + 1]
            assert before.move(step.miner, step.target) == after

    def test_record_steps_keeps_endpoints(self):
        game = random_game(6, 3, seed=8)
        start = random_configuration(game, seed=9)
        trajectory = LearningEngine(record="steps").run(game, start, seed=10)
        assert trajectory.initial == start
        assert game.is_stable(trajectory.final)
        assert len(trajectory.configurations) <= 2

    def test_adversarial_learner_still_converges(self):
        game = random_game(10, 3, seed=11)
        engine = LearningEngine(
            policy=MinimalGainPolicy(), scheduler=SmallestFirstScheduler()
        )
        trajectory = engine.run(game, random_configuration(game, seed=12), seed=13)
        assert trajectory.converged


class TestBudget:
    def test_budget_exhaustion_raises(self):
        game = random_game(10, 3, seed=0)
        # Find a start that needs more than 1 step.
        start = random_configuration(game, seed=1)
        if len(game.unstable_miners(start)) == 0:
            pytest.skip("start happened to be stable")
        engine = LearningEngine(max_steps=0)
        with pytest.raises(ConvergenceError, match="did not converge"):
            engine.run(game, start, seed=2)

    def test_budget_exhaustion_can_be_soft(self):
        game = random_game(10, 3, seed=0)
        start = random_configuration(game, seed=1)
        if len(game.unstable_miners(start)) == 0:
            pytest.skip("start happened to be stable")
        engine = LearningEngine(max_steps=1, raise_on_budget=False)
        trajectory = engine.run(game, start, seed=2)
        assert not trajectory.converged or game.is_stable(trajectory.final)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="max_steps"):
            LearningEngine(max_steps=-1)


class TestContractEnforcement:
    def test_non_improving_policy_detected(self):
        class SabotagePolicy(BetterResponsePolicy):
            name = "sabotage"

            def choose_view(self, view, miner, rng):
                # Return the miner's own coin's worst alternative:
                # deliberately pick a non-improving move when possible.
                current = view.coin_of(miner)
                improving = view.improving_moves(miner)
                for coin in view.coins:
                    if coin != current and coin not in improving:
                        return coin
                return view.best_response(miner)

        game = random_game(8, 3, seed=3)
        start = random_configuration(game, seed=4)
        engine = LearningEngine(policy=SabotagePolicy())
        with pytest.raises(ConvergenceError, match="non-improving"):
            engine.run(game, start, seed=5)


def test_converge_helper_returns_equilibrium():
    game = random_game(6, 2, seed=14)
    final = converge(game, random_configuration(game, seed=15), seed=16)
    assert game.is_stable(final)
