"""Tests for trajectory bookkeeping."""

from fractions import Fraction

from repro.core.factories import random_configuration, random_game
from repro.learning.engine import LearningEngine


def _run(seed=0, **kwargs):
    game = random_game(7, 3, seed=seed)
    engine = LearningEngine(**kwargs)
    start = random_configuration(game, seed=seed + 1)
    return game, engine.run(game, start, seed=seed + 2)


class TestTrajectory:
    def test_endpoints(self):
        game, trajectory = _run()
        assert trajectory.initial == trajectory.configurations[0]
        assert trajectory.final == trajectory.configurations[-1]

    def test_length_counts_steps(self):
        _, trajectory = _run()
        assert trajectory.length == len(trajectory.steps)
        assert len(trajectory.configurations) == trajectory.length + 1

    def test_total_gain_positive_when_moved(self):
        _, trajectory = _run()
        if trajectory.length == 0:
            return
        assert trajectory.total_gain() > 0

    def test_moves_per_miner_sums_to_length(self):
        _, trajectory = _run()
        assert sum(trajectory.moves_per_miner().values()) == trajectory.length

    def test_coin_flow_sums_to_length(self):
        _, trajectory = _run()
        assert sum(trajectory.coin_flow().values()) == trajectory.length

    def test_flow_never_self_loops(self):
        _, trajectory = _run()
        for (source, target), count in trajectory.coin_flow().items():
            assert source != target
            assert count > 0

    def test_summary_mentions_convergence(self):
        _, trajectory = _run()
        assert "converged" in trajectory.summary()

    def test_step_indices_sequential(self):
        _, trajectory = _run()
        assert [step.index for step in trajectory.steps] == list(
            range(trajectory.length)
        )
