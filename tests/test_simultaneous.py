"""Tests for simultaneous-move dynamics."""

import pytest

from repro.core.configuration import Configuration
from repro.core.factories import random_configuration, random_game
from repro.core.game import Game
from repro.learning.simultaneous import cycling_fraction, run_simultaneous


class TestRunSimultaneous:
    def test_stable_start_converges_immediately(self):
        from repro.core.equilibrium import greedy_equilibrium

        game = random_game(6, 2, seed=0)
        equilibrium = greedy_equilibrium(game)
        result = run_simultaneous(game, equilibrium, seed=1)
        assert result.converged
        assert result.rounds == 0

    def test_two_symmetric_miners_cycle(self):
        # The classic: two identical miners on identical coins swap
        # forever under synchronous best response.
        game = Game.create([1, 1.0000001], [1, 1])
        c1 = game.coins[0]
        start = Configuration(game.miners, [c1, c1])
        result = run_simultaneous(game, start, max_rounds=50, seed=2)
        assert result.cycled
        assert not result.converged

    def test_inertia_restores_convergence(self):
        game = Game.create([1, 1.0000001], [1, 1])
        c1 = game.coins[0]
        start = Configuration(game.miners, [c1, c1])
        result = run_simultaneous(game, start, inertia=0.5, max_rounds=500, seed=3)
        assert result.converged

    def test_cycle_start_points_at_repeat(self):
        game = Game.create([1, 1.0000001], [1, 1])
        c1 = game.coins[0]
        start = Configuration(game.miners, [c1, c1])
        result = run_simultaneous(game, start, max_rounds=50, seed=4)
        repeated = result.configurations[-1]
        assert result.configurations[result.cycle_start] == repeated

    def test_parameter_validation(self):
        game = random_game(4, 2, seed=5)
        start = random_configuration(game, seed=6)
        with pytest.raises(ValueError, match="inertia"):
            run_simultaneous(game, start, inertia=1.0)
        with pytest.raises(ValueError, match="max_rounds"):
            run_simultaneous(game, start, max_rounds=0)

    def test_converged_final_is_stable(self):
        game = random_game(5, 3, seed=7)
        start = random_configuration(game, seed=8)
        result = run_simultaneous(game, start, inertia=0.5, max_rounds=2000, seed=9)
        if result.converged:
            assert game.is_stable(result.final)


class TestCyclingFraction:
    def test_inertia_reduces_cycling(self):
        game = random_game(8, 3, seed=10)
        sync = cycling_fraction(game, starts=10, inertia=0.0, seed=11)
        inertial = cycling_fraction(game, starts=10, inertia=0.6, seed=11)
        assert inertial <= sync

    def test_fraction_in_unit_interval(self):
        game = random_game(6, 2, seed=12)
        fraction = cycling_fraction(game, starts=5, seed=13)
        assert 0.0 <= fraction <= 1.0


class TestHeldRounds:
    """A round in which inertia holds every unstable miner is not convergence."""

    @staticmethod
    def _cases():
        for seed in range(200):
            game = random_game(7, 3, seed=seed)
            yield seed, game, random_configuration(game, seed=seed)

    @pytest.mark.parametrize("backend", ["fast", "exact"])
    def test_converged_iff_final_is_stable(self, backend):
        for seed, game, start in self._cases():
            result = run_simultaneous(game, start, inertia=0.5, seed=seed, backend=backend)
            assert result.converged == game.is_stable(result.final), seed

    def test_tensor_twin_matches_draw_for_draw(self):
        import numpy as np

        from repro.kernel.core import KernelGame
        from repro.kernel.tensor import SimultaneousJob, run_simultaneous_population

        jobs, refs = [], []
        for seed, game, start in self._cases():
            kernel = KernelGame(game)
            refs.append((game, kernel, run_simultaneous(
                game, start, inertia=0.5, seed=np.random.default_rng(seed)
            )))
            jobs.append(SimultaneousJob(
                kernel=kernel,
                assign=kernel.assignment_of(start),
                rng=np.random.default_rng(seed),
                inertia=0.5,
            ))
        for out, (game, kernel, ref) in zip(run_simultaneous_population(jobs), refs):
            assert out.rounds == ref.rounds
            assert out.converged == ref.converged
            assert out.final_assign == tuple(kernel.assignment_of(ref.final))
            assert out.converged == game.is_stable(ref.final)

    def test_class_twin_converged_iff_stable(self):
        from repro.kernel.classes import ClassGame, run_class_simultaneous

        for seed, game, start in self._cases():
            cgame = ClassGame.from_game(game)
            result = run_class_simultaneous(
                cgame, cgame.counts_of(start), inertia=0.5, seed=seed
            )
            assert result.converged == cgame.is_stable_counts(result.final), seed
