"""Parity suite: the integer kernel must be bit-for-bit the Fraction core.

The ``"fast"`` backend is only admissible because every decision it
makes — better-response sets, stability verdicts, scheduler picks,
policy choices, step payoffs — is identical to the ``"exact"``
Fraction backend, *including the sequence of RNG draws*. These tests
sweep well over 200 randomized games and assert exactly that, plus a
hypothesis property for the structural queries.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.convergence import measure_convergence
from repro.core.configuration import Configuration
from repro.core.factories import random_configuration, random_game
from repro.core.game import Game
from repro.core.restricted import RestrictedGame
from repro.kernel import BatchRunner, KernelGame
from repro.learning.engine import LearningEngine
from repro.learning.policies import (
    BestResponsePolicy,
    EpsilonGreedyPolicy,
    FirstImprovingPolicy,
    MaxRpuPolicy,
    MinimalGainPolicy,
    RandomImprovingPolicy,
)
from repro.learning.restricted_engine import RestrictedLearningEngine
from repro.learning.schedulers import (
    LargestFirstScheduler,
    RoundRobinScheduler,
    SmallestFirstScheduler,
    UniformRandomScheduler,
)
from repro.learning.simultaneous import run_simultaneous
from repro.sweep import SweepGrid, run_sweep

POLICIES = (
    BestResponsePolicy(),
    RandomImprovingPolicy(),
    MinimalGainPolicy(),
    MaxRpuPolicy(),
    EpsilonGreedyPolicy(0.25),
    FirstImprovingPolicy(),
)

SCHEDULERS = (
    UniformRandomScheduler(),
    RoundRobinScheduler(),
    LargestFirstScheduler(),
    SmallestFirstScheduler(),
)

SIZES = ((3, 2), (5, 2), (6, 3), (8, 3), (10, 4))


def assert_trajectories_identical(exact, fast):
    """Step-for-step, payoff-for-payoff, configuration-for-configuration."""
    assert exact.converged == fast.converged
    assert len(exact.steps) == len(fast.steps)
    for a, b in zip(exact.steps, fast.steps):
        assert a.index == b.index
        assert a.miner == b.miner
        assert a.source == b.source
        assert a.target == b.target
        assert a.payoff_before == b.payoff_before
        assert a.payoff_after == b.payoff_after
    assert exact.configurations == fast.configurations


def test_structure_parity_on_random_games():
    """Better-response sets, best responses and stability verdicts agree."""
    for game_seed in range(120):
        n, k = SIZES[game_seed % len(SIZES)]
        game = random_game(n, k, seed=game_seed)
        kernel = KernelGame(game)
        config = random_configuration(game, seed=game_seed + 10_000)
        for miner in game.miners:
            assert kernel.better_response_moves(miner, config) == (
                game.better_response_moves(miner, config)
            )
            assert kernel.best_response(miner, config) == game.best_response(miner, config)
        assert kernel.unstable_miners(config) == game.unstable_miners(config)
        assert kernel.is_stable(config) == game.is_stable(config)


def test_trajectory_parity_on_200_random_games():
    """Fast and exact trajectories are identical on ≥200 randomized games."""
    for game_seed in range(200):
        n, k = SIZES[game_seed % len(SIZES)]
        game = random_game(n, k, seed=game_seed)
        start = random_configuration(game, seed=game_seed + 20_000)
        policy = POLICIES[game_seed % len(POLICIES)]
        scheduler = SCHEDULERS[game_seed % len(SCHEDULERS)]
        exact = LearningEngine(policy=policy, scheduler=scheduler, backend="exact").run(
            game, start, seed=game_seed
        )
        fast = LearningEngine(policy=policy, scheduler=scheduler, backend="fast").run(
            game, start, seed=game_seed
        )
        assert_trajectories_identical(exact, fast)
        # Both land on the same equilibrium, stable under both cores.
        assert exact.final == fast.final
        assert game.is_stable(fast.final)
        assert KernelGame(game).is_stable(fast.final)


def test_trajectory_parity_without_recording():
    """record_configurations=False keeps [initial, final] in both backends."""
    game = random_game(8, 3, seed=5)
    start = random_configuration(game, seed=6)
    runs = []
    for backend in ("exact", "fast"):
        engine = LearningEngine(record_configurations=False, backend=backend)
        runs.append(engine.run(game, start, seed=7))
    exact, fast = runs
    assert_trajectories_identical(exact, fast)
    assert len(fast.configurations) == (2 if fast.steps else 1)


def test_custom_policy_falls_back_to_exact_loop():
    """A policy subclass with its own choose() must not take the fast path."""

    class StubbornFirst(RandomImprovingPolicy):
        name = "stubborn-first"

        def choose(self, game, config, miner, rng):
            moves = game.better_response_moves(miner, config)
            return moves[0] if moves else None

    game = random_game(6, 3, seed=11)
    start = random_configuration(game, seed=12)
    custom = LearningEngine(policy=StubbornFirst(), backend="fast").run(game, start, seed=13)
    reference = LearningEngine(policy=FirstImprovingPolicy(), backend="exact").run(
        game, start, seed=13
    )
    # The override was honored (it behaves like first-improving, not random).
    assert_trajectories_identical(reference, custom)


def test_restricted_engine_parity():
    """Restricted (asymmetric) learning agrees across backends and modes."""
    for game_seed in range(30):
        game = random_game(7, 3, seed=game_seed + 300)
        rng = np.random.default_rng(game_seed)
        allowed = {}
        for miner in game.miners:
            picks = [coin for coin in game.coins if rng.random() < 0.7]
            allowed[miner] = picks or [game.coins[int(rng.integers(0, len(game.coins)))]]
        restricted = RestrictedGame(game, allowed)
        start = Configuration(
            game.miners,
            [
                restricted.allowed_coins(miner)[
                    int(rng.integers(0, len(restricted.allowed_coins(miner))))
                ]
                for miner in game.miners
            ],
        )
        for mode in ("random", "best", "minimal"):
            exact = RestrictedLearningEngine(mode=mode, backend="exact").run(
                restricted, start, seed=game_seed
            )
            fast = RestrictedLearningEngine(mode=mode, backend="fast").run(
                restricted, start, seed=game_seed
            )
            assert_trajectories_identical(exact, fast)
            assert restricted.is_stable(fast.final)


def test_simultaneous_parity():
    """Synchronous dynamics agree on rounds, cycles and inertia draws."""
    for game_seed in range(30):
        game = random_game(6, 3, seed=game_seed + 600)
        start = random_configuration(game, seed=game_seed)
        for inertia in (0.0, 0.25):
            exact = run_simultaneous(
                game, start, inertia=inertia, max_rounds=300, seed=9, backend="exact"
            )
            fast = run_simultaneous(
                game, start, inertia=inertia, max_rounds=300, seed=9, backend="fast"
            )
            assert exact.converged == fast.converged
            assert exact.cycle_start == fast.cycle_start
            assert exact.configurations == fast.configurations


def test_batch_runner_matches_serial_measurement():
    """Pooled and vectorized measurements reproduce the serial loop's statistics."""
    game = random_game(10, 3, seed=77)
    serial = measure_convergence(game, runs=12, seed=123, backend="fast", executor="serial")
    for executor in ("thread", "process", "vectorized"):
        with warnings.catch_warnings():
            # Hosts without process pools degrade to serial.
            warnings.simplefilter("ignore", RuntimeWarning)
            batched = measure_convergence(
                game, runs=12, seed=123, backend="fast", executor=executor, max_workers=2
            )
        assert batched == serial


def test_batch_runner_grid_is_deterministic():
    """Policy × scheduler grids are reproducible seed-for-seed."""
    game = random_game(8, 3, seed=88)
    grid = SweepGrid(
        {
            "policy": [BestResponsePolicy(), RandomImprovingPolicy()],
            "scheduler": [UniformRandomScheduler()],
        },
        base={"game": game, "runs": 4},
    )
    first = run_sweep(grid, seed=5, executor="serial").results
    second = run_sweep(grid, seed=5, executor="thread", max_workers=2).results
    assert first == second
    assert set(first) == {
        "policy=best-response/scheduler=uniform",
        "policy=random-improving/scheduler=uniform",
    }
    for summaries in first.values():
        assert len(summaries) == 4
        assert all(summary.converged for summary in summaries)
        for summary in summaries:
            final = summary.final_configuration(game)
            assert game.is_stable(final)


@st.composite
def small_games(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    k = draw(st.integers(min_value=2, max_value=4))
    powers = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100)),
            min_size=n,
            max_size=n,
        )
    )
    rewards = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100)),
            min_size=k,
            max_size=k,
        )
    )
    choices = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    return powers, rewards, choices


@settings(max_examples=60, deadline=None)
@given(small_games())
def test_structure_parity_property(data):
    """Hypothesis: arbitrary exact-rational games agree query-for-query.

    Unlike the factory sweep this explores tie-heavy games (duplicate
    powers and rewards), where strictness of inequalities matters most.
    """
    powers, rewards, choices = data
    game = Game.create(powers=powers, reward_values=rewards)
    kernel = KernelGame(game)
    config = Configuration(game.miners, [game.coins[i] for i in choices])
    for miner in game.miners:
        assert kernel.better_response_moves(miner, config) == (
            game.better_response_moves(miner, config)
        )
        assert kernel.best_response(miner, config) == game.best_response(miner, config)
    assert kernel.is_stable(config) == game.is_stable(config)


def test_backend_validation():
    with pytest.raises(ValueError):
        LearningEngine(backend="approximate")
    with pytest.raises(ValueError):
        BatchRunner(backend="float")
    with pytest.raises(ValueError):
        BatchRunner(executor="fibers")
