"""The tensor kernel's per-step state and its one-pass pick.

The int lane keeps each miner's threshold ``R[assign]·p`` as state,
rewrites one entry per game per step and compacts it with the other
per-game arrays when games retire. Uniform picks read the ``d``-th True
of each mask row from one ``flatnonzero`` (``_nth_true``). These tests
hold both to the plain formulas they replace: the pick to the
``cumsum``/``argmax`` idiom, and the whole bucket to the scalar stepper
on populations whose games retire at many different steps.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.core.factories import random_configuration, random_game
from repro.core.game import Game
from repro.kernel.core import KernelGame
from repro.kernel.engine import KernelView
from repro.kernel.tensor import (
    TrajectoryJob,
    _nth_true,
    kernel_lane,
    policy_kind,
    run_trajectory_population,
    scheduler_kind,
)
from repro.learning.engine import run_better_response
from repro.learning.policies import (
    BestResponsePolicy,
    EpsilonGreedyPolicy,
    FirstImprovingPolicy,
    MaxRpuPolicy,
    MinimalGainPolicy,
    RandomImprovingPolicy,
)
from repro.learning.schedulers import (
    LargestFirstScheduler,
    RoundRobinScheduler,
    UniformRandomScheduler,
)
from repro.obs import MetricsRecorder, observe


def cumsum_pick(mask, draws):
    """The formula ``_nth_true`` replaced: first column whose running count passes d."""
    return (np.cumsum(mask, axis=1) > draws[:, None]).argmax(axis=1)


def test_nth_true_matches_cumsum_argmax_on_random_masks():
    rng = np.random.default_rng(0)
    for _ in range(300):
        g, n = int(rng.integers(1, 25)), int(rng.integers(1, 40))
        mask = rng.random((g, n)) < rng.random()
        for row in range(g):
            shape = rng.integers(0, 4)
            if shape == 0:  # a single True anywhere
                mask[row] = False
                mask[row, rng.integers(0, n)] = True
            elif shape == 1:  # a single True in the last column
                mask[row] = False
                mask[row, n - 1] = True
            elif shape == 2:
                mask[row, n - 1] = True
            elif not mask[row].any():
                mask[row, 0] = True
        counts = np.count_nonzero(mask, axis=1)
        draws = rng.integers(0, counts)
        assert np.array_equal(_nth_true(mask, counts, draws), cumsum_pick(mask, draws))


def int_lane_games(count, n=8, k=3):
    games = []
    for seed in range(count):
        rng = np.random.default_rng(seed + 77)
        powers = [Fraction(int(rng.integers(1, 30))) for _ in range(n)]
        rewards = [Fraction(int(rng.integers(1, 9))) for _ in range(k)]
        games.append(Game.create(powers=powers, reward_values=rewards))
    return games


def float_lane_games(count, n=8, k=3):
    return [random_game(n, k, seed=seed + 300) for seed in range(count)]


STRATEGIES = [
    (RandomImprovingPolicy(), UniformRandomScheduler()),
    (BestResponsePolicy(), UniformRandomScheduler()),
    (EpsilonGreedyPolicy(0.3), UniformRandomScheduler()),
    (MinimalGainPolicy(), RoundRobinScheduler()),
    (MaxRpuPolicy(), LargestFirstScheduler()),
    (FirstImprovingPolicy(), UniformRandomScheduler()),
]


@pytest.mark.parametrize("lane, make_games", [("int", int_lane_games), ("float", float_lane_games)])
@pytest.mark.parametrize(
    "policy, scheduler", STRATEGIES, ids=[f"{p.name}-{s.name}" for p, s in STRATEGIES]
)
def test_mixed_budget_bucket_matches_scalar_stepper(lane, make_games, policy, scheduler):
    """Budgets from 0 to 11 steps: games retire (converged or exhausted)
    at many different steps, so the bucket compacts its state again and
    again. Every job's steps, verdict, final state and final generator
    state equal the scalar stepper's."""
    games = make_games(30)
    kind, epsilon = policy_kind(policy)
    jobs, refs = [], []
    for seed, game in enumerate(games):
        kernel = KernelGame(game)
        assert kernel_lane(kernel) == lane
        start = random_configuration(game, seed=seed + 40)
        budget = seed % 12
        view = KernelView(game, start)
        rng = np.random.default_rng(seed)
        trajectory = run_better_response(
            view, policy, scheduler, rng,
            max_steps=budget, raise_on_budget=False, record="summary",
        )
        refs.append((tuple(view.assign), trajectory.length, trajectory.converged,
                     rng.bit_generator.state))
        jobs.append(
            TrajectoryJob(
                kernel=kernel,
                assign=kernel.assignment_of(start),
                rng=np.random.default_rng(seed),
                policy=kind,
                scheduler=scheduler_kind(scheduler),
                epsilon=epsilon,
                max_steps=budget,
                raise_on_budget=False,
            )
        )
    recorder = MetricsRecorder()
    with observe(recorder):
        outcomes = run_trajectory_population(jobs)
    assert recorder.counter("tensor.buckets") == 1
    assert recorder.counter("tensor.compactions") >= 5
    assert any(not ref[2] for ref in refs) and any(ref[2] for ref in refs)
    for index, (out, ref) in enumerate(zip(outcomes, refs)):
        final, steps, converged, state = ref
        assert out.final_assign == final, index
        assert out.steps == steps, index
        assert out.converged == converged, index
        assert jobs[index].rng.bit_generator.state == state, index
