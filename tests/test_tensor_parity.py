"""Parity suite: the tensor population kernel vs. the scalar stepper.

``executor="vectorized"`` is only admissible because
:func:`repro.kernel.tensor.run_trajectory_population` replays the
scalar :class:`~repro.kernel.engine.KernelView` trajectory loop
bit-for-bit — same finals, same step counts, same convergence
verdicts, and the *same RNG stream consumption* (asserted on the final
``bit_generator.state``). These tests sweep well over 200 randomized
games — mixed shapes, with and without allowed-coin masks, across all
three arithmetic lanes — in single mixed populations, plus a
hypothesis sweep over tie-heavy integer games and the int64-overflow
exact-fallback lane.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configuration import Configuration
from repro.core.factories import random_configuration, random_game
from repro.core.game import Game
from repro.kernel.core import KernelGame
from repro.kernel.engine import KernelView
from repro.kernel.tensor import (
    SimultaneousJob,
    TrajectoryJob,
    kernel_lane,
    policy_kind,
    run_simultaneous_population,
    run_trajectory_population,
    scheduler_kind,
    stable_mask,
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
    SmallestFirstScheduler,
    UniformRandomScheduler,
)
from repro.learning.simultaneous import run_simultaneous

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

SIZES = ((3, 2), (5, 2), (6, 3), (8, 3), (10, 4), (40, 5))


def scalar_reference(game, policy, scheduler, start, seed):
    """Run the scalar KernelView stepper; return (final, steps, conv, rng state)."""
    view = KernelView(game, start)
    rng = np.random.default_rng(seed)
    trajectory = run_better_response(
        view, policy, scheduler, rng, max_steps=1_000_000, record="summary"
    )
    return (
        tuple(view.assign),
        trajectory.length,
        trajectory.converged,
        rng.bit_generator.state,
    )


def tensor_job(kernel, game, policy, scheduler, start, seed):
    kind, epsilon = policy_kind(policy)
    return TrajectoryJob(
        kernel=kernel,
        assign=kernel.assignment_of(start),
        rng=np.random.default_rng(seed),
        policy=kind,
        scheduler=scheduler_kind(scheduler),
        epsilon=epsilon,
    )


def random_mask(game, rng):
    """Each miner keeps each coin with probability 0.7 (at least one)."""
    allowed = {}
    for miner in game.miners:
        picks = [coin for coin in game.coins if rng.random() < 0.7]
        allowed[miner] = picks or [game.coins[int(rng.integers(0, len(game.coins)))]]
    return allowed


def assert_population_matches(jobs, refs):
    """One run_trajectory_population call; every outcome bit-identical."""
    outcomes = run_trajectory_population(jobs)
    assert len(outcomes) == len(refs)
    for index, (out, ref) in enumerate(zip(outcomes, refs)):
        final, steps, converged, rng_state = ref
        assert out.final_assign == final, index
        assert out.steps == steps, index
        assert out.converged == converged, index
        assert jobs[index].rng.bit_generator.state == rng_state, index


def test_population_parity_unmasked():
    """144 mixed-shape games, all policies × schedulers, ONE population."""
    jobs, refs = [], []
    for seed in range(144):
        n, k = SIZES[seed % len(SIZES)]
        game = random_game(n, k, seed=seed)
        kernel = KernelGame(game)
        start = random_configuration(game, seed=seed + 1000)
        policy = POLICIES[seed % len(POLICIES)]
        scheduler = SCHEDULERS[(seed // len(POLICIES)) % len(SCHEDULERS)]
        refs.append(scalar_reference(game, policy, scheduler, start, seed))
        jobs.append(tensor_job(kernel, game, policy, scheduler, start, seed))
    assert_population_matches(jobs, refs)


def test_population_parity_masked():
    """60 games with random allowed-coin masks (the restricted case)."""
    jobs, refs = [], []
    for seed in range(60):
        n, k = SIZES[seed % 4]  # keep the masked sweep on small shapes
        base = random_game(n, k, seed=seed + 50)
        game = base.with_allowed(random_mask(base, np.random.default_rng(seed)))
        kernel = KernelGame(game)
        start = random_configuration(game, seed=seed + 9000)
        policy = POLICIES[seed % len(POLICIES)]
        scheduler = SCHEDULERS[seed % len(SCHEDULERS)]
        refs.append(scalar_reference(game, policy, scheduler, start, seed))
        jobs.append(tensor_job(kernel, game, policy, scheduler, start, seed))
    assert_population_matches(jobs, refs)


def test_population_parity_int_lane():
    """Small integer games ride the exact-int64 lane; still bit-identical."""
    jobs, refs = [], []
    for seed in range(30):
        rng = np.random.default_rng(seed + 123)
        powers = [
            Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 4)))
            for _ in range(5)
        ]
        rewards = [Fraction(int(rng.integers(1, 6))) for _ in range(3)]
        game = Game.create(powers=powers, reward_values=rewards)
        kernel = KernelGame(game)
        assert kernel_lane(kernel) == "int"
        start = random_configuration(game, seed=seed)
        policy = POLICIES[seed % len(POLICIES)]
        scheduler = SCHEDULERS[seed % len(SCHEDULERS)]
        refs.append(scalar_reference(game, policy, scheduler, start, seed))
        jobs.append(tensor_job(kernel, game, policy, scheduler, start, seed))
    assert_population_matches(jobs, refs)


def test_factory_games_use_float_lane():
    kernel = KernelGame(random_game(10, 4, seed=0))
    assert kernel_lane(kernel) == "float"


def test_exact_fallback_on_int64_overflow():
    """Products past 2^62 route the whole game to the scalar-exact lane."""
    big = 2**70
    game = Game.create(
        powers=[Fraction(3 * big + i, big) for i in range(4)],
        reward_values=[Fraction(2 * big + 1, big), Fraction(5 * big + 3, big)],
    )
    kernel = KernelGame(game)
    assert kernel_lane(kernel) == "exact"
    start = random_configuration(game, seed=1)
    for policy, scheduler in ((RandomImprovingPolicy(), UniformRandomScheduler()),
                              (BestResponsePolicy(), RoundRobinScheduler())):
        ref = scalar_reference(game, policy, scheduler, start, 7)
        job = tensor_job(kernel, game, policy, scheduler, start, 7)
        assert_population_matches([job], [ref])


@settings(max_examples=40, deadline=None)
@given(
    powers=st.lists(st.integers(min_value=1, max_value=3), min_size=3, max_size=6),
    rewards=st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_tie_heavy_games_parity(powers, rewards, seed):
    """Tiny repeated-value games maximize ties; tie-breaks must agree."""
    game = Game.create(
        powers=[Fraction(p) for p in powers],
        reward_values=[Fraction(r) for r in rewards],
    )
    kernel = KernelGame(game)
    start = random_configuration(game, seed=seed)
    policy = POLICIES[seed % len(POLICIES)]
    scheduler = SCHEDULERS[seed % len(SCHEDULERS)]
    ref = scalar_reference(game, policy, scheduler, start, seed)
    job = tensor_job(kernel, game, policy, scheduler, start, seed)
    assert_population_matches([job], [ref])


def test_stable_mask_matches_is_stable():
    game = random_game(8, 3, seed=400)
    kernel = KernelGame(game)
    rows = [
        kernel.assignment_of(random_configuration(game, seed=seed))
        for seed in range(25)
    ]
    verdicts = stable_mask(kernel, np.array(rows))
    for index, row in enumerate(rows):
        config = Configuration(game.miners, [game.coins[j] for j in row])
        assert bool(verdicts[index]) == kernel.is_stable(config)


def test_simultaneous_population_parity():
    """Batched simultaneous rounds replicate run_simultaneous exactly.

    Unmasked games start at random; masked ones (float and int lanes)
    start every miner on its first allowed coin. Finals, verdicts and
    final generator states must all match.
    """
    cases = []
    for seed in range(20):
        game = random_game(6, 3, seed=seed + 600)
        cases.append((game, random_configuration(game, seed=seed)))
    for seed in range(20):
        rng = np.random.default_rng(seed + 700)
        if seed % 2:
            base = random_game(6, 3, seed=seed + 700)
        else:
            base = Game.create(
                powers=[int(rng.integers(1, 9)) for _ in range(6)],
                reward_values=[int(rng.integers(1, 6)) for _ in range(3)],
            )
        allowed = random_mask(base, rng)
        game = base.with_allowed(allowed)
        cases.append(
            (game, Configuration(game.miners, [allowed[m][0] for m in game.miners]))
        )
    jobs, refs = [], []
    for game, start in cases:
        kernel = KernelGame(game)
        for inertia in (0.0, 0.25):
            ref_rng = np.random.default_rng(9)
            ref = run_simultaneous(
                game, start, inertia=inertia, max_rounds=300,
                seed=ref_rng, backend="fast",
            )
            refs.append((
                ref.rounds,
                ref.converged,
                ref.cycle_start,
                tuple(kernel.assignment_of(ref.final)),
                ref_rng.bit_generator.state,
            ))
            jobs.append(SimultaneousJob(
                kernel=kernel,
                assign=kernel.assignment_of(start),
                rng=np.random.default_rng(9),
                inertia=inertia,
                max_rounds=300,
            ))
    assert {kernel_lane(job.kernel) for job in jobs[40:]} == {"int", "float"}
    outcomes = run_simultaneous_population(jobs)
    for index, (out, ref) in enumerate(zip(outcomes, refs)):
        rounds, converged, cycle_start, final, rng_state = ref
        assert out.rounds == rounds, index
        assert out.converged == converged, index
        assert out.cycle_start == cycle_start, index
        assert out.final_assign == final, index
        assert jobs[index].rng.bit_generator.state == rng_state, index


@pytest.mark.parametrize(
    "engine_kwargs",
    [
        dict(budget=8, max_activations=400),
        dict(budget=64, max_activations=800, inertia=0.2),
        dict(budget=16, max_activations=600, exploration=0.1),
    ],
)
def test_noisy_vectorized_lockstep_parity(engine_kwargs):
    """The noisy lockstep stepper is bit-identical to the serial runner."""
    from repro.stochastic.noisy_engine import NoisyBatchRunner, NoisyLearningEngine

    game = random_game(6, 3, seed=31)
    engine = NoisyLearningEngine(**engine_kwargs)
    serial = NoisyBatchRunner(executor="serial").run(
        game, replications=10, engine=engine, seed=77
    )
    vectorized = NoisyBatchRunner(executor="vectorized").run(
        game, replications=10, engine=engine, seed=77
    )
    assert serial == vectorized
