"""Head-to-head: the unified view-driven trajectory loop, fast vs exact.

Three workload cells, each run on both backends so
``benchmarks/compare.py`` tracks the strategy-view refactor's speedups:

* ``standard`` — an E9-sized trajectory workload (20 miners × 4 coins,
  random-improving × uniform) with the built-in strategies;
* ``custom`` — the same workload under a *custom* view-based policy
  and scheduler subclass. Before the refactor custom subclasses were
  exiled to the exact Fraction loop; now they ride the integer kernel,
  which is the refactor's headline speedup;
* ``restricted`` — a hardware-restricted (asymmetric) game, run by
  ``LearningEngine`` on the integer kernel's mask-aware fast path.

Each fast cell asserts bit-identical final states against its exact
twin, so the bench doubles as a parity check at benchmark scale.
"""

from __future__ import annotations

import numpy as np

from repro.core.configuration import Configuration
from repro.core.factories import random_configuration, random_game
from repro.core.restricted import RestrictedGame
from repro.learning.engine import LearningEngine
from repro.learning.examples import PowerWeightedScheduler, SecondBestPolicy

MINERS = 20
COINS = 4
RUNS = 8


def _trajectories(backend, policy=None, scheduler=None):
    game = random_game(MINERS, COINS, power_distribution="pareto", seed=7)
    engine = LearningEngine(
        policy=policy,
        scheduler=scheduler,
        record="steps",
        backend=backend,
    )
    finals = []
    for run in range(RUNS):
        start = random_configuration(game, seed=1000 + run)
        finals.append(engine.run(game, start, seed=run).final)
    return finals


def _restricted_trajectories(backend):
    game = random_game(12, 4, seed=11)
    rng = np.random.default_rng(11)
    allowed = {}
    for miner in game.miners:
        picks = [coin for coin in game.coins if rng.random() < 0.7]
        allowed[miner] = picks or [game.coins[int(rng.integers(0, len(game.coins)))]]
    restricted = RestrictedGame(game, allowed)
    engine = LearningEngine(record="steps", backend=backend)
    finals = []
    for run in range(RUNS):
        start = Configuration(
            game.miners,
            [
                restricted.allowed_coins(miner)[
                    int(rng.integers(0, len(restricted.allowed_coins(miner))))
                ]
                for miner in game.miners
            ],
        )
        finals.append(engine.run(restricted, start, seed=run).final)
    return finals


def test_engine_standard_exact(benchmark):
    finals = benchmark(_trajectories, "exact")
    assert len(finals) == RUNS


def test_engine_standard_fast(benchmark):
    finals = benchmark(_trajectories, "fast")
    assert finals == _trajectories("exact")


def test_engine_custom_exact(benchmark):
    finals = benchmark(
        _trajectories, "exact", SecondBestPolicy(), PowerWeightedScheduler()
    )
    assert len(finals) == RUNS


def test_engine_custom_fast(benchmark):
    finals = benchmark(
        _trajectories, "fast", SecondBestPolicy(), PowerWeightedScheduler()
    )
    assert finals == _trajectories("exact", SecondBestPolicy(), PowerWeightedScheduler())


def test_engine_restricted_exact(benchmark):
    finals = benchmark(_restricted_trajectories, "exact")
    assert len(finals) == RUNS


def test_engine_restricted_fast(benchmark):
    finals = benchmark(_restricted_trajectories, "fast")
    assert finals == _restricted_trajectories("exact")
