"""Proposition 2 machinery: finding the better equilibrium (Section 4).

Under Assumptions 1 and 2, for *every* stable configuration there is a
miner and another stable configuration where that miner earns strictly
more. This module finds such witnesses:

* :func:`find_better_equilibrium_exhaustive` — scan all equilibria
  (small games; exact).
* :func:`find_better_equilibrium_sampled` — sample equilibria via
  learning from random starts (any scale; sound but incomplete).
* :func:`improvement_opportunities` — the full list of (miner, target
  equilibrium, gain) pairs, the raw material for deciding *which*
  manipulation to buy with the Section 5 mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from repro.core.configuration import Configuration
from repro.core.equilibrium import iter_equilibria
from repro.core.factories import random_configuration
from repro.core.game import Game
from repro.core.miner import Miner
from repro.learning.engine import LearningEngine
from repro.util.rng import RngLike, spawn_rngs


@dataclass(frozen=True)
class Improvement:
    """A Proposition 2 witness: miner *miner* prefers *target* to the start."""

    miner: Miner
    target: Configuration
    payoff_before: Fraction
    payoff_after: Fraction

    @property
    def gain(self) -> Fraction:
        return self.payoff_after - self.payoff_before

    @property
    def gain_ratio(self) -> float:
        return float(self.payoff_after / self.payoff_before)


def find_better_equilibrium_exhaustive(
    game: Game, current: Configuration
) -> Optional[Improvement]:
    """The largest-gain Proposition 2 witness, by exhaustive enumeration.

    Returns ``None`` only when no miner improves in any other
    equilibrium — impossible under Assumptions 1 and 2 with more than
    one equilibrium (Claim 4), so a ``None`` on a supposedly-generic
    game is itself a red flag worth investigating.
    """
    best: Optional[Improvement] = None
    for equilibrium in iter_equilibria(game):
        if equilibrium == current:
            continue
        for miner in game.miners:
            before = game.payoff(miner, current)
            after = game.payoff(miner, equilibrium)
            if after > before and (best is None or after - before > best.gain):
                best = Improvement(
                    miner=miner,
                    target=equilibrium,
                    payoff_before=before,
                    payoff_after=after,
                )
    return best


def find_better_equilibrium_sampled(
    game: Game,
    current: Configuration,
    *,
    samples: int = 50,
    seed: RngLike = None,
) -> Optional[Improvement]:
    """A Proposition 2 witness found by sampling equilibria via learning.

    Runs better-response learning from *samples* random starts; every
    endpoint is a genuine equilibrium (Theorem 1), so any witness found
    is exact — but absence of a witness proves nothing.
    """
    rngs = spawn_rngs(seed, 2 * samples)
    engine = LearningEngine(record_configurations=False)
    best: Optional[Improvement] = None
    for index in range(samples):
        start = random_configuration(game, seed=rngs[2 * index])
        equilibrium = engine.run(game, start, seed=rngs[2 * index + 1]).final
        if equilibrium == current:
            continue
        for miner in game.miners:
            before = game.payoff(miner, current)
            after = game.payoff(miner, equilibrium)
            if after > before and (best is None or after - before > best.gain):
                best = Improvement(
                    miner=miner,
                    target=equilibrium,
                    payoff_before=before,
                    payoff_after=after,
                )
    return best


def improvement_opportunities(
    game: Game,
    current: Configuration,
    equilibria: Sequence[Configuration],
) -> List[Improvement]:
    """All (miner, equilibrium) pairs that strictly beat *current*."""
    opportunities: List[Improvement] = []
    for equilibrium in equilibria:
        if equilibrium == current:
            continue
        for miner in game.miners:
            before = game.payoff(miner, current)
            after = game.payoff(miner, equilibrium)
            if after > before:
                opportunities.append(
                    Improvement(
                        miner=miner,
                        target=equilibrium,
                        payoff_before=before,
                        payoff_after=after,
                    )
                )
    opportunities.sort(key=lambda imp: imp.gain, reverse=True)
    return opportunities
