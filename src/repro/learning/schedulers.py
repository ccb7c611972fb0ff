"""Activation schedulers: *who* takes the next better-response step.

The paper allows improvement steps "in any order"; a scheduler realizes
one such order. Together with a policy
(:mod:`repro.learning.policies`) a scheduler instantiates one concrete
better-response learning process out of the arbitrary family that
Theorem 1 quantifies over.

Like policies, schedulers are written against the strategy-view API:
implement the abstract

    ``pick_view(self, view, unstable, rng) -> Miner``

and read whatever the view exposes (``view.miners`` for a fixed
activation order, payoffs for priority rules, …). View-based
schedulers run on the integer kernel with RNG draws identical to the
Fraction backend.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.core.miner import Miner
from repro.learning.view import GameView


class ActivationScheduler(abc.ABC):
    """Strategy interface: pick which unstable miner moves next."""

    name: str = "abstract"

    @abc.abstractmethod
    def pick_view(
        self,
        view: GameView,
        unstable: Sequence[Miner],
        rng: np.random.Generator,
    ) -> Miner:
        """One miner out of the (non-empty) unstable set, given the view."""

    def reset(self) -> None:
        """Clear any internal state before a new run (default: none)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class UniformRandomScheduler(ActivationScheduler):
    """Activate a uniformly random unstable miner."""

    name = "uniform"

    def pick_view(self, view, unstable, rng):
        return unstable[int(rng.integers(0, len(unstable)))]


class RoundRobinScheduler(ActivationScheduler):
    """Cycle through miners in fixed order, skipping stable ones.

    Models synchronized periodic re-evaluation (e.g. miners re-checking
    profitability once per difficulty epoch).
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def pick_view(self, view, unstable, rng):
        order = view.miners
        unstable_set = set(unstable)
        for offset in range(len(order)):
            candidate = order[(self._cursor + offset) % len(order)]
            if candidate in unstable_set:
                self._cursor = (self._cursor + offset + 1) % len(order)
                return candidate
        raise AssertionError("pick_view() called with no unstable miner; engine bug")


class LargestFirstScheduler(ActivationScheduler):
    """Always activate the most powerful unstable miner.

    Big pools react fastest in practice (dedicated strategy teams,
    automated switching); this scheduler models that.
    """

    name = "largest-first"

    def pick_view(self, view, unstable, rng):
        return max(unstable, key=lambda miner: (miner.power, miner.name))


class SmallestFirstScheduler(ActivationScheduler):
    """Always activate the least powerful unstable miner.

    The adversarial order for the reward design mechanism, whose stage
    invariants are proved against arbitrary orders — small miners
    ping-ponging is the worst case for stage length.
    """

    name = "smallest-first"

    def pick_view(self, view, unstable, rng):
        return min(unstable, key=lambda miner: (miner.power, miner.name))


#: The named schedulers experiments sweep over.
STANDARD_SCHEDULERS = (
    UniformRandomScheduler(),
    RoundRobinScheduler(),
    LargestFirstScheduler(),
    SmallestFirstScheduler(),
)
