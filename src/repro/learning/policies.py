"""Better-response policies: *where* an activated miner moves.

The paper's convergence result (Theorem 1) holds for *arbitrary*
better-response learning — any sequence of individual improving steps.
A policy is the "where" half of that arbitrariness: given a miner with
at least one improving move, it picks one. The "who moves" half lives in
:mod:`repro.learning.schedulers`.

Policies are written against the strategy-view API
(:class:`~repro.learning.view.GameView`): implement the abstract

    ``choose_view(self, view, miner, rng) -> Optional[Coin]``

and query the view (``view.improving_moves(miner)``,
``view.payoff_after_move(miner, coin)``, …). Because the view protocol
answers identically on every backend, a policy written this way runs on
the integer kernel (``backend="fast"``) with trajectories and RNG draws
bit-identical to the Fraction backend — custom subclasses included.
To query a policy outside a run, wrap the state in a view:
``policy.choose_view(ExactView(game, config), miner, rng)``.

Every policy must return an *improving* coin (or ``None`` when the
miner is stable); the learning engine verifies this contract, so a
buggy custom policy fails loudly instead of corrupting convergence
measurements.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.core.coin import Coin
from repro.core.miner import Miner
from repro.learning.view import GameView


class BetterResponsePolicy(abc.ABC):
    """Strategy interface: choose an improving coin for an active miner."""

    #: Short name used in experiment tables.
    name: str = "abstract"

    @abc.abstractmethod
    def choose_view(
        self,
        view: GameView,
        miner: Miner,
        rng: np.random.Generator,
    ) -> Optional[Coin]:
        """An improving coin for *miner* at the view's state, or ``None``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class BestResponsePolicy(BetterResponsePolicy):
    """Move to the payoff-maximizing coin (classic best response)."""

    name = "best-response"

    def choose_view(self, view, miner, rng):
        return view.best_response(miner)


class RandomImprovingPolicy(BetterResponsePolicy):
    """Move to a uniformly random improving coin.

    The canonical "arbitrary better response" instance used by the
    convergence experiments.
    """

    name = "random-improving"

    def choose_view(self, view, miner, rng):
        moves = view.improving_moves(miner)
        if not moves:
            return None
        return moves[int(rng.integers(0, len(moves)))]


class MinimalGainPolicy(BetterResponsePolicy):
    """Move to the improving coin with the *smallest* payoff gain.

    An adversarially slow learner: it takes the least useful improving
    step available, which stress-tests convergence-time results and the
    reward design mechanism's "any better response learning" guarantee.
    """

    name = "minimal-gain"

    def choose_view(self, view, miner, rng):
        moves = view.improving_moves(miner)
        if not moves:
            return None
        return view.minimal_gain_move(miner, moves)


class FirstImprovingPolicy(BetterResponsePolicy):
    """Move to the first improving coin in the game's coin order.

    Deterministic; useful for regression tests that need repeatable
    trajectories without a seed.
    """

    name = "first-improving"

    def choose_view(self, view, miner, rng):
        moves = view.improving_moves(miner)
        return moves[0] if moves else None


class MaxRpuPolicy(BetterResponsePolicy):
    """Move to the improving coin with the highest *post-move* RPU.

    Mirrors how profit-switching dashboards (the paper cites
    whattomine.com) rank coins: by revenue per unit of hashpower after
    you join.
    """

    name = "max-rpu"

    def choose_view(self, view, miner, rng):
        moves = view.improving_moves(miner)
        if not moves:
            return None
        return view.max_rpu_move(miner, moves)


class EpsilonGreedyPolicy(BetterResponsePolicy):
    """Best response with probability ``1−ε``, random improving otherwise.

    A noisy learner between the two extremes; still a valid
    better-response policy because both branches return improving moves.
    """

    name = "epsilon-greedy"

    def __init__(self, epsilon: float = 0.2):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.epsilon = epsilon
        self.name = f"epsilon-greedy({epsilon})"
        self._best = BestResponsePolicy()
        self._random = RandomImprovingPolicy()

    def choose_view(self, view, miner, rng):
        if rng.random() < self.epsilon:
            return self._random.choose_view(view, miner, rng)
        return self._best.choose_view(view, miner, rng)


#: The named policies experiments sweep over.
STANDARD_POLICIES = (
    BestResponsePolicy(),
    RandomImprovingPolicy(),
    MinimalGainPolicy(),
    MaxRpuPolicy(),
)
