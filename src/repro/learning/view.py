"""The strategy-view API: one evaluation protocol for every dynamic.

A :class:`GameView` is a *mutable cursor* over one configuration of one
game: it answers the handful of evaluation queries every better-response
dynamic is built from —

* ``payoff(miner)`` / ``payoff_after_move(miner, coin)``,
* ``improving_moves(miner)`` / ``best_response(miner)``,
* ``unstable_miners()`` / ``is_stable()``,
* ``apply(miner, coin)`` (advance the cursor one move),
* ``configuration()`` (materialize the current state),

plus two selection helpers the standard policies need
(``minimal_gain_move`` / ``max_rpu_move``). Policies and schedulers are
written against this protocol, and the *single* trajectory loop in
:mod:`repro.learning.engine` drives them — so there is exactly one loop
to audit, and the numeric backend is chosen by picking a view:

:class:`ExactView`
    Wraps :class:`repro.core.game.Game` directly; every quantity is a
    :class:`fractions.Fraction`. The audit backend.
:class:`~repro.kernel.engine.KernelView`
    Wraps :class:`repro.kernel.core.KernelGame`; state is an integer
    coin index per miner plus an incrementally maintained integer mass
    per coin (O(1) update per step), and every verdict is an integer
    cross-multiplication. Decision-for-decision (and RNG-draw-for-draw)
    identical to :class:`ExactView` — for *every* strategy, including
    custom subclasses, since the same strategy code runs on both.

Every view reads the game's allowed-coin mask (see
:class:`~repro.core.game.Game`): the restriction only filters candidate
moves, so it needs no loop or engine of its own —
``LearningEngine().run(masked_game, start)`` is restricted learning.
"""

from __future__ import annotations

import abc
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from repro.core.coin import Coin
from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.core.miner import Miner

#: The backend strings :func:`make_view` (and every engine) accepts.
BACKENDS = ("fast", "exact")


def check_backend(backend: str) -> None:
    """Raise :class:`ValueError` unless *backend* is in :data:`BACKENDS`.

    The one backend check: :func:`make_view`, ``LearningEngine``,
    ``BatchRunner`` and ``RunSpec`` all call it, and the CLI offers
    :data:`BACKENDS` as its ``--backend`` choices.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be 'fast' or 'exact', got {backend!r} "
            "(population-scale class runs are RunSpec(kind=\"classes\"))"
        )


class GameView(abc.ABC):
    """Evaluation protocol over one mutable configuration of one game.

    Implementations must answer every query with *identical decisions*
    (same values where Fractions leave the view, same tuple orders,
    same tie-breaks) so that a strategy consuming the view draws the
    same RNG sequence on every backend. ``tests/test_view_parity.py``
    asserts this for custom strategies, ``tests/test_kernel_parity.py``
    for the standard ones.
    """

    #: The wrapped game (strategies may read miners/coins/rewards).
    game: Game

    __slots__ = ()

    # -- read-only structure -------------------------------------------

    @property
    def miners(self) -> Tuple[Miner, ...]:
        """The game's miners, in game order."""
        return self.game.miners

    @property
    def coins(self) -> Tuple[Coin, ...]:
        """The game's coins, in game order."""
        return self.game.coins

    def allowed_coins(self, miner: Miner) -> Tuple[Coin, ...]:
        """The coins *miner* may mine (all coins when unrestricted)."""
        return self.game.allowed_coins(miner)

    @abc.abstractmethod
    def coin_of(self, miner: Miner) -> Coin:
        """The coin *miner* currently mines."""

    # -- evaluation ----------------------------------------------------

    @abc.abstractmethod
    def payoff(self, miner: Miner) -> Fraction:
        """``u_p(s)`` at the current state, exact."""

    @abc.abstractmethod
    def payoff_after_move(self, miner: Miner, coin: Coin) -> Fraction:
        """``u_p((s_{-p}, c))`` without applying the move, exact."""

    @abc.abstractmethod
    def improving_moves(self, miner: Miner) -> Tuple[Coin, ...]:
        """Allowed coins that strictly improve *miner*, in coin order."""

    @abc.abstractmethod
    def best_response(self, miner: Miner) -> Optional[Coin]:
        """The payoff-maximizing allowed improving coin, or ``None``.

        Ties resolve to the earliest coin in game order, matching
        :meth:`repro.core.game.Game.best_response`.
        """

    @abc.abstractmethod
    def unstable_miners(self) -> Tuple[Miner, ...]:
        """Miners with at least one improving move, in miner order."""

    def is_stable(self) -> bool:
        """Whether the current state is a (restricted) equilibrium."""
        return not self.unstable_miners()

    # -- selection helpers (standard policies' hot paths) --------------

    @abc.abstractmethod
    def minimal_gain_move(self, miner: Miner, moves: Sequence[Coin]) -> Coin:
        """Of *moves*, the one with the smallest post-move payoff.

        Ties break to the smaller coin name — the
        :class:`~repro.learning.policies.MinimalGainPolicy` ordering.
        *moves* may be any non-empty candidate list; "moving" to the
        miner's current coin means staying (its mass already includes
        the miner), exactly as :meth:`payoff_after_move` defines it.
        """

    @abc.abstractmethod
    def max_rpu_move(self, miner: Miner, moves: Sequence[Coin]) -> Coin:
        """Of *moves*, the one with the highest post-move RPU.

        Ties break to the larger coin name. For a fixed miner the
        post-move RPU ordering equals the post-move payoff ordering,
        so this is also "best move, ties to the larger name". The
        current coin counts as staying, as in :meth:`minimal_gain_move`.
        """

    # -- state ---------------------------------------------------------

    @abc.abstractmethod
    def apply(self, miner: Miner, coin: Coin) -> None:
        """Move *miner* to *coin*, updating incremental state in O(1)."""

    @abc.abstractmethod
    def configuration(self) -> Configuration:
        """The current state as an immutable :class:`Configuration`.

        Repeated calls between moves return the same object; the miner
        order is the initial configuration's, so materialized states
        compare equal across backends.
        """


class ExactView(GameView):
    """The Fraction backend: a game, a configuration, a live power map."""

    __slots__ = ("game", "_config", "_powers")

    def __init__(self, game: Game, initial: Configuration):
        self.game = game
        self._config = initial
        # Incrementally maintained {coin: M_c(s)}; keeps every query at
        # O(k) per miner instead of O(n·k).
        self._powers: Dict[Coin, Fraction] = game.coin_power_map(initial)

    # -- structure -----------------------------------------------------

    def coin_of(self, miner: Miner) -> Coin:
        return self._config.coin_of(miner)

    # -- evaluation ----------------------------------------------------

    def payoff(self, miner: Miner) -> Fraction:
        coin = self._config.coin_of(miner)
        return miner.power * self.game.rewards[coin] / self._powers[coin]

    def payoff_after_move(self, miner: Miner, coin: Coin) -> Fraction:
        if self._config.coin_of(miner) == coin:
            return self.payoff(miner)
        return miner.power * self.game.rewards[coin] / (self._powers[coin] + miner.power)

    def improving_moves(self, miner: Miner) -> Tuple[Coin, ...]:
        return self.game.better_response_moves_given(miner, self._config, self._powers)

    def best_response(self, miner: Miner) -> Optional[Coin]:
        rewards = self.game.rewards
        powers = self._powers
        current = self._config.coin_of(miner)
        # Best-so-far as the pair (reward, mass-denominator); strict
        # improvement only, so ties resolve to the earliest coin —
        # exactly Game.best_response.
        best_reward = rewards[current]
        best_mass = powers[current]
        best: Optional[Coin] = None
        for coin in self.game.allowed_coins(miner):
            if coin == current:
                continue
            mass = powers[coin] + miner.power
            if rewards[coin] * best_mass > best_reward * mass:
                best_reward = rewards[coin]
                best_mass = mass
                best = coin
        return best

    def unstable_miners(self) -> Tuple[Miner, ...]:
        return self.game.unstable_miners_given(self._config, self._powers)

    # -- selection helpers ---------------------------------------------

    def minimal_gain_move(self, miner: Miner, moves: Sequence[Coin]) -> Coin:
        return min(
            moves,
            key=lambda coin: (self.payoff_after_move(miner, coin), coin.name),
        )

    def max_rpu_move(self, miner: Miner, moves: Sequence[Coin]) -> Coin:
        rewards = self.game.rewards
        powers = self._powers
        current = self._config.coin_of(miner)

        def post_move_rpu(coin: Coin) -> Fraction:
            if coin == current:
                return rewards[coin] / powers[coin]
            return rewards[coin] / (powers[coin] + miner.power)

        return max(moves, key=lambda coin: (post_move_rpu(coin), coin.name))

    # -- state ---------------------------------------------------------

    def apply(self, miner: Miner, coin: Coin) -> None:
        source = self._config.coin_of(miner)
        self._config = self._config.move(miner, coin)
        self._powers[source] -= miner.power
        self._powers[coin] += miner.power

    def configuration(self) -> Configuration:
        return self._config

    def __repr__(self) -> str:
        return f"ExactView({self.game!r})"


def make_view(
    game: Game,
    initial: Configuration,
    *,
    backend: str = "fast",
    kernel=None,
) -> GameView:
    """The view for *backend*: ``"fast"`` → KernelView, ``"exact"`` →
    ExactView.

    The single seam every engine goes through. *kernel* is a prebuilt
    :class:`~repro.kernel.core.KernelGame` of *game* for the
    ``"fast"`` view to reuse instead of building its own.
    """
    check_backend(backend)
    if kernel is not None and backend != "fast":
        raise ValueError(f"kernel= is only used by backend='fast', got {backend!r}")
    if backend == "exact":
        return ExactView(game, initial)
    # Imported lazily so this module (which every strategy imports)
    # never pulls the kernel package in at import time.
    from repro.kernel.engine import KernelView

    return KernelView(game, initial, kernel=kernel)


__all__ = ["BACKENDS", "ExactView", "GameView", "check_backend", "make_view"]
