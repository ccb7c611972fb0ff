"""The integer fast-path view over :class:`~repro.kernel.core.KernelGame`.

There is one trajectory loop
(:func:`repro.learning.engine.run_better_response`), written against
the :class:`~repro.learning.view.GameView` protocol; this module only
supplies the protocol's fast implementation.

:class:`KernelView` keeps the hot state as two plain integer lists —
a coin index per miner and an incrementally maintained integer mass per
coin (O(1) update per :meth:`~KernelView.apply`) — and answers every
evaluation query through :class:`KernelGame`'s integer
cross-multiplication. Decisions are bit-for-bit the Fraction core's,
so *any* policy or scheduler (standard or custom subclass) runs on the
fast backend with identical trajectories and RNG draws. A masked
game's allowed-coin sets restrict the candidate moves through the
kernel's per-miner alphabets.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.coin import Coin
from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.core.miner import Miner
from repro.kernel.core import KernelGame
from repro.learning.view import GameView


class KernelView(GameView):
    """The ``backend="fast"`` implementation of :class:`GameView`.

    State
    -----
    ``assign``
        coin index per miner, aligned with ``game.miners`` order;
    ``mass``
        integer coin power per coin index (``M_c(s)`` kernel-scaled),
        maintained incrementally — never re-derived from the
        configuration.

    Both are exposed read-only-by-convention for index-level consumers
    (the noisy sampling engine reads masses straight off the view).
    Configurations are materialized lazily, aligned with the *initial*
    configuration's miner order so they compare equal to the exact
    backend's.
    """

    __slots__ = (
        "game",
        "kernel",
        "assign",
        "mass",
        "_slot_of",
        "_choices",
        "_config_miners",
        "_config",
    )

    def __init__(
        self,
        game: Game,
        initial: Configuration,
        *,
        kernel: Optional[KernelGame] = None,
    ):
        self.game = game
        self.kernel = kernel if kernel is not None else KernelGame(game)
        self.assign: List[int] = self.kernel.assignment_of(initial)
        self.mass: List[int] = self.kernel.mass_of(self.assign)
        # Choice slots aligned with the *initial* configuration's miner
        # order so materialized configurations compare equal to the
        # exact backend's (Configuration equality is order-strict).
        positions = {miner: pos for pos, miner in enumerate(initial.miners)}
        self._slot_of: Dict[int, int] = {
            i: positions[miner] for i, miner in enumerate(game.miners)
        }
        self._choices: List[Coin] = list(initial.choices)
        self._config_miners: Tuple[Miner, ...] = initial.miners
        self._config: Optional[Configuration] = initial

    # -- structure -----------------------------------------------------

    def coin_of(self, miner: Miner) -> Coin:
        return self.game.coins[self.assign[self.kernel.miner_index[miner]]]

    # -- evaluation ----------------------------------------------------

    def payoff(self, miner: Miner) -> Fraction:
        i = self.kernel.miner_index[miner]
        j = self.assign[i]
        return self.kernel.payoff_fraction(i, j, self.mass[j])

    def payoff_after_move(self, miner: Miner, coin: Coin) -> Fraction:
        i = self.kernel.miner_index[miner]
        j = self.kernel.coin_index[coin]
        if j == self.assign[i]:
            return self.kernel.payoff_fraction(i, j, self.mass[j])
        return self.kernel.payoff_fraction(i, j, self.mass[j] + self.kernel.powers[i])

    def improving_moves(self, miner: Miner) -> Tuple[Coin, ...]:
        i = self.kernel.miner_index[miner]
        coins = self.game.coins
        moves = self.kernel.better_moves(i, self.assign, self.mass)
        return tuple(coins[j] for j in moves)

    def best_response(self, miner: Miner) -> Optional[Coin]:
        i = self.kernel.miner_index[miner]
        j = self.kernel.best_response_idx(i, self.assign, self.mass)
        return None if j is None else self.game.coins[j]

    def unstable_miners(self) -> Tuple[Miner, ...]:
        miners = self.game.miners
        unstable = self.kernel.unstable(self.assign, self.mass)
        return tuple(miners[i] for i in unstable)

    def is_stable(self) -> bool:
        return self.kernel.stable_index(self.assign, self.mass)

    # -- selection helpers ---------------------------------------------

    def minimal_gain_move(self, miner: Miner, moves: Sequence[Coin]) -> Coin:
        i = self.kernel.miner_index[miner]
        coin_index = self.kernel.coin_index
        j = self.kernel.minimal_gain_idx(
            i, [coin_index[c] for c in moves], self.mass, self.assign[i]
        )
        return self.game.coins[j]

    def max_rpu_move(self, miner: Miner, moves: Sequence[Coin]) -> Coin:
        i = self.kernel.miner_index[miner]
        coin_index = self.kernel.coin_index
        j = self.kernel.max_rpu_idx(
            i, [coin_index[c] for c in moves], self.mass, self.assign[i]
        )
        return self.game.coins[j]

    # -- state ---------------------------------------------------------

    def apply(self, miner: Miner, coin: Coin) -> None:
        self.apply_index(self.kernel.miner_index[miner], self.kernel.coin_index[coin])

    def apply_index(self, i: int, j: int) -> None:
        """Index-level :meth:`apply` — the O(1) hot-path entry point."""
        power = self.kernel.powers[i]
        self.mass[self.assign[i]] -= power
        self.mass[j] += power
        self.assign[i] = j
        self._choices[self._slot_of[i]] = self.game.coins[j]
        self._config = None

    def configuration(self) -> Configuration:
        if self._config is None:
            self._config = Configuration(self._config_miners, self._choices)
        return self._config

    def __repr__(self) -> str:
        return f"KernelView({self.game!r})"


__all__ = ["KernelGame", "KernelView"]
