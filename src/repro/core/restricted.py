"""The asymmetric case: coins mineable only by subsets of miners.

The paper's discussion closes with: *"One also may wonder about the
asymmetric case where some coins can be mined only by a subset of the
miners."* In practice this is hardware: an SHA256d ASIC cannot mine a
Scrypt coin. This module implements that extension:

* :class:`RestrictedGame` wraps a base game with per-miner allowed coin
  sets and re-derives the strategic structure (better responses,
  stability) under the restriction.
* Theorem 1 *survives* the restriction: the ordinal potential argument
  (Observations 1–2) never uses the ability of any particular miner to
  make any particular move — restricting strategy sets only removes
  edges from the improvement graph, so `rank(list(s))` still strictly
  increases along every legal better-response step. E11 verifies this
  empirically; :meth:`RestrictedGame.compare_potential` exposes the
  comparison.
* Restricted learning is ``LearningEngine().run(restricted, start)``
  with any policy, scheduler and backend.
* Equilibrium existence also survives (the Appendix A construction
  inserts each miner at its best *allowed* coin;
  :meth:`RestrictedGame.greedy_equilibrium`). The proof of Claim 6 carries
  over verbatim because an inserted miner only makes other coins'
  crowds larger, never smaller — but *only* when every pair of miners
  shares comparable options; with disjoint hardware classes the claim
  still holds coin-class by coin-class.
* The *exact* analyses run restricted too:
  :meth:`RestrictedGame.enumerate_equilibria` /
  :meth:`RestrictedGame.iter_equilibria` (and
  ``analyze_improvement_dag`` / ``reachable_equilibria`` /
  ``find_nonzero_four_cycle``, which all accept a
  :class:`RestrictedGame` or an ``allowed=`` mask) default to
  ``backend="space"`` — the mask-aware
  :class:`~repro.kernel.space.ConfigSpace` engine walks only
  mask-valid integer configuration codes (per-miner digit alphabets,
  O(1) incremental mass updates, symmetry reduction over
  power-*and*-mask equivalence classes), and
  ``tests/test_restricted_space_parity.py`` holds it to
  configuration-for-configuration parity with the Fraction brute force
  over :meth:`RestrictedGame.all_configurations`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.coin import Coin
from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.core.miner import Miner, sorted_by_power
from repro.core.potential import compare_potential
from repro.exceptions import InvalidConfigurationError, InvalidModelError


class RestrictedGame:
    """A game plus per-miner allowed coin sets (hardware compatibility).

    The payoff structure is the base game's; only the *strategy sets*
    shrink. Every miner must be allowed at least one coin, and a
    configuration is valid only if each miner sits on an allowed coin.
    """

    __slots__ = ("_game", "_allowed")

    def __init__(self, game: Game, allowed: Mapping[Miner, Sequence[Coin]]):
        self._game = game
        known = set(game.miners)
        for miner in allowed:
            if miner not in known:
                raise InvalidModelError(
                    f"restriction names miner {miner.name!r} which is not "
                    "in this game"
                )
        converted: Dict[Miner, Tuple[Coin, ...]] = {}
        for miner in game.miners:
            if miner not in allowed:
                raise InvalidModelError(
                    f"restriction misses miner {miner.name!r}; every miner "
                    "needs an explicit allowed set"
                )
            coins = tuple(dict.fromkeys(allowed[miner]))
            if not coins:
                raise InvalidModelError(
                    f"miner {miner.name!r} must be allowed at least one coin"
                )
            for coin in coins:
                if coin not in set(game.coins):
                    raise InvalidModelError(
                        f"miner {miner.name!r} is allowed unknown coin {coin.name!r}"
                    )
            converted[miner] = coins
        self._allowed = converted

    # ------------------------------------------------------------------

    @classmethod
    def by_algorithm(
        cls,
        game: Game,
        coin_algorithms: Mapping[str, str],
        miner_hardware: Mapping[str, str],
    ) -> "RestrictedGame":
        """Build restrictions from hardware classes.

        ``coin_algorithms`` maps coin name → PoW algorithm;
        ``miner_hardware`` maps miner name → the algorithm its rigs run.
        A miner may mine exactly the coins matching its hardware.
        """
        allowed: Dict[Miner, List[Coin]] = {}
        for miner in game.miners:
            if miner.name not in miner_hardware:
                raise InvalidModelError(f"no hardware class for miner {miner.name!r}")
            algorithm = miner_hardware[miner.name]
            coins = [
                coin
                for coin in game.coins
                if coin_algorithms.get(coin.name) == algorithm
            ]
            allowed[miner] = coins
        return cls(game, allowed)

    # ------------------------------------------------------------------

    @property
    def game(self) -> Game:
        return self._game

    @property
    def miners(self) -> Tuple[Miner, ...]:
        return self._game.miners

    @property
    def coins(self) -> Tuple[Coin, ...]:
        return self._game.coins

    def allowed_coins(self, miner: Miner) -> Tuple[Coin, ...]:
        try:
            return self._allowed[miner]
        except KeyError:
            raise InvalidModelError(f"miner {miner.name!r} is not in this game")

    def allowed_in_coin_order(self, miner: Miner) -> Tuple[Coin, ...]:
        """*miner*'s allowed coins, ascending in game coin order.

        :meth:`allowed_coins` preserves the caller's mapping order;
        exhaustive scans (and the mask-aware space engine's digit
        alphabets) need the canonical ascending order instead.
        """
        allowed = set(self.allowed_coins(miner))
        return tuple(coin for coin in self._game.coins if coin in allowed)

    def allowed_map(self) -> Dict[Miner, Tuple[Coin, ...]]:
        """The full per-miner mask, for mask-consuming engines."""
        return dict(self._allowed)

    def is_allowed(self, miner: Miner, coin: Coin) -> bool:
        return coin in self._allowed.get(miner, ())

    def validate_configuration(self, config: Configuration) -> None:
        """Base-game validity plus the restriction constraint."""
        self._game.validate_configuration(config)
        for miner, coin in config:
            if not self.is_allowed(miner, coin):
                raise InvalidConfigurationError(
                    f"miner {miner.name!r} sits on {coin.name!r} which its "
                    "hardware cannot mine"
                )

    # ------------------------------------------------------------------
    # Exhaustive scans (the restricted configuration space)
    # ------------------------------------------------------------------

    def configuration_count(self) -> int:
        """Number of mask-valid configurations (``Π_p |allowed(p)|``)."""
        count = 1
        for miner in self.miners:
            count *= len(self._allowed[miner])
        return count

    def all_configurations(self) -> Iterator[Configuration]:
        """Every mask-valid configuration, in product order.

        Mirrors :meth:`repro.core.game.Game.all_configurations` — miner
        0 is the most significant position and each miner's choices run
        ascending in *game coin order* — so the scan order equals the
        mask-aware space engine's ascending-code order and restricted
        answers stay order-comparable across backends.
        """
        ordered = [self.allowed_in_coin_order(miner) for miner in self.miners]
        for choices in itertools.product(*ordered):
            yield Configuration(self.miners, list(choices))

    def enumerate_equilibria(
        self,
        *,
        limit: Optional[int] = None,
        backend: str = "space",
        symmetry: bool = True,
    ) -> List[Configuration]:
        """All pure equilibria of the restricted game, by exhaustive search.

        ``backend="space"`` (the default) scans only mask-valid integer
        configuration codes through the mask-aware
        :class:`~repro.kernel.space.ConfigSpace`;
        ``backend="exact"`` is the Fraction brute force over
        :meth:`all_configurations`. Results — content and order — are
        identical; ``limit`` guards the scan as in
        :func:`repro.core.equilibrium.enumerate_equilibria`.
        """
        from repro.core.equilibrium import enumerate_equilibria

        return enumerate_equilibria(
            self, limit=limit, backend=backend, symmetry=symmetry
        )

    def iter_equilibria(self, *, backend: str = "space") -> Iterator[Configuration]:
        """Lazily iterate the restricted equilibria in product order."""
        from repro.core.equilibrium import iter_equilibria

        return iter_equilibria(self, backend=backend)

    # ------------------------------------------------------------------
    # Strategic structure under the restriction
    # ------------------------------------------------------------------

    def better_response_moves(
        self, miner: Miner, config: Configuration
    ) -> Tuple[Coin, ...]:
        """The base game's improving moves, filtered to allowed coins."""
        return tuple(
            coin
            for coin in self._game.better_response_moves(miner, config)
            if self.is_allowed(miner, coin)
        )

    def best_response(self, miner: Miner, config: Configuration) -> Optional[Coin]:
        moves = self.better_response_moves(miner, config)
        if not moves:
            return None
        # max keeps the first maximum: ties go to the earliest coin in
        # game order, as in Game.best_response and every GameView.
        return max(
            moves, key=lambda coin: self._game.payoff_after_move(miner, coin, config)
        )

    def is_miner_stable(self, miner: Miner, config: Configuration) -> bool:
        return not self.better_response_moves(miner, config)

    def is_stable(self, config: Configuration) -> bool:
        return all(self.is_miner_stable(miner, config) for miner in self.miners)

    def unstable_miners(self, config: Configuration) -> Tuple[Miner, ...]:
        return tuple(
            miner
            for miner in self.miners
            if not self.is_miner_stable(miner, config)
        )

    def payoff(self, miner: Miner, config: Configuration) -> Fraction:
        return self._game.payoff(miner, config)

    # ------------------------------------------------------------------

    def greedy_equilibrium(self) -> Configuration:
        """Appendix A's construction restricted to allowed coins.

        Miners are inserted in decreasing power order, each to its best
        *allowed* coin given earlier insertions. The result is stable in
        the restricted game for the same reason as Claim 6: later
        insertions only increase crowds.
        """
        ordered = sorted_by_power(self.miners)
        placed: List[Miner] = []
        choices: List[Coin] = []
        partial: Optional[Configuration] = None
        for miner in ordered:
            best_coin: Optional[Coin] = None
            best_value: Optional[Fraction] = None
            for coin in self.allowed_coins(miner):
                occupied = Fraction(0)
                if partial is not None:
                    occupied = sum(
                        (other.power for other in partial.miners_on(coin)),
                        Fraction(0),
                    )
                value = self._game.rewards[coin] * miner.power / (occupied + miner.power)
                if best_value is None or value > best_value:
                    best_value = value
                    best_coin = coin
            assert best_coin is not None
            placed.append(miner)
            choices.append(best_coin)
            partial = Configuration(placed, choices)
        assert partial is not None
        assignment = {miner: coin for miner, coin in partial}
        return Configuration.from_mapping(self.miners, assignment)

    def compare_potential(self, first: Configuration, second: Configuration) -> int:
        """The base game's ordinal potential — still valid here.

        Restricting strategy sets removes improvement edges but changes
        no payoffs, so the same ``rank(list(s))`` strictly increases on
        every *legal* better-response step.
        """
        return compare_potential(self._game, first, second)

    def __repr__(self) -> str:
        restricted = sum(
            1 for miner in self.miners if len(self._allowed[miner]) < len(self.coins)
        )
        return (
            f"RestrictedGame({self._game!r}, {restricted}/{len(self.miners)} "
            "miners restricted)"
        )


def normalize_mask(
    game: Game, allowed: Optional[Mapping[Miner, Sequence[Coin]]]
) -> Optional[Dict[Miner, Tuple[Coin, ...]]]:
    """Per-miner allowed coins, ascending in game coin order; None = all.

    A miner missing from the mapping is unrestricted; a listed miner
    must belong to the game and keep at least one coin, and every
    listed coin must be a game coin — a typo'd mask raises instead of
    silently freezing a miner as "stable" (or silently running
    unrestricted). Masks that allow every coin for every miner collapse
    to ``None`` so unrestricted hot paths stay mask-free. Shared by the
    strategy views (:mod:`repro.learning.view`) and the mask-aware
    enumeration engine (:mod:`repro.kernel.space`).
    """
    if allowed is None:
        return None
    coins = game.coins
    coin_set = set(coins)
    miner_set = set(game.miners)
    for miner in allowed:
        if miner not in miner_set:
            raise InvalidModelError(
                f"allowed-coin mask names miner {miner.name!r} which is not "
                "in this game"
            )
        if not tuple(allowed[miner]):
            raise InvalidModelError(
                f"miner {miner.name!r} must be allowed at least one coin"
            )
        for coin in allowed[miner]:
            if coin not in coin_set:
                raise InvalidModelError(
                    f"allowed-coin mask gives miner {miner.name!r} unknown "
                    f"coin {coin.name!r}"
                )
    mask: Dict[Miner, Tuple[Coin, ...]] = {}
    trivial = True
    for miner in game.miners:
        if miner in allowed:
            allowed_set = set(allowed[miner])
            ordered = tuple(coin for coin in coins if coin in allowed_set)
        else:
            ordered = coins
        if len(ordered) != len(coins):
            trivial = False
        mask[miner] = ordered
    return None if trivial else mask


def as_restricted(
    game: Union[Game, "RestrictedGame"],
    allowed: Optional[Mapping[Miner, Sequence[Coin]]] = None,
) -> Tuple[Game, Optional["RestrictedGame"]]:
    """Normalize ``(game-or-RestrictedGame, allowed=)`` to ``(base, restriction)``.

    The shared front door of every analysis (and learning run) that
    accepts either a :class:`RestrictedGame` or a plain :class:`Game` plus an
    ``allowed=`` mask: returns the base game and the restriction to
    honor (``None`` when unrestricted). Miners missing from an
    ``allowed=`` mapping are unrestricted; miners (or coins) unknown to
    the game raise, and passing a mask *and* a RestrictedGame is
    ambiguous and raises.
    """
    if isinstance(game, RestrictedGame):
        if allowed is not None:
            raise InvalidModelError(
                "pass either a RestrictedGame or an allowed= mask, not both"
            )
        return game.game, game
    mask = normalize_mask(game, allowed)
    if mask is None:
        return game, None
    return game, RestrictedGame(game, mask)
