"""The Game of Coins ``G_{Π,C,F}`` (paper, Section 2).

A game couples a system ``⟨Π, C⟩`` with a reward function ``F``. Every
coin divides its reward among the miners that chose it, proportionally
to power:

    ``RPU_c(s) = F(c) / M_c(s)``            (revenue per unit of power)
    ``u_p(s)  = m_p · RPU_{s.p}(s)``        (miner payoff)

A *better-response step* of miner ``p`` from ``s.p`` to ``c`` is a move
with ``u_p(s) < u_p((s_{-p}, c))``; a configuration where no miner has a
better-response step is *stable* (a pure Nash equilibrium).

All payoff arithmetic is exact (:class:`fractions.Fraction`), so
stability checks and the ordinal potential are tie-safe.

A game may carry an *allowed-coin mask* — the asymmetric case the
paper's Discussion raises, where a miner's hardware mines only a subset
of the coins. The mask shrinks strategy sets and nothing else: payoffs
stay the same, every better-response query scans only the querying
miner's allowed coins, and a configuration is valid only when every
miner sits on an allowed coin. Theorem 1 survives because a restriction
only removes improvement edges.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod
from types import MappingProxyType
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.core.coin import Coin, RewardFunction, make_coins
from repro.core.configuration import Configuration
from repro.core.miner import Miner, make_miners, sorted_by_power
from repro._numeric import Number
from repro.exceptions import InvalidConfigurationError, InvalidModelError


#: A per-miner allowed-coin mask as callers pass it.
Mask = Mapping[Miner, Sequence[Coin]]


class Game:
    """An instance ``G_{Π,C,F}`` of the multi-coin mining game.

    *allowed* optionally restricts miners to coin subsets. A miner
    missing from the mapping is unrestricted; a listed miner must
    belong to the game and keep at least one game coin, so a typo'd
    mask raises instead of silently freezing a miner as "stable". A
    mask that allows every coin to every miner normalizes to ``None``,
    keeping unrestricted hot paths mask-free.
    """

    __slots__ = ("_miners", "_coins", "_rewards", "_miner_set", "_coin_set", "_allowed")

    def __init__(
        self,
        miners: Sequence[Miner],
        coins: Sequence[Coin],
        rewards: RewardFunction,
        allowed: Optional[Mask] = None,
    ):
        if not miners:
            raise InvalidModelError("a game needs at least one miner")
        if not coins:
            raise InvalidModelError("a game needs at least one coin")
        names = [miner.name for miner in miners]
        if len(set(names)) != len(names):
            raise InvalidModelError("miner names must be unique within a game")
        coin_names = [coin.name for coin in coins]
        if len(set(coin_names)) != len(coin_names):
            raise InvalidModelError("coin names must be unique within a game")
        for coin in coins:
            if coin not in rewards:
                raise InvalidModelError(
                    f"reward function does not cover coin {coin.name!r}"
                )
        self._miners: Tuple[Miner, ...] = tuple(miners)
        self._coins: Tuple[Coin, ...] = tuple(coins)
        self._rewards = rewards
        self._miner_set = frozenset(self._miners)
        self._coin_set = frozenset(self._coins)
        self._allowed = self._normalize_mask(allowed)

    def _normalize_mask(
        self, allowed: Optional[Mask]
    ) -> Optional[Dict[Miner, Tuple[Coin, ...]]]:
        """Per-miner allowed coins in game coin order; ``None`` = all."""
        if allowed is None:
            return None
        for miner, coins in allowed.items():
            if miner not in self._miner_set:
                raise InvalidModelError(
                    f"allowed-coin mask names miner {miner.name!r} which is not "
                    "in this game"
                )
            if not tuple(coins):
                raise InvalidModelError(
                    f"miner {miner.name!r} must be allowed at least one coin"
                )
            for coin in coins:
                if coin not in self._coin_set:
                    raise InvalidModelError(
                        f"allowed-coin mask gives miner {miner.name!r} unknown "
                        f"coin {coin.name!r}"
                    )
        mask: Dict[Miner, Tuple[Coin, ...]] = {}
        for miner in self._miners:
            listed = set(allowed.get(miner, self._coins))
            mask[miner] = tuple(coin for coin in self._coins if coin in listed)
        if all(len(coins) == len(self._coins) for coins in mask.values()):
            return None
        return mask

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        powers: Sequence[Number],
        reward_values: Sequence[Number],
        *,
        miner_prefix: str = "p",
        coin_prefix: str = "c",
    ) -> "Game":
        """Build a game from raw powers and rewards.

        Miners are named ``p1..pn`` and sorted by *decreasing power*
        (the paper's canonical indexing); coins are named ``c1..ck`` in
        the given order.
        """
        miners = sorted_by_power(make_miners(powers, prefix=miner_prefix))
        coins = make_coins(f"{coin_prefix}{i}" for i in range(1, len(reward_values) + 1))
        rewards = RewardFunction.from_values(coins, reward_values)
        return cls(miners, coins, rewards)

    def with_rewards(self, rewards: RewardFunction) -> "Game":
        """The same system ``⟨Π, C⟩`` under a different reward function.

        This is the primitive the reward design mechanism uses: each
        learning phase runs in ``G_{Π,C,H_i(s)}``.
        """
        return Game(self._miners, self._coins, rewards, self._allowed)

    def with_allowed(self, allowed: Optional[Mask]) -> "Game":
        """The same game with the allowed-coin mask *allowed*.

        The new mask replaces any existing one; ``None`` lifts every
        restriction.
        """
        return Game(self._miners, self._coins, self._rewards, allowed)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def miners(self) -> Tuple[Miner, ...]:
        return self._miners

    @property
    def coins(self) -> Tuple[Coin, ...]:
        return self._coins

    @property
    def rewards(self) -> RewardFunction:
        return self._rewards

    @property
    def allowed(self) -> Optional[Mapping[Miner, Tuple[Coin, ...]]]:
        """The normalized mask (every miner, game coin order), or ``None``.

        A read-only view: derive a new mask with :meth:`with_allowed`.
        """
        return None if self._allowed is None else MappingProxyType(self._allowed)

    def allowed_coins(self, miner: Miner) -> Tuple[Coin, ...]:
        """The coins *miner* may mine, in game coin order."""
        if self._allowed is None:
            return self._coins
        try:
            return self._allowed[miner]
        except KeyError:
            raise InvalidModelError(f"miner {miner.name!r} is not in this game")

    def is_allowed(self, miner: Miner, coin: Coin) -> bool:
        """Whether *miner*'s hardware can mine *coin*."""
        return coin in self.allowed_coins(miner)

    def miner_named(self, name: str) -> Miner:
        for miner in self._miners:
            if miner.name == name:
                return miner
        raise InvalidModelError(f"no miner named {name!r} in this game")

    def coin_named(self, name: str) -> Coin:
        for coin in self._coins:
            if coin.name == name:
                return coin
        raise InvalidModelError(f"no coin named {name!r} in this game")

    def total_power(self) -> Fraction:
        """``Σ_{p∈Π} m_p`` — used by the stage-1 reward design (Eq. 5)."""
        return sum((miner.power for miner in self._miners), Fraction(0))

    def min_power(self) -> Fraction:
        return min(miner.power for miner in self._miners)

    # ------------------------------------------------------------------
    # Configuration-level quantities
    # ------------------------------------------------------------------

    def validate_configuration(self, config: Configuration) -> None:
        """Raise unless *config* covers exactly this game's miners/coins
        and every miner sits on a coin it is allowed to mine."""
        if frozenset(config.miners) != self._miner_set:
            raise InvalidConfigurationError("configuration's miners do not match the game")
        for miner, coin in config:
            if coin not in self._coin_set:
                raise InvalidConfigurationError(
                    f"configuration assigns unknown coin {coin.name!r}"
                )
            if self._allowed is not None and coin not in self._allowed[miner]:
                raise InvalidConfigurationError(
                    f"miner {miner.name!r} sits on {coin.name!r} which its "
                    "hardware cannot mine"
                )

    def configuration(self, coin_names: Sequence[str]) -> Configuration:
        """Build a configuration from coin names, one per miner in order."""
        coins = [self.coin_named(name) for name in coin_names]
        return Configuration(self._miners, coins)

    def coin_power(self, coin: Coin, config: Configuration) -> Fraction:
        """``M_c(s)``: total mining power invested in *coin*."""
        return sum((miner.power for miner in config.miners_on(coin)), Fraction(0))

    def rpu(self, coin: Coin, config: Configuration) -> Optional[Fraction]:
        """``RPU_c(s) = F(c)/M_c(s)``, or ``None`` for an unoccupied coin.

        The paper's definition divides by ``M_c(s)``; for empty coins
        that ratio is not a number, and no code path should depend on
        it — callers must handle ``None`` explicitly.
        """
        power = self.coin_power(coin, config)
        if power == 0:
            return None
        return self._rewards[coin] / power

    def max_rpu(self, config: Configuration) -> Fraction:
        """``R(s) = max{RPU_c(s)}`` over *occupied* coins (Section 5)."""
        values = [self.rpu(coin, config) for coin in self._coins]
        occupied = [value for value in values if value is not None]
        if not occupied:
            raise InvalidConfigurationError("configuration occupies no coin")
        return max(occupied)

    def payoff(self, miner: Miner, config: Configuration) -> Fraction:
        """``u_p(s) = m_p · F(s.p) / M_{s.p}(s)``."""
        coin = config.coin_of(miner)
        return miner.power * self._rewards[coin] / self.coin_power(coin, config)

    def payoff_after_move(self, miner: Miner, coin: Coin, config: Configuration) -> Fraction:
        """Miner's payoff in ``(s_{-p}, c)`` without materializing it.

        If the miner already mines *coin* this equals :meth:`payoff`.
        """
        current = config.coin_of(miner)
        if current == coin:
            return self.payoff(miner, config)
        power_on_target = self.coin_power(coin, config) + miner.power
        return miner.power * self._rewards[coin] / power_on_target

    def payoff_vector(self, config: Configuration) -> Dict[Miner, Fraction]:
        """All miners' payoffs keyed by miner.

        One power pass and one RPU division per *coin*, then one
        multiplication per miner — O(n + k) Fraction ops instead of the
        O(n²) of calling :meth:`payoff` per miner (each of which
        re-derives its coin's power).
        """
        powers = self.coin_power_map(config)
        rpu = {
            coin: self._rewards[coin] / mass
            for coin, mass in powers.items()
            if mass != 0
        }
        return {
            miner: miner.power * rpu[config.coin_of(miner)] for miner in self._miners
        }

    def social_welfare(self, config: Configuration) -> Fraction:
        """``Σ_p u_p(s)`` — equals ``Σ_c F(c)`` over occupied coins."""
        return sum(self.payoff_vector(config).values(), Fraction(0))

    # ------------------------------------------------------------------
    # Better-response structure
    # ------------------------------------------------------------------

    def is_better_response(self, miner: Miner, coin: Coin, config: Configuration) -> bool:
        """Whether moving *miner* to allowed *coin* strictly improves its payoff."""
        if config.coin_of(miner) == coin or not self.is_allowed(miner, coin):
            return False
        return self.payoff_after_move(miner, coin, config) > self.payoff(miner, config)

    def better_response_moves(self, miner: Miner, config: Configuration) -> Tuple[Coin, ...]:
        """All allowed coins to which *miner* has a better-response step."""
        current_payoff = self.payoff(miner, config)
        current_coin = config.coin_of(miner)
        return tuple(
            coin
            for coin in self.allowed_coins(miner)
            if coin != current_coin
            and self.payoff_after_move(miner, coin, config) > current_payoff
        )

    def best_response(self, miner: Miner, config: Configuration) -> Optional[Coin]:
        """The payoff-maximizing allowed improving move, or ``None``.

        Ties between equally good targets are broken by coin order in
        the game (deterministic), whatever the mask. Best responses are
        a *subset* of better responses, so any result proved for
        arbitrary better-response learning applies to best-response
        learning too.
        """
        current_payoff = self.payoff(miner, config)
        current_coin = config.coin_of(miner)
        best_coin: Optional[Coin] = None
        best_payoff = current_payoff
        for coin in self.allowed_coins(miner):
            if coin == current_coin:
                continue
            payoff = self.payoff_after_move(miner, coin, config)
            if payoff > best_payoff:
                best_payoff = payoff
                best_coin = coin
        return best_coin

    def is_miner_stable(self, miner: Miner, config: Configuration) -> bool:
        """Whether *miner* has no better-response step in *config*."""
        return not self.better_response_moves(miner, config)

    def is_stable(self, config: Configuration) -> bool:
        """Whether *config* is a pure Nash equilibrium."""
        return all(self.is_miner_stable(miner, config) for miner in self._miners)

    def unstable_miners(self, config: Configuration) -> Tuple[Miner, ...]:
        """Miners that currently have at least one better-response step."""
        return tuple(
            miner for miner in self._miners if not self.is_miner_stable(miner, config)
        )

    # ------------------------------------------------------------------
    # Cached-power fast path (used by the learning engine)
    # ------------------------------------------------------------------

    def coin_power_map(self, config: Configuration) -> Dict[Coin, Fraction]:
        """``{c: M_c(s)}`` for all coins, computed in one pass.

        The learning engine maintains this map incrementally across
        steps; with it, stability checks cost O(k) per miner instead of
        O(k·n) (see the ``*_given`` methods).
        """
        powers: Dict[Coin, Fraction] = {coin: Fraction(0) for coin in self._coins}
        for miner, coin in config:
            powers[coin] += miner.power
        return powers

    def is_miner_stable_given(
        self,
        miner: Miner,
        config: Configuration,
        powers: Dict[Coin, Fraction],
    ) -> bool:
        """:meth:`is_miner_stable` against a precomputed power map.

        Comparisons are cross-multiplied, avoiding Fraction division:
        ``F(c')/(M'+m) > F(c)/M_c  ⟺  F(c')·M_c > F(c)·(M'+m)``.
        """
        current = config.coin_of(miner)
        current_reward = self._rewards[current]
        current_mass = powers[current]
        for coin in self.allowed_coins(miner):
            if coin == current:
                continue
            if self._rewards[coin] * current_mass > current_reward * (
                powers[coin] + miner.power
            ):
                return False
        return True

    def better_response_moves_given(
        self,
        miner: Miner,
        config: Configuration,
        powers: Dict[Coin, Fraction],
    ) -> Tuple[Coin, ...]:
        """:meth:`better_response_moves` against a precomputed power map."""
        current = config.coin_of(miner)
        current_reward = self._rewards[current]
        current_mass = powers[current]
        return tuple(
            coin
            for coin in self.allowed_coins(miner)
            if coin != current
            and self._rewards[coin] * current_mass
            > current_reward * (powers[coin] + miner.power)
        )

    def unstable_miners_given(
        self,
        config: Configuration,
        powers: Dict[Coin, Fraction],
    ) -> Tuple[Miner, ...]:
        """:meth:`unstable_miners` against a precomputed power map."""
        return tuple(
            miner
            for miner in self._miners
            if not self.is_miner_stable_given(miner, config, powers)
        )

    # ------------------------------------------------------------------
    # Enumeration (exponential; small games only)
    # ------------------------------------------------------------------

    def all_configurations(self) -> Iterator[Configuration]:
        """Iterate over every valid configuration (small games only).

        Miner 0 is the most significant position and each miner's
        choices run ascending in game coin order, so the scan order is
        :class:`~repro.kernel.space.ConfigSpace`'s ascending-code order,
        masked or not.
        """
        alphabets = [self.allowed_coins(miner) for miner in self._miners]
        for choices in itertools.product(*alphabets):
            yield Configuration(self._miners, choices)

    def configuration_count(self) -> int:
        """Number of valid configurations (``Π_p |allowed(p)|``)."""
        return prod(len(self.allowed_coins(miner)) for miner in self._miners)

    def __repr__(self) -> str:
        text = (
            f"Game(n={len(self._miners)} miners, |C|={len(self._coins)} coins, "
            f"total_reward={self._rewards.total()})"
        )
        if self._allowed is None:
            return text
        restricted = sum(
            1 for coins in self._allowed.values() if len(coins) < len(self._coins)
        )
        return f"RestrictedGame({text}, {restricted}/{len(self._miners)} miners restricted)"
