"""Exact integer fast-path kernel for the Game of Coins.

The seed core (:mod:`repro.core.game`) stores powers and rewards as
:class:`fractions.Fraction` and compares payoffs by Fraction arithmetic,
which allocates and gcd-normalizes on every comparison. All decisions in
the learning hot loop, however, are *ordinal*: they only ask which of
two rational payoffs is larger. Those comparisons survive scaling every
power by one positive constant and every reward by another:

    ``F(c')/(M'+m) > F(c)/M  ⟺  R[c']·M > R[c]·(M'+m)``

after powers and rewards are brought to common integer denominators.

:class:`KernelGame` performs that normalization **once per game** and
then answers every better-response, best-response and stability query
with plain integer cross-multiplication — no Fraction is allocated in
the step loop, and every verdict is bit-for-bit identical to the
Fraction core (same strict inequalities, same iteration order, same
tie-breaks). The learning engines use the index-level methods; the
object-level wrappers exist for audits and the parity test suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.coin import Coin
from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.core.miner import Miner


def _common_integers(values: Sequence[Fraction]) -> List[int]:
    """Scale exact fractions to integers by one shared positive factor.

    Returns numerators over the least common denominator, reduced by
    their collective gcd to keep magnitudes (and thus int-multiplication
    cost) small.
    """
    lcm = 1
    for value in values:
        den = value.denominator
        lcm = lcm // gcd(lcm, den) * den
    scaled = [int(value.numerator * (lcm // value.denominator)) for value in values]
    shared = 0
    for number in scaled:
        shared = gcd(shared, number)
    if shared > 1:
        scaled = [number // shared for number in scaled]
    return scaled


class KernelGame:
    """An integer-normalized snapshot of a :class:`Game`.

    The snapshot is immutable and cheap to build (one pass over miners
    and coins). State in the hot loop is a pair of plain lists:

    ``assign``
        coin index per miner, aligned with ``game.miners`` order;
    ``mass``
        integer coin power per coin index (``M_c(s)`` scaled), kept
        incrementally by the engines.

    All index-level predicates reproduce the Fraction core's decisions
    exactly, including iteration order and name tie-breaks. A masked
    game's allowed-coin sets are derived once into ``alphabets`` (the
    ascending coin indices each miner may sit on) and every scan runs
    over them; ``allowed`` is the same tuple, or ``None`` unmasked.
    """

    __slots__ = (
        "game",
        "powers",
        "rewards",
        "miner_index",
        "coin_index",
        "miner_names",
        "coin_names",
        "reward_fractions",
        "n_miners",
        "n_coins",
        "allowed",
        "alphabets",
        "_classes",
        "_class_of",
    )

    def __init__(self, game: Game):
        self.game = game
        miners = game.miners
        coins = game.coins
        self.powers: List[int] = _common_integers([miner.power for miner in miners])
        self.rewards: List[int] = _common_integers([game.rewards[coin] for coin in coins])
        self.miner_index: Dict[Miner, int] = {miner: i for i, miner in enumerate(miners)}
        self.coin_index: Dict[Coin, int] = {coin: j for j, coin in enumerate(coins)}
        self.miner_names: Tuple[str, ...] = tuple(miner.name for miner in miners)
        self.coin_names: Tuple[str, ...] = tuple(coin.name for coin in coins)
        self.reward_fractions: Tuple[Fraction, ...] = tuple(game.rewards[coin] for coin in coins)
        self.n_miners = len(miners)
        self.n_coins = len(coins)
        mask = game.allowed
        self.allowed: Optional[Tuple[Tuple[int, ...], ...]] = (
            None
            if mask is None
            else tuple(
                tuple(self.coin_index[coin] for coin in mask[miner]) for miner in miners
            )
        )
        self.alphabets: Tuple[Tuple[int, ...], ...] = (
            (tuple(range(self.n_coins)),) * self.n_miners
            if self.allowed is None
            else self.allowed
        )
        self._classes: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._class_of: Optional[Tuple[int, ...]] = None

    @property
    def classes(self) -> Tuple[Tuple[int, ...], ...]:
        """Miner indices grouped by (scaled power, alphabet), in order of
        each group's first miner.

        Miners of one class are interchangeable: equal power makes
        their payoffs equal, equal alphabets make the legality of every
        move equal. This one grouping is the class list of
        :class:`~repro.kernel.classes.ClassGame` and the symmetry blocks
        of :class:`~repro.kernel.space.ConfigSpace`.
        """
        if self._classes is None:
            groups: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
            for i, key in enumerate(zip(self.powers, self.alphabets)):
                groups.setdefault(key, []).append(i)
            self._classes = tuple(tuple(indices) for indices in groups.values())
        return self._classes

    @property
    def class_of(self) -> Tuple[int, ...]:
        """Each miner's index into :attr:`classes`."""
        if self._class_of is None:
            class_of = [0] * self.n_miners
            for k, indices in enumerate(self.classes):
                for i in indices:
                    class_of[i] = k
            self._class_of = tuple(class_of)
        return self._class_of

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------

    def assignment_of(self, config: Configuration) -> List[int]:
        """Coin index per miner (``game.miners`` order) for *config*."""
        coin_index = self.coin_index
        return [coin_index[config.coin_of(miner)] for miner in self.game.miners]

    def mass_of(self, assign: Sequence[int]) -> List[int]:
        """Integer ``M_c(s)`` per coin index for an assignment."""
        mass = [0] * self.n_coins
        powers = self.powers
        for i, j in enumerate(assign):
            mass[j] += powers[i]
        return mass

    def payoff_fraction(self, i: int, j: int, mass_j: int) -> Fraction:
        """Miner *i*'s exact payoff on coin *j* carrying integer mass.

        Powers scale out of ``m_p / M_c``, so the exact value is
        ``(W_i / mass_j) · F(c_j)`` with the *original* reward fraction.
        Used only when a Fraction must leave the kernel (step records).
        """
        return Fraction(self.powers[i], mass_j) * self.reward_fractions[j]

    # ------------------------------------------------------------------
    # Index-level better-response structure (the hot path)
    # ------------------------------------------------------------------

    def better_moves(self, i: int, assign: Sequence[int], mass: Sequence[int]) -> List[int]:
        """Improving allowed coin indices for miner *i*, in coin order."""
        cur = assign[i]
        reward_cur = self.rewards[cur]
        mass_cur = mass[cur]
        power = self.powers[i]
        rewards = self.rewards
        return [
            j
            for j in self.alphabets[i]
            if j != cur and rewards[j] * mass_cur > reward_cur * (mass[j] + power)
        ]

    def unstable(self, assign: Sequence[int], mass: Sequence[int]) -> List[int]:
        """Indices of miners with at least one improving move, in order."""
        rewards = self.rewards
        powers = self.powers
        alphabets = self.alphabets
        result = []
        for i in range(self.n_miners):
            cur = assign[i]
            reward_cur = rewards[cur]
            mass_cur = mass[cur]
            power = powers[i]
            for j in alphabets[i]:
                if j != cur and rewards[j] * mass_cur > reward_cur * (mass[j] + power):
                    result.append(i)
                    break
        return result

    def stable_index(self, assign: Sequence[int], mass: Sequence[int]) -> bool:
        """Early-exit stability: no miner has an improving move.

        The predicate twin of :meth:`unstable` — it returns on the
        first improving move found instead of materializing the list,
        which is what the enumeration engine's per-node checks want.
        """
        rewards = self.rewards
        powers = self.powers
        alphabets = self.alphabets
        for i in range(self.n_miners):
            cur = assign[i]
            reward_cur = rewards[cur]
            mass_cur = mass[cur]
            power = powers[i]
            for j in alphabets[i]:
                if j != cur and rewards[j] * mass_cur > reward_cur * (mass[j] + power):
                    return False
        return True

    def best_response_idx(
        self, i: int, assign: Sequence[int], mass: Sequence[int]
    ) -> Optional[int]:
        """The payoff-maximizing allowed improving coin index, or ``None``.

        Mirrors :meth:`repro.core.game.Game.best_response`: scan allowed
        coins in order, strict improvement over the best seen so far,
        start from the current payoff — so ties resolve to the earliest
        coin, exactly like the Fraction core.
        """
        cur = assign[i]
        power = self.powers[i]
        rewards = self.rewards
        # Best-so-far payoff as the pair (reward, denominator): payoff
        # of miner i on coin j is proportional to R[j] / denom_j.
        best_reward = rewards[cur]
        best_den = mass[cur]
        best: Optional[int] = None
        for j in self.alphabets[i]:
            if j == cur:
                continue
            den = mass[j] + power
            if rewards[j] * best_den > best_reward * den:
                best_reward = rewards[j]
                best_den = den
                best = j
        return best

    def minimal_gain_idx(
        self, i: int, moves: Sequence[int], mass: Sequence[int], cur: Optional[int] = None
    ) -> int:
        """The candidate move with the smallest post-move payoff (ties: name).

        On improving moves the gain ordering equals the post-move
        payoff ordering (the current payoff is a common constant), so
        the comparison is the same cross-multiplication with the
        opposite sense. Passing the miner's current coin index as
        *cur* makes "moving" there cost nothing — its mass already
        includes the miner — so arbitrary candidate lists (the view
        selection helpers accept them) rank exactly like the Fraction
        core.
        """
        power = self.powers[i]
        rewards = self.rewards
        names = self.coin_names
        best = moves[0]
        best_reward = rewards[best]
        best_den = mass[best] if best == cur else mass[best] + power
        for j in moves[1:]:
            den = mass[j] if j == cur else mass[j] + power
            lhs = rewards[j] * best_den
            rhs = best_reward * den
            if lhs < rhs or (lhs == rhs and names[j] < names[best]):
                best = j
                best_reward = rewards[j]
                best_den = den
        return best

    def max_rpu_idx(
        self, i: int, moves: Sequence[int], mass: Sequence[int], cur: Optional[int] = None
    ) -> int:
        """The candidate move with the highest post-move RPU (ties: name).

        *cur* as in :meth:`minimal_gain_idx`.
        """
        power = self.powers[i]
        rewards = self.rewards
        names = self.coin_names
        best = moves[0]
        best_reward = rewards[best]
        best_den = mass[best] if best == cur else mass[best] + power
        for j in moves[1:]:
            den = mass[j] if j == cur else mass[j] + power
            lhs = rewards[j] * best_den
            rhs = best_reward * den
            if lhs > rhs or (lhs == rhs and names[j] > names[best]):
                best = j
                best_reward = rewards[j]
                best_den = den
        return best

    # ------------------------------------------------------------------
    # Object-level wrappers (audits, parity tests)
    # ------------------------------------------------------------------

    def better_response_moves(self, miner: Miner, config: Configuration) -> Tuple[Coin, ...]:
        """Integer-arithmetic twin of :meth:`Game.better_response_moves`."""
        assign = self.assignment_of(config)
        mass = self.mass_of(assign)
        coins = self.game.coins
        return tuple(coins[j] for j in self.better_moves(self.miner_index[miner], assign, mass))

    def best_response(self, miner: Miner, config: Configuration) -> Optional[Coin]:
        """Integer-arithmetic twin of :meth:`Game.best_response`."""
        assign = self.assignment_of(config)
        mass = self.mass_of(assign)
        j = self.best_response_idx(self.miner_index[miner], assign, mass)
        return None if j is None else self.game.coins[j]

    def unstable_miners(self, config: Configuration) -> Tuple[Miner, ...]:
        """Integer-arithmetic twin of :meth:`Game.unstable_miners`."""
        assign = self.assignment_of(config)
        mass = self.mass_of(assign)
        miners = self.game.miners
        return tuple(miners[i] for i in self.unstable(assign, mass))

    def is_stable(self, config: Configuration) -> bool:
        """Integer-arithmetic twin of :meth:`Game.is_stable`."""
        assign = self.assignment_of(config)
        mass = self.mass_of(assign)
        return not self.unstable(assign, mass)

    def __repr__(self) -> str:
        return f"KernelGame({self.game!r})"
