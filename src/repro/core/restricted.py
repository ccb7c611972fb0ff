"""The asymmetric case: coins mineable only by subsets of miners.

The paper's discussion closes with: *"One also may wonder about the
asymmetric case where some coins can be mined only by a subset of the
miners."* In practice this is hardware: an SHA256d ASIC cannot mine a
Scrypt coin. That case is the same Game of Coins with smaller
per-miner strategy sets, so it is the same :class:`~repro.core.game.Game`
carrying an allowed-coin mask (``Game(..., allowed=mask)`` or
``game.with_allowed(mask)``). Every query, view, kernel, analysis and
:class:`~repro.run.RunSpec` reads the mask off the game:

* Theorem 1 *survives* the restriction: the ordinal potential argument
  (Observations 1–2) never uses the ability of any particular miner to
  make any particular move, so restricting strategy sets only removes
  edges from the improvement graph and
  :func:`~repro.core.potential.compare_potential` still strictly
  increases along every legal better-response step (E11 verifies it).
* :func:`~repro.core.equilibrium.greedy_equilibrium` inserts each miner
  at its best *allowed* coin. Claim 6 carries over when every pair of
  miners shares comparable options (with disjoint hardware classes it
  holds coin-class by coin-class); under arbitrary masks the result can
  be unstable, which E11 reports as ``greedy_stable_rate``.
* The exact analyses (``enumerate_equilibria``,
  ``analyze_improvement_dag``, ``reachable_equilibria``,
  ``find_nonzero_four_cycle``) walk only mask-valid configuration codes
  and merge only miners with equal power *and* equal allowed set.

This module keeps the two hardware-flavoured constructors:
:class:`RestrictedGame` (every miner listed explicitly) and
:meth:`RestrictedGame.by_algorithm` (masks from PoW algorithm classes).
Both return a masked :class:`~repro.core.game.Game`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.core.coin import Coin
from repro.core.game import Game
from repro.core.miner import Miner
from repro.exceptions import InvalidModelError


class RestrictedGame:
    """Constructor alias: ``RestrictedGame(game, allowed)`` is a masked
    :class:`~repro.core.game.Game`.

    Unlike ``game.with_allowed``, every miner must be listed
    explicitly, so a forgotten rig raises instead of running
    unrestricted.
    """

    def __new__(cls, game: Game, allowed: Mapping[Miner, Sequence[Coin]]) -> Game:  # type: ignore[misc]
        for miner in game.miners:
            if miner not in allowed:
                raise InvalidModelError(
                    f"restriction misses miner {miner.name!r}; every miner "
                    "needs an explicit allowed set"
                )
        return game.with_allowed(allowed)

    @classmethod
    def by_algorithm(
        cls,
        game: Game,
        coin_algorithms: Mapping[str, str],
        miner_hardware: Mapping[str, str],
    ) -> Game:
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
            allowed[miner] = [
                coin
                for coin in game.coins
                if coin_algorithms.get(coin.name) == algorithm
            ]
        return cls(game, allowed)
