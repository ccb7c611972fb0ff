"""Potential functions for the Game of Coins (paper, Section 3 + App. B).

Three artifacts from the paper live here:

* **The ordinal potential of Theorem 1**: ``H(s) = rank(list(s))``, where
  ``list(s)`` sorts the pairs ``⟨RPU_c(s), c⟩`` lexicographically. Ranks
  over the full configuration space are exponential to materialize, but
  the potential is only ever *compared*, and comparing ranks is the same
  as comparing the lists lexicographically — so
  :func:`compare_potential` is O(n + |C| log |C|) and works at any scale.
* **The symmetric potential of Appendix B**: ``Σ_c 1/M_c(s)`` decreases
  along better-response steps when all rewards are equal.
* **The exact-potential refuter of Proposition 1**: an exact potential
  exists iff every 4-cycle of unilateral deviations has zero net payoff
  change (Monderer & Shapley 1996); :func:`exact_potential_cycle_defect`
  measures the defect of a given 4-cycle and
  :func:`find_nonzero_four_cycle` searches for a witness.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.coin import Coin
from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.core.miner import Miner
from repro.exceptions import InvalidModelError

#: One entry of ``list(s)``: the RPU of a coin paired with a stable
#: tie-break key (the coin's index in the game's coin tuple).
RpuEntry = Tuple[Optional[Fraction], int]


def rpu_list(game: Game, config: Configuration) -> Tuple[RpuEntry, ...]:
    """The paper's ``list(s)``: ``⟨RPU_c(s), c⟩`` sorted ascending.

    Coins are identified by their index in ``game.coins`` so the
    lexicographic order is total and deterministic. Unoccupied coins
    have no RPU; we place them *last* (an unoccupied coin's reward is
    claimable in full by whoever joins, so treating its slot as "above
    every occupied RPU" preserves Observation 1's monotonicity: a miner
    never vacates a coin to leave it empty unless it moves to a strictly
    higher-RPU position).
    """
    entries: List[Tuple[int, RpuEntry]] = []
    for index, coin in enumerate(game.coins):
        rpu = game.rpu(coin, config)
        entries.append((0 if rpu is not None else 1, (rpu, index)))
    entries.sort(key=lambda item: (item[0], item[1][0] if item[1][0] is not None else 0, item[1][1]))
    return tuple(entry for _, entry in entries)


def compare_potential(game: Game, first: Configuration, second: Configuration) -> int:
    """Compare ``H(first)`` and ``H(second)``: −1, 0 or +1.

    Since ``H(s) = rank(list(s))`` and rank is monotone in the
    lexicographic order on lists, comparing ranks is comparing lists.
    Unoccupied coins compare above all occupied ones (see
    :func:`rpu_list`).
    """
    list_a = rpu_list(game, first)
    list_b = rpu_list(game, second)
    for entry_a, entry_b in zip(list_a, list_b):
        key_a = _entry_key(entry_a)
        key_b = _entry_key(entry_b)
        if key_a < key_b:
            return -1
        if key_a > key_b:
            return 1
    return 0


def _entry_key(entry: RpuEntry) -> Tuple[int, Fraction, int]:
    rpu, coin_index = entry
    if rpu is None:
        return (1, Fraction(0), coin_index)
    return (0, rpu, coin_index)


def potential_rank(game: Game, config: Configuration) -> int:
    """``H(s)``: the rank of ``list(s)`` among all configurations.

    Materializes the full list order, so it is exponential in ``n`` and
    intended for small games and tests; production code should use
    :func:`compare_potential`.
    """
    all_keys = sorted(
        {tuple(_entry_key(e) for e in rpu_list(game, s)) for s in game.all_configurations()}
    )
    key = tuple(_entry_key(e) for e in rpu_list(game, config))
    return all_keys.index(key) + 1


def symmetric_potential(game: Game, config: Configuration) -> Fraction:
    """Appendix B's potential ``Σ_c 1/M_c(s)`` for symmetric rewards.

    Defined over *occupied* coins. Proposition 4's strict decrease along
    better-response steps holds whenever the move's target coin is
    already occupied (the paper's Eq. 6 algebra divides by ``M_{c'}(s)``,
    implicitly assuming it is nonzero). A move *into an empty coin* adds
    a fresh ``1/m_p`` term and can increase this sum — in the paper's
    regime of interest (many more miners than coins, Assumption 1) all
    coins are occupied and the caveat is vacuous. The fully general
    ordinal potential is :func:`compare_potential`.
    """
    rewards = {reward for _, reward in game.rewards.items()}
    if len(rewards) != 1:
        raise InvalidModelError(
            "the symmetric potential applies only when all coin rewards are equal"
        )
    total = Fraction(0)
    for coin in config.occupied_coins():
        total += Fraction(1) / game.coin_power(coin, config)
    return total


# ----------------------------------------------------------------------
# Exact potential (Proposition 1)
# ----------------------------------------------------------------------


def exact_potential_cycle_defect(
    game: Game,
    start: Configuration,
    miner_a: Miner,
    coin_a: Coin,
    miner_b: Miner,
    coin_b: Coin,
) -> Fraction:
    """The payoff-change sum around the 4-cycle generated by two deviations.

    Starting from ``start``, walk the closed path

        ``s → (a→coin_a) → (b→coin_b) → (a→back) → (b→back) = s``

    summing, on each edge, the deviator's payoff change. By Monderer &
    Shapley (1996, Theorem 2.8) the game admits an exact potential iff
    this sum is zero for *every* such cycle. Proposition 1's
    counterexample is a cycle with defect ``2/3``.
    """
    if miner_a == miner_b:
        raise InvalidModelError("the 4-cycle needs two distinct miners")
    original_a = start.coin_of(miner_a)
    original_b = start.coin_of(miner_b)

    defect = Fraction(0)
    state = start
    for miner, coin in (
        (miner_a, coin_a),
        (miner_b, coin_b),
        (miner_a, original_a),
        (miner_b, original_b),
    ):
        before = game.payoff(miner, state)
        state = state.move(miner, coin)
        defect += game.payoff(miner, state) - before
    if state != start:
        raise AssertionError("4-cycle did not close; this is a bug")
    return defect


def find_nonzero_four_cycle(
    game: Game,
    *,
    backend: str = "space",
) -> Optional[Tuple[Configuration, Miner, Coin, Miner, Coin, Fraction]]:
    """Search all 4-cycles for one with nonzero defect (small games only).

    Returns the witness tuple ``(start, miner_a, coin_a, miner_b,
    coin_b, defect)`` or ``None`` if every cycle closes — i.e. the game
    *does* admit an exact potential (e.g. single-miner games).

    ``backend="space"`` (the default) scans integer configuration codes
    with incrementally maintained masses and tests each cycle's defect
    by integer arithmetic over one common denominator (zeroness is
    invariant under the kernel's power/reward scaling); the witness —
    the *first* nonzero cycle in the seed's scan order — is then
    materialized and its exact Fraction defect recomputed at the
    boundary, so the result is identical to ``backend="exact"``.

    On a masked game only *legal* cycles are scanned — mask-valid
    starts, each deviation within the deviator's allowed set — deciding
    whether the *restricted* game admits an exact potential on its
    reachable strategy space.
    """
    if backend == "space":
        from repro.kernel.space import ConfigSpace

        space = ConfigSpace(game)
        witness = space.four_cycle_witness()
        if witness is None:
            return None
        code, a, ja, b, jb = witness
        start = space.config_of(code)
        miner_a, miner_b = game.miners[a], game.miners[b]
        coin_a, coin_b = game.coins[ja], game.coins[jb]
        defect = exact_potential_cycle_defect(game, start, miner_a, coin_a, miner_b, coin_b)
        return (start, miner_a, coin_a, miner_b, coin_b, defect)
    if backend != "exact":
        raise InvalidModelError(
            f"unknown search backend {backend!r}; expected 'space' or 'exact'"
        )
    miners = game.miners
    # Per-miner deviation targets are constant across the scan.
    deviations: Mapping[Miner, Tuple[Coin, ...]] = {
        miner: game.allowed_coins(miner) for miner in miners
    }
    for start in game.all_configurations():
        for miner_a, miner_b in itertools.combinations(miners, 2):
            for coin_a in deviations[miner_a]:
                if coin_a == start.coin_of(miner_a):
                    continue
                for coin_b in deviations[miner_b]:
                    if coin_b == start.coin_of(miner_b):
                        continue
                    defect = exact_potential_cycle_defect(
                        game, start, miner_a, coin_a, miner_b, coin_b
                    )
                    if defect != 0:
                        return (start, miner_a, coin_a, miner_b, coin_b, defect)
    return None


def proposition1_counterexample() -> Tuple[Game, Fraction]:
    """The exact game of Proposition 1 and its measured cycle defect.

    Two miners with powers 2 and 1, two coins with reward 1 each; the
    cycle ``s1→s2→s3→s4→s1`` from the paper has payoff-change sum 2/3,
    so no exact potential exists.
    """
    game = Game.create([2, 1], [1, 1])
    p1, p2 = game.miners
    c1, c2 = game.coins
    s1 = Configuration(game.miners, [c1, c1])
    defect = exact_potential_cycle_defect(game, s1, p2, c2, p1, c2)
    return game, defect


def potential_trace(
    game: Game, configs: Sequence[Configuration]
) -> List[Tuple[RpuEntry, ...]]:
    """The ``list(s)`` value at every configuration of a trajectory.

    Used by tests and E4 to audit that the ordinal potential strictly
    increases along every better-response step.
    """
    return [rpu_list(game, config) for config in configs]


def is_strictly_increasing_along(
    game: Game, configs: Sequence[Configuration]
) -> bool:
    """Whether ``H`` strictly increases between consecutive configurations."""
    return all(
        compare_potential(game, configs[i], configs[i + 1]) < 0
        for i in range(len(configs) - 1)
    )
