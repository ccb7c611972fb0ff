"""Equilibrium toolkit (paper, Appendix A and Section 4 / Appendix D).

* :func:`greedy_equilibrium` — the constructive existence proof of
  Proposition 3: insert miners in decreasing power order, each to the
  coin maximizing its payoff given earlier insertions (Claim 6 shows
  each insertion preserves the stability of everyone placed so far).
* :func:`enumerate_equilibria` — brute-force enumeration of all pure
  equilibria (exponential; small games only).
* :func:`two_distinct_equilibria` — Lemma 2's inductive construction of
  two different stable configurations for games satisfying
  Assumptions 1 and 2.
* :func:`best_insertion_coin` — the ``argmax_c F(c)·m/(M_c(s)+m)``
  selector shared by the constructions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.coin import Coin
from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.core.miner import Miner, sorted_by_power
from repro.exceptions import InvalidModelError


def _insertion_argmax(game: Game, miner: Miner, occupied: Dict[Coin, Fraction]) -> Coin:
    """``argmax_c F(c)·m/(M_c+m)`` over *miner*'s allowed coins.

    *occupied* maps coins to the power already placed on them (missing
    coins are empty). ``max`` keeps the first of equal values, so ties
    go to the earliest coin in game order.
    """
    rewards = game.rewards
    power = miner.power
    return max(
        game.allowed_coins(miner),
        key=lambda coin: rewards[coin] * power / (occupied.get(coin, 0) + power),
    )


def best_insertion_coin(
    game: Game,
    partial: Optional[Configuration],
    miner: Miner,
) -> Coin:
    """``argmax_{c'∈C} F(c')·m_p/(M_{c'}(s)+m_p)`` over the partial state.

    *partial* is a configuration over a subset of the game's miners (or
    ``None`` for the empty state). Only *miner*'s allowed coins are
    candidates; ties are broken by coin order, which makes the greedy
    construction deterministic.
    """
    occupied: Dict[Coin, Fraction] = {}
    if partial is not None:
        for other, coin in partial:
            occupied[coin] = occupied.get(coin, 0) + other.power
    return _insertion_argmax(game, miner, occupied)


def _greedy_extend(
    game: Game, assignment: Dict[Miner, Coin], miners: Iterable[Miner]
) -> Configuration:
    """Insert *miners* in order, each at its best coin given everyone
    already in *assignment*; return the full configuration.

    One running mass per coin makes each insertion O(|C|).
    """
    occupied: Dict[Coin, Fraction] = {}
    for placed, coin in assignment.items():
        occupied[coin] = occupied.get(coin, 0) + placed.power
    for miner in miners:
        coin = _insertion_argmax(game, miner, occupied)
        assignment[miner] = coin
        occupied[coin] = occupied.get(coin, 0) + miner.power
    return Configuration.from_mapping(game.miners, assignment)


def greedy_equilibrium(game: Game) -> Configuration:
    """A pure equilibrium built by the Appendix A construction.

    Miners are processed in decreasing power order; each picks its best
    allowed coin given the miners already placed. Claim 6 proves every
    placed miner stays stable after each insertion, so the final
    configuration is stable — for *any* ``Π``, ``C`` and ``F``. Under an
    allowed-coin mask the claim needs miners with comparable options: a
    miner whose only coins are crowded can join a coin whose earlier
    occupant may mine an empty one, so check the result with
    :meth:`Game.is_stable <repro.core.game.Game.is_stable>`.
    """
    return _greedy_extend(game, {}, sorted_by_power(game.miners))


#: Default scan cap of :func:`enumerate_equilibria`: the space backend
#: scans this many nodes in about a second at most, so a game far beyond
#: it fails at once instead of running for hours.
_SCAN_LIMIT = 100_000


def enumerate_equilibria(
    game: Game,
    *,
    limit: Optional[int] = _SCAN_LIMIT,
    backend: str = "space",
) -> List[Configuration]:
    """All pure equilibria of the game, by exhaustive search.

    ``limit`` caps the number of *configurations scanned* (not
    equilibria found) as a safety valve; exceeding it raises
    :class:`InvalidModelError` before the scan starts, so callers never
    silently get a partial answer. ``limit=None`` lifts the cap.

    ``backend="space"`` (the default) scans integer configuration codes
    through :class:`repro.kernel.space.ConfigSpace`: numpy blocks of
    nodes tested with integer stability checks or, when the game has
    interchangeable miners, one count matrix per orbit (expanded
    afterwards). On the orbit route the scan count the ``limit`` guards
    is the *orbit* count, so symmetric games far beyond ``|C|^n ≤
    limit`` stay enumerable. The result — content and order — is
    identical to ``backend="exact"``, the original Fraction brute force
    over Configuration objects.

    On a masked game the equilibria of the *restricted* game are
    enumerated: both backends scan only mask-valid configurations, and
    miners are symmetry-interchangeable only when power *and* allowed
    set match.
    """
    if backend == "exact":
        count = game.configuration_count()
        if limit is not None and count > limit:
            raise InvalidModelError(
                f"game has {count} configurations, above the scan limit {limit}; "
                "pass a larger limit, or limit=None to lift it"
            )
        return [config for config in game.all_configurations() if game.is_stable(config)]
    if backend != "space":
        raise InvalidModelError(
            f"unknown enumeration backend {backend!r}; expected 'space' or 'exact'"
        )
    from repro.kernel.space import ConfigSpace

    space = ConfigSpace(game)
    if limit is not None and space.scan_size > limit:
        unit = "orbits" if space.has_symmetry else "configurations"
        raise InvalidModelError(
            f"game has {space.scan_size} {unit} to scan, above the scan limit {limit}; "
            "pass a larger limit, or limit=None to lift it"
        )
    # The limit also caps the orbit-expanded result: a symmetric game
    # can have few orbits but combinatorially many equilibria.
    return space.equilibria(max_codes=limit)


def iter_equilibria(game: Game, *, backend: str = "space") -> Iterator[Configuration]:
    """Lazily iterate pure equilibria (exhaustive scan order).

    The default ``backend="space"`` walks integer codes in the same
    product order as the Fraction scan (``backend="exact"``) but with
    incremental integer mass updates, yielding identical configurations
    in identical order with none of the per-node allocation. A masked
    game restricts the walk to mask-valid configurations.
    """
    if backend == "exact":
        for config in game.all_configurations():
            if game.is_stable(config):
                yield config
        return
    if backend != "space":
        raise InvalidModelError(
            f"unknown enumeration backend {backend!r}; expected 'space' or 'exact'"
        )
    from repro.kernel.space import ConfigSpace

    yield from ConfigSpace(game).iter_equilibria()


def two_distinct_equilibria(game: Game) -> Tuple[Configuration, Configuration]:
    """Two different stable configurations, via Lemma 2's construction.

    Seeds the two largest miners on the two largest-reward coins in the
    two possible swapped orders, then extends both seeds greedily
    (Claim 5 keeps placed miners stable). For games satisfying
    Assumptions 1 and 2 both results are stable; this function verifies
    stability and raises :class:`InvalidModelError` if either fails
    (which can only happen when the assumptions do not hold).
    """
    ordered = sorted_by_power(game.miners)
    if len(ordered) < 2:
        raise InvalidModelError("two equilibria need at least two miners")
    if len(game.coins) < 2:
        raise InvalidModelError("two equilibria need at least two coins")
    coins_by_reward = sorted(
        game.coins, key=lambda coin: (-game.rewards[coin], coin.name)
    )
    c1, c2 = coins_by_reward[0], coins_by_reward[1]
    p1, p2 = ordered[0], ordered[1]

    results = [
        _greedy_extend(game, {p1: seed_1, p2: seed_2}, ordered[2:])
        for seed_1, seed_2 in ((c1, c2), (c2, c1))
    ]
    first, second = results
    if first == second:
        raise InvalidModelError(
            "Lemma 2 construction collapsed to one configuration; "
            "the game likely violates Assumption 1 or 2"
        )
    for config in results:
        if not game.is_stable(config):
            raise InvalidModelError(
                "Lemma 2 construction produced an unstable configuration; "
                "the game likely violates Assumption 1 or 2"
            )
    return first, second


def equilibrium_payoff_spread(
    game: Game, equilibria: List[Configuration]
) -> Tuple[Fraction, Fraction]:
    """(min, max) of any miner's payoff across the given equilibria.

    A quick summary statistic used by the Section 4 experiments: a
    nonzero spread for some miner is what makes manipulation profitable.
    """
    if not equilibria:
        raise InvalidModelError("need at least one equilibrium")
    lows: List[Fraction] = []
    highs: List[Fraction] = []
    for miner in game.miners:
        payoffs = [game.payoff(miner, config) for config in equilibria]
        lows.append(min(payoffs))
        highs.append(max(payoffs))
    return min(lows), max(highs)
