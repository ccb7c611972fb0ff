"""Random game generation for experiments and property tests.

Games are generated with exact rational powers/rewards drawn from large
integer grids, which makes Assumption 2 (genericity) hold with
overwhelming probability; ``ensure_generic=True`` additionally verifies
it exactly (small games) and redraws on the rare collision.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

import numpy as np

from repro.core.coin import RewardFunction, make_coins
from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.core.miner import make_miners, sorted_by_power
from repro.exceptions import InvalidModelError
from repro.core.assumptions import check_generic
from repro.util.rng import RngLike, make_rng

#: Resolution of the rational grid random values are drawn from.
_GRID = 10**9


def _random_fractions(
    rng: np.random.Generator,
    count: int,
    low: float,
    high: float,
    distribution: str,
) -> List[Fraction]:
    """Draw *count* exact fractions from the named distribution on [low, high]."""
    if low <= 0 or high <= low:
        raise InvalidModelError(f"need 0 < low < high, got low={low}, high={high}")
    if distribution == "uniform":
        raw = rng.uniform(low, high, count)
    elif distribution == "pareto":
        # Heavy-tailed powers: a few large pools, many small miners —
        # the empirical shape of real hashrate distributions.
        raw = low * (1.0 + rng.pareto(1.5, count))
        raw = np.clip(raw, low, high)
    elif distribution == "lognormal":
        raw = np.exp(rng.normal(np.log((low * high) ** 0.5), 0.75, count))
        raw = np.clip(raw, low, high)
    else:
        raise InvalidModelError(
            f"unknown distribution {distribution!r}; "
            "expected 'uniform', 'pareto' or 'lognormal'"
        )
    # Snap to a fine rational grid and jitter by a unique offset per index
    # so exact ties between draws are impossible.
    fractions = []
    for index, value in enumerate(raw):
        numerator = int(round(float(value) * _GRID)) * (count + 1) + (index + 1)
        fractions.append(Fraction(numerator, _GRID * (count + 1)))
    return fractions


def random_game(
    n_miners: int,
    n_coins: int,
    *,
    power_range: Sequence[float] = (1.0, 100.0),
    reward_range: Sequence[float] = (1.0, 50.0),
    power_distribution: str = "uniform",
    ensure_generic: bool = False,
    strict_powers: bool = True,
    seed: RngLike = None,
    max_redraws: int = 50,
) -> Game:
    """A random game with exact rational powers and rewards.

    Parameters
    ----------
    strict_powers:
        Guarantee strictly distinct powers (required by the Section 5
        mechanism). The grid-jitter construction already makes ties
        impossible, so this only triggers a defensive re-check.
    ensure_generic:
        Verify Assumption 2 exactly (feasible for ``n_miners ≤ 18``)
        and redraw on violation.
    """
    if n_miners < 1 or n_coins < 1:
        raise InvalidModelError("need at least one miner and one coin")
    rng = make_rng(seed)
    for _ in range(max_redraws):
        powers = _random_fractions(
            rng, n_miners, power_range[0], power_range[1], power_distribution
        )
        rewards = _random_fractions(rng, n_coins, reward_range[0], reward_range[1], "uniform")
        if strict_powers and len(set(powers)) != len(powers):
            continue
        coins = make_coins(f"c{i}" for i in range(1, n_coins + 1))
        game = Game(
            sorted_by_power(make_miners(powers)),
            coins,
            RewardFunction.from_values(coins, rewards),
        )
        if ensure_generic and n_miners <= 18 and not check_generic(game):
            continue
        return game
    raise InvalidModelError(
        f"failed to draw a valid game in {max_redraws} attempts; "
        "loosen the constraints or widen the ranges"
    )


def random_configuration(game: Game, seed: RngLike = None) -> Configuration:
    """A uniformly random valid configuration of *game*.

    Unmasked, one vectorized draw picks every miner's coin; on a masked
    game each miner draws in turn among its allowed coins (game coin
    order).
    """
    rng = make_rng(seed)
    if game.allowed is None:
        indices = rng.integers(0, len(game.coins), len(game.miners))
        return Configuration(game.miners, [game.coins[int(i)] for i in indices])
    choices = []
    for miner in game.miners:
        options = game.allowed_coins(miner)
        choices.append(options[int(rng.integers(0, len(options)))])
    return Configuration(game.miners, choices)
