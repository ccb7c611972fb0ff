"""Core game model: the paper's primary objects (Sections 2–4, App. A–B)."""

from repro.core.coin import Coin, RewardFunction, make_coins
from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.core.miner import (
    Miner,
    has_strictly_decreasing_powers,
    make_miners,
    sorted_by_power,
)
from repro.core.assumptions import (
    check_generic,
    check_never_alone,
    configuration_violates_never_alone,
    find_genericity_violation,
    require_section4_assumptions,
)
from repro.core.equilibrium import (
    best_insertion_coin,
    enumerate_equilibria,
    greedy_equilibrium,
    iter_equilibria,
    two_distinct_equilibria,
)
from repro.core.factories import random_configuration, random_game
from repro.core.restricted import RestrictedGame
from repro.core.potential import (
    compare_potential,
    exact_potential_cycle_defect,
    find_nonzero_four_cycle,
    is_strictly_increasing_along,
    potential_rank,
    proposition1_counterexample,
    rpu_list,
    symmetric_potential,
)

__all__ = [
    "Coin",
    "RewardFunction",
    "make_coins",
    "Configuration",
    "Game",
    "Miner",
    "make_miners",
    "sorted_by_power",
    "has_strictly_decreasing_powers",
    "check_generic",
    "check_never_alone",
    "configuration_violates_never_alone",
    "find_genericity_violation",
    "require_section4_assumptions",
    "best_insertion_coin",
    "enumerate_equilibria",
    "greedy_equilibrium",
    "iter_equilibria",
    "two_distinct_equilibria",
    "random_configuration",
    "random_game",
    "RestrictedGame",
    "compare_potential",
    "exact_potential_cycle_defect",
    "find_nonzero_four_cycle",
    "is_strictly_increasing_along",
    "potential_rank",
    "proposition1_counterexample",
    "rpu_list",
    "symmetric_potential",
]
