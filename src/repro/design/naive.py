"""Naive reward-design baselines (ablation for E10).

The staged mechanism looks heavyweight — why not just boost the target
coins once and let the market sort itself out? These baselines make the
answer measurable: single-shot designs leave learning free to converge
to *any* equilibrium of the boosted game, and usually that is not the
desired one.

* :func:`single_shot_design` — design one reward function under which
  the target *is* an equilibrium (the one-shot analogue of Eq. 4: give
  every coin reward ``K·M_c(s_f)``), run one learning phase, revert to
  the organic rewards, run learning again, and report where the system
  actually landed.
* :func:`proportional_boost_design` — scale each coin's reward by how
  much power the target wants on it relative to the start; the kind of
  heuristic a practitioner might try first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from repro.core.coin import Coin, RewardFunction
from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.design.cost import CostLedger, phase_cost
from repro.exceptions import NotAnEquilibriumError
from repro.learning.engine import LearningEngine
from repro.learning.policies import BetterResponsePolicy
from repro.learning.schedulers import ActivationScheduler
from repro.util.rng import RngLike, make_rng


@dataclass
class NaiveResult:
    """Outcome of a naive (single-phase) reward design attempt."""

    success: bool
    final: Configuration
    #: Where learning converged while the boost was active.
    boosted_final: Configuration
    ledger: CostLedger
    steps: int


def _run_two_phases(
    game: Game,
    designed: RewardFunction,
    initial: Configuration,
    target: Configuration,
    policy: Optional[BetterResponsePolicy],
    scheduler: Optional[ActivationScheduler],
    seed: RngLike,
) -> NaiveResult:
    """Boost → converge → revert → converge, then compare with target."""
    rng = make_rng(seed)
    engine = LearningEngine(policy=policy, scheduler=scheduler, record="steps")
    ledger = CostLedger()

    boosted = engine.run(game.with_rewards(designed), initial, seed=rng)
    ledger.add(phase_cost(game, designed, stage=1, iteration=1, steps=boosted.length))
    settled = engine.run(game, boosted.final, seed=rng)
    return NaiveResult(
        success=settled.final == target,
        final=settled.final,
        boosted_final=boosted.final,
        ledger=ledger,
        steps=boosted.length + settled.length,
    )


def single_shot_design(
    game: Game,
    initial: Configuration,
    target: Configuration,
    *,
    policy: Optional[BetterResponsePolicy] = None,
    scheduler: Optional[ActivationScheduler] = None,
    seed: RngLike = None,
) -> NaiveResult:
    """One-shot design: make the target an equilibrium, hope learning finds it.

    The designed rewards give every coin ``K·M_c(s_f)`` with ``K`` large
    enough that no coin's reward drops below its organic value, so the
    target is stable in the designed game and the boost is feasible.
    The failure mode this baseline demonstrates: the designed game has
    *other* equilibria too, and arbitrary learning may stop in one of
    them, after which reverting strands the system off-target.
    """
    if not game.is_stable(target):
        raise NotAnEquilibriumError("target configuration is not stable under F")
    # K = max_c F(c)/M_c(s_f) over coins the target occupies ⇒ K·M_c ≥ F(c).
    scale = Fraction(0)
    for coin in game.coins:
        mass = game.coin_power(coin, target)
        if mass > 0:
            scale = max(scale, game.rewards[coin] / mass)
    values: Dict[Coin, Fraction] = {}
    for coin in game.coins:
        mass = game.coin_power(coin, target)
        values[coin] = scale * mass if mass > 0 else game.rewards[coin]
    designed = RewardFunction.allowing_zero(values)
    return _run_two_phases(game, designed, initial, target, policy, scheduler, seed)


def proportional_boost_design(
    game: Game,
    initial: Configuration,
    target: Configuration,
    *,
    policy: Optional[BetterResponsePolicy] = None,
    scheduler: Optional[ActivationScheduler] = None,
    seed: RngLike = None,
) -> NaiveResult:
    """Heuristic design: boost each coin by its desired power growth.

    ``H(c) = F(c) · max(1, M_c(s_f)/M_c(s_0))`` — coins that should gain
    miners get proportionally sweetened, others stay at their organic
    reward. No stability guarantee at all; included as the "what a
    practitioner would try" baseline.
    """
    if not game.is_stable(target):
        raise NotAnEquilibriumError("target configuration is not stable under F")
    values: Dict[Coin, Fraction] = {}
    for coin in game.coins:
        now = game.coin_power(coin, initial)
        want = game.coin_power(coin, target)
        if now > 0 and want > now:
            factor = want / now
        else:
            factor = Fraction(1)
        values[coin] = game.rewards[coin] * max(factor, Fraction(1))
    designed = RewardFunction(values)
    return _run_two_phases(game, designed, initial, target, policy, scheduler, seed)
