"""Risk analysis of realized mining rewards and noisy learning.

Three questions the expected-payoff model cannot answer:

1. **Reward risk** — at a given configuration, how far do *realized*
   rewards spread around the model payoff over a finite horizon? The
   per-round win of miner ``p`` on coin ``c`` is Bernoulli(``m_p/M_c``)
   paying ``F(c)``, so one round has exact variance
   ``F(c)² · q(1−q)`` with ``q = m_p/M_c``; over ``H`` independent
   rounds the variance is ``H`` times that. :func:`reward_risk`
   computes this closed form exactly and checks it against sampled
   replications, alongside a ruin-style tail probability (realized
   total below a fraction of the expectation).
2. **Misconvergence** — does sample-based better response still reach
   a pure equilibrium, and how does the failure rate fall with the
   per-decision sample budget? :func:`misconvergence_profile` sweeps
   budgets through :func:`repro.run_many` noisy cells and cross-checks
   every landing against the exact equilibrium set from
   :class:`~repro.kernel.space.ConfigSpace` enumeration.
3. **Time to equilibrium** — the distribution (not just the mean) of
   activations noisy runs need before settling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.configuration import Configuration
from repro.core.equilibrium import enumerate_equilibria
from repro.core.game import Game
from repro.core.miner import Miner
from repro.kernel.core import KernelGame
from repro.run import RunSpec, run_many
from repro.stochastic.estimator import SampleBudget
from repro.stochastic.lottery import realized_rewards, sample_block_wins
from repro.stochastic.noisy_engine import NoisyLearningEngine, NoisyRunResult
from repro.util.rng import RngLike, seed_sequence


# ----------------------------------------------------------------------
# Reward risk at a fixed configuration
# ----------------------------------------------------------------------


def per_round_variance(game: Game, config: Configuration) -> Dict[Miner, Fraction]:
    """Exact variance of each miner's one-round realized reward.

    ``Var = F(c)² · q(1−q)`` with ``q = m_p / M_c(s)`` — closed-form,
    all Fractions, no sampling.
    """
    variances: Dict[Miner, Fraction] = {}
    for miner in game.miners:
        coin = config.coin_of(miner)
        q = miner.power / game.coin_power(coin, config)
        reward = game.rewards[coin]
        variances[miner] = reward * reward * q * (1 - q)
    return variances


@dataclass(frozen=True)
class MinerRisk:
    """Risk summary of one miner's realized reward over a horizon."""

    name: str
    #: ``H · u_p(s)`` — the model's expected total.
    expected_total: Fraction
    #: Exact empirical mean of sampled totals (Fraction, replication avg).
    realized_mean: Fraction
    #: √(H · per-round variance), the closed-form standard deviation.
    exact_std: float
    #: Sample standard deviation of the replication totals.
    realized_std: float
    #: Empirical P(total < ruin_fraction · expected_total).
    ruin_probability: float

    @property
    def relative_bias(self) -> float:
        """|realized mean − expectation| / expectation (0 if expectation 0)."""
        if self.expected_total == 0:
            return 0.0
        return abs(float(self.realized_mean - self.expected_total)) / float(
            self.expected_total
        )

    @property
    def coefficient_of_variation(self) -> float:
        """Exact σ over the expected total (the scale-free risk number)."""
        if self.expected_total == 0:
            return 0.0
        return self.exact_std / float(self.expected_total)


@dataclass(frozen=True)
class RiskProfile:
    """Per-miner reward risk at one configuration."""

    horizon_rounds: int
    replications: int
    ruin_fraction: float
    miners: Tuple[MinerRisk, ...]

    def max_relative_bias(self) -> float:
        return max(entry.relative_bias for entry in self.miners)

    def by_name(self, name: str) -> MinerRisk:
        for entry in self.miners:
            if entry.name == name:
                return entry
        raise KeyError(f"no miner named {name!r} in this profile")


def reward_risk(
    game: Game,
    config: Configuration,
    *,
    horizon_rounds: int,
    replications: int = 30,
    ruin_fraction: float = 0.5,
    seed: RngLike = None,
) -> RiskProfile:
    """Measure realized-reward risk at *config* over a finite horizon.

    Each replication runs an independent *horizon_rounds*-round block
    lottery (own pre-spawned stream); totals are exact Fractions. The
    exact closed-form standard deviation rides along so callers can
    verify the sampler against the model — the acceptance tests do.
    """
    if horizon_rounds < 1:
        raise ValueError(f"horizon_rounds must be ≥ 1, got {horizon_rounds}")
    if replications < 2:
        raise ValueError(f"replications must be ≥ 2, got {replications}")
    if not 0.0 < ruin_fraction < 1.0:
        raise ValueError(f"ruin_fraction must be in (0, 1), got {ruin_fraction}")
    kernel = KernelGame(game)
    streams = seed_sequence(seed).spawn(replications)
    totals: List[Dict[Miner, Fraction]] = []
    for stream in streams:
        sample = sample_block_wins(
            kernel, config, rounds=horizon_rounds, seed=np.random.default_rng(stream)
        )
        totals.append(realized_rewards(game, config, sample))
    variances = per_round_variance(game, config)
    entries: List[MinerRisk] = []
    for miner in game.miners:
        expected = game.payoff(miner, config) * horizon_rounds
        draws = [total[miner] for total in totals]
        mean = sum(draws, Fraction(0)) / replications
        floats = np.array([float(value) for value in draws])
        ruin_threshold = ruin_fraction * float(expected)
        entries.append(
            MinerRisk(
                name=miner.name,
                expected_total=expected,
                realized_mean=mean,
                exact_std=math.sqrt(horizon_rounds * float(variances[miner])),
                realized_std=float(floats.std(ddof=1)),
                ruin_probability=float(np.mean(floats < ruin_threshold)),
            )
        )
    return RiskProfile(
        horizon_rounds=horizon_rounds,
        replications=replications,
        ruin_fraction=ruin_fraction,
        miners=tuple(entries),
    )


# ----------------------------------------------------------------------
# Misconvergence of noisy learning vs. the exact equilibrium set
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BudgetOutcome:
    """Noisy-learning statistics at one per-decision sample budget."""

    budget_label: str
    replications: int
    #: Fraction of replications whose final state is NOT an exact
    #: pure equilibrium (the headline number).
    misconvergence_rate: float
    #: Fraction of replications that settled within the activation cap.
    settled_rate: float
    mean_activations: float
    p95_activations: float
    mean_moves: float
    #: Landing counts over *exact* equilibria actually reached.
    landing_counts: Dict[Configuration, int]

    @property
    def distinct_equilibria_reached(self) -> int:
        return len(self.landing_counts)


@dataclass(frozen=True)
class MisconvergenceReport:
    """Budget sweep of noisy learning, cross-checked against enumeration."""

    #: The game's full exact equilibrium set (ConfigSpace enumeration).
    equilibria: Tuple[Configuration, ...]
    outcomes: Tuple[BudgetOutcome, ...]

    def rates(self) -> List[float]:
        return [outcome.misconvergence_rate for outcome in self.outcomes]


def misconvergence_profile(
    game: Game,
    *,
    budgets: Sequence[Union[int, SampleBudget]],
    replications: int = 40,
    max_activations: int = 5_000,
    patience: Optional[int] = None,
    inertia: float = 0.0,
    exploration: float = 0.0,
    seed: RngLike = None,
    executor: str = "auto",
    max_workers: Optional[int] = None,
) -> MisconvergenceReport:
    """Sweep per-decision sample budgets and measure misconvergence.

    Every budget gets an independent child seed (adding budgets never
    changes another budget's replications); the budget cells execute
    through :func:`repro.run_many` with *executor* (identical results
    in every mode). Final states are judged against the exact
    equilibrium set: the per-run kernel verdict and set membership must
    agree — a mismatch raises, because it would mean the sampler and
    the enumeration engine disagree about the same game.
    """
    if not budgets:
        raise ValueError("need at least one sample budget")
    equilibria = tuple(enumerate_equilibria(game))
    equilibrium_set = frozenset(equilibria)
    children = seed_sequence(seed).spawn(len(budgets))
    engines = [
        NoisyLearningEngine(
            budget=budget,
            max_activations=max_activations,
            patience=patience,
            inertia=inertia,
            exploration=exploration,
        )
        for budget in budgets
    ]
    per_budget = run_many(
        [
            RunSpec(
                game=game,
                runs=replications,
                kind="noisy",
                engine=engine,
                seed=int(child.generate_state(1)[0]),
                label=_budget_label(budget),
            )
            for budget, engine, child in zip(budgets, engines, children)
        ],
        executor=executor,
        max_workers=max_workers,
    )
    outcomes = [
        _summarize_budget(game, _budget_label(budget), results, equilibrium_set)
        for budget, results in zip(budgets, per_budget)
    ]
    return MisconvergenceReport(equilibria=equilibria, outcomes=tuple(outcomes))


def _budget_label(budget: Union[int, SampleBudget]) -> str:
    if isinstance(budget, int):
        return str(budget)
    return repr(budget)


def _summarize_budget(
    game: Game,
    label: str,
    results: Sequence[NoisyRunResult],
    equilibrium_set: frozenset,
) -> BudgetOutcome:
    landing_counts: Dict[Configuration, int] = {}
    missed = 0
    activations = np.array([result.activations for result in results], dtype=float)
    for result in results:
        final = result.final_configuration(game)
        in_set = final in equilibrium_set
        if in_set != result.reached_equilibrium:
            raise AssertionError(
                "kernel stability verdict disagrees with ConfigSpace enumeration "
                f"for {final!r}; sampler/enumeration bug"
            )
        if in_set:
            landing_counts[final] = landing_counts.get(final, 0) + 1
        else:
            missed += 1
    return BudgetOutcome(
        budget_label=label,
        replications=len(results),
        misconvergence_rate=missed / len(results),
        settled_rate=sum(result.settled for result in results) / len(results),
        mean_activations=float(activations.mean()),
        p95_activations=float(np.percentile(activations, 95)),
        mean_moves=float(np.mean([result.moves for result in results])),
        landing_counts=landing_counts,
    )


def time_to_equilibrium(
    results: Sequence[NoisyRunResult],
) -> Dict[str, float]:
    """Distribution summary of activations for runs that found an equilibrium.

    Returns mean/median/p95/max over the converged runs plus the
    converged fraction; all-NaN summaries mean no run converged.
    """
    converged = [
        result.activations for result in results if result.reached_equilibrium
    ]
    fraction = len(converged) / len(results) if results else 0.0
    if not converged:
        nan = float("nan")
        return {
            "converged_fraction": fraction,
            "mean": nan,
            "median": nan,
            "p95": nan,
            "max": nan,
        }
    array = np.array(converged, dtype=float)
    return {
        "converged_fraction": fraction,
        "mean": float(array.mean()),
        "median": float(np.median(array)),
        "p95": float(np.percentile(array, 95)),
        "max": float(array.max()),
    }


def ruin_bound(
    game: Game,
    config: Configuration,
    miner: Miner,
    *,
    horizon_rounds: int,
    ruin_fraction: float = 0.5,
) -> float:
    """Chebyshev upper bound on P(total < ruin_fraction · expectation).

    A closed-form, sampling-free companion to the empirical ruin
    probability: ``Var / (H · (1−f)² · u²)`` clipped to [0, 1].
    """
    if horizon_rounds < 1:
        raise ValueError(f"horizon_rounds must be ≥ 1, got {horizon_rounds}")
    if not 0.0 < ruin_fraction < 1.0:
        raise ValueError(f"ruin_fraction must be in (0, 1), got {ruin_fraction}")
    payoff = game.payoff(miner, config)
    if payoff == 0:
        return 1.0
    variance = per_round_variance(game, config)[miner]
    gap = (1.0 - ruin_fraction) * float(payoff)
    bound = float(variance) / (horizon_rounds * gap * gap)
    return min(1.0, bound)
