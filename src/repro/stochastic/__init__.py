"""Monte Carlo realization layer: sampled lotteries, noisy learning, risk.

Everything above this package reasons about *expected* payoffs; this
package realizes the randomness those expectations integrate over and
asks which of the paper's predictions survive sampling noise:

``repro.stochastic.lottery``
    Exact-rational block-win sampler (integer cumulative thresholds
    over a shared RNG draw; bit-identical wherever it runs).
``repro.stochastic.estimator``
    Empirical payoff estimators with confidence intervals and
    pluggable per-decision sample budgets.
``repro.stochastic.noisy_engine``
    Sample-based better-response learning (estimated improvements,
    optional inertia/exploration). Batches run through
    :func:`repro.run_many` (``RunSpec(kind="noisy")``), whose serial,
    threaded, multi-process and vectorized-lockstep
    (:func:`~repro.stochastic.noisy_engine.run_noisy_population`)
    results are identical.
``repro.stochastic.risk``
    Closed-form and sampled reward variance, ruin-style tail bounds,
    time-to-equilibrium distributions, and misconvergence rates
    cross-checked against the exact ConfigSpace equilibrium set.
``repro.stochastic.bridge``
    Drives the event-driven chain simulator from a game and reconciles
    its realized fiat shares with the round lottery and the model.

E15 (misconvergence vs. sample budget) and E16 (risk profiles at and
off equilibrium) surface this layer in the experiment suite.
"""

from repro.stochastic.bridge import (
    ReconciliationReport,
    reconcile,
    simulation_from_game,
    specs_from_game,
)
from repro.stochastic.estimator import (
    FixedBudget,
    GeometricBudget,
    PayoffEstimate,
    SampleBudget,
    as_budget,
    estimate_payoffs,
    estimation_error,
)
from repro.stochastic.lottery import (
    LotterySample,
    draw_below,
    realized_rewards,
    sample_block_wins,
    sample_win_count,
    sample_wins_state,
)
from repro.stochastic.noisy_engine import (
    NoisyLearningEngine,
    NoisyRunResult,
    run_noisy_population,
)
from repro.stochastic.risk import (
    BudgetOutcome,
    MinerRisk,
    MisconvergenceReport,
    RiskProfile,
    misconvergence_profile,
    per_round_variance,
    reward_risk,
    ruin_bound,
    time_to_equilibrium,
)

__all__ = [
    "ReconciliationReport",
    "reconcile",
    "simulation_from_game",
    "specs_from_game",
    "FixedBudget",
    "GeometricBudget",
    "PayoffEstimate",
    "SampleBudget",
    "as_budget",
    "estimate_payoffs",
    "estimation_error",
    "LotterySample",
    "draw_below",
    "realized_rewards",
    "sample_block_wins",
    "sample_win_count",
    "sample_wins_state",
    "NoisyLearningEngine",
    "NoisyRunResult",
    "run_noisy_population",
    "BudgetOutcome",
    "MinerRisk",
    "MisconvergenceReport",
    "RiskProfile",
    "misconvergence_profile",
    "per_round_variance",
    "reward_risk",
    "ruin_bound",
    "time_to_equilibrium",
]
