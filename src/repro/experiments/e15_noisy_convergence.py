"""E15 — extension: does Theorem 1 survive sampled rewards?

The exact engines converge because miners observe expected payoffs.
Here miners observe *sampled block wins* and move on estimated
improvements (:mod:`repro.stochastic.noisy_engine`). Sweeping the
per-decision sample budget measures how much observation is needed
before the paper's prediction — convergence to a pure equilibrium —
re-emerges: the misconvergence rate (final state not in the exact
ConfigSpace equilibrium set) should fall towards zero as the budget
grows.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.equilibrium import enumerate_equilibria
from repro.core.factories import random_game
from repro.experiments.common import ExperimentResult
from repro.stochastic.risk import (
    MisconvergenceReport,
    _budget_label,
    _summarize_budget,
)
from repro.util.rng import spawn_rngs
from repro.util.tables import Table


#: One-line summary shown by ``python -m repro list``.
DESCRIPTION = "Extension: noisy sampled learning vs. Theorem 1's prediction"

#: The shrunken workload behind the CLI's ``--fast`` flag.
FAST_PARAMS = dict(games=1, miners=5, coins=2, budgets=(1, 16, 128), replications=12,
    max_activations=1500)

#: Declared CLI knob capabilities (the registry forwards
#: ``--backend``/``--executor`` only where declared).
ACCEPTS_EXECUTOR = True


def sweep_grid(
    *,
    games: int = 3,
    miners: int = 6,
    coins: int = 2,
    budgets: Sequence = (1, 4, 16, 64, 256, 1024),
    replications: int = 40,
    max_activations: int = 4_000,
    inertia: float = 0.0,
    exploration: float = 0.0,
    seed: int = 0,
):
    """The E15 grid as a :class:`~repro.sweep.SweepGrid` (game × budget).

    Each cell is ``replications`` noisy runs of one (game, sample
    budget) pair. Per-cell seeds follow the exact draw order of the
    pre-fabric loop — one game per ``spawn_rngs`` stream, then one
    profile seed whose :class:`~numpy.random.SeedSequence` children
    seed the budgets — so the fabric (ephemeral, sharded, or cached)
    reproduces the historical E15 numbers bit-for-bit. Adding budgets
    still never changes another budget's replications.
    """
    from repro.stochastic.noisy_engine import NoisyLearningEngine
    from repro.sweep import SweepGrid, labeled

    if not budgets:
        raise ValueError("need at least one sample budget")
    rngs = spawn_rngs(seed, games)
    game_entries = []
    seeds = {}
    for index in range(games):
        game = random_game(miners, coins, seed=rngs[index])
        game_entries.append(labeled(f"#{index}", game))
        profile_seed = int(rngs[index].integers(0, 2**31))
        children = np.random.SeedSequence(profile_seed).spawn(len(budgets))
        for position, child in enumerate(children):
            seeds[(index, position)] = int(child.generate_state(1)[0])
    engines = [
        labeled(
            _budget_label(budget),
            NoisyLearningEngine(
                budget=budget,
                max_activations=max_activations,
                inertia=inertia,
                exploration=exploration,
            ),
        )
        for budget in budgets
    ]
    game_values = [entry.value for entry in game_entries]
    engine_values = [entry.value for entry in engines]

    def override(values):
        game_pos = next(i for i, g in enumerate(game_values) if g is values["game"])
        budget_pos = next(
            i for i, e in enumerate(engine_values) if e is values["engine"]
        )
        return {"seed": seeds[(game_pos, budget_pos)]}

    return SweepGrid(
        {"game": game_entries, "engine": engines},
        base={"runs": replications, "kind": "noisy"},
        override=override,
    )


def run(
    *,
    games: int = 3,
    miners: int = 6,
    coins: int = 2,
    budgets: Sequence[int] = (1, 4, 16, 64, 256, 1024),
    replications: int = 40,
    max_activations: int = 4_000,
    inertia: float = 0.0,
    exploration: float = 0.0,
    seed: int = 0,
    executor: str = "auto",
) -> ExperimentResult:
    """Misconvergence rate and learning effort per sample budget.

    The (game × budget) grid is declared by :func:`sweep_grid` and
    executed as one ephemeral :func:`~repro.sweep.run_sweep` (every
    cell's replications in one :func:`repro.run_many` call); per-cell
    seeds match the pre-fabric nested loop, so numbers are unchanged.
    Final states are judged against each game's exact equilibrium set.
    """
    from repro.sweep import run_sweep

    table = Table(
        "E15 — noisy better-response learning vs. the exact prediction",
        [
            "game",
            "budget",
            "misconvergence",
            "settled",
            "mean activations",
            "p95 activations",
            "mean moves",
            "equilibria reached/exact",
        ],
    )
    grid = sweep_grid(
        games=games,
        miners=miners,
        coins=coins,
        budgets=budgets,
        replications=replications,
        max_activations=max_activations,
        inertia=inertia,
        exploration=exploration,
        seed=seed,
    )
    sweep = run_sweep(grid, executor=executor)
    per_cell = sweep.in_order()
    rngs = spawn_rngs(seed, games)
    total_low = 0.0
    total_high = 0.0
    monotone_games = 0
    for index in range(games):
        game = random_game(miners, coins, seed=rngs[index])
        equilibria = tuple(enumerate_equilibria(game))
        equilibrium_set = frozenset(equilibria)
        cell_results = per_cell[index * len(budgets):(index + 1) * len(budgets)]
        outcomes = tuple(
            _summarize_budget(game, _budget_label(budget), results, equilibrium_set)
            for budget, results in zip(budgets, cell_results)
        )
        report = MisconvergenceReport(equilibria=equilibria, outcomes=outcomes)
        exact_count = len(report.equilibria)
        for outcome in report.outcomes:
            table.add_row(
                f"#{index}",
                outcome.budget_label,
                f"{outcome.misconvergence_rate:.0%}",
                f"{outcome.settled_rate:.0%}",
                outcome.mean_activations,
                outcome.p95_activations,
                outcome.mean_moves,
                f"{outcome.distinct_equilibria_reached}/{exact_count}",
            )
        rates = report.rates()
        total_low += rates[0]
        total_high += rates[-1]
        monotone_games += int(rates[-1] <= rates[0])
    return ExperimentResult(
        experiment="E15",
        table=table,
        metrics={
            "games": games,
            "misconvergence_at_min_budget": total_low / games,
            "misconvergence_at_max_budget": total_high / games,
            "monotone_fraction": monotone_games / games,
        },
    )
