"""E2 — Theorem 1: arbitrary better-response learning always converges.

Sweeps game size (miners × coins), power distribution and learning
policy; reports step counts to equilibrium. The theorem's claim is the
100% convergence column; the step counts are the empirical convergence
speed the paper's discussion asks about.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.convergence import stats_from_steps
from repro.core.factories import random_game
from repro.experiments.common import ExperimentResult
from repro.learning.policies import (
    BestResponsePolicy,
    MinimalGainPolicy,
    RandomImprovingPolicy,
)
from repro.util.rng import spawn_rngs
from repro.util.tables import Table


#: One-line summary shown by ``python -m repro list``.
DESCRIPTION = "Theorem 1: better-response learning always converges"

#: The shrunken workload behind the CLI's ``--fast`` flag.
FAST_PARAMS = dict(miner_counts=(5, 10), coin_counts=(2,), runs_per_cell=3)

#: Declared CLI knob capabilities (the registry forwards
#: ``--backend``/``--executor`` only where declared).
ACCEPTS_BACKEND = True
ACCEPTS_EXECUTOR = True


def _policies():
    return (RandomImprovingPolicy(), BestResponsePolicy(), MinimalGainPolicy())


def sweep_grid(
    *,
    miner_counts: Sequence[int] = (5, 10, 25, 50, 100),
    coin_counts: Sequence[int] = (2, 5, 10),
    runs_per_cell: int = 10,
    power_distribution: str = "uniform",
    seed: int = 0,
    backend: str = "fast",
):
    """The E2 grid as a :class:`~repro.sweep.SweepGrid` (game × policy).

    Per-cell seeds follow the exact draw order of the pre-fabric loop
    (one game per (n, k) from its spawned rng, then one seed draw per
    policy from the *same* rng), so running this grid — through
    :func:`~repro.sweep.run_sweep`, sharded across hosts, or from
    cache — reproduces the historical E2 numbers bit-for-bit. Cells
    stream (:class:`~repro.kernel.batch.CellStats`): E2 reads step
    counts only.
    """
    from repro.sweep import SweepGrid, labeled

    policies = _policies()
    cell_rngs = spawn_rngs(seed, len(miner_counts) * len(coin_counts))
    games = []
    seeds = {}
    index = 0
    for n in miner_counts:
        for k in coin_counts:
            rng = cell_rngs[index]
            index += 1
            game = random_game(n, k, power_distribution=power_distribution, seed=rng)
            position = len(games)
            games.append(labeled(f"{n}x{k}", game))
            for policy in policies:
                seeds[(position, policy.name)] = int(rng.integers(0, 2**31))
    game_values = [entry.value for entry in games]

    def override(values):
        position = next(i for i, g in enumerate(game_values) if g is values["game"])
        return {"seed": seeds[(position, values["policy"].name)]}

    return SweepGrid(
        {"game": games, "policy": list(policies)},
        base={"runs": runs_per_cell, "backend": backend, "stream": True},
        override=override,
    )


def run(
    *,
    miner_counts: Sequence[int] = (5, 10, 25, 50, 100),
    coin_counts: Sequence[int] = (2, 5, 10),
    runs_per_cell: int = 10,
    power_distribution: str = "uniform",
    seed: int = 0,
    backend: str = "fast",
    executor: str = "auto",
) -> ExperimentResult:
    """The E2 sweep; every cell must converge in 100% of runs.

    The grid is declared by :func:`sweep_grid` and executed as one
    ephemeral :func:`~repro.sweep.run_sweep` (all pending cells in one
    :func:`repro.run_many` call, so ``executor="auto"`` still packs
    the whole grid into one tensor population). Per-cell seeds match
    the pre-fabric loop, so no number changes.
    """
    from repro.sweep import run_sweep

    policies = _policies()
    table = Table(
        "E2 — convergence of better-response learning (Theorem 1)",
        ["n miners", "k coins", "policy", "mean steps", "p95 steps", "max steps", "converged"],
    )
    grid = sweep_grid(
        miner_counts=miner_counts,
        coin_counts=coin_counts,
        runs_per_cell=runs_per_cell,
        power_distribution=power_distribution,
        seed=seed,
        backend=backend,
    )
    sweep = run_sweep(grid, executor=executor)
    labels = [
        (n, k, policy) for n in miner_counts for k in coin_counts for policy in policies
    ]
    total_runs = 0
    converged_runs = 0
    max_steps_seen = 0
    for (n, k, policy), cell_stats in zip(labels, sweep.in_order()):
        stats = stats_from_steps(list(cell_stats.steps), monotone=cell_stats.runs)
        table.add_row(
            n,
            k,
            policy.name,
            stats.mean_steps,
            stats.p95_steps,
            stats.max_steps,
            "100%",
        )
        total_runs += stats.runs
        converged_runs += stats.runs  # engine raises otherwise
        max_steps_seen = max(max_steps_seen, stats.max_steps)
    return ExperimentResult(
        experiment="E2",
        table=table,
        metrics={
            "total_runs": total_runs,
            "convergence_rate": converged_runs / total_runs,
            "max_steps_seen": max_steps_seen,
        },
    )
