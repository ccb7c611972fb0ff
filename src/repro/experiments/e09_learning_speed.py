"""E9 — discussion: convergence speed under specific learning dynamics.

The paper proves convergence for arbitrary better response and asks (in
the Discussion) about speed under specific markets. This experiment
fixes a game family and sweeps the *learning process*: policy ×
scheduler, plus the multiplicative-weights comparator from the related
work. Reported: steps (or rounds) to stability per process.
"""

from __future__ import annotations

from repro.analysis.convergence import stats_from_steps
from repro.core.factories import random_game
from repro.experiments.common import ExperimentResult
from repro.learning.policies import (
    BestResponsePolicy,
    EpsilonGreedyPolicy,
    MaxRpuPolicy,
    MinimalGainPolicy,
    RandomImprovingPolicy,
)
from repro.learning.regret import MultiplicativeWeightsLearner
from repro.learning.schedulers import (
    LargestFirstScheduler,
    RoundRobinScheduler,
    SmallestFirstScheduler,
    UniformRandomScheduler,
)
from repro.util.rng import spawn_rngs
from repro.util.tables import Table


#: One-line summary shown by ``python -m repro list``.
DESCRIPTION = "Discussion: convergence speed by learning process"

#: The shrunken workload behind the CLI's ``--fast`` flag.
FAST_PARAMS = dict(miners=10, coins=3, runs=4, mwu_rounds=80)

#: Declared CLI knob capabilities (the registry forwards
#: ``--backend``/``--executor`` only where declared).
ACCEPTS_BACKEND = True
ACCEPTS_EXECUTOR = True


def _policies():
    return (
        BestResponsePolicy(),
        RandomImprovingPolicy(),
        MinimalGainPolicy(),
        MaxRpuPolicy(),
        EpsilonGreedyPolicy(0.25),
    )


def _schedulers():
    return (
        UniformRandomScheduler(),
        RoundRobinScheduler(),
        LargestFirstScheduler(),
        SmallestFirstScheduler(),
    )


def sweep_grid(
    *,
    miners: int = 20,
    coins: int = 4,
    runs: int = 10,
    power_distribution: str = "pareto",
    seed: int = 0,
    backend: str = "fast",
    mwu_rounds: int = 300,
):
    """The E9 grid as a :class:`~repro.sweep.SweepGrid` (policy × scheduler).

    One fixed game, every (policy, scheduler) pair a streamed cell.
    Per-cell seeds follow the exact draw order of the pre-fabric loop
    (``spawn_rngs(seed, 4)``: stream 0 builds the game, stream 1 draws
    one seed per pair in policy-major order), so the fabric reproduces
    the historical E9 numbers bit-for-bit. ``mwu_rounds`` is accepted
    for signature symmetry with :func:`run`; the multiplicative-weights
    comparator is not a grid cell (it is a single sequential learner).
    """
    from repro.sweep import SweepGrid

    del mwu_rounds  # not a grid axis; see docstring
    rngs = spawn_rngs(seed, 4)
    game = random_game(
        miners, coins, power_distribution=power_distribution, seed=rngs[0]
    )
    policies = _policies()
    schedulers = _schedulers()
    seeds = {
        (policy.name, scheduler.name): int(rngs[1].integers(0, 2**31))
        for policy in policies
        for scheduler in schedulers
    }

    def override(values):
        return {"seed": seeds[(values["policy"].name, values["scheduler"].name)]}

    return SweepGrid(
        {"policy": list(policies), "scheduler": list(schedulers)},
        base={"game": game, "runs": runs, "backend": backend, "stream": True},
        override=override,
    )


def run(
    *,
    miners: int = 20,
    coins: int = 4,
    runs: int = 10,
    mwu_rounds: int = 300,
    power_distribution: str = "pareto",
    seed: int = 0,
    backend: str = "fast",
    executor: str = "auto",
) -> ExperimentResult:
    """Convergence speed by learning process on a fixed game family.

    The grid is declared by :func:`sweep_grid` and executed as one
    ephemeral :func:`~repro.sweep.run_sweep` (all cells in one
    :func:`repro.run_many` call, sharing the vectorized lockstep
    buckets); per-cell seeds follow the exact draw order of the old
    serial loop, so numbers are unchanged.
    """
    from repro.sweep import run_sweep

    rngs = spawn_rngs(seed, 4)
    game = random_game(
        miners, coins, power_distribution=power_distribution, seed=rngs[0]
    )
    table = Table(
        "E9 — convergence speed by learning process",
        ["process", "mean steps", "median", "p95", "max"],
    )
    grid = sweep_grid(
        miners=miners,
        coins=coins,
        runs=runs,
        power_distribution=power_distribution,
        seed=seed,
        backend=backend,
    )
    sweep = run_sweep(grid, executor=executor)
    labels = [
        f"{policy.name} × {scheduler.name}"
        for policy in _policies()
        for scheduler in _schedulers()
    ]
    fastest = None
    slowest = None
    for label, cell_stats in zip(labels, sweep.in_order()):
        stats = stats_from_steps(list(cell_stats.steps), monotone=cell_stats.runs)
        table.add_row(
            label, stats.mean_steps, stats.median_steps, stats.p95_steps, stats.max_steps
        )
        if fastest is None or stats.mean_steps < fastest[1]:
            fastest = (label, stats.mean_steps)
        if slowest is None or stats.mean_steps > slowest[1]:
            slowest = (label, stats.mean_steps)

    # MWU comparator: rounds to a stable realized profile (if at all).
    learner = MultiplicativeWeightsLearner(step_size=0.3)
    mwu = learner.run(game, mwu_rounds, seed=int(rngs[2].integers(0, 2**31)))
    mwu_label = (
        str(mwu.stabilized_at) if mwu.stabilized_at is not None else f">{mwu_rounds}"
    )
    table.add_row("multiplicative weights (rounds)", mwu_label, "—", "—", "—")

    return ExperimentResult(
        experiment="E9",
        table=table,
        metrics={
            "fastest_process": fastest[0],
            "fastest_mean_steps": fastest[1],
            "slowest_process": slowest[0],
            "slowest_mean_steps": slowest[1],
            "mwu_stabilized": mwu.stabilized_at is not None,
        },
    )
