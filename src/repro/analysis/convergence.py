"""Convergence statistics for better-response learning (E2, E9).

Theorem 1 says every improving path is finite; these helpers measure
*how* finite — the empirical step counts across random games, policies
and schedulers — and audit the potential argument on live trajectories.

Execution routes through :func:`repro.run_many` (one
:class:`~repro.run.RunSpec` cell per measurement): pass ``executor=``
to pick the mechanism — ``"vectorized"`` for the tensor population
kernel, ``"process"``/``"thread"`` for pools, ``"auto"`` (default) to
let the library choose. Statistics are identical across every mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.factories import random_configuration, random_game
from repro.core.game import Game
from repro.core.potential import is_strictly_increasing_along
from repro.learning.engine import LearningEngine
from repro.learning.policies import BetterResponsePolicy
from repro.learning.schedulers import ActivationScheduler
from repro.run import RunSpec, run_many
from repro.util.rng import RngLike, normalize_seed, spawn_rngs


@dataclass(frozen=True)
class ConvergenceStats:
    """Summary of step counts over repeated learning runs."""

    runs: int
    mean_steps: float
    median_steps: float
    p95_steps: float
    max_steps: int
    #: Fraction of runs whose potential trace was strictly increasing
    #: (should be 1.0; anything else is a bug witness).
    potential_monotone_fraction: float

    def as_row(self) -> List[float]:
        return [
            self.runs,
            self.mean_steps,
            self.median_steps,
            self.p95_steps,
            self.max_steps,
            self.potential_monotone_fraction,
        ]


def stats_from_steps(steps: Sequence[int], *, monotone: int) -> ConvergenceStats:
    """Fold raw per-run step counts into a :class:`ConvergenceStats`."""
    array = np.array(steps, dtype=float)
    return ConvergenceStats(
        runs=len(steps),
        mean_steps=float(array.mean()),
        median_steps=float(np.median(array)),
        p95_steps=float(np.percentile(array, 95)),
        max_steps=int(array.max()),
        potential_monotone_fraction=monotone / len(steps),
    )


def measure_convergence(
    game: Game,
    *,
    runs: int = 20,
    policy: Optional[BetterResponsePolicy] = None,
    scheduler: Optional[ActivationScheduler] = None,
    audit_potential: bool = False,
    seed: RngLike = None,
    backend: str = "fast",
    executor: str = "auto",
    max_workers: Optional[int] = None,
) -> ConvergenceStats:
    """Run learning *runs* times from random starts and summarize steps.

    *backend* selects the numeric loop (``"fast"`` kernel vs
    ``"exact"`` Fractions — identical step counts either way);
    *executor* selects the mechanism (see :func:`repro.run_many` —
    identical statistics in every mode). Potential audits need full
    trajectories and therefore always run serially in-process.
    """
    if runs < 1:
        raise ValueError(f"runs must be ≥ 1, got {runs}")
    root_seed = normalize_seed(seed)
    if audit_potential:
        rngs = spawn_rngs(root_seed, 2 * runs)
        engine = LearningEngine(
            policy=policy,
            scheduler=scheduler,
            backend=backend,
        )
        steps: List[int] = []
        monotone = 0
        for run_index in range(runs):
            start = random_configuration(game, seed=rngs[2 * run_index])
            trajectory = engine.run(game, start, seed=rngs[2 * run_index + 1])
            steps.append(trajectory.length)
            if is_strictly_increasing_along(game, trajectory.configurations):
                monotone += 1
        return stats_from_steps(steps, monotone=monotone)
    # One streaming cell: the workers fold step counts without
    # materializing per-run summaries.
    cell_stats = run_many(
        [
            RunSpec(
                game=game,
                runs=runs,
                policy=policy,
                scheduler=scheduler,
                backend=backend,
                seed=root_seed,
                stream=True,
            )
        ],
        executor=executor,
        max_workers=max_workers,
    )[0]
    return stats_from_steps(list(cell_stats.steps), monotone=runs)


def convergence_sweep(
    *,
    miner_counts: Sequence[int],
    coin_counts: Sequence[int],
    runs_per_cell: int = 10,
    policy: Optional[BetterResponsePolicy] = None,
    scheduler: Optional[ActivationScheduler] = None,
    power_distribution: str = "uniform",
    seed: int = 0,
    backend: str = "fast",
    executor: str = "auto",
    max_workers: Optional[int] = None,
) -> Dict[tuple, ConvergenceStats]:
    """The E2 grid: convergence stats per (n miners, k coins) cell."""
    results: Dict[tuple, ConvergenceStats] = {}
    cell_rngs = spawn_rngs(seed, len(miner_counts) * len(coin_counts))
    index = 0
    for n in miner_counts:
        for k in coin_counts:
            rng = cell_rngs[index]
            index += 1
            game = random_game(
                n, k, power_distribution=power_distribution, seed=rng
            )
            results[(n, k)] = measure_convergence(
                game,
                runs=runs_per_cell,
                policy=policy,
                scheduler=scheduler,
                seed=int(rng.integers(0, 2**31)),
                backend=backend,
                executor=executor,
                max_workers=max_workers,
            )
    return results
