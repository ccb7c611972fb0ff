"""E7 — Algorithm 2 / Theorem 2: reward design moves any s0 to any sf.

Random equilibrium pairs, swept over game size and over learner
adversarialness. The claims under test: the mechanism *always* reaches
the target (success 100%), stage loop-iteration counts stay finite and
small (Theorem 2's Φ bound), and success is independent of the learning
order (arbitrary better response).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.equilibrium import greedy_equilibrium
from repro.core.factories import random_configuration, random_game
from repro.design.mechanism import DynamicRewardDesign
from repro.experiments.common import ExperimentResult
from repro.learning.engine import LearningEngine
from repro.learning.policies import MinimalGainPolicy, RandomImprovingPolicy
from repro.learning.schedulers import SmallestFirstScheduler, UniformRandomScheduler
from repro.util.rng import spawn_rngs
from repro.util.tables import Table


def _two_equilibria(game, rng):
    """A pair of distinct equilibria: greedy + learned-from-random."""
    first = greedy_equilibrium(game)
    engine = LearningEngine(record="steps")
    for _ in range(20):
        start = random_configuration(game, seed=rng)
        second = engine.run(game, start, seed=rng).final
        if second != first:
            return first, second
    return None


#: One-line summary shown by ``python -m repro list``.
DESCRIPTION = "Algorithm 2: reward design moves s0 → sf, any learner"

#: The shrunken workload behind the CLI's ``--fast`` flag.
FAST_PARAMS = dict(miner_counts=(4, 6), coins=2, pairs_per_size=2)


def run(
    *,
    miner_counts: Sequence[int] = (4, 6, 8, 12),
    coins: int = 3,
    pairs_per_size: int = 5,
    seed: int = 0,
) -> ExperimentResult:
    """Success rate, iterations and steps of the mechanism across sizes."""
    learners = (
        ("uniform-random", RandomImprovingPolicy(), UniformRandomScheduler()),
        ("adversarial", MinimalGainPolicy(), SmallestFirstScheduler()),
    )
    table = Table(
        "E7 — dynamic reward design (Algorithm 2 / Theorem 2)",
        [
            "n miners",
            "learner",
            "runs",
            "success",
            "mean stage iters",
            "max stage iters",
            "mean steps",
        ],
    )
    rngs = spawn_rngs(seed, len(miner_counts) * pairs_per_size)
    rng_cursor = 0
    total = 0
    successes = 0
    worst_stage_iters = 0
    for n in miner_counts:
        pairs = []
        for _ in range(pairs_per_size):
            rng = rngs[rng_cursor]
            rng_cursor += 1
            game = random_game(n, coins, seed=rng)
            found = _two_equilibria(game, rng)
            if found is not None:
                pairs.append((game, found[0], found[1]))
        for label, policy, scheduler in learners:
            run_successes = 0
            stage_iters = []
            steps = []
            for game, s0, sf in pairs:
                mechanism = DynamicRewardDesign(policy=policy, scheduler=scheduler)
                result = mechanism.run(game, s0, sf, seed=seed + 17)
                run_successes += int(result.success)
                stage_iters.extend(r.iterations for r in result.stage_reports)
                steps.append(result.total_steps)
            total += len(pairs)
            successes += run_successes
            if stage_iters:
                worst_stage_iters = max(worst_stage_iters, max(stage_iters))
            table.add_row(
                n,
                label,
                len(pairs),
                f"{run_successes}/{len(pairs)}",
                float(np.mean(stage_iters)) if stage_iters else 0.0,
                max(stage_iters) if stage_iters else 0,
                float(np.mean(steps)) if steps else 0.0,
            )
    return ExperimentResult(
        experiment="E7",
        table=table,
        metrics={
            "runs": total,
            "success_rate": successes / total if total else 1.0,
            "worst_stage_iterations": worst_stage_iters,
        },
    )
