"""E13 — extension: basins of attraction and the manipulation planner.

Measures where learning lands from random starts (the equilibrium
landing distribution), how much the distribution depends on the
learning policy, and whether the Section 5 mechanism is worth its price
for the planner's chosen beneficiary compared with "wait for luck".
"""

from __future__ import annotations

from repro.analysis.basins import basin_by_policy, basin_profile
from repro.core.equilibrium import enumerate_equilibria
from repro.core.factories import random_game
from repro.experiments.common import ExperimentResult
from repro.learning.policies import BestResponsePolicy, MinimalGainPolicy, RandomImprovingPolicy
from repro.manipulation.planner import plan_manipulation
from repro.util.rng import spawn_rngs
from repro.util.tables import Table


#: One-line summary shown by ``python -m repro list``.
DESCRIPTION = "Extension: equilibrium basins + manipulation planner"

#: The shrunken workload behind the CLI's ``--fast`` flag.
FAST_PARAMS = dict(games=3, miners=6, coins=2, samples=20)

#: Declared CLI knob capabilities (the registry forwards
#: ``--backend``/``--executor`` only where declared).
ACCEPTS_BACKEND = True
ACCEPTS_EXECUTOR = True


def run(
    *,
    games: int = 6,
    miners: int = 6,
    coins: int = 2,
    samples: int = 40,
    horizon_rounds: int = 20_000,
    seed: int = 0,
    backend: str = "fast",
    executor: str = "auto",
) -> ExperimentResult:
    """Basin entropy per policy + planner verdicts.

    ``backend`` selects the learning loop's arithmetic and ``executor``
    the batch mechanism (see :mod:`repro.experiments.common`); verdicts
    are identical either way.
    """
    table = Table(
        "E13 — equilibrium basins and the manipulation planner",
        [
            "game",
            "equilibria",
            "basins reached",
            "dominant landings",
            "entropy (bits)",
            "entropy spread by policy",
            "planner: worth buying?",
            "break-even rounds",
        ],
    )
    rngs = spawn_rngs(seed, games)
    worth = 0
    planned = 0
    for index in range(games):
        game = random_game(miners, coins, seed=rngs[index])
        equilibria = enumerate_equilibria(game)
        profile = basin_profile(
            game,
            samples=samples,
            seed=int(rngs[index].integers(0, 2**31)),
            backend=backend,
            executor=executor,
        )
        by_policy = basin_by_policy(
            game,
            (BestResponsePolicy(), RandomImprovingPolicy(), MinimalGainPolicy()),
            samples=max(samples // 2, 10),
            seed=int(rngs[index].integers(0, 2**31)),
            backend=backend,
            executor=executor,
        )
        entropies = [p.entropy() for p in by_policy.values()]
        verdict = "n/a"
        break_even = "n/a"
        if len(equilibria) >= 2:
            current, _ = profile.dominant()
            beneficiary = max(game.miners, key=lambda m: m.power)
            report = plan_manipulation(
                game,
                beneficiary,
                current,
                equilibria,
                basin=profile,
                seed=int(rngs[index].integers(0, 2**31)),
            )
            planned += 1
            if report.best is not None:
                worth += int(report.worth_buying(horizon_rounds))
                verdict = "yes" if report.worth_buying(horizon_rounds) else "no"
                break_even = (
                    f"{report.best.break_even_rounds:.0f}"
                    if report.best.break_even_rounds is not None
                    else "never"
                )
            else:
                verdict = "no gain available"
        dominant_eq, _ = profile.dominant()
        table.add_row(
            f"#{index}",
            len(equilibria),
            profile.distinct_equilibria,
            f"{profile.count_of(dominant_eq)}/{profile.samples}",
            profile.entropy(),
            f"{min(entropies):.2f}–{max(entropies):.2f}",
            verdict,
            break_even,
        )
    return ExperimentResult(
        experiment="E13",
        table=table,
        metrics={
            "plans_evaluated": planned,
            "worth_buying_fraction": worth / planned if planned else 0.0,
        },
    )
