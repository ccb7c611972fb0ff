"""E3 — Proposition 1: the game has no exact potential.

Reproduces the paper's 2×2 counterexample cycle (defect 2/3) and then
audits random games for non-closing 4-cycles: by Monderer & Shapley,
*any* nonzero cycle defect refutes an exact potential, so the table
reports how ubiquitous the refutation is. The search runs on the
integer-code engine (:mod:`repro.kernel.space`) — each 4-cycle is
tested by integer arithmetic over one common denominator — which makes
a second, larger audit tier (4 miners × 3 coins, ~2000 cycles per
game) affordable where the Fraction scan was not.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.factories import random_game
from repro.core.potential import (
    find_nonzero_four_cycle,
    proposition1_counterexample,
)
from repro.experiments.common import ExperimentResult
from repro.util.rng import spawn_rngs
from repro.util.tables import Table


#: One-line summary shown by ``python -m repro list``.
DESCRIPTION = "Proposition 1: no exact potential (cycle defect 2/3)"

#: The shrunken workload behind the CLI's ``--fast`` flag.
FAST_PARAMS = dict(random_games=5)

#: Declared CLI knob capabilities (the registry forwards
#: ``--backend``/``--executor`` only where declared).
ACCEPTS_BACKEND = True


def run(
    *,
    random_games: int = 20,
    large_games: int = 10,
    large_miners: int = 4,
    large_coins: int = 3,
    seed: int = 0,
    backend: str = "space",
) -> ExperimentResult:
    """Paper counterexample + randomized 4-cycle audits (two size tiers)."""
    _, paper_defect = proposition1_counterexample()
    table = Table(
        "E3 — no exact potential (Proposition 1)",
        ["game", "witness 4-cycle found", "cycle defect"],
    )
    table.add_row("paper counterexample (m=[2,1], F=[1,1])", "yes", str(paper_defect))

    witnesses = 0
    rngs = spawn_rngs(seed, random_games + large_games)
    for index in range(random_games):
        game = random_game(3, 2, seed=rngs[index])
        witness = find_nonzero_four_cycle(game, backend=backend)
        if witness is not None:
            witnesses += 1
            if index < 5:
                table.add_row(
                    f"random game #{index}",
                    "yes",
                    str(witness[5]),
                )
    table.add_row(
        "random 3×2 games with a witness",
        f"{witnesses}/{random_games}",
        "—",
    )

    large_witnesses = 0
    for index in range(large_games):
        game = random_game(large_miners, large_coins, seed=rngs[random_games + index])
        if find_nonzero_four_cycle(game, backend=backend) is not None:
            large_witnesses += 1
    if large_games:
        table.add_row(
            f"random {large_miners}×{large_coins} games with a witness",
            f"{large_witnesses}/{large_games}",
            "—",
        )

    return ExperimentResult(
        experiment="E3",
        table=table,
        metrics={
            "paper_defect": paper_defect,
            "paper_defect_matches": paper_defect == Fraction(2, 3),
            "random_witness_fraction": witnesses / random_games,
            "large_witness_fraction": (
                large_witnesses / large_games if large_games else 0.0
            ),
        },
    )
