"""E14 — extension: exact worst-case learning time via the DAG view.

Theorem 1 makes the improvement graph a DAG; its longest path is the
*tight* worst case over every scheduler, policy and start — something
no sampling experiment (E2/E9) can certify. This experiment computes it
exactly, verifies acyclicity and sink-equilibrium agreement, and
reports how close empirical learners get to the bound.

The analysis runs on :mod:`repro.kernel.space` (integer configuration
codes, Gray-code walk, flat successor arrays), which raised the default
size from 5 to 10 miners at the same time budget. A second, symmetric
section drives home the symmetry reduction: equal-power games are
analyzed through their orbit quotient, so spaces of hundreds of
thousands of configurations collapse to a few dozen canonical nodes.
"""

from __future__ import annotations


from repro.analysis.paths import analyze_improvement_dag
from repro.core.equilibrium import enumerate_equilibria
from repro.core.factories import random_configuration, random_game
from repro.core.game import Game
from repro.experiments.common import ExperimentResult
from repro.learning.engine import LearningEngine
from repro.learning.policies import MinimalGainPolicy
from repro.learning.schedulers import SmallestFirstScheduler
from repro.util.rng import spawn_rngs
from repro.util.tables import Table


#: One-line summary shown by ``python -m repro list``.
DESCRIPTION = "Extension: exact worst-case learning time (DAG view)"

#: The shrunken workload behind the CLI's ``--fast`` flag.
FAST_PARAMS = dict(games=4, miners=4, coins=2, empirical_runs=10)

#: Declared CLI knob capabilities (the registry forwards
#: ``--backend``/``--executor`` only where declared).
ACCEPTS_BACKEND = True


def run(
    *,
    games: int = 8,
    miners: int = 10,
    coins: int = 2,
    empirical_runs: int = 30,
    seed: int = 0,
    backend: str = "space",
    symmetric_miners: int = 12,
    symmetric_coins: int = 3,
) -> ExperimentResult:
    """Exact longest improving path vs empirical adversarial maxima.

    ``backend`` selects the DAG engine (``"space"`` is the integer-code
    default; ``"exact"`` is the Fraction brute force, feasible only at
    much smaller sizes). Set ``symmetric_miners=0`` to skip the
    equal-power symmetry-reduction showcase rows.
    """
    table = Table(
        "E14 — exact worst-case learning time (improvement-graph DAG)",
        [
            "game",
            "configs",
            "scanned",
            "acyclic",
            "sinks = equilibria",
            "exact worst case",
            "empirical max (adversarial)",
            "gap",
        ],
    )
    rngs = spawn_rngs(seed, games)
    acyclic_all = True
    sinks_match_all = True
    tight = 0
    for index in range(games):
        game = random_game(miners, coins, seed=rngs[index])
        analysis = analyze_improvement_dag(game, backend=backend)
        acyclic_all &= analysis.acyclic
        matches = set(analysis.sinks) == set(enumerate_equilibria(game))
        sinks_match_all &= matches
        bound = analysis.longest_path if analysis.longest_path is not None else -1

        engine = LearningEngine(
            policy=MinimalGainPolicy(),
            scheduler=SmallestFirstScheduler(),
            record="steps",
        )
        longest_seen = 0
        for _ in range(empirical_runs):
            start = random_configuration(game, seed=int(rngs[index].integers(0, 2**31)))
            trajectory = engine.run(
                game, start, seed=int(rngs[index].integers(0, 2**31))
            )
            longest_seen = max(longest_seen, trajectory.length)
        if longest_seen == bound:
            tight += 1
        table.add_row(
            f"#{index}",
            analysis.total_configurations,
            analysis.nodes_scanned,
            "yes" if analysis.acyclic else "NO",
            "yes" if matches else "NO",
            bound,
            longest_seen,
            bound - longest_seen,
        )

    sym_metrics = {}
    if symmetric_miners and backend == "space":
        # Equal-power miners are interchangeable: the DAG analysis runs
        # on the orbit quotient, shrinking |C|^n combinatorially. Sinks
        # stay integer codes here — materializing tens of thousands of
        # equilibrium Configurations would dwarf the analysis itself.
        from repro.kernel.space import ConfigSpace

        sym_game = Game.create(
            [3] * symmetric_miners,
            [5 + 2 * i for i in range(symmetric_coins)],
        )
        sym = ConfigSpace(sym_game, symmetry=True).dag_report()
        acyclic_all &= sym.acyclic
        table.add_row(
            f"sym n={symmetric_miners} |C|={symmetric_coins}",
            sym.total_configurations,
            sym.nodes_scanned,
            "yes" if sym.acyclic else "NO",
            f"{len(sym.sink_codes)} sinks",
            sym.longest_path if sym.longest_path is not None else -1,
            "—",
            "—",
        )
        sym_metrics = {
            "symmetric_configurations": sym.total_configurations,
            "symmetric_orbits_scanned": sym.nodes_scanned,
            "symmetric_longest_path": sym.longest_path,
            "symmetric_acyclic": sym.acyclic,
        }

    return ExperimentResult(
        experiment="E14",
        table=table,
        metrics={
            "all_acyclic": acyclic_all,
            "sinks_match_equilibria": sinks_match_all,
            "tight_fraction": tight / games,
            **sym_metrics,
        },
    )
