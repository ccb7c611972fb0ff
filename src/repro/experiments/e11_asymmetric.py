"""E11 — extension: the asymmetric case (paper Discussion).

Restricts coins to hardware classes (e.g. SHA256d vs Scrypt rigs) and
verifies that the paper's machinery survives, in two tiers:

* **Empirical tier** — legal better-response learning still converges
  (the ordinal potential argument never used full strategy sets), the
  restricted greedy construction still yields equilibria, and the
  table reports how restrictions change convergence time and the
  miners' payoff distribution.
* **Exact-enumeration tier** — the mask-aware
  :class:`~repro.kernel.space.ConfigSpace` engine walks every
  mask-valid configuration and certifies, per game: the *full*
  restricted equilibrium count, the restricted improvement DAG's
  acyclicity (Theorem 1 under restriction), and the exact longest
  restricted improving path (the tight worst case over every legal
  scheduler/policy/start). The empirical tier is then audited against
  it: every converged run must land in the enumerated sink set, and
  the greedy construction is in the set exactly when it is stable.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.paths import analyze_improvement_dag
from repro.core.configuration import Configuration
from repro.core.equilibrium import greedy_equilibrium
from repro.core.factories import random_configuration, random_game
from repro.core.potential import compare_potential
from repro.core.restricted import RestrictedGame
from repro.experiments.common import ExperimentResult
from repro.learning.engine import LearningEngine
from repro.util.rng import spawn_rngs
from repro.util.tables import Table


def _hardware_split(game, rng, scrypt_fraction=0.4):
    """Randomly assign hardware classes; coins split between algorithms."""
    coin_algorithms = {}
    for index, coin in enumerate(game.coins):
        coin_algorithms[coin.name] = "scrypt" if index % 2 else "sha256d"
    miner_hardware = {}
    for miner in game.miners:
        miner_hardware[miner.name] = (
            "scrypt" if rng.random() < scrypt_fraction else "sha256d"
        )
    return coin_algorithms, miner_hardware


#: One-line summary shown by ``python -m repro list``.
DESCRIPTION = "Extension: asymmetric (hardware-restricted) mining"

#: The shrunken workload behind the CLI's ``--fast`` flag.
FAST_PARAMS = dict(games=4, miners=8, coins=4, starts_per_game=3)


def run(
    *,
    games: int = 10,
    miners: int = 10,
    coins: int = 4,
    starts_per_game: int = 5,
    enumeration_limit: int = 200_000,
    seed: int = 0,
) -> ExperimentResult:
    """Convergence and exact structure of hardware-restricted games.

    ``enumeration_limit`` caps the per-game mask-valid configuration
    count the exact tier will scan; games above it show ``-`` in the
    enumeration columns (hardware splits keep the masked space tiny —
    ``2^10 = 1024`` at the defaults, vs ``4^10 ≈ 1M`` unmasked).
    """
    table = Table(
        "E11 — asymmetric mining (hardware-restricted coins)",
        [
            "game",
            "restricted miners",
            "runs",
            "converged",
            "mean steps (restricted)",
            "mean steps (free)",
            "greedy stable",
            "equilibria (exact)",
            "longest path (exact)",
        ],
    )
    rngs = spawn_rngs(seed, games)
    total_runs = 0
    converged_runs = 0
    greedy_ok = 0
    potential_ok = True
    enumerated_games = 0
    dag_acyclic = True
    finals_in_sinks = True
    greedy_matches_enumeration = True
    equilibrium_counts = []
    longest_paths = []
    for index in range(games):
        rng = rngs[index]
        game = random_game(miners, coins, seed=rng)
        coin_algorithms, miner_hardware = _hardware_split(game, rng)
        restricted = RestrictedGame.by_algorithm(game, coin_algorithms, miner_hardware)

        engine = LearningEngine()
        free_engine_steps = []
        restricted_steps = []
        converged_here = 0
        finals = []
        for start_index in range(starts_per_game):
            # Start everyone on an allowed coin.
            assignment = {
                miner: restricted.allowed_coins(miner)[
                    int(rng.integers(0, len(restricted.allowed_coins(miner))))
                ]
                for miner in game.miners
            }
            start = Configuration.from_mapping(game.miners, assignment)
            trajectory = engine.run(restricted, start, seed=int(rng.integers(0, 2**31)))
            total_runs += 1
            converged_runs += int(trajectory.converged)
            converged_here += int(trajectory.converged)
            restricted_steps.append(trajectory.length)
            if trajectory.converged:
                finals.append(trajectory.final)
            # Potential audit along the restricted path.
            for i in range(len(trajectory.configurations) - 1):
                if (
                    compare_potential(
                        restricted,
                        trajectory.configurations[i],
                        trajectory.configurations[i + 1],
                    )
                    >= 0
                ):
                    potential_ok = False

            free = LearningEngine(record="steps").run(
                game, random_configuration(game, seed=rng), seed=int(rng.integers(0, 2**31))
            )
            free_engine_steps.append(free.length)

        greedy = greedy_equilibrium(restricted)
        stable = restricted.is_stable(greedy)
        greedy_ok += int(stable)

        # Exact-enumeration tier: the mask-aware space engine certifies
        # the full restricted equilibrium set and the worst-case legal
        # improving path, and audits the empirical tier against them.
        if restricted.configuration_count() <= enumeration_limit:
            analysis = analyze_improvement_dag(restricted, limit=enumeration_limit)
            enumerated_games += 1
            dag_acyclic = dag_acyclic and analysis.acyclic
            sinks = set(analysis.sinks)
            finals_in_sinks = finals_in_sinks and all(
                final in sinks for final in finals
            )
            greedy_matches_enumeration = greedy_matches_enumeration and (
                (greedy in sinks) == stable
            )
            equilibrium_counts.append(len(analysis.sinks))
            longest_paths.append(analysis.longest_path)
            equilibria_cell = str(len(analysis.sinks))
            longest_cell = str(analysis.longest_path)
        else:
            equilibria_cell = "-"
            longest_cell = "-"

        restricted_count = sum(
            1
            for miner in game.miners
            if len(restricted.allowed_coins(miner)) < len(game.coins)
        )
        table.add_row(
            f"#{index}",
            f"{restricted_count}/{miners}",
            starts_per_game,
            f"{converged_here}/{starts_per_game}",
            float(np.mean(restricted_steps)),
            float(np.mean(free_engine_steps)),
            "yes" if stable else "NO",
            equilibria_cell,
            longest_cell,
        )
    return ExperimentResult(
        experiment="E11",
        table=table,
        metrics={
            "convergence_rate": converged_runs / total_runs if total_runs else 1.0,
            "greedy_stable_rate": greedy_ok / games,
            "potential_monotone": potential_ok,
            "enumerated_games": enumerated_games,
            "restricted_dag_acyclic": dag_acyclic,
            "finals_in_enumerated_sinks": finals_in_sinks,
            "greedy_matches_enumeration": greedy_matches_enumeration,
            "mean_equilibria": (
                float(np.mean(equilibrium_counts)) if equilibrium_counts else 0.0
            ),
            "max_longest_path": max(longest_paths) if longest_paths else 0,
        },
    )
