"""E4 — Theorem 1 mechanics: the ordinal potential strictly increases.

Records full trajectories across random games and audits every single
better-response step against ``rank(list(s))`` — the paper's ordinal
potential — plus Observations 1 and 2 (the local RPU facts the proof
rests on). On top of the sampled trajectories, an *exhaustive* tier
audits every edge of the full improvement DAG for small games via the
integer-code enumeration engine (:mod:`repro.kernel.space`) — the
complete computational proof-of-theorem, not just the visited slice.
Any violation would print as a failure row.
"""

from __future__ import annotations


from repro.core.factories import random_configuration, random_game
from repro.kernel.space import ConfigSpace
from repro.core.potential import compare_potential, rpu_list
from repro.experiments.common import ExperimentResult
from repro.learning.engine import LearningEngine
from repro.learning.policies import MinimalGainPolicy, RandomImprovingPolicy
from repro.util.rng import spawn_rngs
from repro.util.tables import Table


def _audit_observations(game, trajectory) -> int:
    """Count Observation 1/2 violations along a trajectory (expect 0)."""
    violations = 0
    for index, step in enumerate(trajectory.steps):
        before = trajectory.configurations[index]
        after = trajectory.configurations[index + 1]
        rpu_source_before = game.rpu(step.source, before)
        rpu_source_after = game.rpu(step.source, after)
        rpu_target_after = game.rpu(step.target, after)
        # Observation 2: RPU_c(s) < min(RPU_c(s'), RPU_c'(s')).
        if rpu_target_after is not None and rpu_source_before is not None:
            if rpu_target_after <= rpu_source_before:
                violations += 1
        if rpu_source_after is not None and rpu_source_before is not None:
            if rpu_source_after <= rpu_source_before:
                violations += 1
        # Observation 1: the target sits strictly later in list(s).
        entries = rpu_list(game, before)
        coin_order = [game.coins[entry[1]] for entry in entries]
        if coin_order.index(step.target) <= coin_order.index(step.source):
            violations += 1
    return violations


def _audit_all_edges(game) -> tuple:
    """(edges audited, violations) over the *entire* improvement DAG.

    Walks every configuration at the integer-code level and checks
    ``H(s) < H(s')`` on every better-response edge; Configurations are
    materialized only to evaluate the Fraction potential comparator.
    """
    space = ConfigSpace(game)
    edges = 0
    violations = 0
    for code, assign, mass in space.iter_product():
        successors = space.successor_codes(code, assign, mass)
        if not successors:
            continue
        before = space.config_of(code)
        for child in successors:
            edges += 1
            if compare_potential(game, before, space.config_of(child)) >= 0:
                violations += 1
    return edges, violations


#: One-line summary shown by ``python -m repro list``.
DESCRIPTION = "Ordinal potential strictly increases on every step"

#: The shrunken workload behind the CLI's ``--fast`` flag.
FAST_PARAMS = dict(games=3, miners=6, coins=3, starts_per_game=2)


def run(
    *,
    games: int = 10,
    miners: int = 8,
    coins: int = 4,
    starts_per_game: int = 3,
    seed: int = 0,
    exact_games: int = 3,
    exact_miners: int = 5,
    exact_coins: int = 2,
) -> ExperimentResult:
    """Audit potential monotonicity and Observations 1–2 on live paths.

    ``exact_games`` additionally audits *every* DAG edge of that many
    small games exhaustively (set it to 0 to skip)."""
    policies = (RandomImprovingPolicy(), MinimalGainPolicy())
    table = Table(
        "E4 — ordinal potential audit (Theorem 1, Observations 1–2)",
        ["game", "policy", "steps audited", "potential increases", "observation violations"],
    )
    rngs = spawn_rngs(seed, games * starts_per_game * 2)
    rng_index = 0
    total_steps = 0
    total_increases = 0
    total_violations = 0
    for game_index in range(games):
        game = random_game(miners, coins, seed=rngs[rng_index])
        rng_index += 1
        for policy in policies:
            steps = 0
            increases = 0
            violations = 0
            for start_index in range(starts_per_game):
                rng = rngs[(game_index * starts_per_game + start_index) % len(rngs)]
                start = random_configuration(game, seed=rng)
                engine = LearningEngine(policy=policy)
                trajectory = engine.run(game, start, seed=int(rng.integers(0, 2**31)))
                steps += trajectory.length
                for i in range(len(trajectory.configurations) - 1):
                    if (
                        compare_potential(
                            game,
                            trajectory.configurations[i],
                            trajectory.configurations[i + 1],
                        )
                        < 0
                    ):
                        increases += 1
                violations += _audit_observations(game, trajectory)
            table.add_row(f"#{game_index}", policy.name, steps, increases, violations)
            total_steps += steps
            total_increases += increases
            total_violations += violations

    exact_edges = 0
    exact_edge_violations = 0
    for exact_index in range(exact_games):
        game = random_game(exact_miners, exact_coins, seed=1000 + seed * 97 + exact_index)
        edges, edge_violations = _audit_all_edges(game)
        exact_edges += edges
        exact_edge_violations += edge_violations
        table.add_row(
            f"exact #{exact_index} ({exact_miners}×{exact_coins})",
            "every DAG edge",
            edges,
            edges - edge_violations,
            edge_violations,
        )

    return ExperimentResult(
        experiment="E4",
        table=table,
        metrics={
            "steps_audited": total_steps,
            "strict_increase_fraction": (
                total_increases / total_steps if total_steps else 1.0
            ),
            "observation_violations": total_violations,
            "exact_edges_audited": exact_edges,
            "exact_edge_violations": exact_edge_violations,
        },
    )
