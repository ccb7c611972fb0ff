"""Integration: every experiment runner produces its headline result.

Each experiment runs with tiny parameters (seconds, not minutes); the
full-size tables live in ``benchmarks/``.
"""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    e01_migration,
    e02_convergence,
    e03_no_exact_potential,
    e04_potential_monotonicity,
    e05_welfare,
    e06_better_equilibrium,
    e07_reward_design,
    e08_design_cost,
    e09_learning_speed,
    e10_security_ablation,
    e14_exact_paths,
)


def test_registry_is_complete():
    assert set(ALL_EXPERIMENTS) == {f"E{i}" for i in range(1, 17)}


def test_e01_small():
    result = e01_migration.run(
        horizon_h=160, resolution_h=8, tail_miners=6, chain_miners=10,
        chain_horizon_h=24, seed=1,
    )
    assert result.metrics["migration_factor"] > 1.2
    assert "E1" in result.table.title


def test_e02_small():
    result = e02_convergence.run(
        miner_counts=(5, 10), coin_counts=(2,), runs_per_cell=3, seed=1
    )
    assert result.metrics["convergence_rate"] == 1.0


def test_e03_small():
    result = e03_no_exact_potential.run(random_games=5, seed=1)
    assert result.metrics["paper_defect_matches"]


def test_e04_small():
    result = e04_potential_monotonicity.run(
        games=3, miners=6, coins=3, starts_per_game=2, seed=1
    )
    assert result.metrics["strict_increase_fraction"] == 1.0
    assert result.metrics["observation_violations"] == 0


def test_e04_fast_pins_the_exhaustive_edge_audit():
    result = e04_potential_monotonicity.run(**e04_potential_monotonicity.FAST_PARAMS)
    assert result.metrics["exact_edges_audited"] == 240
    assert result.metrics["exact_edge_violations"] == 0


def test_e14_fast_pins_the_orbit_quotient():
    result = e14_exact_paths.run(**e14_exact_paths.FAST_PARAMS)
    assert result.metrics["symmetric_configurations"] == 531441
    assert result.metrics["symmetric_orbits_scanned"] == 91
    assert result.metrics["symmetric_longest_path"] == 19
    assert result.metrics["symmetric_acyclic"]
    assert result.table.rows[-1][4] == "27720 sinks"


def test_e05_small():
    result = e05_welfare.run(games=5, miners=6, coins=2, seed=1)
    assert result.metrics["observation3_fraction"] == 1.0
    assert result.metrics["claim4_fraction"] == 1.0


def test_e06_small():
    result = e06_better_equilibrium.run(games=6, miners=6, coins=2, seed=1)
    assert result.metrics["improvement_fraction"] == 1.0


def test_e07_small():
    result = e07_reward_design.run(miner_counts=(4, 5), coins=2, pairs_per_size=2, seed=1)
    assert result.metrics["success_rate"] == 1.0


def test_e08_small():
    result = e08_design_cost.run(games=4, miners=6, coins=2, seed=1)
    assert result.metrics["all_costs_finite"]


def test_e09_small():
    result = e09_learning_speed.run(miners=10, coins=3, runs=3, mwu_rounds=50, seed=1)
    assert result.metrics["fastest_mean_steps"] <= result.metrics["slowest_mean_steps"]


def test_e10_small():
    result = e10_security_ablation.run(
        games=4, miners=6, coins=2, naive_trials_per_pair=2, seed=1
    )
    assert result.metrics["staged_success_rate"] == 1.0


@pytest.mark.parametrize("name", list(ALL_EXPERIMENTS))
def test_every_experiment_renders_a_table(name):
    # Rendering is part of the deliverable; it must never crash. Use the
    # smallest viable parameters per experiment.
    small = {
        "E1": dict(horizon_h=120, resolution_h=12, tail_miners=4, chain_miners=6,
                   chain_horizon_h=12, seed=2),
        "E2": dict(miner_counts=(5,), coin_counts=(2,), runs_per_cell=2, seed=2),
        "E3": dict(random_games=3, seed=2),
        "E4": dict(games=2, miners=5, coins=2, starts_per_game=1, seed=2),
        "E5": dict(games=3, miners=6, coins=2, seed=2),
        "E6": dict(games=3, miners=6, coins=2, seed=2),
        "E7": dict(miner_counts=(4,), coins=2, pairs_per_size=1, seed=2),
        "E8": dict(games=3, miners=6, coins=2, seed=2),
        "E9": dict(miners=8, coins=2, runs=2, mwu_rounds=30, seed=2),
        "E10": dict(games=2, miners=6, coins=2, naive_trials_per_pair=1, seed=2),
        "E11": dict(games=2, miners=6, coins=4, starts_per_game=2, seed=2),
        "E12": dict(games=2, miners=6, coins=2, starts=4, seed=2),
        "E13": dict(games=2, miners=6, coins=2, samples=10, seed=2),
        "E14": dict(games=2, miners=4, coins=2, empirical_runs=5, seed=2),
        "E15": dict(games=1, miners=4, coins=2, budgets=(1, 32), replications=6,
                    max_activations=600, seed=2),
        "E16": dict(miners=4, coins=2, horizon_rounds=200, replications=8,
                    reconcile_horizon_h=60.0, seed=2),
    }
    result = ALL_EXPERIMENTS[name](**small[name])
    rendered = result.render()
    assert name in rendered or name in result.table.title
    assert len(rendered.splitlines()) >= 4
