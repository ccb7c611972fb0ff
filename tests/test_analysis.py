"""Tests for welfare, efficiency, convergence and security analysis."""

from fractions import Fraction

import numpy as np
import pytest

from repro.analysis.convergence import convergence_sweep, measure_convergence
from repro.analysis.efficiency import efficiency_report, payoff_envelopes
from repro.analysis.security import (
    coin_security,
    dominance_target,
    security_report,
    vulnerable_coins,
)
from repro.analysis.welfare import (
    gini_coefficient,
    max_welfare,
    payoff_distribution,
    reward_per_unit_spread,
    social_welfare,
    verifies_observation3,
    welfare_gap,
)
from repro.core.configuration import Configuration
from repro.core.equilibrium import enumerate_equilibria, greedy_equilibrium
from repro.core.factories import random_configuration, random_game
from repro.core.game import Game


class TestWelfare:
    def test_gap_is_unmined_reward(self):
        game = Game.create([2, 1], [5, 3])
        c1 = game.coins[0]
        all_on_c1 = Configuration(game.miners, [c1, c1])
        assert social_welfare(game, all_on_c1) == 5
        assert welfare_gap(game, all_on_c1) == 3
        assert not verifies_observation3(game, all_on_c1)

    def test_full_coverage_is_optimal(self):
        game = Game.create([2, 1], [5, 3])
        split = Configuration(game.miners, list(game.coins))
        assert welfare_gap(game, split) == 0
        assert verifies_observation3(game, split)

    def test_max_welfare(self):
        game = Game.create([1], [5, 3])
        assert max_welfare(game) == 8

    def test_payoff_distribution_keys(self):
        game = random_game(4, 2, seed=0)
        config = random_configuration(game, seed=1)
        dist = payoff_distribution(game, config)
        assert set(dist) == {m.name for m in game.miners}

    def test_rpu_spread_at_least_one(self):
        game = random_game(6, 3, seed=2)
        equilibrium = greedy_equilibrium(game)
        assert reward_per_unit_spread(game, equilibrium) >= 1.0


class TestGini:
    def test_equal_is_zero(self):
        assert gini_coefficient([Fraction(1)] * 5) == pytest.approx(0.0)

    def test_concentrated_approaches_one(self):
        values = [Fraction(0)] * 99 + [Fraction(100)]
        assert gini_coefficient(values) > 0.95

    def test_known_value(self):
        # For [1, 3]: gini = (2·(1·1+2·3))/(2·4) − 3/2 = 14/8 − 12/8 = 0.25.
        assert gini_coefficient([Fraction(1), Fraction(3)]) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            gini_coefficient([])
        with pytest.raises(ValueError):
            gini_coefficient([Fraction(-1), Fraction(1)])


class TestEfficiency:
    def test_equilibria_are_optimal(self):
        game = random_game(6, 2, seed=3)
        equilibria = enumerate_equilibria(game)
        report = efficiency_report(game, equilibria)
        assert report.price_of_anarchy == pytest.approx(1.0)
        assert report.price_of_stability == pytest.approx(1.0)

    def test_envelopes_cover_all_miners(self):
        game = random_game(5, 2, seed=4)
        equilibria = enumerate_equilibria(game)
        envelopes = payoff_envelopes(game, equilibria)
        assert len(envelopes) == 5
        for envelope in envelopes:
            assert envelope.lowest <= envelope.highest
            assert envelope.ratio >= 1.0


class TestConvergenceStats:
    def test_measure(self):
        game = random_game(8, 3, seed=5)
        stats = measure_convergence(game, runs=5, seed=0)
        assert stats.runs == 5
        assert stats.mean_steps >= 0
        assert stats.potential_monotone_fraction == 1.0

    def test_audit_mode(self):
        game = random_game(6, 2, seed=6)
        stats = measure_convergence(game, runs=3, audit_potential=True, seed=1)
        assert stats.potential_monotone_fraction == 1.0

    def test_sweep_shape(self):
        results = convergence_sweep(
            miner_counts=(4, 6), coin_counts=(2,), runs_per_cell=2, seed=0
        )
        assert set(results) == {(4, 2), (6, 2)}

    def test_run_count_validated(self):
        game = random_game(4, 2, seed=7)
        with pytest.raises(ValueError):
            measure_convergence(game, runs=0)


class TestSecurity:
    def test_coin_security_shares(self):
        game = Game.create([3, 1], [1, 1])
        c1 = game.coins[0]
        config = Configuration(game.miners, [c1, c1])
        entry = coin_security(game, config, c1)
        assert entry.miners == 2
        assert entry.top_share == pytest.approx(0.75)
        assert entry.hhi == pytest.approx(0.75**2 + 0.25**2)
        assert entry.majority_vulnerable

    def test_empty_coin_is_none(self):
        game = Game.create([1], [1, 1])
        config = Configuration(game.miners, [game.coins[0]])
        assert coin_security(game, config, game.coins[1]) is None

    def test_report_and_vulnerable(self):
        game = Game.create([3, 1], [1, 1])
        c1 = game.coins[0]
        config = Configuration(game.miners, [c1, c1])
        report = security_report(game, config)
        assert len(report) == 1
        assert vulnerable_coins(game, config) == [c1.name]

    def test_dominance_target_is_stable_and_dominated(self):
        for seed in range(10):
            game = random_game(6, 2, seed=seed)
            attacker = max(game.miners, key=lambda m: m.power)
            target = dominance_target(game, attacker, game.coins[0])
            if target is None:
                continue
            assert game.is_stable(target)
            occupants = target.miners_on(game.coins[0])
            total = sum((m.power for m in occupants), Fraction(0))
            assert attacker in occupants
            assert attacker.power / total > Fraction(1, 2)
            return
        pytest.skip("no dominance target in 10 seeds")


SEED_TYPES = {
    "int": lambda: 5,
    "np.integer": lambda: np.int64(5),
    "SeedSequence": lambda: np.random.SeedSequence(5),
    "Generator": lambda: np.random.default_rng(5),
}


@pytest.mark.parametrize("seed_type", sorted(SEED_TYPES))
def test_seeded_entry_points_honour_every_seed_type(seed_type):
    """Equal seeds of any type give equal results; none is swapped for entropy."""
    from repro.analysis.basins import basin_profile
    from repro.analysis.classes import class_basin_profile, measure_class_convergence
    from repro.core.factories import random_configuration, random_game
    from repro.manipulation.better_equilibrium import find_better_equilibrium_sampled
    from repro.stochastic.risk import misconvergence_profile

    game = random_game(5, 2, seed=1)
    current = random_configuration(game, seed=2)

    calls = {
        "measure_convergence": lambda seed: measure_convergence(game, runs=10, seed=seed),
        "basin_profile": lambda seed: basin_profile(game, samples=10, seed=seed).counts,
        "misconvergence_profile": lambda seed: misconvergence_profile(
            game, budgets=(4,), replications=3, max_activations=300, seed=seed
        ),
        "measure_class_convergence": lambda seed: measure_class_convergence(
            game, runs=10, seed=seed
        ),
        "class_basin_profile": lambda seed: class_basin_profile(
            game, samples=10, seed=seed
        ).counts,
        "find_better_equilibrium_sampled": lambda seed: find_better_equilibrium_sampled(
            game, current, samples=10, seed=seed
        ),
    }
    make_seed = SEED_TYPES[seed_type]
    for name, call in calls.items():
        first = call(make_seed())
        assert all(call(make_seed()) == first for _ in range(2)), name
        if seed_type == "np.integer":
            assert first == call(5), name

