"""Tests for basin analysis and the manipulation planner."""

import pytest

from repro.analysis.basins import (
    basin_by_policy,
    basin_profile,
    expected_payoff_from_luck,
)
from repro.core.equilibrium import enumerate_equilibria
from repro.core.factories import random_game
from repro.learning.policies import BestResponsePolicy, RandomImprovingPolicy
from repro.manipulation.planner import plan_manipulation


def _multi_equilibrium_game():
    for seed in range(20):
        game = random_game(6, 2, seed=seed)
        equilibria = enumerate_equilibria(game)
        if len(equilibria) >= 2:
            return game, equilibria
    raise AssertionError("no multi-equilibrium game found")


class TestBasinProfile:
    def test_frequencies_sum_to_one(self):
        game, _ = _multi_equilibrium_game()
        profile = basin_profile(game, samples=30, seed=0)
        assert sum(profile.frequencies.values()) == pytest.approx(1.0)

    def test_counts_are_raw_integers_summing_to_samples(self):
        game, _ = _multi_equilibrium_game()
        profile = basin_profile(game, samples=30, seed=0)
        assert all(isinstance(count, int) for count in profile.counts.values())
        assert sum(profile.counts.values()) == profile.samples == 30

    def test_exact_luck_baseline_from_counts(self):
        from fractions import Fraction

        from repro.analysis.basins import expected_payoff_from_luck

        game, _ = _multi_equilibrium_game()
        profile = basin_profile(game, samples=30, seed=0)
        miner = game.miners[0]
        expected = sum(
            (
                game.payoff(miner, eq) * Fraction(count, profile.samples)
                for eq, count in profile.counts.items()
            ),
            Fraction(0),
        )
        assert expected_payoff_from_luck(game, miner, profile) == expected

    def test_probability_of_empty_profile_is_zero(self):
        from repro.analysis.basins import BasinProfile

        game, _ = _multi_equilibrium_game()
        empty = BasinProfile(counts={}, samples=0)
        some_config = next(iter(game.all_configurations()))
        assert empty.probability_of(some_config) == 0.0

    def test_runner_counts_match_serial(self):
        # The process pool shares the serial loop's seeding scheme, so
        # the pooled profile must be identical for the same seed.
        import warnings

        game, _ = _multi_equilibrium_game()
        serial = basin_profile(game, samples=20, seed=5, executor="serial")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pooled = basin_profile(
                game, samples=20, seed=5, executor="process", max_workers=2
            )
        assert pooled.counts == serial.counts
        assert pooled.samples == serial.samples

    def test_landing_points_are_equilibria(self):
        game, _ = _multi_equilibrium_game()
        profile = basin_profile(game, samples=20, seed=1)
        for config in profile.frequencies:
            assert game.is_stable(config)

    def test_dominant_has_max_frequency(self):
        game, _ = _multi_equilibrium_game()
        profile = basin_profile(game, samples=25, seed=2)
        _, frequency = profile.dominant()
        assert frequency == max(profile.frequencies.values())

    def test_entropy_bounds(self):
        game, _ = _multi_equilibrium_game()
        profile = basin_profile(game, samples=25, seed=3)
        import math

        assert 0.0 <= profile.entropy() <= math.log2(max(profile.distinct_equilibria, 2)) + 1e-9

    def test_probability_of_unseen_is_zero(self):
        game, equilibria = _multi_equilibrium_game()
        profile = basin_profile(game, samples=10, seed=4)
        unseen = [eq for eq in equilibria if eq not in profile.frequencies]
        for eq in unseen:
            assert profile.probability_of(eq) == 0.0

    def test_samples_validated(self):
        game, _ = _multi_equilibrium_game()
        with pytest.raises(ValueError):
            basin_profile(game, samples=0)

    def test_by_policy_keys(self):
        game, _ = _multi_equilibrium_game()
        profiles = basin_by_policy(
            game, (BestResponsePolicy(), RandomImprovingPolicy()), samples=10, seed=5
        )
        assert set(profiles) == {"best-response", "random-improving"}


class TestLuckBaseline:
    def test_luck_is_between_extremes(self):
        game, _ = _multi_equilibrium_game()
        profile = basin_profile(game, samples=30, seed=6)
        miner = game.miners[0]
        payoffs = [game.payoff(miner, eq) for eq in profile.frequencies]
        luck = expected_payoff_from_luck(game, miner, profile)
        assert min(payoffs) <= luck <= max(payoffs)


class TestPlanner:
    def test_plans_are_sorted_by_break_even(self):
        game, equilibria = _multi_equilibrium_game()
        beneficiary = max(game.miners, key=lambda m: m.power)
        # Find a start where the beneficiary can gain somewhere.
        report = None
        for start in equilibria:
            candidate = plan_manipulation(game, beneficiary, start, equilibria, seed=7)
            if candidate.plans:
                report = candidate
                break
        if report is None:
            pytest.skip("beneficiary already at its best equilibrium everywhere")
        break_evens = [
            plan.break_even_rounds
            for plan in report.plans
            if plan.break_even_rounds is not None
        ]
        assert break_evens == sorted(break_evens)

    def test_only_strict_gains_are_planned(self):
        game, equilibria = _multi_equilibrium_game()
        beneficiary = game.miners[-1]
        report = plan_manipulation(game, beneficiary, equilibria[0], equilibria, seed=8)
        for plan in report.plans:
            assert plan.gain_per_round > 0
            assert plan.cost > 0

    def test_worth_buying_monotone_in_horizon(self):
        game, equilibria = _multi_equilibrium_game()
        beneficiary = max(game.miners, key=lambda m: m.power)
        report = None
        for start in equilibria:
            candidate = plan_manipulation(game, beneficiary, start, equilibria, seed=9)
            if candidate.plans:
                report = candidate
                break
        if report is None:
            pytest.skip("no profitable plan for this game")
        # If it's worth buying at a short horizon, it stays worth buying.
        if report.worth_buying(1000):
            assert report.worth_buying(100_000)

    def test_net_value_formula(self):
        game, equilibria = _multi_equilibrium_game()
        beneficiary = max(game.miners, key=lambda m: m.power)
        for start in equilibria:
            report = plan_manipulation(game, beneficiary, start, equilibria, seed=10)
            if report.plans:
                plan = report.plans[0]
                assert plan.net_value_at(0) == -plan.cost
                horizon = 10
                assert plan.net_value_at(horizon) == plan.gain_per_round * horizon - plan.cost
                return
        pytest.skip("no profitable plan")
