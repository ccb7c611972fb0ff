"""Tests for the Monte Carlo realization layer (repro.stochastic).

The two acceptance properties from the PR issue live here:

* as the per-decision sample budget grows, the noisy engine's landing
  distribution concentrates on the exact ``ConfigSpace`` equilibrium
  set (misconvergence → 0, support ⊆ exact equilibria), asserted with
  statistical tolerance at a fixed seed;
* a fixed-seed noisy batch is bit-identical across serial, thread and
  process execution.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from repro import RunSpec, run_many
from repro.core.equilibrium import enumerate_equilibria
from repro.core.factories import random_configuration, random_game
from repro.stochastic import (
    FixedBudget,
    GeometricBudget,
    NoisyLearningEngine,
    as_budget,
    draw_below,
    estimate_payoffs,
    estimation_error,
    misconvergence_profile,
    per_round_variance,
    realized_rewards,
    reconcile,
    reward_risk,
    ruin_bound,
    sample_block_wins,
    sample_win_count,
    specs_from_game,
    time_to_equilibrium,
)


class TestDrawBelow:
    def test_in_range_and_deterministic(self):
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        values_a = [draw_below(rng_a, 1000) for _ in range(200)]
        values_b = [draw_below(rng_b, 1000) for _ in range(200)]
        assert values_a == values_b
        assert all(0 <= value < 1000 for value in values_a)

    def test_arbitrary_precision_bound(self):
        bound = 2**200 + 12345  # far past int64
        rng = np.random.default_rng(2)
        values = [draw_below(rng, bound) for _ in range(20)]
        assert all(0 <= value < bound for value in values)
        # Re-seeding reproduces the rejection-sampled sequence exactly.
        replay_rng = np.random.default_rng(2)
        assert values == [draw_below(replay_rng, bound) for _ in range(20)]

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError, match="bound"):
            draw_below(np.random.default_rng(0), 0)


class TestSampleWinCount:
    def test_bounds_and_determinism(self):
        rng = np.random.default_rng(3)
        count = sample_win_count(rng, 3, 10, 500)
        assert 0 <= count <= 500
        assert count == sample_win_count(np.random.default_rng(3), 3, 10, 500)

    def test_full_weight_always_wins(self):
        assert sample_win_count(np.random.default_rng(4), 7, 7, 100) == 100

    def test_validation(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="rounds"):
            sample_win_count(rng, 1, 2, -1)
        with pytest.raises(ValueError, match="weight"):
            sample_win_count(rng, 5, 2, 10)
        assert sample_win_count(rng, 1, 2, 0) == 0


class TestLottery:
    def test_each_occupied_coin_races_every_round(self):
        game = random_game(6, 3, seed=10)
        config = random_configuration(game, seed=11)
        rounds = 400
        sample = sample_block_wins(game, config, rounds=rounds, seed=12)
        for coin in game.coins:
            on_coin = config.miners_on(coin)
            coin_wins = sum(
                sample.wins[i]
                for i, miner in enumerate(game.miners)
                if miner in on_coin
            )
            assert coin_wins == (rounds if on_coin else 0)

    def test_sole_occupant_wins_everything(self):
        game = random_game(3, 3, seed=13)
        config = game.configuration(["c1", "c2", "c3"])
        sample = sample_block_wins(game, config, rounds=50, seed=14)
        assert sample.wins == (50, 50, 50)

    def test_realized_rewards_are_exact_win_multiples(self):
        game = random_game(5, 2, seed=15)
        config = random_configuration(game, seed=16)
        sample = sample_block_wins(game, config, rounds=300, seed=17)
        rewards = realized_rewards(game, config, sample)
        for i, miner in enumerate(game.miners):
            expected = sample.wins[i] * game.rewards[config.coin_of(miner)]
            assert rewards[miner] == expected
            assert isinstance(rewards[miner], Fraction)

    def test_sampler_is_unbiased(self):
        # Empirical mean within 6 binomial standard errors of the model
        # payoff for every miner, at a fixed seed.
        game = random_game(6, 2, seed=18)
        config = random_configuration(game, seed=19)
        rounds = 20_000
        estimates = estimate_payoffs(game, config, rounds=rounds, seed=20, z=6.0)
        for miner, estimate in estimates.items():
            exact = game.payoff(miner, config)
            assert estimate.covers(exact), (miner.name, float(exact), estimate)


class TestEstimator:
    def test_estimation_error_is_exact(self):
        game = random_game(4, 2, seed=21)
        config = random_configuration(game, seed=22)
        estimates = estimate_payoffs(game, config, rounds=100, seed=23)
        errors = estimation_error(game, config, estimates)
        for miner, estimate in estimates.items():
            assert errors[miner] == estimate.mean - game.payoff(miner, config)

    def test_budgets(self):
        assert as_budget(16) == FixedBudget(16)
        assert FixedBudget(8).rounds_at(1000) == 8
        budget = GeometricBudget(base=4, growth=2.0, period=2, cap=64)
        assert budget.rounds_at(0) == 4
        assert budget.rounds_at(2) == 8
        assert budget.rounds_at(10_000) == 64  # cap, no float overflow
        assert as_budget(budget) is budget
        with pytest.raises(TypeError, match="budget"):
            as_budget("lots")
        with pytest.raises(ValueError):
            FixedBudget(0)
        with pytest.raises(ValueError):
            GeometricBudget(base=4, cap=2)


class TestNoisyEngine:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_activations"):
            NoisyLearningEngine(max_activations=0)
        with pytest.raises(ValueError, match="inertia"):
            NoisyLearningEngine(inertia=1.0)
        with pytest.raises(ValueError, match="exploration"):
            NoisyLearningEngine(exploration=-0.1)
        with pytest.raises(ValueError, match="patience"):
            NoisyLearningEngine(patience=0)

    def test_single_coin_settles_in_place(self):
        game = random_game(4, 1, seed=30)
        start = random_configuration(game, seed=31)
        result = NoisyLearningEngine(budget=2, max_activations=200).run(
            game, start, seed=32
        )
        assert result.settled
        assert result.moves == 0
        assert result.reached_equilibrium

    def test_budget_to_infinity_matches_configspace_prediction(self):
        # THE acceptance property: as the sample budget grows the noisy
        # engine's equilibrium frequencies converge to the exact
        # ConfigSpace prediction — misconvergence vanishes and every
        # landing lies in the enumerated equilibrium set.
        game = random_game(5, 2, seed=7)
        equilibria = set(enumerate_equilibria(game))
        report = misconvergence_profile(
            game,
            budgets=[1, 4096],
            replications=24,
            max_activations=2_000,
            seed=2024,
        )
        noisy_rate = report.outcomes[0].misconvergence_rate
        sharp = report.outcomes[-1]
        # Statistical tolerance at this fixed seed: the sharp-budget
        # batch must land on exact equilibria (essentially) always,
        # and strictly beat the one-sample batch.
        assert sharp.misconvergence_rate <= 1 / 24
        assert noisy_rate > sharp.misconvergence_rate
        assert set(sharp.landing_counts) <= equilibria
        landed = sum(sharp.landing_counts.values())
        assert landed >= sharp.replications - 1
        # Cross-check: every counted landing is exactly stable.
        for config in sharp.landing_counts:
            assert game.is_stable(config)

    def test_exploration_keeps_moving(self):
        game = random_game(4, 2, seed=33)
        start = random_configuration(game, seed=34)
        restless = NoisyLearningEngine(
            budget=64, max_activations=400, exploration=0.5
        ).run(game, start, seed=35)
        assert not restless.settled
        assert restless.moves > 10

    def test_inertia_slows_movement(self):
        game = random_game(5, 2, seed=36)
        start = random_configuration(game, seed=37)
        eager = NoisyLearningEngine(budget=16, max_activations=300, patience=300).run(
            game, start, seed=38
        )
        sluggish = NoisyLearningEngine(
            budget=16, max_activations=300, patience=300, inertia=0.9
        ).run(game, start, seed=38)
        assert sluggish.moves <= eager.moves


class TestNoisyBatchParity:
    def test_fixed_seed_identical_across_executors(self):
        # Acceptance property: serial, thread and process execution of
        # the same seeded batch return bit-identical result lists.
        game = random_game(5, 2, seed=7)
        engine = NoisyLearningEngine(budget=32, max_activations=600)
        outcomes = {}
        for executor in ("serial", "thread", "process"):
            with warnings.catch_warnings():
                # Sandboxes without process pools degrade to serial —
                # which the contract says is identical anyway.
                warnings.simplefilter("ignore", RuntimeWarning)
                outcomes[executor] = run_many(
                    [RunSpec(game=game, runs=8, kind="noisy", engine=engine, seed=99)],
                    executor=executor,
                    max_workers=4,
                )[0]
        assert outcomes["serial"] == outcomes["thread"]
        assert outcomes["serial"] == outcomes["process"]
        assert [result.run_index for result in outcomes["serial"]] == list(range(8))

    def test_replications_validated(self):
        game = random_game(3, 2, seed=40)
        with pytest.raises(ValueError, match="runs"):
            run_many([RunSpec(game=game, runs=0, kind="noisy")], executor="serial")


class TestRisk:
    def test_per_round_variance_closed_form(self):
        game = random_game(4, 2, seed=50)
        config = random_configuration(game, seed=51)
        variances = per_round_variance(game, config)
        for miner in game.miners:
            coin = config.coin_of(miner)
            q = miner.power / game.coin_power(coin, config)
            reward = game.rewards[coin]
            assert variances[miner] == reward * reward * q * (1 - q)
            assert variances[miner] >= 0

    def test_reward_risk_matches_closed_form(self):
        game = random_game(5, 2, seed=52)
        config = random_configuration(game, seed=53)
        profile = reward_risk(
            game, config, horizon_rounds=800, replications=40, seed=54
        )
        assert profile.max_relative_bias() < 0.1
        for entry in profile.miners:
            if entry.exact_std == 0.0:  # sole occupant: deterministic
                assert entry.realized_std == pytest.approx(0.0, abs=1e-6)
            else:
                assert entry.realized_std == pytest.approx(entry.exact_std, rel=0.5)
            assert 0.0 <= entry.ruin_probability <= 1.0

    def test_ruin_bound_bounds(self):
        game = random_game(4, 2, seed=55)
        config = random_configuration(game, seed=56)
        for miner in game.miners:
            bound = ruin_bound(
                game, config, miner, horizon_rounds=500, ruin_fraction=0.5
            )
            assert 0.0 <= bound <= 1.0
        # Longer horizons can only tighten Chebyshev.
        miner = game.miners[0]
        short = ruin_bound(game, config, miner, horizon_rounds=10)
        long = ruin_bound(game, config, miner, horizon_rounds=10_000)
        assert long <= short

    @pytest.mark.parametrize(
        "make_seed",
        [
            lambda: 54,
            lambda: np.int64(54),
            lambda: np.random.SeedSequence(54),
            lambda: np.random.default_rng(54),
        ],
        ids=["int", "np.integer", "SeedSequence", "Generator"],
    )
    def test_reward_risk_honours_every_seed_type(self, make_seed):
        game = random_game(4, 2, seed=52)
        config = random_configuration(game, seed=53)

        def profile(seed):
            return reward_risk(game, config, horizon_rounds=50, replications=4, seed=seed)

        assert profile(make_seed()) == profile(make_seed())
        if not isinstance(make_seed(), np.random.Generator):
            # Integer seeds and their SeedSequence draw the same streams.
            assert profile(make_seed()) == profile(54)

    def test_time_to_equilibrium_summary(self):
        game = random_game(4, 2, seed=57)
        results = run_many(
            [
                RunSpec(
                    game=game,
                    runs=10,
                    kind="noisy",
                    engine=NoisyLearningEngine(budget=2_048, max_activations=1_500),
                    seed=58,
                )
            ],
            executor="serial",
        )[0]
        stats = time_to_equilibrium(results)
        assert stats["converged_fraction"] > 0.5
        assert stats["mean"] <= stats["max"]
        assert stats["median"] <= stats["p95"] <= stats["max"]


class TestBridge:
    def test_specs_carry_rewards(self):
        game = random_game(4, 3, seed=60)
        specs = specs_from_game(game)
        assert [spec.name for spec in specs] == [coin.name for coin in game.coins]
        for spec, coin in zip(specs, game.coins):
            assert spec.coins_per_block == pytest.approx(float(game.rewards[coin]))

    def test_reconciliation_agrees_with_model(self):
        game = random_game(5, 2, seed=61)
        config = random_configuration(game, seed=62)
        report = reconcile(
            game, config, horizon_h=600.0, lottery_rounds=3_000, seed=63
        )
        assert sum(report.expected_share.values()) == pytest.approx(1.0)
        assert sum(report.chain_share.values()) == pytest.approx(1.0)
        assert sum(report.lottery_share.values()) == pytest.approx(1.0)
        assert report.max_deviation("chain") < 0.05
        assert report.max_deviation("lottery") < 0.05
        with pytest.raises(ValueError, match="which"):
            report.max_deviation("vibes")
