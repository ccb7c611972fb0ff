"""Tests for the asymmetric (restricted) game extension."""

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.core.equilibrium import greedy_equilibrium
from repro.core.factories import random_game
from repro.core.potential import compare_potential
from repro.core.restricted import RestrictedGame
from repro.exceptions import InvalidConfigurationError, InvalidModelError
from repro.kernel.core import KernelGame
from repro.kernel.tensor import (
    SimultaneousJob,
    TrajectoryJob,
    run_simultaneous_population,
    run_trajectory_population,
)
from repro.learning.engine import LearningEngine
from repro.learning.policies import (
    MaxRpuPolicy,
    MinimalGainPolicy,
    RandomImprovingPolicy,
)


@pytest.fixture
def game():
    return random_game(6, 4, seed=3)


@pytest.fixture
def restricted(game):
    # Even-indexed coins are sha256d, odd are scrypt; miners alternate.
    coin_algorithms = {
        coin.name: ("sha256d" if index % 2 == 0 else "scrypt")
        for index, coin in enumerate(game.coins)
    }
    miner_hardware = {
        miner.name: ("sha256d" if index % 2 == 0 else "scrypt")
        for index, miner in enumerate(game.miners)
    }
    return RestrictedGame.by_algorithm(game, coin_algorithms, miner_hardware)


def _legal_start(restricted, pick=0):
    assignment = {
        miner: restricted.allowed_coins(miner)[pick % len(restricted.allowed_coins(miner))]
        for miner in restricted.miners
    }
    return Configuration.from_mapping(restricted.miners, assignment)


class TestConstruction:
    def test_allowed_sets_follow_hardware(self, game, restricted):
        for index, miner in enumerate(game.miners):
            algorithm = "sha256d" if index % 2 == 0 else "scrypt"
            expected = {
                coin
                for i, coin in enumerate(game.coins)
                if ("sha256d" if i % 2 == 0 else "scrypt") == algorithm
            }
            assert set(restricted.allowed_coins(miner)) == expected

    def test_every_miner_needs_an_option(self, game):
        coin_algorithms = {coin.name: "sha256d" for coin in game.coins}
        miner_hardware = {miner.name: "scrypt" for miner in game.miners}
        with pytest.raises(InvalidModelError, match="at least one"):
            RestrictedGame.by_algorithm(game, coin_algorithms, miner_hardware)

    def test_missing_miner_rejected(self, game):
        with pytest.raises(InvalidModelError, match="misses"):
            RestrictedGame(game, {game.miners[0]: [game.coins[0]]})

    def test_unknown_coin_rejected(self, game):
        from repro.core.coin import Coin

        allowed = {miner: [game.coins[0]] for miner in game.miners}
        allowed[game.miners[0]] = [Coin("DOGE")]
        with pytest.raises(InvalidModelError, match="unknown coin"):
            RestrictedGame(game, allowed)

    def test_missing_hardware_class_rejected(self, game):
        coin_algorithms = {coin.name: "sha256d" for coin in game.coins}
        with pytest.raises(InvalidModelError, match="hardware"):
            RestrictedGame.by_algorithm(game, coin_algorithms, {})


class TestStrategicStructure:
    def test_moves_are_subset_of_unrestricted(self, game, restricted):
        config = _legal_start(restricted)
        for miner in game.miners:
            legal = set(restricted.better_response_moves(miner, config))
            free = set(game.better_response_moves(miner, config))
            assert legal <= free
            assert all(restricted.is_allowed(miner, coin) for coin in legal)

    def test_validate_rejects_illegal_configuration(self, game, restricted):
        miner = game.miners[0]
        forbidden = next(
            coin for coin in game.coins if not restricted.is_allowed(miner, coin)
        )
        config = _legal_start(restricted).move(miner, forbidden)
        with pytest.raises(InvalidConfigurationError, match="cannot mine"):
            restricted.validate_configuration(config)

    def test_stability_is_relative_to_restriction(self, game, restricted):
        # A restricted-stable configuration need not be free-stable, but
        # a free-stable legal configuration is restricted-stable.
        engine = LearningEngine()
        final = engine.run(restricted, _legal_start(restricted), seed=1).final
        assert restricted.is_stable(final)

    def test_best_response_is_legal(self, game, restricted):
        config = _legal_start(restricted, pick=1)
        for miner in game.miners:
            choice = restricted.best_response(miner, config)
            if choice is not None:
                assert restricted.is_allowed(miner, choice)


class TestRestrictedLearning:
    @pytest.mark.parametrize(
        "policy",
        [RandomImprovingPolicy(), MaxRpuPolicy(), MinimalGainPolicy()],
        ids=["random", "best", "minimal"],
    )
    def test_converges(self, restricted, policy):
        engine = LearningEngine(policy=policy)
        trajectory = engine.run(restricted, _legal_start(restricted), seed=2)
        assert trajectory.converged
        assert restricted.is_stable(trajectory.final)

    def test_potential_still_monotone(self, restricted):
        engine = LearningEngine()
        trajectory = engine.run(restricted, _legal_start(restricted), seed=3)
        for i in range(len(trajectory.configurations) - 1):
            assert (
                compare_potential(
                    restricted,
                    trajectory.configurations[i],
                    trajectory.configurations[i + 1],
                )
                < 0
            )

    def test_illegal_start_rejected(self, game, restricted):
        miner = game.miners[0]
        forbidden = next(
            coin for coin in game.coins if not restricted.is_allowed(miner, coin)
        )
        config = _legal_start(restricted).move(miner, forbidden)
        with pytest.raises(InvalidConfigurationError):
            LearningEngine().run(restricted, config)

    @pytest.mark.parametrize("form", ["allowed", "restricted-game"])
    @pytest.mark.parametrize("backend", ["fast", "exact"])
    def test_masked_run_rejects_illegal_start(self, backend, form):
        # Every miner may mine c1/c2 only, yet all start on c3: the run
        # must refuse the start instead of converging off-mask.
        game = random_game(4, 3, seed=1)
        mask = {miner: game.coins[:2] for miner in game.miners}
        start = Configuration(game.miners, [game.coins[2]] * len(game.miners))
        engine = LearningEngine(backend=backend)
        with pytest.raises(InvalidConfigurationError, match="cannot mine"):
            if form == "allowed":
                engine.run(game.with_allowed(mask), start, seed=0)
            else:
                engine.run(RestrictedGame(game, mask), start, seed=0)

    @pytest.mark.parametrize("stepper", ["sequential", "simultaneous"])
    def test_tensor_steppers_reject_illegal_start(self, stepper):
        # The tensor kernel's steppers hold the scalar engine's rule: a
        # masked job starting on a forbidden coin is refused up front.
        game = random_game(4, 3, seed=1)
        kernel = KernelGame(game.with_allowed({m: game.coins[:2] for m in game.miners}))
        legal = TrajectoryJob(kernel, [0, 1, 0, 1], np.random.default_rng(0))
        illegal = TrajectoryJob(kernel, [2, 2, 2, 2], np.random.default_rng(0))
        if stepper == "simultaneous":
            legal, illegal = (
                SimultaneousJob(job.kernel, job.assign, job.rng) for job in (legal, illegal)
            )
            run = run_simultaneous_population
        else:
            run = run_trajectory_population
        with pytest.raises(InvalidConfigurationError, match="cannot mine"):
            run([legal, illegal])
        assert run([legal])[0].converged


class TestRestrictedEquilibrium:
    def test_greedy_is_stable(self, restricted):
        equilibrium = greedy_equilibrium(restricted)
        restricted.validate_configuration(equilibrium)
        assert restricted.is_stable(equilibrium)

    @pytest.mark.parametrize("seed", range(5))
    def test_greedy_stable_across_games(self, seed):
        game = random_game(8, 4, seed=seed)
        coin_algorithms = {
            coin.name: ("a" if i < 2 else "b") for i, coin in enumerate(game.coins)
        }
        miner_hardware = {
            miner.name: ("a" if i % 3 else "b") for i, miner in enumerate(game.miners)
        }
        restricted = RestrictedGame.by_algorithm(game, coin_algorithms, miner_hardware)
        assert restricted.is_stable(greedy_equilibrium(restricted))


class TestMaskedGameFrontDoors:
    """A masked game runs through every front door and stays on its mask."""

    @pytest.fixture
    def masked(self):
        game = random_game(7, 3, seed=5)
        # The three largest miners may mine c1/c3 only, the rest c2/c3.
        return game.with_allowed(
            {
                miner: [game.coins[0], game.coins[2]] if i < 3 else game.coins[1:]
                for i, miner in enumerate(game.miners)
            }
        )

    @staticmethod
    def _on_mask(game, config):
        return all(config.coin_of(miner) in game.allowed_coins(miner) for miner in game.miners)

    @pytest.mark.parametrize("backend", ["fast", "exact"])
    def test_run_simultaneous(self, masked, backend):
        from repro.core.factories import random_configuration
        from repro.learning.simultaneous import run_simultaneous

        for seed in range(5):
            start = random_configuration(masked, seed=seed)
            result = run_simultaneous(masked, start, backend=backend)
            assert all(self._on_mask(masked, config) for config in result.configurations)
            assert result.converged == masked.is_stable(result.final)
            noisy = run_simultaneous(masked, start, inertia=0.3, seed=seed, backend=backend)
            assert all(self._on_mask(masked, config) for config in noisy.configurations)

    def test_measure_convergence_equals_run_many(self, masked):
        from repro.analysis.convergence import measure_convergence, stats_from_steps
        from repro.run import RunSpec, run_many

        stats = measure_convergence(masked, runs=12, seed=9)
        summaries = run_many([RunSpec(game=masked, runs=12, seed=9)])[0]
        assert stats == stats_from_steps([s.steps for s in summaries], monotone=12)
        for summary in summaries:
            final = summary.final_configuration(masked)
            assert self._on_mask(masked, final) and masked.is_stable(final)

    def test_basin_profile_lands_on_restricted_equilibria(self, masked):
        from repro.analysis.basins import basin_profile
        from repro.core.equilibrium import enumerate_equilibria

        profile = basin_profile(masked, samples=20, seed=4)
        assert sum(profile.counts.values()) == 20
        assert set(profile.counts) <= set(enumerate_equilibria(masked))

    def test_noisy_engine_refuses_a_mask(self, masked):
        """Noisy learning samples every coin, so a masked cell must raise
        instead of running unrestricted under a masked cache key."""
        from repro.core.factories import random_configuration
        from repro.run import RunSpec, run_many
        from repro.stochastic.noisy_engine import NoisyLearningEngine

        start = random_configuration(masked, seed=0)
        with pytest.raises(InvalidModelError, match="mask"):
            NoisyLearningEngine().run(masked, start, seed=0)
        for executor in ("serial", "vectorized"):
            with pytest.raises(InvalidModelError, match="mask"):
                run_many([RunSpec(game=masked, runs=2, kind="noisy")], executor=executor)


class TestMaskOnGame:
    def test_normalization_rules(self, game):
        from repro.core.coin import Coin
        from repro.core.miner import Miner

        first = game.miners[0]
        masked = game.with_allowed({first: [game.coins[3], game.coins[1]]})
        assert masked.allowed_coins(first) == (game.coins[1], game.coins[3])
        assert masked.allowed_coins(game.miners[1]) == game.coins
        assert game.with_allowed({first: list(game.coins)}).allowed is None
        assert masked.with_allowed(None).allowed is None
        with pytest.raises(InvalidModelError, match="not in this game"):
            game.with_allowed({Miner.of("stranger", 1): [game.coins[0]]})
        with pytest.raises(InvalidModelError, match="unknown coin"):
            game.with_allowed({first: [Coin("nope")]})
        with pytest.raises(InvalidModelError, match="at least one"):
            game.with_allowed({first: []})

    def test_with_rewards_keeps_the_mask(self, restricted):
        from repro.core.coin import RewardFunction

        doubled = RewardFunction(
            {coin: 2 * restricted.rewards[coin] for coin in restricted.coins}
        )
        assert restricted.with_rewards(doubled).allowed == restricted.allowed


def test_game_is_the_only_mask_entry_point():
    """No public callable takes a side ``allowed=`` mask: the mask is a
    field of ``Game``, set by its constructor or ``with_allowed``."""
    import importlib
    import inspect
    import pkgutil

    import repro
    import repro.core.restricted

    assert not hasattr(repro.core.restricted, "as_restricted")
    assert not hasattr(repro.core.restricted, "normalize_mask")
    offenders = set()
    seen = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.startswith("repro.experiments.") or info.name == "repro.__main__":
            continue
        module = importlib.import_module(info.name)
        names = getattr(module, "__all__", None)
        if names is None:
            names = [name for name in vars(module) if not name.startswith("_")]
        for name in names:
            obj = getattr(module, name, None)
            if obj is None or id(obj) in seen:
                continue
            seen.add(id(obj))
            if inspect.isclass(obj):
                members = [
                    (f"{obj.__qualname__}.{attr}", getattr(obj, attr))
                    for attr in vars(obj)
                    if attr == "__init__" or not attr.startswith("_")
                ]
            else:
                members = [(getattr(obj, "__qualname__", name), obj)]
            for qualname, member in members:
                if not callable(member):
                    continue
                try:
                    parameters = inspect.signature(member).parameters
                except (TypeError, ValueError):
                    continue
                if "allowed" in parameters:
                    offenders.add(qualname)
    assert offenders == {"Game.__init__", "Game.with_allowed"}
