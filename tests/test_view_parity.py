"""Parity suite for the strategy-view API: custom strategies, fast path.

The unified trajectory loop drives *any* policy/scheduler — standard
or custom ``choose_view``/``pick_view`` subclass — over either view
backend. These tests assert the refactor's central promise: custom
strategies run on ``backend="fast"`` with trajectories, step payoffs,
materialized configurations *and RNG draw sequences* bit-identical to
``backend="exact"`` — including restricted (asymmetric) games, which
now run on the integer kernel too.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.convergence import measure_convergence
from repro.core.configuration import Configuration
from repro.core.equilibrium import greedy_equilibrium
from repro.core.factories import random_configuration, random_game
from repro.core.game import Game
from repro.core.restricted import RestrictedGame
from repro.kernel.batch import BatchRunner
from repro.kernel.engine import KernelView
from repro.learning.engine import LearningEngine
from repro.learning.examples import PowerWeightedScheduler, SecondBestPolicy
from repro.learning.policies import (
    BetterResponsePolicy,
    MaxRpuPolicy,
    MinimalGainPolicy,
    RandomImprovingPolicy,
)
from repro.learning.schedulers import ActivationScheduler
from repro.learning.simultaneous import run_simultaneous
from repro.learning.view import BACKENDS, ExactView, GameView, make_view
from repro.run import RunSpec


def assert_trajectories_identical(exact, fast):
    """Step-for-step, payoff-for-payoff, configuration-for-configuration."""
    assert exact.converged == fast.converged
    assert len(exact.steps) == len(fast.steps)
    for a, b in zip(exact.steps, fast.steps):
        assert a.index == b.index
        assert a.miner == b.miner
        assert a.source == b.source
        assert a.target == b.target
        assert a.payoff_before == b.payoff_before
        assert a.payoff_after == b.payoff_after
    assert exact.configurations == fast.configurations


# ----------------------------------------------------------------------
# Custom strategies under test
# ----------------------------------------------------------------------


class RandomizedGreedyPolicy(BetterResponsePolicy):
    """View-based custom policy that also consumes RNG draws."""

    name = "randomized-greedy"

    def choose_view(self, view, miner, rng):
        moves = view.improving_moves(miner)
        if not moves:
            return None
        if rng.random() < 0.5:
            return view.max_rpu_move(miner, moves)
        return moves[int(rng.integers(0, len(moves)))]


class LexicographicPolicy(BetterResponsePolicy):
    """Custom policy: the improving coin with the largest name."""

    name = "lexicographic"

    def choose_view(self, view, miner, rng):
        moves = view.improving_moves(miner)
        if not moves:
            return None
        return max(moves, key=lambda coin: coin.name)


class FirstOverrideOfStandard(RandomImprovingPolicy):
    """Subclass of a standard policy overriding its ``choose_view``."""

    name = "stubborn-first"

    def choose_view(self, view, miner, rng):
        moves = view.improving_moves(miner)
        return moves[0] if moves else None


class ColdestScheduler(ActivationScheduler):
    """Custom stateful scheduler: the least recently activated miner."""

    name = "coldest"

    def __init__(self):
        self._last_seen = {}

    def reset(self):
        self._last_seen = {}

    def pick_view(self, view, unstable, rng):
        picked = min(
            unstable, key=lambda m: (self._last_seen.get(m.name, -1), m.name)
        )
        self._last_seen[picked.name] = len(self._last_seen)
        return picked


CUSTOM_POLICIES = (
    SecondBestPolicy(),
    RandomizedGreedyPolicy(),
    LexicographicPolicy(),
    FirstOverrideOfStandard(),
)

CUSTOM_SCHEDULERS = (PowerWeightedScheduler(), ColdestScheduler())

SIZES = ((4, 2), (6, 3), (8, 3), (10, 4))


# ----------------------------------------------------------------------
# Trajectory + RNG-draw parity
# ----------------------------------------------------------------------


def test_custom_strategies_fast_path_parity():
    """Custom policies × schedulers: fast ≡ exact, draw-for-draw.

    Both backends are handed live generators seeded identically; after
    the runs, the next raw draw must agree — which can only happen if
    the two backends consumed *exactly* the same RNG sequence.
    """
    for game_seed in range(40):
        n, k = SIZES[game_seed % len(SIZES)]
        game = random_game(n, k, seed=game_seed)
        start = random_configuration(game, seed=game_seed + 40_000)
        policy = CUSTOM_POLICIES[game_seed % len(CUSTOM_POLICIES)]
        scheduler = CUSTOM_SCHEDULERS[game_seed % len(CUSTOM_SCHEDULERS)]
        rng_exact = np.random.default_rng(game_seed)
        rng_fast = np.random.default_rng(game_seed)
        exact = LearningEngine(
            policy=policy, scheduler=scheduler, backend="exact"
        ).run(game, start, seed=rng_exact)
        fast = LearningEngine(
            policy=policy, scheduler=scheduler, backend="fast"
        ).run(game, start, seed=rng_fast)
        assert_trajectories_identical(exact, fast)
        assert game.is_stable(fast.final)
        assert int(rng_exact.integers(0, 2**62)) == int(rng_fast.integers(0, 2**62))


def test_strategy_without_any_override_fails_loudly():
    class EmptyPolicy(BetterResponsePolicy):
        name = "empty"

    class EmptyScheduler(ActivationScheduler):
        name = "empty"

    with pytest.raises(TypeError, match="choose_view"):
        EmptyPolicy()
    with pytest.raises(TypeError, match="pick_view"):
        EmptyScheduler()


# ----------------------------------------------------------------------
# Restricted games on the integer kernel
# ----------------------------------------------------------------------


def _random_restriction(game, rng):
    allowed = {}
    for miner in game.miners:
        picks = [coin for coin in game.coins if rng.random() < 0.7]
        allowed[miner] = picks or [game.coins[int(rng.integers(0, len(game.coins)))]]
    restricted = RestrictedGame(game, allowed)
    start = Configuration(
        game.miners,
        [
            restricted.allowed_coins(miner)[
                int(rng.integers(0, len(restricted.allowed_coins(miner))))
            ]
            for miner in game.miners
        ],
    )
    return restricted, start


class BiasedRestrictedPolicy(BetterResponsePolicy):
    """Custom policy mixing first-legal and largest-name moves."""

    name = "biased-restricted"

    def choose_view(self, view, miner, rng):
        moves = view.improving_moves(miner)
        if not moves:
            return None
        if rng.random() < 0.5:
            return moves[0]
        return max(moves, key=lambda coin: coin.name)


def test_restricted_custom_select_runs_identically_on_both_backends():
    """Custom policies on masked games — one also mixing ``max_rpu_move``
    with RNG draws — run draw-for-draw alike on both backends."""
    for game_seed, policy in itertools.product(
        range(15), (BiasedRestrictedPolicy(), RandomizedGreedyPolicy())
    ):
        game = random_game(7, 3, seed=game_seed + 900)
        rng = np.random.default_rng(game_seed)
        restricted, start = _random_restriction(game, rng)
        rng_exact = np.random.default_rng(game_seed + 1)
        rng_fast = np.random.default_rng(game_seed + 1)
        exact = LearningEngine(policy=policy, backend="exact").run(
            restricted, start, seed=rng_exact
        )
        fast = LearningEngine(policy=policy, backend="fast").run(
            restricted, start, seed=rng_fast
        )
        assert_trajectories_identical(exact, fast)
        assert restricted.is_stable(fast.final)
        assert int(rng_exact.integers(0, 2**62)) == int(rng_fast.integers(0, 2**62))


def test_masked_views_agree_with_restricted_game_queries():
    """Every view under a mask reproduces RestrictedGame's structure."""
    cases = []
    for game_seed in range(20):
        game = random_game(6, 4, seed=game_seed + 1200)
        rng = np.random.default_rng(game_seed)
        cases.append(_random_restriction(game, rng))
    # A best-response tie (c2 and c3 pay alike): ties go to the earliest
    # coin in game order, as in Game.best_response.
    tie = Game.create(powers=[1, 1], reward_values=[4, 5, 5])
    cases.append(
        (
            RestrictedGame(tie, {miner: tie.coins for miner in tie.miners}),
            Configuration(tie.miners, [tie.coins[0]] * 2),
        )
    )
    # A greedy-insertion tie (c1 and c2 pay the first miner alike) under
    # one mask given in both mapping orders: greedy_equilibrium breaks it
    # in game coin order, as the unmasked construction does.
    greedy_tie = Game.create(powers=[2, 1], reward_values=[5, 5])
    for coins in (greedy_tie.coins, greedy_tie.coins[::-1]):
        restricted = RestrictedGame(
            greedy_tie, {miner: coins for miner in greedy_tie.miners}
        )
        assert restricted.allowed_coins(greedy_tie.miners[0]) == greedy_tie.coins
        assert greedy_equilibrium(restricted) == greedy_equilibrium(greedy_tie)
        cases.append(
            (restricted, Configuration(greedy_tie.miners, [coins[0]] * 2))
        )
    for restricted, start in cases:
        game = restricted
        views = [
            make_view(restricted, start, backend=backend)
            for backend in ("exact", "fast")
        ]
        for view in views:
            for miner in game.miners:
                assert view.improving_moves(miner) == (
                    restricted.better_response_moves(miner, start)
                )
                assert view.best_response(miner) == (
                    restricted.best_response(miner, start)
                )
                assert set(view.allowed_coins(miner)) == set(
                    restricted.allowed_coins(miner)
                )
            assert view.unstable_miners() == restricted.unstable_miners(start)
            assert view.is_stable() == restricted.is_stable(start)


# ----------------------------------------------------------------------
# View protocol invariants
# ----------------------------------------------------------------------


def test_make_view_backends_and_validation():
    game = random_game(5, 2, seed=3)
    start = random_configuration(game, seed=4)
    assert isinstance(make_view(game, start, backend="exact"), ExactView)
    fast = make_view(game, start, backend="fast")
    assert isinstance(fast, KernelView)
    assert isinstance(fast, GameView)
    with pytest.raises(ValueError, match="backend"):
        make_view(game, start, backend="float")


BACKEND_ENTRY_POINTS = {
    "RunSpec": lambda game, start, backend: RunSpec(game=game, runs=1, backend=backend),
    "BatchRunner": lambda game, start, backend: BatchRunner(backend=backend),
    "LearningEngine": lambda game, start, backend: LearningEngine(backend=backend),
    "make_view": lambda game, start, backend: make_view(game, start, backend=backend),
    "run_simultaneous": lambda game, start, backend: run_simultaneous(
        game, start, backend=backend
    ),
    "measure_convergence": lambda game, start, backend: measure_convergence(
        game, runs=2, seed=0, backend=backend
    ),
}


@pytest.mark.parametrize("backend", ["class", "float"])
@pytest.mark.parametrize("entry", sorted(BACKEND_ENTRY_POINTS))
def test_backend_outside_backends_is_rejected_everywhere(entry, backend):
    """Every backend knob raises the one check_backend error."""
    game = random_game(5, 2, seed=3)
    start = random_configuration(game, seed=4)
    message = (
        f"backend must be 'fast' or 'exact', got {backend!r} "
        '(population-scale class runs are RunSpec(kind="classes"))'
    )
    assert BACKENDS == ("fast", "exact")
    with pytest.raises(ValueError, match=re.escape(message)):
        BACKEND_ENTRY_POINTS[entry](game, start, backend)


def test_selection_helpers_accept_the_current_coin():
    """minimal_gain/max_rpu rank the current coin as 'staying', both views.

    A custom strategy may pass candidate lists that include the
    miner's own coin; both views must treat it as a no-op move (mass
    unchanged) and therefore agree with payoff_after_move's ordering.
    """
    for game_seed in range(10):
        game = random_game(6, 4, seed=game_seed + 50)
        start = random_configuration(game, seed=game_seed + 60)
        exact = ExactView(game, start)
        fast = KernelView(game, start)
        for miner in game.miners:
            moves = list(game.coins)  # includes the current coin
            for view in (exact, fast):
                minimal = view.minimal_gain_move(miner, moves)
                maximal = view.max_rpu_move(miner, moves)
                assert minimal == min(
                    moves,
                    key=lambda c: (exact.payoff_after_move(miner, c), c.name),
                )
                # Post-move RPU ordering equals post-move payoff
                # ordering for a fixed miner; ties break to the larger
                # name.
                assert maximal == max(
                    moves,
                    key=lambda c: (exact.payoff_after_move(miner, c), c.name),
                )


def test_mask_validation_rejects_foreign_miners_and_coins():
    from repro.core.coin import Coin
    from repro.core.miner import Miner
    from repro.exceptions import InvalidModelError

    game = random_game(4, 2, seed=70)
    start = random_configuration(game, seed=71)
    stranger = Miner.of("stranger", 5)
    with pytest.raises(InvalidModelError, match="not"):
        make_view(game.with_allowed({stranger: list(game.coins)}), start)
    with pytest.raises(InvalidModelError, match="unknown coin"):
        make_view(game.with_allowed({game.miners[0]: [Coin("nope")]}), start)
    with pytest.raises(InvalidModelError, match="at least one"):
        make_view(game.with_allowed({game.miners[0]: []}), start)


def test_views_answer_identically_along_a_trajectory():
    """Every protocol query agrees between the views at every step."""
    game = random_game(6, 3, seed=31)
    start = random_configuration(game, seed=32)
    exact = ExactView(game, start)
    fast = KernelView(game, start)
    rng = np.random.default_rng(33)
    for _ in range(50):
        assert exact.configuration() == fast.configuration()
        assert exact.unstable_miners() == fast.unstable_miners()
        assert exact.is_stable() == fast.is_stable()
        for miner in game.miners:
            assert exact.coin_of(miner) == fast.coin_of(miner)
            assert exact.payoff(miner) == fast.payoff(miner)
            assert exact.improving_moves(miner) == fast.improving_moves(miner)
            assert exact.best_response(miner) == fast.best_response(miner)
            for coin in game.coins:
                assert exact.payoff_after_move(miner, coin) == (
                    fast.payoff_after_move(miner, coin)
                )
            moves = exact.improving_moves(miner)
            if moves:
                assert exact.minimal_gain_move(miner, moves) == (
                    fast.minimal_gain_move(miner, moves)
                )
                assert exact.max_rpu_move(miner, moves) == (
                    fast.max_rpu_move(miner, moves)
                )
        unstable = exact.unstable_miners()
        if not unstable:
            break
        miner = unstable[int(rng.integers(0, len(unstable)))]
        moves = exact.improving_moves(miner)
        target = moves[int(rng.integers(0, len(moves)))]
        exact.apply(miner, target)
        fast.apply(miner, target)
    else:  # pragma: no cover - trajectory budget is generous
        pytest.fail("trajectory did not converge within the probe budget")


# ----------------------------------------------------------------------
# Hypothesis: tie-heavy games, custom strategies, masks
# ----------------------------------------------------------------------


@st.composite
def masked_games(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    k = draw(st.integers(min_value=2, max_value=4))
    powers = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 20), max_value=Fraction(20)),
            min_size=n,
            max_size=n,
        )
    )
    rewards = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 20), max_value=Fraction(20)),
            min_size=k,
            max_size=k,
        )
    )
    choices = draw(
        st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n)
    )
    # Per-miner allowed sets; each must include the miner's start coin.
    masks = draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=k - 1), max_size=k),
            min_size=n,
            max_size=n,
        )
    )
    masks = [sorted(mask | {choice}) for mask, choice in zip(masks, choices)]
    return powers, rewards, choices, masks


@settings(max_examples=40, deadline=None)
@given(masked_games(), st.integers(min_value=0, max_value=2**31 - 1))
def test_custom_strategy_parity_property(data, run_seed):
    """Hypothesis: custom strategies agree across backends on tie-heavy
    games, both unrestricted and under random hardware masks."""
    powers, rewards, choices, masks = data
    game = Game.create(powers=powers, reward_values=rewards)
    start = Configuration(game.miners, [game.coins[i] for i in choices])

    policy = RandomizedGreedyPolicy()
    scheduler = PowerWeightedScheduler()
    rng_exact = np.random.default_rng(run_seed)
    rng_fast = np.random.default_rng(run_seed)
    exact = LearningEngine(policy=policy, scheduler=scheduler, backend="exact").run(
        game, start, seed=rng_exact
    )
    fast = LearningEngine(policy=policy, scheduler=scheduler, backend="fast").run(
        game, start, seed=rng_fast
    )
    assert_trajectories_identical(exact, fast)
    assert int(rng_exact.integers(0, 2**62)) == int(rng_fast.integers(0, 2**62))

    restricted = RestrictedGame(
        game,
        {
            miner: [game.coins[j] for j in mask]
            for miner, mask in zip(game.miners, masks)
        },
    )
    for restricted_policy in (
        RandomImprovingPolicy(),
        MaxRpuPolicy(),
        MinimalGainPolicy(),
    ):
        r_exact = LearningEngine(policy=restricted_policy, backend="exact").run(
            restricted, start, seed=run_seed
        )
        r_fast = LearningEngine(policy=restricted_policy, backend="fast").run(
            restricted, start, seed=run_seed
        )
        assert_trajectories_identical(r_exact, r_fast)
        assert restricted.is_stable(r_fast.final)
