"""The tensor kernel's per-coin margin table against the scalar core.

:func:`repro.kernel.tensor._scan` decides stability from one
``(games × coins × coins)`` table per step instead of a per-miner
tensor, and the policy phase reads the activated miner's row from the
same table. These tests pin that table to
:meth:`KernelGame.better_moves` / :meth:`KernelGame.stable_index` on
random states of both batched lanes, with and without allowed-coin
masks, and drive a float-lane population whose float32 margins land
inside the bracket, so the float64 resolution tier must run for the
population to stay draw-for-draw identical to the scalar stepper.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.factories import random_configuration
from repro.core.game import Game
from repro.kernel.core import KernelGame
from repro.kernel.tensor import _f32_aux, _improving_rows, _scan, kernel_lane, stable_mask
from repro.obs.recorder import MetricsRecorder, observe
from test_tensor_parity import (
    POLICIES,
    SCHEDULERS,
    assert_population_matches,
    scalar_reference,
    tensor_job,
)

#: Powers ``2**40 + offset`` and rewards ``2**21·m + offset`` overflow
#: the int lane's product bound but not the state: the float lane.
BIG_POWER = 2**40
BIG_REWARD = 2**21


def near_tie_game(powers_off, multipliers, rewards_off) -> Game:
    """A float-lane game whose payoff comparisons sit near exact ties.

    Near-equal powers on coins paying about 1×, 2× or 3× a base reward
    make, e.g., a lone miner weighing a coin paying twice its own that
    one other miner holds: ``2R·(P+a)`` against ``R·(2P+a+b)``, a
    relative margin of ``(a−b)/2P`` — about 1e-12 per unit of ``a−b``,
    far inside the float32 bracket (1e-5), settled by the float64 tier.
    """
    return Game.create(
        powers=[Fraction(BIG_POWER + a) for a in powers_off],
        reward_values=[
            Fraction(BIG_REWARD * m + b) for m, b in zip(multipliers, rewards_off)
        ],
    )


def seeded_near_tie_game(seed: int, n: int = 6, k: int = 3) -> Game:
    rng = np.random.default_rng(seed)
    return near_tie_game(
        [int(a) for a in rng.choice(np.arange(1, 64), n, replace=False)],
        [int(m) for m in rng.integers(1, 4, k)],
        [int(b) for b in rng.integers(0, 8, k)],
    )


def test_near_tie_float_population_resolves_gaps_and_matches_scalar():
    """Gap verdicts change trajectories here: a scan that skips the
    float64 tier (treating a bracketed margin as not improving) diverges
    from the scalar stepper on this population."""
    jobs, refs = [], []
    for seed in range(48):
        game = seeded_near_tie_game(seed)
        kernel = KernelGame(game)
        assert kernel_lane(kernel) == "float"
        start = random_configuration(game, seed=seed + 500)
        policy = POLICIES[seed % len(POLICIES)]
        scheduler = SCHEDULERS[(seed // len(POLICIES)) % len(SCHEDULERS)]
        refs.append(scalar_reference(game, policy, scheduler, start, seed))
        jobs.append(tensor_job(kernel, game, policy, scheduler, start, seed))
    recorder = MetricsRecorder()
    with observe(recorder):
        assert_population_matches(jobs, refs)
    assert recorder.counter("tensor.escalations.f64") > 0


def test_bound_one_draw_consumes_nothing():
    """The tensor kernel skips ``integers(0, 1)`` draws on this premise.

    If a numpy release starts advancing the generator on a bound-1
    draw, this fails here instead of silently breaking parity with the
    scalar stepper, which still makes the call.
    """
    for seed in range(5):
        gen = np.random.default_rng(seed)
        gen.random()
        before = gen.bit_generator.state
        assert gen.integers(0, 1) == 0
        assert gen.bit_generator.state == before


@st.composite
def lane_states(draw):
    """A game of the requested lane, random states and maybe a mask."""
    lane = draw(st.sampled_from(("int", "float")))
    n = draw(st.integers(min_value=2, max_value=7))
    k = draw(st.integers(min_value=2, max_value=4))
    if lane == "int":
        powers = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
        rewards = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
        game = Game.create(
            powers=[Fraction(p) for p in powers],
            reward_values=[Fraction(r) for r in rewards],
        )
    else:
        game = near_tie_game(
            draw(st.lists(st.integers(0, 63), min_size=n, max_size=n)),
            draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)),
            draw(st.lists(st.integers(0, 7), min_size=k, max_size=k)),
        )
    kernel = KernelGame(game)
    assume(kernel_lane(kernel) == lane)
    states = draw(
        st.lists(
            st.lists(st.integers(0, k - 1), min_size=n, max_size=n), min_size=1, max_size=6
        )
    )
    if draw(st.booleans()):
        # Each miner may use a random subset of coins; its current coin
        # (in the first state) is always among them.
        coins = game.coins
        mask = {
            miner: [
                coins[j]
                for j in {states[0][i]}
                | set(draw(st.lists(st.integers(0, k - 1), max_size=k)))
            ]
            for i, miner in enumerate(game.miners)
        }
        kernel = KernelGame(game.with_allowed(mask))
    return kernel, np.array(states, dtype=np.int64), kernel.allowed


@settings(max_examples=150, deadline=None)
@given(case=lane_states())
def test_margin_table_verdicts_match_scalar_core(case):
    kernel, assigns, allowed = case
    G, n = assigns.shape
    k = kernel.n_coins
    powers = np.broadcast_to(np.array(kernel.powers, dtype=np.int64), (G, n))
    rewards = np.broadcast_to(np.array(kernel.rewards, dtype=np.int64), (G, k))
    mass = np.array([kernel.mass_of(row) for row in assigns.tolist()], dtype=np.int64)
    allowed_m = None
    if allowed is not None:
        allowed_m = np.zeros((G, n, k), dtype=bool)
        for i, coins in enumerate(allowed):
            allowed_m[:, i, list(coins)] = True
    f32 = _f32_aux(powers, rewards, mass, kernel_lane(kernel))
    table, unstable = _scan(powers, rewards, assigns, mass, allowed_m, f32)
    rows = [
        _improving_rows(table, powers, rewards, assigns, mass, allowed_m, f32, np.full(G, i))
        for i in range(n)
    ]
    stable = stable_mask(kernel, assigns)
    for g in range(G):
        # Python ints: the scalar core's products exceed int64 here.
        assign, mass_g = assigns[g].tolist(), mass[g].tolist()
        for i in range(n):
            moves = kernel.better_moves(i, assign, mass_g)
            assert bool(unstable[g, i]) == bool(moves)
            assert list(np.flatnonzero(rows[i][g])) == moves
        assert bool(stable[g]) == kernel.stable_index(assign, mass_g)
