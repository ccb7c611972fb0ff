"""The tensor kernel's per-coin margin table against the scalar core.

:func:`repro.kernel.tensor._scan` decides stability from one coin-major
margin table ``T[j, g, c]`` per step, written into the prefix of a
:func:`~repro.kernel.tensor._workspace` that a bucket allocates once and
reuses as it shrinks, instead of a per-miner tensor; the policy phase
reads the activated miner's row from the same table with one gather,
also after the bucket compacted. These tests pin the scan and that row
to :meth:`KernelGame.better_moves` / :meth:`KernelGame.stable_index` on
random states of both batched lanes, with and without allowed-coin
masks, through a workspace left dirty by an earlier, larger scan; run
buckets that compact several times against the scalar stepper; and
drive a float-lane population whose float32 margins land inside the
bracket, so the float64 resolution tier must run for the population to
stay draw-for-draw identical to the scalar stepper.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.factories import random_configuration, random_game
from repro.core.game import Game
from repro.kernel.core import KernelGame
from repro.kernel.tensor import (
    _f32_aux,
    _improving_rows,
    _scan,
    _workspace,
    kernel_lane,
    stable_mask,
)
from repro.obs.recorder import MetricsRecorder, observe
from test_tensor_parity import (
    POLICIES,
    SCHEDULERS,
    assert_population_matches,
    random_mask,
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
    # A workspace with room to spare, filled with the largest value of
    # its dtype: a read of a cell the scan did not write claims an
    # improving move and fails the comparison with the scalar core.
    work = _workspace(G + 3, k, f32)
    work.fill(np.finfo(work.dtype).max if f32 is not None else np.iinfo(work.dtype).max)
    table, unstable = _scan(powers, rewards, assigns, mass, allowed_m, f32, work=work)
    assert np.shares_memory(table, work)
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

    # A compacted bucket: its games read their rows of the table above
    # through ``trow``, then rescan into the same, now larger, prefix.
    sel = np.arange(G)[::-2]
    part = [a[sel] for a in (powers, rewards, assigns, mass)]
    allowed_s = None if allowed_m is None else allowed_m[sel]
    f32_s = None if f32 is None else tuple(a[sel] for a in f32)
    for i in range(n):
        row = _improving_rows(table, *part, allowed_s, f32_s, np.full(sel.size, i), sel)
        assert (row == rows[i][sel]).all()
    _, rescanned = _scan(*part, allowed_s, f32_s, work=work)
    assert (rescanned == unstable[sel]).all()


def _int_game(seed: int, n: int, k: int) -> Game:
    rng = np.random.default_rng(seed)
    return Game.create(
        [int(p) for p in rng.choice(np.arange(1, 200), n, replace=False)],
        [int(r) for r in rng.integers(10, 100, k)],
    )


def test_compacting_buckets_reuse_the_workspace_prefix():
    """Runs retire at different steps, so each bucket shrinks many times
    and later steps write a shorter prefix over rows a larger scan left
    behind; every outcome must still match the scalar stepper."""
    jobs, refs = [], []
    for seed in range(192):
        # Masked games get a shape of their own, so that unmasked
        # buckets take the unrestricted reduction.
        n = 8 + seed % 4 // 2
        game = _int_game(seed, n, 4) if seed % 2 else random_game(n, 4, seed=seed)
        if n == 9:
            game = game.with_allowed(random_mask(game, np.random.default_rng(seed)))
        kernel = KernelGame(game)
        start = random_configuration(game, seed=seed + 900)
        policy = POLICIES[(seed // 4) % len(POLICIES)]
        refs.append(scalar_reference(game, policy, SCHEDULERS[0], start, seed))
        jobs.append(tensor_job(kernel, game, policy, SCHEDULERS[0], start, seed))
    assert {kernel_lane(job.kernel) for job in jobs} == {"int", "float"}
    recorder = MetricsRecorder()
    with observe(recorder):
        assert_population_matches(jobs, refs)
    # 24 buckets (6 policies × 2 lanes × masked or not) of 8 runs each,
    # which retire over several steps: the prefix shrinks again and again.
    assert recorder.counter("tensor.buckets") == 24
    assert recorder.counter("tensor.compactions") > 3 * 24
