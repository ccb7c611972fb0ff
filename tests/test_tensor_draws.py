"""The tensor kernel's bounded draws: replay vs. ``Generator.integers``.

:class:`repro.kernel.draws.ReplayDraws` replays numpy's bounded
sampler (``next_uint32`` buffering plus Lemire's rejection method) over
pre-drawn raw words instead of calling ``integers(0, n)`` once per
game. These tests hold the replay to the real thing draw for draw —
every bound class up to ``2**32 − 1`` (rejection-heavy ones included),
starts with and without a buffered half, several block refills, games
dropping in and out of the draws — and to the final
``bit_generator.state``, stale ``uinteger`` included. Populations whose
jobs carry other bit generators (replayed or looped) and populations
that run out of step budget, raising or not, must leave every
generator exactly where the scalar stepper leaves it.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.core.factories import random_configuration, random_game
from repro.exceptions import ConvergenceError
from repro.kernel import draws, tensor
from repro.kernel.core import KernelGame
from repro.kernel.engine import KernelView
from repro.kernel.tensor import (
    TrajectoryJob,
    policy_kind,
    run_trajectory_population,
    scheduler_kind,
)
from repro.learning.engine import run_better_response
from repro.learning.policies import (
    BestResponsePolicy,
    EpsilonGreedyPolicy,
    RandomImprovingPolicy,
)
from repro.learning.schedulers import RoundRobinScheduler, UniformRandomScheduler

#: Every bound class the sampler distinguishes: tiny, powers of two and
#: their neighbours, rejection-heavy (2**31 + 1 redraws ~50% of the time,
#: 3·2**30 + 1 ~25%), and the 32-bit ceiling.
BOUNDS = (
    2, 3, 5, 7, 10, 100, 1000, 2**16 + 1, 2**31 - 1, 2**31,
    2**31 + 1, 3 * 2**30 + 1, 2**32 - 2, 2**32 - 1,
)

BIT_GENERATORS = (np.random.MT19937, np.random.SFC64, np.random.Philox)


def twin_generators(count, buffered, kind=np.random.PCG64):
    """Two lists of identically seeded generators, optionally half-buffered."""
    pairs = []
    for seed in range(count):
        mine = np.random.Generator(kind(seed))
        ref = np.random.Generator(kind(seed))
        if buffered(seed):
            mine.integers(0, 5)
            ref.integers(0, 5)
        pairs.append((mine, ref))
    return [m for m, _ in pairs], [r for _, r in pairs]


def assert_same_states(mine, refs):
    for index, (a, b) in enumerate(zip(mine, refs)):
        assert draws.same_state(a.bit_generator.state, b.bit_generator.state), index


@pytest.mark.parametrize("buffered", [0, 1])
def test_replay_matches_integers_for_every_bound(buffered):
    jobs = 20
    mine, refs = twin_generators(jobs, lambda seed: buffered)
    assert {g.bit_generator.state["has_uint32"] for g in mine} == {buffered}
    source = draws.ReplayDraws(mine)
    ids = np.arange(jobs)
    for step in range(6 * draws.RAW_BLOCK):
        bounds = np.array([BOUNDS[(step + 5 * i) % len(BOUNDS)] for i in range(jobs)])
        want = [int(refs[i].integers(0, b)) for i, b in enumerate(bounds.tolist())]
        assert [int(x) for x in source.draw(ids, bounds)] == want, step
    # The first fill plus at least three refills per job.
    assert source.refills.min() >= 4
    source.close()
    assert_same_states(mine, refs)


def test_replay_over_random_subsets_and_mixed_starts():
    """Games drop in and out of draws, each on its own stream."""
    jobs = 32
    mine, refs = twin_generators(jobs, lambda seed: seed % 3 == 0)
    source = draws.ReplayDraws(mine)
    chooser = np.random.default_rng(99)
    for _ in range(300):
        ids = np.flatnonzero(chooser.random(jobs) < chooser.random())
        if not ids.size:
            continue
        bounds = chooser.choice(BOUNDS, ids.size)
        want = [int(refs[i].integers(0, b)) for i, b in zip(ids.tolist(), bounds.tolist())]
        assert [int(x) for x in source.draw(ids, bounds)] == want
    source.close()
    assert_same_states(mine, refs)


def test_untouched_and_buffer_only_jobs_commit_unchanged_streams():
    """A job that never draws keeps its state; one that only eats its buffer
    ends with has_uint32 = 0 and the stale uinteger numpy leaves behind."""
    mine, refs = twin_generators(3, lambda seed: seed > 0)
    source = draws.ReplayDraws(mine)
    assert [int(x) for x in source.draw(np.array([1]), np.array([6]))] == [
        int(refs[1].integers(0, 6))
    ]
    source.close()
    assert mine[1].bit_generator.state["has_uint32"] == 0
    assert mine[1].bit_generator.state["uinteger"] != 0
    assert_same_states(mine, refs)


def test_self_check_routes_by_bit_generator_type():
    for kind in (np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox):
        assert draws.replays(kind), kind.__name__
    # MT19937 hands out native 32-bit words: no has_uint32 buffer to replay.
    assert not draws.replays(np.random.MT19937)


def test_self_check_rejects_a_replay_that_skips_lemire_redraws(monkeypatch):
    monkeypatch.setattr(draws.ReplayDraws, "_settle", lambda self, i, b, m: m >> 32)
    assert not draws.replay_self_check(np.random.PCG64)


def test_self_check_rejects_a_replay_with_wrong_high_halves(monkeypatch):
    monkeypatch.setattr(draws, "_SHIFT32", np.uint64(0))
    assert not draws.replay_self_check(np.random.PCG64)


def test_self_check_is_lazy():
    """Nothing is verified at import, so importing costs no draws."""
    code = (
        "import repro, repro.kernel.draws as t; "
        "assert t._REPLAY_VERIFIED == {}, t._REPLAY_VERIFIED"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


# ----------------------------------------------------------------------
# Populations: other bit generators, budgets
# ----------------------------------------------------------------------


def scalar_run(game, start, policy, scheduler, rng, max_steps, raise_on_budget=True):
    view = KernelView(game, start)
    trajectory = run_better_response(
        view,
        policy,
        scheduler,
        rng,
        max_steps=max_steps,
        raise_on_budget=raise_on_budget,
        record="summary",
    )
    return tuple(view.assign), trajectory.length, trajectory.converged


def population(kinds, policy, scheduler, *, max_steps=1_000_000, raise_on_budget=True):
    """24 jobs over 40×5 games, seeded per job, with the given bit generators."""
    specs, jobs = [], []
    kind_code, epsilon = policy_kind(policy)
    for seed in range(24):
        game = random_game(40, 5, seed=seed)
        kernel = KernelGame(game)
        start = random_configuration(game, seed=seed + 500)
        kind = kinds[seed % len(kinds)]
        specs.append((game, start, kind, seed))
        jobs.append(
            TrajectoryJob(
                kernel=kernel,
                assign=kernel.assignment_of(start),
                rng=np.random.Generator(kind(seed)),
                policy=kind_code,
                scheduler=scheduler_kind(scheduler),
                epsilon=epsilon,
                max_steps=max_steps,
                raise_on_budget=raise_on_budget,
            )
        )
    return specs, jobs


@pytest.mark.parametrize(
    "kinds",
    [(kind,) for kind in BIT_GENERATORS] + [BIT_GENERATORS],
    ids=["MT19937", "SFC64", "Philox", "mixed"],
)
@pytest.mark.parametrize(
    "policy, scheduler",
    [
        (RandomImprovingPolicy(), UniformRandomScheduler()),
        (RandomImprovingPolicy(), RoundRobinScheduler()),
        (BestResponsePolicy(), UniformRandomScheduler()),
        (EpsilonGreedyPolicy(0.3), UniformRandomScheduler()),
    ],
    ids=["random-uniform", "random-rr", "best-uniform", "epsilon-uniform"],
)
def test_population_parity_with_other_bit_generators(kinds, policy, scheduler):
    specs, jobs = population(kinds, policy, scheduler)
    outcomes = run_trajectory_population(jobs)
    for index, ((game, start, kind, seed), out, job) in enumerate(zip(specs, outcomes, jobs)):
        rng = np.random.Generator(kind(seed))
        final, steps, converged = scalar_run(game, start, policy, scheduler, rng, 1_000_000)
        assert (out.final_assign, out.steps, out.converged) == (final, steps, converged), index
        assert draws.same_state(job.rng.bit_generator.state, rng.bit_generator.state), index


def test_shared_generator_takes_the_loop_route(monkeypatch):
    """Jobs sharing one generator must interleave draws in lockstep order."""
    shared = np.random.default_rng(5)
    route = draws.draw_source
    assert isinstance(route([shared, shared], "random", "round-robin"), draws.LoopDraws)
    assert isinstance(route([shared], "random", "round-robin"), draws.ReplayDraws)
    assert isinstance(route([shared], "epsilon", "uniform"), draws.LoopDraws)

    def run_shared():
        rng = np.random.default_rng(5)
        _, jobs = population((np.random.PCG64,), RandomImprovingPolicy(), UniformRandomScheduler())
        for job in jobs:
            job.rng = rng
        return run_trajectory_population(jobs), rng.bit_generator.state

    routed = run_shared()
    monkeypatch.setattr(tensor, "draw_source", lambda rngs, *kinds: draws.LoopDraws(rngs))
    assert run_shared() == routed


def test_bucket_without_bounded_draws_skips_the_replay(monkeypatch):
    """Best response under round-robin never draws: no self-check, no table."""
    monkeypatch.setattr(draws, "_REPLAY_VERIFIED", {})
    rngs = [np.random.default_rng(seed) for seed in range(4)]
    for policy, scheduler in (("best", "round-robin"), ("first", "largest")):
        assert isinstance(draws.draw_source(rngs, policy, scheduler), draws.LoopDraws)
    assert draws._REPLAY_VERIFIED == {}
    _, jobs = population((np.random.PCG64,), BestResponsePolicy(), RoundRobinScheduler())
    run_trajectory_population(jobs)
    assert draws._REPLAY_VERIFIED == {}


@pytest.mark.parametrize("kind", [np.random.PCG64, np.random.MT19937], ids=["replay", "loop"])
def test_raising_bucket_commits_every_live_generator(kind):
    """raise_on_budget: the raising job, and every job still live beside it,
    leave their generators where a scalar run of that many steps does."""
    budget = 5
    policy, scheduler = RandomImprovingPolicy(), UniformRandomScheduler()
    specs, jobs = population((kind,), policy, scheduler)
    jobs[7].max_steps = budget
    with pytest.raises(ConvergenceError):
        run_trajectory_population(jobs)
    game, start, _, seed = specs[7]
    ref = np.random.Generator(kind(seed))
    with pytest.raises(ConvergenceError):
        scalar_run(game, start, policy, scheduler, ref, budget)
    assert draws.same_state(jobs[7].rng.bit_generator.state, ref.bit_generator.state)
    # Lockstep: every other job had made at most `budget` steps too.
    for index, (game, start, _, seed) in enumerate(specs):
        rng = np.random.Generator(kind(seed))
        scalar_run(game, start, policy, scheduler, rng, budget, raise_on_budget=False)
        assert draws.same_state(jobs[index].rng.bit_generator.state, rng.bit_generator.state)


@pytest.mark.parametrize("kind", [np.random.PCG64, np.random.MT19937], ids=["replay", "loop"])
def test_exhausted_jobs_without_raising_match_the_scalar_stepper(kind):
    budget = 6
    policy, scheduler = RandomImprovingPolicy(), UniformRandomScheduler()
    specs, jobs = population((kind,), policy, scheduler, max_steps=budget, raise_on_budget=False)
    outcomes = run_trajectory_population(jobs)
    assert not all(out.converged for out in outcomes)
    for index, ((game, start, _, seed), out, job) in enumerate(zip(specs, outcomes, jobs)):
        rng = np.random.Generator(kind(seed))
        ref = scalar_run(game, start, policy, scheduler, rng, budget, raise_on_budget=False)
        assert (out.final_assign, out.steps, out.converged) == ref, index
        assert draws.same_state(job.rng.bit_generator.state, rng.bit_generator.state), index
