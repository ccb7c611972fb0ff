"""Tensor-batched trajectory kernel: whole populations per numpy step.

Every multi-seed experiment runs many independent trajectories over
same-shape games. The scalar :class:`~repro.kernel.engine.KernelView`
stepper advances them one Python step at a time; this module packs a
*population* into ``(games × miners)`` / ``(games × coins)`` int64
arrays — per-game common-denominator-scaled powers and rewards (the
:class:`~repro.kernel.core.KernelGame` normalization, reused as-is),
an assignment matrix and per-coin mass vectors — and advances every
live trajectory in lockstep: one batched better-response scan, one
batched scheduler pick, one batched policy choice and one batched
apply per step. Converged (or budget-exhausted) games retire from the
arrays; the loop ends when the population is empty.

The stability scan never builds a per-miner tensor. A miner's payoff
on coin *c* is ``R_c·p/M_c``, so whether miner *i* gains by moving
from *c* to *j* depends on *i* only through *c* and its power: each
step builds one per-coin margin table ``T[g, c, j]`` (``(games × coins
× coins)``), reduces it to each coin's best margin, gathers that per
miner by assignment (one flat ``np.take``) and compares against the
miner's threshold — O(G·k² + G·n) per lockstep step. The int lane keeps
the thresholds ``R[assign]·p`` as state: the apply phase rewrites the
one entry per game that moved. The policy phase reads the activated
miner's row ``T[g, cur, :]`` of the same table. A uniform pick of the
``d``-th unstable miner or improving coin reads each row's ``d``-th
True from one ``flatnonzero`` of the whole mask (:func:`_nth_true`).

Exactness — three lanes, mirroring ``stochastic/lottery.py``'s
int64-with-exact-fallback pattern:

``"int"``
    Every cross-multiplication fits int64 (bound:
    ``max_reward · (total_power + max_power) < 2**62``).
    ``T = R_j·M_c − R_c·M_j`` against the threshold ``R_c·p_i`` is the
    scalar core's strict comparison rearranged — exact by construction.
``"float"``
    Products would overflow int64 but the *state* (masses, rewards)
    still fits. ``T = q_lo[c]·R_j − M_j`` with ``q_lo = (M/R)·(1−ε)``
    is a float32 table with a wide ``1e-5`` relative bracket: a margin
    above ``p_i`` certainly improves and one at or below
    ``p_i − slack`` certainly does not (accumulated float32 error is
    ≤ ~3e-7, so a certain verdict is always right). Miners whose margin
    lands inside the bracket re-run through a float64 screen with a
    ``1e-14`` bracket (float64 error is ~1e-16·ops), and anything still
    undecided — generically nothing — is settled with
    arbitrary-precision Python integers. Final verdicts are therefore
    exact regardless of which tier decided them.
``"exact"``
    State itself exceeds int64: the whole game falls back to the scalar
    :class:`~repro.kernel.engine.KernelView` stepper in
    ``record="summary"`` mode — same draws, same tie-breaks, same
    budget semantics, merely not batched.

All three lanes are draw-for-draw identical to the scalar stepper:
each job carries its own ``numpy.random.Generator``, and every draw the
scalar loop would make (scheduler pick, random-improving choice,
epsilon-greedy explore test) consumes that same generator's stream, in
the same per-step order, with the same bounds, leaving it in the same
final state. The bounded picks (``integers(0, n)`` of the uniform
scheduler and the random-improving policy) come from one draw source
per bucket (:func:`repro.kernel.draws.draw_source`), which replays
numpy's bounded sampler over pre-drawn raw words for every drawing
game at once and commits exactly the consumed words back to each
generator when the bucket ends — or, where that replay is not proven,
calls ``integers`` once per game. Tie-breaks replicate the
scalar scan order exactly (ascending coin index for best response,
coin-name order for minimal-gain/max-rpu, power-then-name order for the
largest/smallest-first schedulers). ``tests/test_tensor_parity.py`` and
``tests/test_tensor_draws.py`` hold the wall.

Masked games ride along: a job kernel's ``allowed`` alphabets (per-miner
ascending coin indices, see :class:`~repro.kernel.core.KernelGame`)
become one boolean ``(games × miners × coins)`` tensor; restricted
buckets gather each miner's table row and mask it before reducing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConvergenceError
from repro.kernel.core import KernelGame
from repro.kernel.draws import draw_source
from repro.obs.recorder import get_recorder

__all__ = [
    "TrajectoryJob",
    "TrajectoryOutcome",
    "SimultaneousJob",
    "SimultaneousOutcome",
    "kernel_lane",
    "policy_kind",
    "scheduler_kind",
    "run_trajectory_population",
    "run_simultaneous_population",
    "stable_mask",
]

#: Largest integer the int64 fast paths may produce (see lottery.py).
_INT64_SAFE = 2**62

#: Relative tolerance of the float64 comparison lane. Anything closer
#: than this is re-resolved with exact integer arithmetic.
_REL_TOL = 1e-14
_REL_TOL_F32 = 1e-5
_LO_F32 = np.float32(1.0 - _REL_TOL_F32)

#: Policy kind codes the batched stepper implements.
VECTOR_POLICIES = ("best", "random", "minimal", "max-rpu", "first", "epsilon")

#: Scheduler kind codes the batched stepper implements.
VECTOR_SCHEDULERS = ("uniform", "round-robin", "largest", "smallest")


def kernel_lane(kernel: KernelGame) -> str:
    """Which comparison lane a kernel's integer magnitudes admit.

    ``"int"`` — int64 products; ``"float"`` — float64 prefilter with
    exact confirmation; ``"exact"`` — scalar arbitrary-precision
    fallback (state itself does not fit int64).
    """
    total = sum(kernel.powers)
    peak = max(kernel.powers)
    top = max(kernel.rewards)
    if top * (total + peak) < _INT64_SAFE:
        return "int"
    if total + peak < _INT64_SAFE and top < _INT64_SAFE:
        return "float"
    return "exact"


def policy_kind(policy) -> Optional[Tuple[str, float]]:
    """``(kind, epsilon)`` code for a *standard* policy instance, else None.

    Exact type checks on purpose: a subclass may override ``choose`` and
    must fall back to the scalar loop (same rule the strategy views use
    for their own fast paths).
    """
    from repro.learning import policies as P

    if policy is None:
        return ("random", 0.0)
    t = type(policy)
    if t is P.BestResponsePolicy:
        return ("best", 0.0)
    if t is P.RandomImprovingPolicy:
        return ("random", 0.0)
    if t is P.MinimalGainPolicy:
        return ("minimal", 0.0)
    if t is P.MaxRpuPolicy:
        return ("max-rpu", 0.0)
    if t is P.FirstImprovingPolicy:
        return ("first", 0.0)
    if t is P.EpsilonGreedyPolicy:
        return ("epsilon", float(policy.epsilon))
    return None


def scheduler_kind(scheduler) -> Optional[str]:
    """Kind code for a *standard* scheduler instance, else None."""
    from repro.learning import schedulers as S

    if scheduler is None:
        return "uniform"
    t = type(scheduler)
    if t is S.UniformRandomScheduler:
        return "uniform"
    if t is S.RoundRobinScheduler:
        return "round-robin"
    if t is S.LargestFirstScheduler:
        return "largest"
    if t is S.SmallestFirstScheduler:
        return "smallest"
    return None


def _make_policy(kind: str, epsilon: float):
    from repro.learning import policies as P

    factory = {
        "best": P.BestResponsePolicy,
        "random": P.RandomImprovingPolicy,
        "minimal": P.MinimalGainPolicy,
        "max-rpu": P.MaxRpuPolicy,
        "first": P.FirstImprovingPolicy,
    }
    if kind == "epsilon":
        return P.EpsilonGreedyPolicy(epsilon)
    return factory[kind]()


def _make_scheduler(kind: str):
    from repro.learning import schedulers as S

    return {
        "uniform": S.UniformRandomScheduler,
        "round-robin": S.RoundRobinScheduler,
        "largest": S.LargestFirstScheduler,
        "smallest": S.SmallestFirstScheduler,
    }[kind]()


# ----------------------------------------------------------------------
# Sequential better-response populations
# ----------------------------------------------------------------------


@dataclass
class TrajectoryJob:
    """One trajectory of the population: a game plus its run state.

    ``assign`` is the initial assignment (coin index per miner, miner
    order); ``rng`` is this run's private generator — the batched
    stepper consumes exactly the words the scalar stepper would draw
    from it and leaves it in the same final state (replayed bounded
    draws are committed when the job's bucket ends, also when it
    raises).
    ``policy``/``scheduler`` are kind codes (:data:`VECTOR_POLICIES` /
    :data:`VECTOR_SCHEDULERS`); map strategy *objects* with
    :func:`policy_kind` / :func:`scheduler_kind`. A masked game's
    allowed coins come from ``kernel.allowed``.
    """

    kernel: KernelGame
    assign: Sequence[int]
    rng: np.random.Generator
    policy: str = "random"
    scheduler: str = "uniform"
    epsilon: float = 0.0
    max_steps: int = 1_000_000
    raise_on_budget: bool = True


@dataclass(frozen=True)
class TrajectoryOutcome:
    """What the batched stepper reports per job: counts and final state."""

    steps: int
    converged: bool
    final_assign: Tuple[int, ...]


def run_trajectory_population(jobs: Sequence[TrajectoryJob]) -> List[TrajectoryOutcome]:
    """Advance every job to convergence (or budget), batched per shape.

    Jobs are grouped into buckets of identical ``(miners, coins,
    policy, scheduler, epsilon, lane)``; each bucket runs as one
    lockstep array program. Mixed-shape populations are therefore fine —
    they simply occupy several buckets. Jobs whose kernel integers
    exceed the ``"float"`` lane run through the scalar stepper
    (arbitrary precision), transparently. Outcomes come back in job
    order.
    """
    jobs = list(jobs)
    outcomes: List[Optional[TrajectoryOutcome]] = [None] * len(jobs)
    lanes: Dict[int, str] = {}
    buckets: Dict[tuple, List[int]] = {}
    recorder = get_recorder()
    observing = recorder.enabled
    for pos, job in enumerate(jobs):
        if job.policy not in VECTOR_POLICIES:
            raise ValueError(f"policy must be one of {VECTOR_POLICIES}, got {job.policy!r}")
        if job.scheduler not in VECTOR_SCHEDULERS:
            raise ValueError(
                f"scheduler must be one of {VECTOR_SCHEDULERS}, got {job.scheduler!r}"
            )
        lane = lanes.get(id(job.kernel))
        if lane is None:
            lane = lanes[id(job.kernel)] = kernel_lane(job.kernel)
        if observing:
            recorder.count("tensor.lane." + lane)
        if lane == "exact":
            outcomes[pos] = _run_scalar_job(job)
            continue
        key = (
            job.kernel.n_miners,
            job.kernel.n_coins,
            job.policy,
            job.scheduler,
            job.epsilon,
            lane,
        )
        buckets.setdefault(key, []).append(pos)
    for key, positions in buckets.items():
        if observing:
            recorder.count("tensor.buckets")
            recorder.event(
                "tensor.bucket",
                miners=key[0],
                coins=key[1],
                policy=key[2],
                scheduler=key[3],
                lane=key[-1],
                jobs=len(positions),
            )
        results = _run_bucket([jobs[p] for p in positions], lane=key[-1])
        for p, outcome in zip(positions, results):
            outcomes[p] = outcome
    return outcomes  # type: ignore[return-value]


def _run_scalar_job(job: TrajectoryJob) -> TrajectoryOutcome:
    """Arbitrary-precision fallback: the scalar stepper, summary mode."""
    from repro.core.configuration import Configuration
    from repro.kernel.engine import KernelView
    from repro.learning.engine import run_better_response

    game = job.kernel.game
    coins = game.coins
    config = Configuration(game.miners, [coins[int(j)] for j in job.assign])
    view = KernelView(game, config, kernel=job.kernel)
    trajectory = run_better_response(
        view,
        _make_policy(job.policy, job.epsilon),
        _make_scheduler(job.scheduler),
        job.rng,
        max_steps=job.max_steps,
        raise_on_budget=job.raise_on_budget,
        record="summary",
    )
    final = tuple(int(j) for j in view.assign)
    return TrajectoryOutcome(trajectory.length, trajectory.converged, final)


def _rank_rows(jobs: Sequence, keys, reverse: bool = False) -> np.ndarray:
    """Per-game ranks of each index under its sort key ``keys(kernel)[i]``.

    Largest/smallest-first picks rank miners by (power, name), reversed
    for largest: ``max(unstable, key=...)`` returns the *first* maximal
    element, and a stable (reverse-)sort keeps equal keys in ascending
    index order, so rank-argmin over the unstable set reproduces the
    scalar pick, ties included. Minimal-gain/max-rpu ties rank coins by
    name. Rows are computed once per kernel.
    """
    cache: Dict[int, np.ndarray] = {}
    for job in jobs:
        if id(job.kernel) not in cache:
            ks = keys(job.kernel)
            order = sorted(range(len(ks)), key=ks.__getitem__, reverse=reverse)
            cache[id(job.kernel)] = np.argsort(order)
    return np.array([cache[id(job.kernel)] for job in jobs], dtype=np.int64)


def _f64_margin_rows(powers, rewards, assign, mass, allowed_m, gis, iis):
    """True improving rows for (game, miner) pairs via the float64 bracket.

    Mid-tier resolver for pairs whose float32 margin landed inside the
    wide f32 gap: recompute their margin rows with the tight float64
    bracket in one vectorized pass, then settle any entry still inside
    the f64 gap — generically none — with the strict integer
    cross-multiplication of :meth:`KernelGame.better_moves` in
    arbitrary precision. The returned rows are truth, not an
    approximation.
    """
    recorder = get_recorder()
    if recorder.enabled:
        recorder.count("tensor.escalations.f64", len(gis))
    cur = assign[gis, iis]
    mc = mass[gis, cur].astype(np.float64)
    rc = rewards[gis, cur].astype(np.float64)
    q_lo = (mc / rc) * (1.0 - _REL_TOL)
    A = q_lo[:, None] * rewards[gis].astype(np.float64)
    A -= mass[gis]
    p = powers[gis, iis].astype(np.float64)
    slack = 2.0 * _REL_TOL * (mass[gis].sum(axis=1) + powers[gis].max(axis=1)).astype(np.float64)
    imp = A > p[:, None]
    gap = (A > (p - slack)[:, None]) ^ imp
    if allowed_m is not None:
        allow = allowed_m[gis, iis]
        imp &= allow
        gap &= allow
    gap_count = int(np.count_nonzero(gap))
    if gap_count:
        recorder.count("tensor.escalations.exact", gap_count)
        for ri, j in zip(*np.nonzero(gap)):
            gi, c = gis[ri], cur[ri]
            imp[ri, j] = int(rewards[gi, j]) * int(mass[gi, c]) > int(rewards[gi, c]) * (
                int(mass[gi, j]) + int(powers[gi, iis[ri]])
            )
    return imp


def _f32_aux(powers, rewards, mass, lane):
    """Float-lane operands ``(R, p, p − slack)`` in float32; None for "int".

    float32 halves the memory traffic of float64 at identical final
    verdicts, since anything inside the bracket is re-resolved exactly.
    *slack* is a per-game absolute bound ``2ε·(total_mass + max_power)``
    covering both the ε fold of ``q_lo`` and the float error; total
    mass is a trajectory invariant, so the slack is too.
    """
    if lane == "int":
        return None
    slack = 2.0 * _REL_TOL_F32 * (mass.sum(axis=1) + powers.max(axis=1))
    return (
        rewards.astype(np.float32),
        powers.astype(np.float32),
        (powers.astype(np.float64) - slack[:, None]).astype(np.float32),
    )


def _scan(powers, rewards, assign, mass, allowed_m, f32, thr=None):
    """The per-coin margin table and exact per-miner instability.

    ``T[g, c, j]`` is the module docstring's lane formula. ``j == c``
    compares a payoff against itself: ``T[c, c]`` is 0 (int) or about
    ``−ε·M_c`` (float), never above a threshold, so the diagonal needs
    no mask. Unrestricted games reduce the table to each coin's best
    margin, then gather per miner with one flat ``np.take``; restricted
    games gather each miner's row, mask it, then reduce. The int lane
    compares against the thresholds *thr* (``R[assign]·p``), which the
    stepper keeps as state and :func:`stable_mask` leaves to this call
    to build. Float-lane miners whose best margin lands inside the
    bracket are re-resolved by :func:`_f64_margin_rows`.
    """
    if f32 is None:
        table = mass[:, :, None] * rewards[:, None, :] - rewards[:, :, None] * mass[:, None, :]
    else:
        rewards32, p32, p_gap32 = f32
        mass32 = mass.astype(np.float32)
        q_lo = (mass32 / rewards32) * _LO_F32
        table = q_lo[:, :, None] * rewards32[:, None, :]
        table -= mass32[:, None, :]
    rows = np.arange(len(assign))[:, None]
    if allowed_m is None:
        top = np.take(table.max(axis=2), assign + rows * table.shape[1])
    else:
        lowest = np.iinfo(np.int64).min if f32 is None else -np.inf
        top = np.where(allowed_m, table[rows, assign], lowest).max(axis=2)
    if f32 is None:
        return table, top > (rewards[rows, assign] * powers if thr is None else thr)
    unstable = top > p32
    gap = (top > p_gap32) & ~unstable
    if gap.any():
        gis, iis = np.nonzero(gap)
        unstable[gis, iis] = _f64_margin_rows(
            powers, rewards, assign, mass, allowed_m, gis, iis
        ).any(axis=1)
    return table, unstable


def _improving_rows(table, powers, rewards, assign, mass, allowed_m, f32, miner):
    """Exact improving-coin mask ``(G, k)`` of one miner per game.

    The policy phase's read of :func:`_scan`'s table: row
    ``T[g, assign[g, miner[g]], :]`` against that miner's thresholds.
    """
    rows = np.arange(assign.shape[0])
    cur = assign[rows, miner]
    row = table[rows, cur]
    allow_sel = allowed_m[rows, miner] if allowed_m is not None else True
    if f32 is None:
        return (row > (rewards[rows, cur] * powers[rows, miner])[:, None]) & allow_sel
    _, p32, p_gap32 = f32
    mrow = (row > p32[rows, miner][:, None]) & allow_sel
    row_gap = (row > p_gap32[rows, miner][:, None]) & ~mrow & allow_sel
    if row_gap.any():
        # Certain f32 verdicts and f64 truth agree, so whole-row
        # replacement for any game with a gap entry is safe.
        gis = np.flatnonzero(row_gap.any(axis=1))
        mrow[gis] = _f64_margin_rows(powers, rewards, assign, mass, allowed_m, gis, miner[gis])
    return mrow


def _best_response(rewards, mass, cur, p, allow, exact):
    """Batched :meth:`KernelGame.best_response_idx` for ``(G, m)`` miners.

    *cur* and *p* are the miners' current coins and powers, ``(G, m)``;
    *allow* is their ``(G, m, k)`` allowed-coin mask, or None. The
    sequential stepper asks for one miner per game, the simultaneous
    stepper for all of them. Ascending-j scan with strict improvement
    over best-so-far, seeded at the current payoff — ties resolve to the
    earliest coin, exactly like the scalar chain. Outside the int lane
    each comparison is screened in float64 and anything inside the
    ``_REL_TOL`` bracket is settled in Python integers. Returns -1 where
    no improving move exists.
    """
    best_r = np.take_along_axis(rewards, cur, axis=1)
    best_den = np.take_along_axis(mass, cur, axis=1)
    target = np.full(cur.shape, -1, dtype=np.int64)
    for j in range(mass.shape[1]):
        elig = cur != j
        if allow is not None:
            elig &= allow[:, :, j]
        if not elig.any():
            continue
        r_j = rewards[:, j][:, None]
        den_j = mass[:, j][:, None] + p
        if exact:
            beat = r_j * best_den > best_r * den_j
        else:
            lhs = r_j.astype(np.float64) * best_den.astype(np.float64)
            rhs = best_r.astype(np.float64) * den_j.astype(np.float64)
            diff = lhs - rhs
            tol = (lhs + rhs) * _REL_TOL
            beat = diff > tol
            unsure = (diff >= -tol) & ~beat & elig
            unsure_count = int(np.count_nonzero(unsure))
            if unsure_count:
                get_recorder().count("tensor.escalations.exact", unsure_count)
            for gi, i in zip(*np.nonzero(unsure)):
                beat[gi, i] = int(rewards[gi, j]) * int(best_den[gi, i]) > int(
                    best_r[gi, i]
                ) * int(den_j[gi, i])
        beat &= elig
        best_r = np.where(beat, r_j, best_r)
        best_den = np.where(beat, den_j, best_den)
        target = np.where(beat, j, target)
    return target


def _extreme_gain_targets(rewards, mass, mrow, p_sel, rank, exact, maximize):
    """Batched minimal-gain (``maximize=False``) / max-rpu target choice.

    Scans improving coins ascending; keeps the smallest (largest)
    post-move payoff, breaking exact payoff ties toward the smaller
    (larger) coin name — the scalar tie rule, via precomputed name
    ranks.
    """
    g, k = mrow.shape
    have = np.zeros(g, dtype=bool)
    best_r = np.zeros(g, dtype=np.int64)
    best_den = np.ones(g, dtype=np.int64)
    best_rank = np.zeros(g, dtype=np.int64)
    target = np.full(g, -1, dtype=np.int64)
    for j in range(k):
        mj = mrow[:, j]
        if not mj.any():
            continue
        den_j = mass[:, j] + p_sel
        if exact:
            lhs = rewards[:, j] * best_den
            rhs = best_r * den_j
            gt = lhs > rhs
            eq = lhs == rhs
        else:
            lhs = rewards[:, j].astype(np.float64) * best_den.astype(np.float64)
            rhs = best_r.astype(np.float64) * den_j.astype(np.float64)
            diff = lhs - rhs
            tol = (lhs + rhs) * _REL_TOL
            gt = diff > tol
            eq = np.zeros(g, dtype=bool)
            unsure = np.flatnonzero((diff >= -tol) & ~gt & mj & have)
            if unsure.size:
                get_recorder().count("tensor.escalations.exact", int(unsure.size))
            for gi in unsure:
                lhs_e = int(rewards[gi, j]) * int(best_den[gi])
                rhs_e = int(best_r[gi]) * int(den_j[gi])
                gt[gi] = lhs_e > rhs_e
                eq[gi] = lhs_e == rhs_e
        if maximize:
            better = gt | (eq & (rank[:, j] > best_rank))
        else:
            better = (~gt & ~eq) | (eq & (rank[:, j] < best_rank))
        take = mj & (~have | better)
        best_r = np.where(take, rewards[:, j], best_r)
        best_den = np.where(take, den_j, best_den)
        best_rank = np.where(take, rank[:, j], best_rank)
        target = np.where(take, j, target)
        have = have | mj
    return target


def _nth_true(mask, counts, draws) -> np.ndarray:
    """Column of each row's ``draws[g]``-th True (0-based) in one pass.

    *counts* are the rows' True counts; every row must have one.
    """
    return np.flatnonzero(mask)[np.cumsum(counts) - counts + draws] % mask.shape[1]


def _bounded_draws(source, owner, bounds, recorder) -> np.ndarray:
    """Per game ``integers(0, bounds[g])``, skipping the no-draw bound 1."""
    draws = np.zeros(owner.size, dtype=np.int64)
    pick = np.flatnonzero(bounds > 1)
    if pick.size:
        draws[pick] = source.draw(owner[pick], bounds[pick])
        if recorder.enabled:
            recorder.count(source.counter, int(pick.size))
    return draws


def _allowed_tensor(kernels: Sequence[KernelGame]) -> Optional[np.ndarray]:
    """The ``(games × miners × coins)`` allowed-coin mask, or None when
    no game of *kernels* is masked."""
    if all(kernel.allowed is None for kernel in kernels):
        return None
    allowed_m = np.zeros((len(kernels), kernels[0].n_miners, kernels[0].n_coins), dtype=bool)
    for g, kernel in enumerate(kernels):
        for i, coins in enumerate(kernel.alphabets):
            allowed_m[g, i, list(coins)] = True
    return allowed_m


def _run_bucket(jobs: Sequence[TrajectoryJob], lane: str) -> List[TrajectoryOutcome]:
    """Run one same-shape, same-strategy bucket in lockstep."""
    recorder = get_recorder()
    total = len(jobs)
    n = jobs[0].kernel.n_miners
    k = jobs[0].kernel.n_coins
    pol = jobs[0].policy
    sch = jobs[0].scheduler
    eps = jobs[0].epsilon
    exact = lane == "int"

    powers = np.array([job.kernel.powers for job in jobs], dtype=np.int64)
    rewards = np.array([job.kernel.rewards for job in jobs], dtype=np.int64)
    assign = np.array([list(job.assign) for job in jobs], dtype=np.int64)
    if assign.shape != (total, n):
        raise ValueError(
            f"assignment shape {assign.shape} does not match population ({total}, {n})"
        )
    mass = np.zeros((total, k), dtype=np.int64)
    np.add.at(mass, (np.arange(total)[:, None], assign), powers)
    budgets = np.array([job.max_steps for job in jobs], dtype=np.int64)
    raise_flags = np.array([job.raise_on_budget for job in jobs], dtype=bool)
    rngs = [job.rng for job in jobs]
    steps = np.zeros(total, dtype=np.int64)
    owner = np.arange(total)

    allowed_m = _allowed_tensor([job.kernel for job in jobs])

    cursor = np.zeros(total, dtype=np.int64) if sch == "round-robin" else None
    prio = rank = None
    if sch in ("largest", "smallest"):
        prio = _rank_rows(
            jobs, lambda kg: [(m.power, m.name) for m in kg.game.miners], reverse=sch == "largest"
        )
    if pol in ("minimal", "max-rpu"):
        rank = _rank_rows(jobs, lambda kg: kg.coin_names)
    f32 = _f32_aux(powers, rewards, mass, lane)
    thr = rewards[np.arange(total)[:, None], assign] * powers if exact else None

    outcomes: List[Optional[TrajectoryOutcome]] = [None] * total
    source = draw_source(rngs, pol, sch)
    try:
        while owner.size:
            table, unstable = _scan(powers, rewards, assign, mass, allowed_m, f32, thr)
            nu = np.count_nonzero(unstable, axis=1)

            # Retire converged games, then budget-exhausted ones — the same
            # order the scalar loop checks (stability first, so a run that
            # is stable exactly at budget still counts as converged).
            done = nu == 0
            exhausted = ~done & (steps >= budgets)
            keep = ~(done | exhausted)
            if not keep.all():
                for gi in np.flatnonzero(~keep):
                    if exhausted[gi] and raise_flags[gi]:
                        raise ConvergenceError(
                            f"better-response learning did not converge within "
                            f"{int(budgets[gi])} steps"
                        )
                    outcomes[owner[gi]] = TrajectoryOutcome(
                        int(steps[gi]), bool(done[gi]), tuple(assign[gi].tolist())
                    )
                if recorder.enabled:
                    recorder.count("tensor.compactions")
                if not keep.any():
                    break
                owner, assign, mass, table = owner[keep], assign[keep], mass[keep], table[keep]
                powers, rewards = powers[keep], rewards[keep]
                steps, budgets, raise_flags = steps[keep], budgets[keep], raise_flags[keep]
                unstable, nu = unstable[keep], nu[keep]
                allowed_m, cursor, prio, rank, thr = (
                    None if a is None else a[keep]
                    for a in (allowed_m, cursor, prio, rank, thr)
                )
                if f32 is not None:
                    f32 = tuple(a[keep] for a in f32)

            g = owner.size
            rows = np.arange(g)

            # Scheduler phase: one activated miner per game. Per-game draws
            # come from each job's own stream, in the same order and with
            # the same bounds as the scalar scheduler. A bound-1 draw returns
            # 0 without advancing the generator, so it is skipped.
            if sch == "uniform":
                miner = _nth_true(unstable, nu, _bounded_draws(source, owner, nu, recorder))
            elif sch == "round-robin":
                positions = (cursor[:, None] + np.arange(n)[None, :]) % n
                offset = np.take_along_axis(unstable, positions, axis=1).argmax(axis=1)
                miner = (cursor + offset) % n
                cursor = (miner + 1) % n
            else:
                miner = np.where(unstable, prio, n).argmin(axis=1)

            # Policy phase: one target coin per activated miner.
            cur = assign[rows, miner]
            p_sel = powers[rows, miner]
            mrow = _improving_rows(table, powers, rewards, assign, mass, allowed_m, f32, miner)
            counts = np.count_nonzero(mrow, axis=1)
            if pol == "first":
                target = mrow.argmax(axis=1)
            elif pol == "random":
                target = _nth_true(mrow, counts, _bounded_draws(source, owner, counts, recorder))
            elif pol in ("minimal", "max-rpu"):
                target = _extreme_gain_targets(
                    rewards, mass, mrow, p_sel, rank, exact, pol == "max-rpu"
                )
            else:  # best response, or epsilon-greedy's greedy pick
                allow = None if allowed_m is None else allowed_m[rows, miner][:, None]
                target = _best_response(
                    rewards, mass, cur[:, None], p_sel[:, None], allow, exact
                )[:, 0]
                if pol == "epsilon":  # a uniform draw decides explore/exploit
                    explore = np.zeros(g, dtype=bool)
                    draws = np.zeros(g, dtype=np.int64)
                    for gi, pos in enumerate(owner.tolist()):
                        gen = rngs[pos]
                        if gen.random() < eps:
                            explore[gi] = True
                            draws[gi] = gen.integers(0, int(counts[gi])) if counts[gi] > 1 else 0
                    target = np.where(explore, _nth_true(mrow, counts, draws), target)
            if (target < 0).any():
                raise RuntimeError("batched policy found no target for an unstable miner")

            # Apply phase: O(population) mass bookkeeping, like the scalar
            # view's O(1) apply.
            mass[rows, cur] -= p_sel
            mass[rows, target] += p_sel
            assign[rows, miner] = target
            if thr is not None:
                thr[rows, miner] = rewards[rows, target] * p_sel
            steps += 1
    finally:
        # Every opened job's generator learns what it consumed — also
        # when a budget-exhausted job raises ConvergenceError.
        source.close()
    if recorder.enabled:
        # The same totals the scalar stepper emits per run, so counter
        # sums agree across executors: every live iteration scanned each
        # game once, and the retirement iteration scanned without
        # stepping, hence scans = steps + 1 per job.
        total_steps = sum(outcome.steps for outcome in outcomes)
        recorder.count("engine.runs", total)
        recorder.count("engine.steps", total_steps)
        recorder.count("engine.scans", total_steps + total)
        recorder.count(
            "engine.converged", sum(1 for outcome in outcomes if outcome.converged)
        )
    return outcomes  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Batched stability checks
# ----------------------------------------------------------------------


def stable_mask(kernel: KernelGame, assigns) -> np.ndarray:
    """One stability verdict per row of *assigns* (``(G, n)`` int array).

    The batched twin of :meth:`KernelGame.stable_index` (masked games
    included), lane-dispatched like the trajectory stepper.
    """
    assigns = np.asarray(assigns, dtype=np.int64)
    if assigns.ndim != 2 or assigns.shape[1] != kernel.n_miners:
        raise ValueError(
            f"assigns must be (G, {kernel.n_miners}), got {assigns.shape}"
        )
    lane = kernel_lane(kernel)
    if lane == "exact":
        verdicts = []
        for row in assigns:
            assign = [int(c) for c in row]
            verdicts.append(kernel.stable_index(assign, kernel.mass_of(assign)))
        return np.array(verdicts, dtype=bool)
    G = assigns.shape[0]
    n, k = kernel.n_miners, kernel.n_coins
    powers = np.broadcast_to(np.array(kernel.powers, dtype=np.int64), (G, n))
    rewards = np.broadcast_to(np.array(kernel.rewards, dtype=np.int64), (G, k))
    mass = np.zeros((G, k), dtype=np.int64)
    np.add.at(mass, (np.arange(G)[:, None], assigns), powers)
    allowed_m = _allowed_tensor([kernel])
    if allowed_m is not None:
        allowed_m = np.broadcast_to(allowed_m, (G, n, k))
    f32 = _f32_aux(powers, rewards, mass, lane)
    _, unstable = _scan(powers, rewards, assigns, mass, allowed_m, f32)
    return ~unstable.any(axis=1)


# ----------------------------------------------------------------------
# Simultaneous (synchronous) populations
# ----------------------------------------------------------------------


@dataclass
class SimultaneousJob:
    """One synchronous-dynamics run of the population.

    A masked game's allowed coins come from ``kernel.allowed``; the
    start must sit on them, as
    :func:`~repro.learning.simultaneous.run_simultaneous` requires.
    """

    kernel: KernelGame
    assign: Sequence[int]
    rng: np.random.Generator
    inertia: float = 0.0
    max_rounds: int = 10_000


@dataclass(frozen=True)
class SimultaneousOutcome:
    """Batched twin of :class:`~repro.learning.simultaneous.SimultaneousResult`."""

    rounds: int
    converged: bool
    cycle_start: Optional[int]
    final_assign: Tuple[int, ...]


def run_simultaneous_population(jobs: Sequence[SimultaneousJob]) -> List[SimultaneousOutcome]:
    """Advance synchronous best-response dynamics for a population.

    Round-for-round identical to
    :func:`~repro.learning.simultaneous.run_simultaneous`: per round all
    miners' best responses are evaluated against the pre-round state,
    inertia draws happen per miner-with-a-target in miner order on each
    job's own generator, a round in which no miner has a best response
    means convergence (a round inertia holds entirely still counts), and
    (for ``inertia=0``) a repeated configuration proves a permanent
    cycle.
    """
    jobs = list(jobs)
    outcomes: List[Optional[SimultaneousOutcome]] = [None] * len(jobs)
    lanes: Dict[int, str] = {}
    buckets: Dict[tuple, List[int]] = {}
    for pos, job in enumerate(jobs):
        if not 0.0 <= job.inertia < 1.0:
            raise ValueError(f"inertia must be in [0, 1), got {job.inertia}")
        if job.max_rounds < 1:
            raise ValueError(f"max_rounds must be ≥ 1, got {job.max_rounds}")
        lane = lanes.get(id(job.kernel))
        if lane is None:
            lane = lanes[id(job.kernel)] = kernel_lane(job.kernel)
        if lane == "exact":
            outcomes[pos] = _run_scalar_simultaneous(job)
            continue
        key = (job.kernel.n_miners, job.kernel.n_coins, lane)
        buckets.setdefault(key, []).append(pos)
    for key, positions in buckets.items():
        results = _run_sim_bucket([jobs[p] for p in positions], lane=key[-1])
        for p, outcome in zip(positions, results):
            outcomes[p] = outcome
    return outcomes  # type: ignore[return-value]


def _run_scalar_simultaneous(job: SimultaneousJob) -> SimultaneousOutcome:
    from repro.core.configuration import Configuration
    from repro.learning.simultaneous import run_simultaneous

    game = job.kernel.game
    config = Configuration(game.miners, [game.coins[int(j)] for j in job.assign])
    result = run_simultaneous(
        game,
        config,
        inertia=job.inertia,
        max_rounds=job.max_rounds,
        seed=job.rng,
        backend="fast",
    )
    final = tuple(int(j) for j in job.kernel.assignment_of(result.final))
    return SimultaneousOutcome(result.rounds, result.converged, result.cycle_start, final)


def _run_sim_bucket(jobs: Sequence[SimultaneousJob], lane: str) -> List[SimultaneousOutcome]:
    total = len(jobs)
    n = jobs[0].kernel.n_miners
    k = jobs[0].kernel.n_coins
    exact = lane == "int"

    powers = np.array([job.kernel.powers for job in jobs], dtype=np.int64)
    rewards = np.array([job.kernel.rewards for job in jobs], dtype=np.int64)
    assign = np.array([list(job.assign) for job in jobs], dtype=np.int64)
    mass = np.zeros((total, k), dtype=np.int64)
    np.add.at(mass, (np.arange(total)[:, None], assign), powers)
    limits = np.array([job.max_rounds for job in jobs], dtype=np.int64)
    inertias = [job.inertia for job in jobs]
    rngs = [job.rng for job in jobs]
    rounds = np.zeros(total, dtype=np.int64)
    owner = np.arange(total)
    seen: List[Optional[Dict[bytes, int]]] = [
        ({assign[g].tobytes(): 0} if job.inertia == 0.0 else None)
        for g, job in enumerate(jobs)
    ]
    allowed_m = _allowed_tensor([job.kernel for job in jobs])

    outcomes: List[Optional[SimultaneousOutcome]] = [None] * total

    def compact(keep):
        nonlocal owner, assign, mass, powers, rewards, limits, inertias, rngs
        nonlocal rounds, seen, allowed_m
        sel = np.flatnonzero(keep)
        owner, assign, mass = owner[keep], assign[keep], mass[keep]
        powers, rewards = powers[keep], rewards[keep]
        limits, rounds = limits[keep], rounds[keep]
        inertias = [inertias[i] for i in sel]
        rngs = [rngs[i] for i in sel]
        seen = [seen[i] for i in sel]
        if allowed_m is not None:
            allowed_m = allowed_m[keep]

    while owner.size:
        targets = _best_response(rewards, mass, assign, powers, allowed_m, exact)
        has_move = targets >= 0

        # Round budget: the scalar loop simply stops after max_rounds
        # and reports stability of the final state.
        exhausted = rounds >= limits
        if exhausted.any():
            for gi in np.flatnonzero(exhausted):
                outcomes[owner[gi]] = SimultaneousOutcome(
                    int(rounds[gi]),
                    not has_move[gi].any(),
                    None,
                    tuple(assign[gi].tolist()),
                )
            keep = ~exhausted
            if not keep.any():
                break
            compact(keep)
            targets, has_move = targets[keep], has_move[keep]

        g = owner.size
        movers = has_move.copy()
        for gi in range(g):
            p = inertias[gi]
            if p > 0.0:
                gen = rngs[gi]
                for i in np.flatnonzero(has_move[gi]):
                    if gen.random() < p:
                        movers[gi, i] = False

        idle = ~has_move.any(axis=1)
        if idle.any():
            for gi in np.flatnonzero(idle):
                outcomes[owner[gi]] = SimultaneousOutcome(
                    int(rounds[gi]), True, None, tuple(assign[gi].tolist())
                )
            keep = ~idle
            if not keep.any():
                break
            compact(keep)
            targets, movers = targets[keep], movers[keep]
            g = owner.size

        # All targets were evaluated against the pre-round state; the
        # batched assignment update realizes the simultaneous jump.
        assign = np.where(movers, targets, assign)
        mass = np.zeros((g, k), dtype=np.int64)
        np.add.at(mass, (np.arange(g)[:, None], assign), powers)
        rounds += 1

        cycled = np.zeros(g, dtype=bool)
        for gi in range(g):
            history = seen[gi]
            if history is None:
                continue
            key = assign[gi].tobytes()
            previous = history.get(key)
            if previous is not None:
                cycled[gi] = True
                outcomes[owner[gi]] = SimultaneousOutcome(
                    int(rounds[gi]), False, previous, tuple(assign[gi].tolist())
                )
            else:
                history[key] = int(rounds[gi])
        if cycled.any():
            keep = ~cycled
            if not keep.any():
                break
            compact(keep)
    return outcomes  # type: ignore[return-value]
