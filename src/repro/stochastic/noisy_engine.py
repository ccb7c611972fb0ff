"""Sample-based better-response learning with noisy payoff estimates.

The exact engines (:mod:`repro.learning.engine`) assume miners observe
expected payoffs; Theorem 1 then guarantees convergence to a pure
equilibrium. Real miners observe *sampled block wins*. This engine asks
whether the theorem's prediction survives that noise:

* at each activation a uniformly random miner (there is no exact
  stability oracle to schedule from — that is the point) estimates its
  payoff on every coin by running the integer block lottery for
  ``budget.rounds_at(t)`` rounds per coin, then moves to the estimated
  best coin if the *estimated* improvement is strict; state lives in
  the same incrementally maintained
  :class:`~repro.kernel.engine.KernelView` every exact dynamic uses
  (integer masses, O(1) per move);
* estimate comparisons are exact: ``wins_j · R[j] > wins_cur · R[cur]``
  in kernel-scaled integers (the round counts are equal), so noise
  enters only through the Binomial win counts, never through float
  arithmetic;
* optional ``inertia`` (probability of ignoring an improving estimate)
  and ``exploration`` (trembling-hand random move) model sluggish and
  restless miners;
* the run *settles* when ``patience`` consecutive activations produced
  no move — the only stopping rule available to an agent that cannot
  verify stability exactly. Whether the settled state actually is a
  pure equilibrium is recorded afterwards through the exact kernel
  check, which is what the risk layer's misconvergence metrics count.

Batches of replications go through :func:`repro.run_many` with
``RunSpec(kind="noisy")`` cells; :class:`NoisyBatchRunner` is its pool
helper, with the same pre-spawned-stream scheme as the trajectory
cells, so a fixed seed yields bit-identical results in serial,
threaded, multi-process and vectorized execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Union

import numpy as np

from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.exceptions import InvalidModelError
from repro.kernel.batch import PooledRunner
from repro.kernel.engine import KernelView
from repro.obs.recorder import get_recorder
from repro.stochastic.estimator import SampleBudget, as_budget
from repro.stochastic.lottery import sample_win_count
from repro.util.rng import RngLike, make_rng, seed_sequence


def _require_unmasked(game: Game) -> None:
    """Noisy learning samples every coin; refuse a masked game instead
    of running it unrestricted."""
    if game.allowed is not None:
        raise InvalidModelError(
            "noisy learning does not support allowed-coin masks; "
            "run it on an unmasked game"
        )


@dataclass(frozen=True)
class NoisyRunResult:
    """Picklable outcome of one noisy learning run."""

    run_index: int
    #: Final coin name per miner, in ``game.miners`` order.
    final_coins: Tuple[str, ...]
    #: Activations consumed (settled runs stop early).
    activations: int
    #: Coin switches actually applied.
    moves: int
    #: Whether ``patience`` quiet activations were reached in budget.
    settled: bool
    #: Exact kernel verdict on the final state (the misconvergence bit).
    reached_equilibrium: bool
    #: Total lottery rounds sampled across all estimates.
    rounds_sampled: int

    def final_configuration(self, game: Game) -> Configuration:
        """Materialize the final configuration against *game*."""
        return game.configuration(self.final_coins)


@dataclass
class NoisyLearningEngine:
    """A better-response learner that only sees sampled rewards.

    Parameters
    ----------
    budget:
        Lottery rounds per per-coin estimate at each activation — an
        ``int`` (fixed) or a :class:`~repro.stochastic.estimator`
        budget object (e.g. :class:`GeometricBudget`). Larger budgets
        mean sharper estimates; as the budget grows the dynamics
        converge to exact better response and Theorem 1 takes over.
    max_activations:
        Hard stop; runs that neither settle nor exhaust this budget do
        not exist (the loop always terminates).
    patience:
        Consecutive quiet activations before the run settles. ``None``
        (default) resolves to ``4·n_miners`` at run time, enough for
        every miner to be activated a few times in expectation.
    inertia:
        Probability of ignoring an improving estimate and staying put.
    exploration:
        Probability of a trembling-hand move to a uniformly random
        other coin, bypassing estimation entirely. Nonzero exploration
        keeps resetting the quiet counter, so settled runs become rare
        by design.
    """

    budget: Union[int, SampleBudget] = 64
    max_activations: int = 10_000
    patience: Optional[int] = None
    inertia: float = 0.0
    exploration: float = 0.0

    def __post_init__(self) -> None:
        as_budget(self.budget)  # validate eagerly
        if self.max_activations < 1:
            raise ValueError(
                f"max_activations must be ≥ 1, got {self.max_activations}"
            )
        if self.patience is not None and self.patience < 1:
            raise ValueError(f"patience must be ≥ 1, got {self.patience}")
        if not 0.0 <= self.inertia < 1.0:
            raise ValueError(f"inertia must be in [0, 1), got {self.inertia}")
        if not 0.0 <= self.exploration < 1.0:
            raise ValueError(f"exploration must be in [0, 1), got {self.exploration}")

    def run(
        self,
        game: Game,
        initial: Configuration,
        *,
        seed: RngLike = None,
        run_index: int = 0,
    ) -> NoisyRunResult:
        """Run noisy learning from *initial* until settled or out of budget."""
        _require_unmasked(game)
        game.validate_configuration(initial)
        rng = make_rng(seed)
        # The same incremental integer state every other dynamic runs
        # on: a KernelView maintains assign/mass in O(1) per move.
        view = KernelView(game, initial)
        kernel = view.kernel
        budget = as_budget(self.budget)
        patience = self.patience if self.patience is not None else 4 * kernel.n_miners

        assign = view.assign
        mass = view.mass
        powers = kernel.powers
        rewards = kernel.rewards
        n, k = kernel.n_miners, kernel.n_coins

        quiet = 0
        moves = 0
        rounds_sampled = 0
        activations = 0
        settled = False
        for t in range(self.max_activations):
            if quiet >= patience:
                settled = True
                break
            activations = t + 1
            i = int(rng.integers(0, n))
            cur = assign[i]
            power = powers[i]

            if self.exploration > 0.0 and k > 1 and rng.random() < self.exploration:
                target = int(rng.integers(0, k - 1))
                if target >= cur:
                    target += 1
                view.apply_index(i, target)
                moves += 1
                quiet = 0
                continue

            rounds = budget.rounds_at(t)
            wins_cur = sample_win_count(rng, power, mass[cur], rounds)
            rounds_sampled += rounds
            best = cur
            best_score = wins_cur * rewards[cur]
            for j in range(k):
                if j == cur:
                    continue
                wins_j = sample_win_count(rng, power, mass[j] + power, rounds)
                rounds_sampled += rounds
                score = wins_j * rewards[j]
                if score > best_score:
                    best = j
                    best_score = score
            if best == cur:
                quiet += 1
                continue
            if self.inertia > 0.0 and rng.random() < self.inertia:
                quiet += 1
                continue
            view.apply_index(i, best)
            moves += 1
            quiet = 0
        else:
            # Budget exhausted exactly as patience ran out still counts.
            settled = quiet >= patience

        coin_names = kernel.coin_names
        result = NoisyRunResult(
            run_index=run_index,
            final_coins=tuple(coin_names[j] for j in assign),
            activations=activations,
            moves=moves,
            settled=settled,
            reached_equilibrium=view.is_stable(),
            rounds_sampled=rounds_sampled,
        )
        recorder = get_recorder()
        if recorder.enabled:
            # Totals once per run, same contract as the trajectory engine.
            recorder.count("noisy.runs")
            recorder.count("noisy.activations", activations)
            recorder.count("noisy.moves", moves)
            recorder.count("noisy.rounds_sampled", rounds_sampled)
            if settled:
                recorder.count("noisy.settled")
        return result


def run_noisy_population(
    game: Game,
    engine: NoisyLearningEngine,
    seed_pairs: Sequence[Tuple[Any, Any]],
) -> List[NoisyRunResult]:
    """All replications in lockstep, with one batched final verdict.

    Replications are independent streams, so advancing them
    activation-major instead of replication-major changes no draw: each
    replication's generator is consumed in exactly the scalar order
    (activated-miner pick, optional exploration test, per-coin win
    counts, optional inertia test). State lives in shared
    ``(replications × miners)`` / ``(replications × coins)`` int64
    arrays, settled replications retire from the loop, and the final
    ``reached_equilibrium`` verdicts come from one batched
    :func:`~repro.kernel.tensor.stable_mask` call instead of a per-run
    scalar stability scan. Bit-identical to :meth:`NoisyLearningEngine.run`
    over the same streams.
    """
    from repro.core.factories import random_configuration
    from repro.kernel.core import KernelGame
    from repro.kernel.tensor import stable_mask
    from repro.stochastic.lottery import sample_win_count

    _require_unmasked(game)
    kernel = KernelGame(game)
    reps = len(seed_pairs)
    n, k = kernel.n_miners, kernel.n_coins
    budget = as_budget(engine.budget)
    patience = engine.patience if engine.patience is not None else 4 * n

    rngs: List[np.random.Generator] = []
    assign = np.empty((reps, n), dtype=np.int64)
    for r, (start_seed, run_seed) in enumerate(seed_pairs):
        start = random_configuration(game, seed=np.random.default_rng(start_seed))
        assign[r] = kernel.assignment_of(start)
        rngs.append(np.random.default_rng(run_seed))
    powers = np.asarray(kernel.powers, dtype=np.int64)
    mass = np.zeros((reps, k), dtype=np.int64)
    np.add.at(mass, (np.arange(reps)[:, None], assign), powers[None, :])

    quiet = np.zeros(reps, dtype=np.int64)
    moves = np.zeros(reps, dtype=np.int64)
    rounds_sampled = np.zeros(reps, dtype=np.int64)
    activations = np.zeros(reps, dtype=np.int64)
    settled = np.zeros(reps, dtype=bool)
    live = list(range(reps))
    for t in range(engine.max_activations):
        if not live:
            break
        rounds = budget.rounds_at(t)
        still = []
        for r in live:
            if quiet[r] >= patience:
                settled[r] = True
                continue
            still.append(r)
            rng = rngs[r]
            activations[r] = t + 1
            i = int(rng.integers(0, n))
            cur = int(assign[r, i])
            power = int(powers[i])

            if engine.exploration > 0.0 and k > 1 and rng.random() < engine.exploration:
                target = int(rng.integers(0, k - 1))
                if target >= cur:
                    target += 1
                mass[r, cur] -= power
                mass[r, target] += power
                assign[r, i] = target
                moves[r] += 1
                quiet[r] = 0
                continue

            wins_cur = sample_win_count(rng, power, int(mass[r, cur]), rounds)
            rounds_sampled[r] += rounds
            best = cur
            best_score = wins_cur * kernel.rewards[cur]
            for j in range(k):
                if j == cur:
                    continue
                wins_j = sample_win_count(rng, power, int(mass[r, j]) + power, rounds)
                rounds_sampled[r] += rounds
                score = wins_j * kernel.rewards[j]
                if score > best_score:
                    best = j
                    best_score = score
            if best == cur:
                quiet[r] += 1
                continue
            if engine.inertia > 0.0 and rng.random() < engine.inertia:
                quiet[r] += 1
                continue
            mass[r, cur] -= power
            mass[r, best] += power
            assign[r, i] = best
            moves[r] += 1
            quiet[r] = 0
        live = still
    else:
        # Budget exhausted exactly as patience ran out still counts.
        for r in live:
            settled[r] = quiet[r] >= patience

    stable = stable_mask(kernel, assign)
    coin_names = kernel.coin_names
    recorder = get_recorder()
    if recorder.enabled:
        # Same totals the scalar noisy loop emits per run, so counter
        # sums agree across executors.
        recorder.count("noisy.runs", reps)
        recorder.count("noisy.activations", int(activations.sum()))
        recorder.count("noisy.moves", int(moves.sum()))
        recorder.count("noisy.rounds_sampled", int(rounds_sampled.sum()))
        recorder.count("noisy.settled", int(np.count_nonzero(settled)))
    return [
        NoisyRunResult(
            run_index=r,
            final_coins=tuple(coin_names[j] for j in assign[r]),
            activations=int(activations[r]),
            moves=int(moves[r]),
            settled=bool(settled[r]),
            reached_equilibrium=bool(stable[r]),
            rounds_sampled=int(rounds_sampled[r]),
        )
        for r in range(reps)
    ]


def _run_noisy_chunk(payload: Tuple[Any, ...]) -> List[NoisyRunResult]:
    """Worker: run a contiguous chunk of noisy replications for one game.

    Module-level so process pools can pickle it; mirrors
    :func:`repro.kernel.batch._run_chunk`.
    """
    from repro.core.factories import random_configuration

    game, engine, first_index, seed_pairs = payload
    results: List[NoisyRunResult] = []
    for offset, (start_seed, run_seed) in enumerate(seed_pairs):
        start = random_configuration(game, seed=np.random.default_rng(start_seed))
        results.append(
            engine.run(
                game,
                start,
                seed=np.random.default_rng(run_seed),
                run_index=first_index + offset,
            )
        )
    return results


@dataclass
class NoisyBatchRunner(PooledRunner):
    """Pool helper behind :func:`repro.run_many` for noisy cells.

    Seeding matches :class:`repro.kernel.batch.BatchRunner`: stream
    ``2i`` draws replication *i*'s start, stream ``2i+1`` drives its
    engine, all spawned up front from one root seed — so
    the result list is identical whether the batch runs serially, on
    threads, or across processes. Pool management and the
    degrade-quietly fallback are the shared
    :class:`~repro.kernel.batch.PooledRunner` plumbing; noisy
    replications are heavier than exact trajectories, so ``auto``
    reaches for processes at a lower replication count.
    """

    executor: str = "auto"
    max_workers: Optional[int] = None
    auto_process_threshold = 16

    pool_modes = ("auto", "serial", "thread", "process", "vectorized")

    def __post_init__(self) -> None:
        self._init_pool()
        self._validate_pool_args()

    def run(
        self,
        game: Game,
        *,
        replications: int,
        engine: Optional[NoisyLearningEngine] = None,
        seed: Optional[Any] = None,
    ) -> List[NoisyRunResult]:
        """*replications* noisy runs from random starts, in index order.

        ``seed`` is read through :func:`~repro.util.rng.seed_sequence`.
        ``executor="vectorized"`` runs the replications through the
        lockstep population stepper (:func:`run_noisy_population`) —
        noisy draws are RNG-bound so the win is modest, but the final
        stability verdicts batch through the tensor kernel and the
        results are bit-identical.
        """
        if replications < 1:
            raise ValueError(f"replications must be ≥ 1, got {replications}")
        if engine is None:
            engine = NoisyLearningEngine()
        streams = seed_sequence(seed).spawn(2 * replications)
        seed_pairs = [(streams[2 * i], streams[2 * i + 1]) for i in range(replications)]

        if self.executor == "vectorized":
            return run_noisy_population(game, engine, seed_pairs)

        def make_chunks(chunk_size: int):
            return [
                (game, engine, start, seed_pairs[start : start + chunk_size])
                for start in range(0, replications, chunk_size)
            ]

        return self._execute_chunked(
            _run_noisy_chunk, (game, engine, 0, seed_pairs), make_chunks, replications
        )
