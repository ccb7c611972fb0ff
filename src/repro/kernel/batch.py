"""The pool helpers and per-run records behind :func:`repro.run_many`.

Multi-seed experiments (E2 convergence sweeps, E9 learning-speed grids,
E13 basin sampling) are embarrassingly parallel: every trajectory is an
independent ``(game, policy, scheduler, seed)`` cell. :func:`repro.run_many`
is the public entry point; this module holds what it runs on — the
:class:`PooledRunner` plumbing over :mod:`concurrent.futures`, the
scalar :class:`BatchRunner` pool helper, the tensor-kernel job builder
:func:`build_vector_jobs`, and the picklable :class:`TrajectorySummary` /
:class:`CellStats` results.

Determinism is scheduler-independent by construction: all per-run RNG
streams are spawned *up front* from one root ``SeedSequence`` — the
same scheme :func:`repro.util.rng.spawn_rngs` uses — so the summaries
are identical whether the batch runs serially, on threads, or across
processes, and identical to a plain loop over
:class:`~repro.learning.engine.LearningEngine` with the same seed.
Workers drive the unified view-based trajectory loop, so batched
*custom* policies/schedulers get the integer kernel too.
"""

from __future__ import annotations

import copy
import os
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from pickle import PicklingError
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.learning.view import check_backend
from repro.obs.log import get_logger
from repro.obs.recorder import get_recorder
from repro.util.rng import seed_sequence

logger = get_logger("kernel.batch")

#: Below this many runs a process pool costs more than it saves.
_AUTO_PROCESS_THRESHOLD = 32


class PooledRunner:
    """Shared executor plumbing for chunked batch runners.

    Subclasses declare ``executor`` / ``max_workers`` fields, call
    :meth:`_init_pool` and :meth:`_validate_pool_args` during init, and
    hand :meth:`_execute_chunked` a picklable module-level worker. The
    plumbing — lazy pool reuse across calls, the ``auto`` mode switch,
    and the degrade-quietly fallback for transport failures — then
    behaves identically for every runner built on it
    (:class:`BatchRunner` here,
    :class:`~repro.stochastic.noisy_engine.NoisyBatchRunner` in the
    stochastic layer).
    """

    #: ``auto`` uses a process pool from this many items upward.
    auto_process_threshold: int = _AUTO_PROCESS_THRESHOLD

    #: Executor modes this runner accepts; subclasses with a batched
    #: fast path extend this with ``"vectorized"``.
    pool_modes: Tuple[str, ...] = ("auto", "serial", "thread", "process")

    executor: str
    max_workers: Optional[int]

    def _init_pool(self) -> None:
        self._pool = None
        self._pool_key = None

    def _validate_pool_args(self) -> None:
        if self.executor not in self.pool_modes:
            expected = ", ".join(repr(mode) for mode in self.pool_modes[:-1])
            raise ValueError(
                f"executor must be {expected} or {self.pool_modes[-1]!r}, "
                f"got {self.executor!r}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {self.max_workers}")

    def _mode(self, items: int) -> str:
        if self.executor != "auto":
            return self.executor
        cores = os.cpu_count() or 1
        if items >= self.auto_process_threshold and cores >= 2:
            return "process"
        return "serial"

    def _get_pool(self, mode: str, workers: int):
        key = (mode, workers)
        if self._pool is None or self._pool_key != key:
            self.close()
            pool_cls = ProcessPoolExecutor if mode == "process" else ThreadPoolExecutor
            self._pool = pool_cls(max_workers=workers)
            self._pool_key = key
        return self._pool

    def close(self) -> None:
        """Shut down the reused worker pool (if one was created)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._pool_key = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _execute_chunked(self, worker, serial_payload, make_chunks, items: int):
        """Map *worker* over per-worker chunks, degrading to one serial call.

        ``make_chunks(chunk_size)`` builds the payload list;
        ``worker(serial_payload)`` must be equivalent to the
        concatenated chunk results (the pre-spawned-stream seeding
        discipline guarantees it for every runner here).
        """
        mode = self._mode(items)
        if mode == "serial":
            return worker(serial_payload)
        workers = self.max_workers or os.cpu_count() or 1
        workers = min(workers, items)
        chunks = make_chunks(-(-items // workers))
        recorder = get_recorder()
        if recorder.enabled:
            recorder.event(
                "pool.map",
                runner=type(self).__name__,
                mode=mode,
                workers=workers,
                chunks=len(chunks),
                items=items,
            )
        try:
            pool = self._get_pool(mode, workers)
            parts = list(pool.map(worker, chunks))
        except (OSError, BrokenExecutor, PicklingError, AttributeError, TypeError) as error:
            # Environment/transport failures (sandboxes without
            # fork/semaphores; unpicklable payloads, which surface as
            # PicklingError/AttributeError/TypeError from the pickler):
            # the serial result is identical by construction, so
            # degrade quietly. Exceptions raised *inside* a task
            # propagate — from the serial rerun if caught here.
            self.close()
            if recorder.enabled:
                recorder.count("pool.degradations")
                recorder.event(
                    "pool.degraded",
                    runner=type(self).__name__,
                    mode=mode,
                    error=type(error).__name__,
                )
            logger.warning(
                "%s: %s executor unavailable (%s); running serially",
                type(self).__name__,
                mode,
                type(error).__name__,
            )
            warnings.warn(
                f"{type(self).__name__}: {mode} executor unavailable "
                f"({type(error).__name__}: {error}); running serially",
                RuntimeWarning,
                stacklevel=3,
            )
            return worker(serial_payload)
        flat = []
        for part in parts:
            flat.extend(part)
        return flat


@dataclass(frozen=True)
class TrajectorySummary:
    """Picklable outcome of one batched learning run."""

    run_index: int
    policy_name: str
    scheduler_name: str
    steps: int
    converged: bool
    #: Final coin name per miner, in ``game.miners`` order.
    final_coins: Tuple[str, ...]

    def final_configuration(self, game: Game) -> Configuration:
        """Materialize the final configuration against *game*."""
        return game.configuration(self.final_coins)


#: One run's outcome as the batch paths produce it:
#: ``(steps, converged, final coin name per miner)``.
RunRecord = Tuple[int, bool, Tuple[str, ...]]


@dataclass(frozen=True)
class CellStats:
    """Streamed aggregate of one batch cell: counts and final states only.

    The opt-in alternative to a list of per-run
    :class:`TrajectorySummary` records (``RunSpec(stream=True)``):
    per-run step counts, the converged tally and a final-state census,
    folded inside the worker, so a grid cell ships one small picklable object across the pool
    instead of ``runs`` records nobody reads individually. ``steps``
    stays per-run (in run-index order) so downstream statistics —
    mean/median/max, :func:`~repro.analysis.convergence.stats_from_steps`
    — are exactly the values the summary list would have produced.
    """

    runs: int
    policy_name: str
    scheduler_name: str
    #: Per-run step counts, in run-index order.
    steps: Tuple[int, ...]
    #: How many runs reached a stable configuration.
    converged: int
    #: Final-state census: ``((coin name per miner, ...), count)``
    #: pairs, sorted for a canonical (hashable, serializable) order.
    finals: Tuple[Tuple[Tuple[str, ...], int], ...]

    @property
    def mean_steps(self) -> float:
        return sum(self.steps) / len(self.steps)

    def final_counts(self) -> Dict[Tuple[str, ...], int]:
        """The census as a dict: final coin tuple → number of runs."""
        return dict(self.finals)

    @classmethod
    def fold(
        cls,
        records: Sequence[RunRecord],
        policy_name: str,
        scheduler_name: str,
    ) -> "CellStats":
        """Fold per-run ``(steps, converged, final_coins)`` records, in run order."""
        finals: Dict[Tuple[str, ...], int] = {}
        for _, _, final_coins in records:
            finals[final_coins] = finals.get(final_coins, 0) + 1
        return cls(
            runs=len(records),
            policy_name=policy_name,
            scheduler_name=scheduler_name,
            steps=tuple(steps for steps, _, _ in records),
            converged=sum(1 for _, converged, _ in records if converged),
            finals=tuple(sorted(finals.items())),
        )

    @staticmethod
    def merge(parts: Sequence["CellStats"]) -> "CellStats":
        """Concatenate partial aggregates from ordered contiguous chunks."""
        if len(parts) == 1:
            return parts[0]
        steps: List[int] = []
        finals: Dict[Tuple[str, ...], int] = {}
        runs = 0
        converged = 0
        for part in parts:
            runs += part.runs
            converged += part.converged
            steps.extend(part.steps)
            for key, count in part.finals:
                finals[key] = finals.get(key, 0) + count
        return CellStats(
            runs=runs,
            policy_name=parts[0].policy_name,
            scheduler_name=parts[0].scheduler_name,
            steps=tuple(steps),
            converged=converged,
            finals=tuple(sorted(finals.items())),
        )


def cell_result(
    records: Sequence[RunRecord],
    policy_name: str,
    scheduler_name: str,
    *,
    stream: bool,
    first_index: int = 0,
) -> Any:
    """A cell's result from its per-run records.

    A :class:`CellStats` fold when *stream* is set, else one
    :class:`TrajectorySummary` per record, numbered from *first_index*.
    """
    if stream:
        return CellStats.fold(records, policy_name, scheduler_name)
    return [
        TrajectorySummary(
            run_index=first_index + offset,
            policy_name=policy_name,
            scheduler_name=scheduler_name,
            steps=steps,
            converged=converged,
            final_coins=final_coins,
        )
        for offset, (steps, converged, final_coins) in enumerate(records)
    ]


def _run_chunk(payload: Tuple[Any, ...]) -> List[Any]:
    """Worker: run a contiguous chunk of trajectories for one game.

    Module-level (and importing lazily) so process pools can pickle it
    without pulling the engine into the kernel's import graph. Runs in
    ``record="summary"`` streaming mode: a summary keeps counts and the
    final state only, so no per-step history is allocated just to be
    thrown away. With ``stream`` set the chunk folds even the per-run
    records away and returns a one-element list holding a partial
    :class:`CellStats` (merged across chunks by the caller).
    """
    from repro.core.factories import random_configuration
    from repro.kernel.core import KernelGame
    from repro.learning.engine import LearningEngine

    (
        game,
        policy,
        scheduler,
        backend,
        max_steps,
        first_index,
        seed_pairs,
        stream,
    ) = payload
    # Chunks may run concurrently on threads; stateful strategies (e.g.
    # RoundRobinScheduler's cursor) must not be shared across them.
    policy = copy.deepcopy(policy)
    scheduler = copy.deepcopy(scheduler)
    engine_kwargs = {} if max_steps is None else {"max_steps": max_steps}
    engine = LearningEngine(
        policy=policy,
        scheduler=scheduler,
        record="summary",
        backend=backend,
        **engine_kwargs,
    )
    # One KernelGame per chunk: every run of the chunk plays the same game.
    kernel = KernelGame(game) if backend == "fast" else None
    records: List[RunRecord] = []
    assert engine.policy is not None and engine.scheduler is not None
    for start_seed, run_seed in seed_pairs:
        start = random_configuration(game, seed=np.random.default_rng(start_seed))
        trajectory = engine.run(
            game, start, seed=np.random.default_rng(run_seed), kernel=kernel
        )
        final = trajectory.final
        records.append(
            (
                trajectory.length,
                trajectory.converged,
                tuple(final.coin_of(miner).name for miner in game.miners),
            )
        )
    result = cell_result(
        records,
        engine.policy.name,
        engine.scheduler.name,
        stream=stream,
        first_index=first_index,
    )
    return [result] if stream else result


def build_vector_jobs(
    game: Game,
    *,
    policy=None,
    scheduler=None,
    seed_pairs: Sequence[Tuple[Any, Any]],
    max_steps: Optional[int] = None,
    backend: str = "fast",
    kernel=None,
):
    """Map one batch cell onto tensor-kernel jobs; returns ``(jobs, kernel)``.

    Start configurations are drawn exactly as :func:`_run_chunk` draws
    them (one generator per start stream, mask-aware on a masked game),
    and each job carries the generator of its run stream — so the
    population result is bit-identical to the scalar executors. Raises
    ``ValueError`` when the cell is not vectorizable (non-``"fast"``
    backend, or a custom policy/scheduler subclass, which must keep its
    override and therefore the scalar loop).
    """
    from repro.core.factories import random_configuration
    from repro.kernel.core import KernelGame
    from repro.kernel.tensor import TrajectoryJob, policy_kind, scheduler_kind
    from repro.learning.engine import DEFAULT_MAX_STEPS

    kinds = policy_kind(policy)
    scheduler_code = scheduler_kind(scheduler)
    if backend != "fast":
        reason = f"backend={backend!r}"
    elif kinds is None:
        reason = f"policy {type(policy).__name__!r}"
    elif scheduler_code is None:
        reason = f"scheduler {type(scheduler).__name__!r}"
    else:
        reason = None
    if reason is not None:
        raise ValueError(
            f"executor='vectorized' supports backend='fast' with the standard "
            f"policies and schedulers; {reason} needs 'serial', 'thread' or 'process'"
        )
    if kernel is None:
        kernel = KernelGame(game)
    budget = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    n_miners, n_coins = kernel.n_miners, kernel.n_coins
    jobs = []
    for start_seed, run_seed in seed_pairs:
        start_gen = np.random.default_rng(start_seed)
        if kernel.allowed is None:
            # Same single draw as random_configuration, minus the
            # Configuration round-trip (kernel coin order is game order).
            assign = start_gen.integers(0, n_coins, n_miners).tolist()
        else:
            assign = kernel.assignment_of(random_configuration(game, seed=start_gen))
        jobs.append(
            TrajectoryJob(
                kernel=kernel,
                assign=assign,
                rng=np.random.default_rng(run_seed),
                policy=kinds[0],
                scheduler=scheduler_code,
                epsilon=kinds[1],
                max_steps=budget,
            )
        )
    return jobs, kernel


@dataclass
class BatchRunner(PooledRunner):
    """Pool helper behind :func:`repro.run_many` for scalar trajectory cells.

    Parameters
    ----------
    backend:
        Numeric backend handed to every worker's engine (``"fast"`` or
        ``"exact"``).
    executor:
        ``"serial"``, ``"thread"``, ``"process"`` or ``"auto"``
        (processes for large batches on multi-core hosts, serial
        otherwise). Results are identical across all modes.
    max_workers:
        Worker count for the pooled modes (default: ``os.cpu_count()``).
    max_steps:
        Per-trajectory step budget (default: the engine's own
        ``DEFAULT_MAX_STEPS``).
    """

    backend: str = "fast"
    executor: str = "auto"
    max_workers: Optional[int] = None
    max_steps: Optional[int] = None

    def __post_init__(self) -> None:
        self._init_pool()
        check_backend(self.backend)
        self._validate_pool_args()

    def run(
        self,
        game: Game,
        *,
        runs: int,
        policy=None,
        scheduler=None,
        seed=None,
        stream: bool = False,
    ) -> Any:
        """*runs* trajectories from random starts, in run-index order.

        Stream ``2i`` draws run *i*'s start, stream ``2i+1`` drives its
        engine, all spawned from ``seed_sequence(seed)``. A masked
        game's starts are drawn mask-valid, identically across every
        executor mode. With ``stream=True`` the result is
        one :class:`CellStats` aggregate instead of a summary list.
        """
        if runs < 1:
            raise ValueError(f"runs must be ≥ 1, got {runs}")
        streams = seed_sequence(seed).spawn(2 * runs)
        seed_pairs = [(streams[2 * i], streams[2 * i + 1]) for i in range(runs)]

        def payload(first_index: int, pairs) -> Tuple[Any, ...]:
            return (
                game,
                policy,
                scheduler,
                self.backend,
                self.max_steps,
                first_index,
                pairs,
                stream,
            )

        def make_chunks(chunk_size: int):
            # One payload per worker: ship the game once per chunk.
            return [
                payload(start, seed_pairs[start : start + chunk_size])
                for start in range(0, runs, chunk_size)
            ]

        flat = self._execute_chunked(_run_chunk, payload(0, seed_pairs), make_chunks, runs)
        if stream:
            # One partial CellStats per contiguous chunk, in chunk order.
            return CellStats.merge(flat)
        return flat
