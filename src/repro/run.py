"""The batch API: ``RunSpec`` → :func:`run_many`.

Every multi-seed workload in the library — E2 convergence sweeps, E9
learning-speed grids, E13 basin sampling, E15 noisy-budget sweeps — is
a list of independent *cells*: "run this game ``runs`` times with this
strategy (or this noisy engine) from seeded random starts". Callers
describe the *semantics* as :class:`RunSpec` cells and pick an executor
— or leave ``"auto"`` and let the library pick the fastest mechanism
that preserves bit-identical results. :func:`repro.sweep.run_sweep`
layers caching and sharding on top.

Executor modes
--------------
``"serial"``
    One in-process loop; the reference semantics.
``"thread"`` / ``"process"``
    :mod:`concurrent.futures` pools (:mod:`repro.kernel.batch`).
    Identical results (all per-run RNG streams are pre-spawned).
``"vectorized"``
    The tensor population kernel (:mod:`repro.kernel.tensor`). All
    vectorizable trajectory cells across the *whole* cell list are
    packed into one population call, so same-shape cells share lockstep
    array steps even across cells. Requires the ``"fast"`` backend and
    standard policies/schedulers; noisy cells run the lockstep
    population stepper. Identical results.
``"auto"``
    Vectorizable trajectory cells go to the tensor kernel; everything
    else runs serially, or on a process pool for large cells on
    multi-core hosts.

Seeding: each cell may carry an explicit ``seed``; cells that don't are
assigned children of ``run_many``'s root ``seed_sequence(seed)`` in
cell order, so appending cells never changes earlier cells' randomness.
Within a cell the per-run scheme is the library-wide convention (stream
``2i`` draws run *i*'s start, stream ``2i+1`` drives its engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.game import Game
from repro.learning.view import check_backend
from repro.obs.log import get_logger
from repro.obs.recorder import get_recorder
from repro.util.rng import seed_sequence

__all__ = ["RunSpec", "run_many", "EXECUTORS"]

logger = get_logger("run")

#: Executor modes :func:`run_many` accepts.
EXECUTORS = ("auto", "serial", "thread", "process", "vectorized")

SeedLike = Union[None, int, np.random.SeedSequence]


@dataclass(frozen=True)
class RunSpec:
    """One batch cell: a game, a repetition count, and the semantics.

    ``kind="trajectory"`` cells run better-response learning from
    random starts and yield :class:`~repro.kernel.batch.TrajectorySummary`
    records; ``kind="noisy"`` cells run the sample-based noisy learner
    (optionally a configured
    :class:`~repro.stochastic.noisy_engine.NoisyLearningEngine` via
    ``engine``) and yield
    :class:`~repro.stochastic.noisy_engine.NoisyRunResult` records;
    ``kind="classes"`` cells run the population-compressed class
    stepper (:mod:`repro.kernel.classes`) from seeded multinomial
    random starts and yield
    :class:`~repro.kernel.classes.ClassRunResult` records — ``game``
    may be a :class:`~repro.kernel.classes.ClassGame` directly (for
    populations far beyond per-miner reach) or a per-miner game to
    compress, ``policy``/``scheduler`` are the class-symmetric mode
    *names* (strings), and the route is inherently vectorized: the
    count matrix advances whole classes per step, so the executor knob
    changes nothing.

    ``seed`` pins this cell's root seed explicitly; ``None`` (default)
    derives it from :func:`run_many`'s root, in cell order. A masked
    ``game`` restricts every run to its allowed coins, starts included;
    noisy cells reject one. ``label`` is carried through untouched for callers that need to
    re-identify cells in the flat result list.

    ``stream=True`` (trajectory cells only) opts into the streaming
    aggregate: the cell's result is a single
    :class:`~repro.kernel.batch.CellStats` — per-run step counts,
    converged tally, final-state census — folded inside the workers,
    instead of a list of per-run summaries. Step counts and seeding are
    identical; grid-scale sweeps stop allocating and shipping records
    nobody reads individually.
    """

    game: Game
    runs: int
    kind: str = "trajectory"
    policy: Any = None
    scheduler: Any = None
    max_steps: Optional[int] = None
    backend: str = "fast"
    engine: Any = None
    seed: SeedLike = None
    label: Optional[str] = None
    stream: bool = False

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError(f"runs must be ≥ 1, got {self.runs}")
        if self.kind not in ("trajectory", "noisy", "classes"):
            raise ValueError(
                f"kind must be 'trajectory', 'noisy' or 'classes', got {self.kind!r}"
            )
        check_backend(self.backend)
        if self.kind == "noisy" and (self.policy is not None or self.scheduler is not None):
            raise ValueError("noisy cells take an engine, not a policy/scheduler")
        if self.kind in ("trajectory", "classes") and self.engine is not None:
            raise ValueError(f"{self.kind} cells take a policy/scheduler, not an engine")
        if self.stream and self.kind != "trajectory":
            raise ValueError(
                f"stream=True applies to trajectory cells only, got kind={self.kind!r}"
            )
        if self.kind == "classes":
            for role, value in (("policy", self.policy), ("scheduler", self.scheduler)):
                if value is not None and not isinstance(value, str):
                    raise ValueError(
                        f"classes cells take class-symmetric {role} *names* "
                        f"(strings), got {value!r}"
                    )

    def _root(self, fallback: np.random.SeedSequence) -> np.random.SeedSequence:
        return fallback if self.seed is None else seed_sequence(self.seed)


def _is_vectorizable(cell: RunSpec) -> bool:
    from repro.kernel.tensor import policy_kind, scheduler_kind

    if cell.kind != "trajectory" or cell.backend != "fast":
        return False
    return policy_kind(cell.policy) is not None and scheduler_kind(cell.scheduler) is not None


def run_many(
    cells: Sequence[RunSpec],
    *,
    executor: str = "auto",
    seed: SeedLike = None,
    max_workers: Optional[int] = None,
) -> List[Any]:
    """Execute every cell and return its result, in cell order.

    A cell's result is a list of per-run records, or a single
    :class:`~repro.kernel.batch.CellStats` aggregate for
    ``stream=True`` trajectory cells. The single batch entry point:
    callers pick a *semantics* (the cells) and an *executor*; the
    library guarantees the results are identical across every executor
    mode, so the choice is purely about speed. See the module
    docstring for the mode table.
    """
    cells = list(cells)
    if executor not in EXECUTORS:
        modes = ", ".join(repr(mode) for mode in EXECUTORS[:-1])
        raise ValueError(f"executor must be {modes} or {EXECUTORS[-1]!r}, got {executor!r}")
    if not cells:
        return []
    fallbacks = seed_sequence(seed).spawn(len(cells))
    roots = [cell._root(fallback) for cell, fallback in zip(cells, fallbacks)]

    recorder = get_recorder()
    observing = recorder.enabled
    logger.debug("run_many: %d cell(s) via executor=%r", len(cells), executor)
    results: List[Any] = [None] * len(cells)
    vector_positions: List[int] = []
    with recorder.timer("run_many"):
        for pos, cell in enumerate(cells):
            if cell.kind == "noisy":
                route = executor
                results[pos] = _run_noisy_cell(cell, roots[pos], executor, max_workers)
            elif cell.kind == "classes":
                # Population-compressed: the count matrix IS the
                # vectorization, so every executor takes this route.
                route = "classes"
                results[pos] = _run_classes_cell(cell, roots[pos])
            elif executor == "vectorized" or (executor == "auto" and _is_vectorizable(cell)):
                # Collect; all vectorizable cells share ONE population call.
                route = "vectorized"
                vector_positions.append(pos)
            else:
                route = executor
                results[pos] = _run_trajectory_cell(cell, roots[pos], executor, max_workers)
            if observing:
                recorder.count("run_many.cells." + route)
                recorder.event(
                    "run_many.cell",
                    index=pos,
                    kind=cell.kind,
                    runs=cell.runs,
                    route=route,
                    label=cell.label,
                )
        if vector_positions:
            for pos, cell_results in zip(
                vector_positions,
                _run_cells_vectorized(
                    [cells[p] for p in vector_positions],
                    [roots[p] for p in vector_positions],
                ),
            ):
                results[pos] = cell_results
    return results  # type: ignore[return-value]


def _run_trajectory_cell(
    cell: RunSpec, root: np.random.SeedSequence, executor: str, max_workers: Optional[int]
) -> Any:
    from repro.kernel.batch import BatchRunner

    with BatchRunner(
        backend=cell.backend,
        executor=executor,
        max_workers=max_workers,
        max_steps=cell.max_steps,
    ) as runner:
        return runner.run(
            cell.game,
            runs=cell.runs,
            policy=cell.policy,
            scheduler=cell.scheduler,
            seed=root,
            stream=cell.stream,
        )


def _run_classes_cell(cell: RunSpec, root: np.random.SeedSequence) -> List[Any]:
    from repro.kernel.classes import (
        ClassGame,
        ClassRunResult,
        DEFAULT_MAX_STEPS,
        run_class_better_response,
    )

    cgame = cell.game if isinstance(cell.game, ClassGame) else ClassGame.from_game(cell.game)
    policy = cell.policy if cell.policy is not None else "random-improving"
    scheduler = cell.scheduler if cell.scheduler is not None else "uniform"
    max_steps = cell.max_steps if cell.max_steps is not None else DEFAULT_MAX_STEPS
    streams = root.spawn(2 * cell.runs)
    results: List[Any] = []
    for index in range(cell.runs):
        # The library-wide seeding convention: stream 2i draws run i's
        # start, stream 2i+1 drives its stepper.
        counts = cgame.random_counts(seed=np.random.default_rng(streams[2 * index]))
        trajectory = run_class_better_response(
            cgame,
            counts,
            policy=policy,
            scheduler=scheduler,
            seed=np.random.default_rng(streams[2 * index + 1]),
            max_steps=max_steps,
            chunk=True,
            record="summary",
            raise_on_budget=False,
        )
        results.append(
            ClassRunResult(
                run_index=index,
                policy=policy,
                scheduler=scheduler,
                steps=trajectory.steps,
                moved=trajectory.moved,
                converged=trajectory.converged,
                final=trajectory.final,
            )
        )
    return results


def _run_noisy_cell(
    cell: RunSpec, root: np.random.SeedSequence, executor: str, max_workers: Optional[int]
) -> List[Any]:
    from repro.stochastic.noisy_engine import NoisyBatchRunner

    with NoisyBatchRunner(executor=executor, max_workers=max_workers) as runner:
        return runner.run(
            cell.game, replications=cell.runs, engine=cell.engine, seed=root
        )


def _run_cells_vectorized(
    cells: Sequence[RunSpec], roots: Sequence[np.random.SeedSequence]
) -> List[Any]:
    """All vectorizable trajectory cells through one population call.

    Jobs from every cell are concatenated and handed to
    :func:`~repro.kernel.tensor.run_trajectory_population` together, so
    cells with the same game shape and strategy land in the same
    lockstep bucket — cross-cell batching no per-cell runner offers.
    Each job still carries its own pre-spawned generator, so the
    results are bit-identical to the per-cell serial loops.
    """
    from repro.kernel.batch import build_vector_jobs, cell_result
    from repro.kernel.tensor import run_trajectory_population
    from repro.learning.policies import RandomImprovingPolicy
    from repro.learning.schedulers import UniformRandomScheduler

    all_jobs: List[Any] = []
    spans: List[Tuple[int, int]] = []
    kernels: List[Any] = []
    for cell, root in zip(cells, roots):
        streams = root.spawn(2 * cell.runs)
        seed_pairs = [(streams[2 * i], streams[2 * i + 1]) for i in range(cell.runs)]
        jobs, kernel = build_vector_jobs(
            cell.game,
            policy=cell.policy,
            scheduler=cell.scheduler,
            seed_pairs=seed_pairs,
            max_steps=cell.max_steps,
            backend=cell.backend,
        )
        spans.append((len(all_jobs), len(all_jobs) + len(jobs)))
        kernels.append(kernel)
        all_jobs.extend(jobs)
    recorder = get_recorder()
    if recorder.enabled:
        recorder.count("run_many.vectorized_jobs", len(all_jobs))
        recorder.event("run_many.pack", cells=len(cells), jobs=len(all_jobs))
    logger.debug(
        "run_many: packed %d cell(s) into one %d-job population", len(cells), len(all_jobs)
    )
    outcomes = run_trajectory_population(all_jobs)
    results: List[Any] = []
    for cell, (start, stop), kernel in zip(cells, spans, kernels):
        coin_names = kernel.coin_names
        records = [
            (
                outcome.steps,
                outcome.converged,
                tuple(coin_names[j] for j in outcome.final_assign),
            )
            for outcome in outcomes[start:stop]
        ]
        results.append(
            cell_result(
                records,
                (cell.policy if cell.policy is not None else RandomImprovingPolicy()).name,
                (cell.scheduler if cell.scheduler is not None else UniformRandomScheduler()).name,
                stream=cell.stream,
            )
        )
    return results
