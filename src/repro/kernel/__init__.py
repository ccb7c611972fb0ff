"""``repro.kernel`` — exact integer fast path and batched execution.

The kernel is the performance seam of the library:

* :class:`~repro.kernel.core.KernelGame` normalizes a game's powers and
  rewards to common integer denominators once, then answers every
  better-response / stability query with integer cross-multiplication —
  bit-for-bit the decisions of the :class:`fractions.Fraction` core
  with none of its per-comparison allocation.
* :class:`~repro.kernel.engine.KernelView` is the integer
  implementation of the strategy-view protocol
  (:class:`repro.learning.view.GameView`): the single trajectory loop
  in :mod:`repro.learning.engine` drives it when ``backend="fast"``
  (the default) — for standard *and* custom policies/schedulers alike,
  with per-coin integer masses maintained incrementally in O(1) per
  step.
* :class:`~repro.kernel.space.ConfigSpace` is the exact *enumeration*
  engine: base-``|C|`` integer configuration codes, numpy-blocked
  improving-move builders over the full graph or, when miners repeat a
  (power, mask) class, over class count matrices (one node per orbit),
  and a product-order odometer for per-node work — the backbone of
  ``enumerate_equilibria``, ``analyze_improvement_dag`` and the
  Proposition 1 refuter at ``backend="space"`` (their default).
* :mod:`repro.kernel.classes` compresses interchangeable miners —
  equal kernel-scaled power and equal allowed-coin set — into
  per-class *counts*: :class:`~repro.kernel.classes.ClassGame` holds a
  configuration as an integer count matrix,
  :func:`~repro.kernel.classes.run_class_better_response` moves whole
  chunks of a class per macro step with a closed-form maximal run
  length (millions of miners converge exactly in milliseconds). Stable
  count profiles orbit-expand bit-for-bit to the per-miner equilibrium
  sets of :class:`ConfigSpace`.
* :mod:`repro.kernel.batch` holds the pool helpers and per-run
  records (:class:`~repro.kernel.batch.TrajectorySummary`,
  :class:`~repro.kernel.batch.CellStats`) behind :func:`repro.run_many`,
  with per-run RNG streams spawned from one root seed, so results are
  identical in every executor mode.
* :mod:`repro.kernel.tensor` advances a whole *population* of same-shape
  games per numpy step (:func:`~repro.kernel.tensor.run_trajectory_population`,
  :func:`~repro.kernel.tensor.run_simultaneous_population`,
  :func:`~repro.kernel.tensor.stable_mask`), replicating the scalar
  :class:`KernelView` stepper bit-for-bit — same RNG stream consumption,
  same tie-breaks, same finals — via a three-lane arithmetic strategy
  (exact int64 / bracketed floats with exact fallback / whole-game
  scalar fallback, see :func:`~repro.kernel.tensor.kernel_lane`). Its
  bounded scheduler/policy draws replay numpy's sampler over pre-drawn
  raw words for all games at once (:mod:`repro.kernel.draws`).

Batches of trajectories go through :func:`repro.run_many`, which routes
:class:`~repro.run.RunSpec` cells to the right mechanism.
"""

# BatchRunner is run_many's private pool helper: importable, not exported.
from repro.kernel.batch import BatchRunner as BatchRunner
from repro.kernel.batch import TrajectorySummary, build_vector_jobs
from repro.kernel.classes import (
    ClassGame,
    ClassRunResult,
    ClassSimultaneousResult,
    ClassTrajectory,
    run_class_better_response,
    run_class_simultaneous,
)
from repro.kernel.core import KernelGame
from repro.kernel.engine import KernelView
from repro.kernel.space import ConfigSpace, DagReport
from repro.kernel.tensor import (
    TrajectoryJob,
    TrajectoryOutcome,
    kernel_lane,
    run_simultaneous_population,
    run_trajectory_population,
    stable_mask,
)

__all__ = [
    "ClassGame",
    "ClassRunResult",
    "ClassSimultaneousResult",
    "ClassTrajectory",
    "ConfigSpace",
    "DagReport",
    "KernelGame",
    "KernelView",
    "TrajectoryJob",
    "TrajectoryOutcome",
    "TrajectorySummary",
    "build_vector_jobs",
    "kernel_lane",
    "run_class_better_response",
    "run_class_simultaneous",
    "run_simultaneous_population",
    "run_trajectory_population",
    "stable_mask",
]
