"""``repro.obs`` — zero-overhead instrumentation, tracing, manifests.

The library-wide observability layer every other subsystem emits into:

* :class:`Recorder` / :class:`NullRecorder` / :class:`MetricsRecorder`
  — the counter/timer/gauge/event protocol. The NullRecorder is the
  process-wide default; every hook site guards its work behind
  ``recorder.enabled``, so disabled observability costs nothing and
  changes nothing (bit-identical results, identical RNG consumption —
  ``tests/test_obs.py`` asserts both).
* :class:`TraceWriter` — structured JSONL event export.
* :class:`RunManifest` / :func:`environment_stamp` — the receipt of a
  run: args, seed, versions, git SHA, hostname, executor, per-phase
  wall time, counter totals.
* :func:`get_logger` / :func:`configure_logging` — the stdlib
  ``repro.*`` logger hierarchy (NullHandler by default).
* :func:`report` — the human-readable summary table.

What the built-in hook points count (all names are stable API):

=========================  ============================================
``engine.runs/steps/scans``    scalar *and* tensor trajectory loops —
                               totals match the returned trajectories'
                               lengths exactly, on every executor
``engine.converged``           runs that ended stable
``tensor.lane.<int|float|exact>``  arithmetic lane chosen per job
``tensor.buckets``             lockstep buckets formed
``tensor.compactions``         population compaction passes
``tensor.escalations.<f64|exact>`` float-screen escalations
``tensor.draws.<replayed|loop>``  uniform-scheduler and random-
                               improving picks, replayed over raw
                               words or one ``integers`` call each
``run_many.cells.<route>``     cells served per executor route
``pool.degradations``          worker pools that fell back to serial
``space.codes_visited``        ConfigSpace nodes scanned
``space.equilibria``           stable codes found
``stochastic.races``           lottery blocks raced
``stochastic.budget_rounds``   per-decision sample-budget draws
``noisy.activations/moves``    noisy-learner dynamics
``sweep.runs``                 ``run_sweep`` invocations
``sweep.cells``                cells this invocation was responsible for
``sweep.cache.<hits|misses|writes>``  content-addressed result cache
=========================  ============================================
"""

from repro.obs.log import configure_logging, get_logger
from repro.obs.manifest import RunManifest, environment_stamp
from repro.obs.recorder import (
    NULL_RECORDER,
    MetricsRecorder,
    NullRecorder,
    Recorder,
    get_recorder,
    observe,
    set_recorder,
)
from repro.obs.report import report
from repro.obs.trace import TraceWriter

__all__ = [
    "Recorder",
    "NullRecorder",
    "MetricsRecorder",
    "NULL_RECORDER",
    "get_recorder",
    "set_recorder",
    "observe",
    "TraceWriter",
    "RunManifest",
    "environment_stamp",
    "get_logger",
    "configure_logging",
    "report",
]
