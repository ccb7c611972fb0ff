"""Tier-1 guard for the benchmark's traced run (``perfbench/``).

``perfbench/tracer.py`` wraps library functions by their module paths
(``BatchRunner.run``, ``NoisyBatchRunner.run``, ``measure_convergence``,
…). Renaming or deleting one makes ``Tracer.install()`` raise, and
moving a call off a wrapped path makes that layer's metric read zero.
One traced ``sweep-grid`` repetition, run in-process the way
``perfbench/worker.py`` runs it, catches both.
"""

from __future__ import annotations

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    return tracer, workloads


def test_traced_sweep_grid_repetition_binds_every_layer(perfbench_modules, tmp_path):
    from repro.obs import MetricsRecorder, observe

    tracing, workloads = perfbench_modules
    workload = workloads.WORKLOADS["sweep-grid"](workloads.DEFAULT_SEED, str(tmp_path / "sweep"))
    recorder = MetricsRecorder()
    spans = tracing.Tracer("tier-1", recorder)
    spans.install()
    try:
        with observe(recorder):
            workload.rep(spans.span)
    finally:
        spans.uninstall()
        workload.cleanup()

    assert tracing.integrity_problems(spans, recorder.counters) == []
    metrics = tracing.layer_metrics(spans, recorder.counters)
    for name in ("batch.runner_run_s", "noisy.run_s", "analysis.measure_convergence_s"):
        assert metrics[name] > 0, name


def test_every_workload_builds_and_exact_analysis_audits_clean(perfbench_modules, tmp_path):
    """``ExactAnalysis`` is the only benchmark user of
    ``RestrictedGame.by_algorithm``; one repetition must audit clean."""
    _, workloads = perfbench_modules
    built = {
        name: factory(workloads.DEFAULT_SEED, str(tmp_path / name))
        for name, factory in workloads.WORKLOADS.items()
    }
    assert set(built) == {"population", "sweep-grid", "exact-analysis"}
    exact = built["exact-analysis"]
    try:
        audit = exact.audit(exact.rep())
    finally:
        for workload in built.values():
            workload.cleanup()
    assert audit.failed == 0, audit.problems
    assert audit.attempted > 0
