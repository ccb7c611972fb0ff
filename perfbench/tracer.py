"""Layer-attributed spans for the traced run, recorded from outside.

The program is not edited: :class:`Tracer` swaps the public functions
listed in :data:`TARGETS` for wrappers that record a span (name, start,
end, parent) per call, at *every* attribute a caller resolves them
through — ``from x import f`` copies the function into the importing
module at import time, so each such binding is replaced too. Counts come
from ``repro.obs.MetricsRecorder``; :func:`layer_metrics` turns one
traced repetition's spans and counters into the per-layer metrics.

A span's self time is its duration minus the time its child spans
cover; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (module, attribute path, span name). ``None`` as the span name counts
#: calls without a span (for constructors called thousands of times).
TARGETS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("repro.run", "run_many", "run.run_many"),
    ("repro.kernel.tensor", "run_trajectory_population", "kernel.tensor.run_trajectory_population"),
    ("repro.kernel.batch", "build_vector_jobs", "kernel.batch.build_vector_jobs"),
    ("repro.kernel.batch", "BatchRunner.run", "kernel.batch.BatchRunner.run"),
    ("repro.kernel.core", "KernelGame.__init__", None),
    ("repro.sweep.runner", "run_sweep", "sweep.run_sweep"),
    ("repro.sweep.runner", "merge_sweep", "sweep.merge_sweep"),
    ("repro.sweep.grid", "SweepCell.cache_key", "sweep.SweepCell.cache_key"),
    ("repro.sweep.cache", "ResultCache.load", "sweep.ResultCache.load"),
    ("repro.sweep.cache", "ResultCache.store", "sweep.ResultCache.store"),
    ("repro.io", "write_json_atomic", "io.write_json_atomic"),
    ("repro.stochastic.noisy_engine", "NoisyBatchRunner.run", "stochastic.NoisyBatchRunner.run"),
    ("repro.analysis.convergence", "measure_convergence", "analysis.measure_convergence"),
    ("repro.analysis.classes", "measure_class_convergence", "analysis.measure_class_convergence"),
    ("repro.analysis.classes", "class_basin_profile", "analysis.class_basin_profile"),
    ("repro.kernel.classes", "run_class_better_response", "kernel.classes.run_class_better_response"),
    ("repro.kernel.classes", "ClassGame.orbit_size", "kernel.classes.ClassGame.orbit_size"),
    ("repro.kernel.classes", "ClassGame.stable_profiles", "kernel.classes.ClassGame.stable_profiles"),
    ("repro.kernel.space", "ConfigSpace.stable_codes", "kernel.space.ConfigSpace.stable_codes"),
    ("repro.kernel.space", "ConfigSpace.dag_report", "kernel.space.ConfigSpace.dag_report"),
)

#: Per-layer metrics, by layer, with units. The order is the report order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("tensor.population_s", "s"),
    ("tensor.steps", "count"),
    ("tensor.steps_per_s", "1/s"),
    ("tensor.buckets", "count"),
    ("tensor.compactions", "count"),
    ("tensor.escalations", "count"),
    ("batch.build_vector_jobs_s", "s"),
    ("batch.runner_run_s", "s"),
    ("batch.kernel_games_built", "count"),
    ("engine.runs", "count"),
    ("engine.steps", "count"),
    ("engine.scans", "count"),
    ("engine.scans_per_step", "ratio"),
    ("run.run_many_self_s", "s"),
    ("run.calls", "count"),
    ("sweep.cold_s", "s"),
    ("sweep.warm_s", "s"),
    ("sweep.merge_s", "s"),
    ("sweep.cache_key_s", "s"),
    ("sweep.cache_load_s", "s"),
    ("sweep.cache_store_s", "s"),
    ("sweep.cache.hits", "count"),
    ("sweep.cache.misses", "count"),
    ("sweep.cache.writes", "count"),
    ("sweep.hit_ratio", "ratio"),
    ("sweep.cell_p50_ms", "ms"),
    ("sweep.cell_p90_ms", "ms"),
    ("io.atomic_writes", "count"),
    ("io.write_s", "s"),
    ("io.bytes_written", "B"),
    ("noisy.runs", "count"),
    ("noisy.activations", "count"),
    ("noisy.moves", "count"),
    ("noisy.moves_per_activation", "ratio"),
    ("noisy.run_s", "s"),
    ("analysis.measure_convergence_s", "s"),
    ("analysis.basin_profile_s", "s"),
    ("classes.stepper_s", "s"),
    ("classes.steps", "count"),
    ("classes.moves", "count"),
    ("classes.moves_per_step", "ratio"),
    ("classes.orbit_s", "s"),
    ("classes.orbit_calls", "count"),
    ("classes.stable_profiles_s", "s"),
    ("space.stable_codes_s", "s"),
    ("space.dag_report_s", "s"),
    ("space.codes_visited", "count"),
    ("space.codes_per_s", "1/s"),
    ("space.equilibria", "count"),
    ("obs.trace_overhead_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """In-memory spans of one traced repetition, sharing one run id."""

    def __init__(self, run_id: str, recorder: Any) -> None:
        self.run_id = run_id
        self.recorder = recorder
        #: [name, start, end, parent index]
        self.spans: List[List[Any]] = []
        self.calls: Counter = Counter()
        #: engine.steps counted inside the tensor kernel's spans.
        self.tensor_steps = 0
        #: Trajectory steps returned through run_many.
        self.returned_steps = 0
        self.bytes_written = 0
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [name, perf_counter(), 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    # -- wrappers ------------------------------------------------------

    def _after(self, name: str, result: Any) -> None:
        if name == "run.run_many":
            from repro.kernel.batch import CellStats, TrajectorySummary

            for cell in result:
                if isinstance(cell, CellStats):
                    self.returned_steps += sum(cell.steps)
                else:
                    self.returned_steps += sum(
                        r.steps for r in cell if isinstance(r, TrajectorySummary)
                    )
        elif name == "io.write_json_atomic":
            self.bytes_written += os.path.getsize(result)

    def _wrap(self, name: Optional[str], label: str, fn: Callable) -> Callable:
        tracer = self
        calls = self.calls
        if name is None:

            def counted(*args: Any, **kwargs: Any) -> Any:
                calls[label] += 1
                return fn(*args, **kwargs)

            return functools.update_wrapper(counted, fn)

        watch_steps = name == "kernel.tensor.run_trajectory_population"
        counters = self.recorder.counters

        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            if watch_steps:
                before = counters.get("engine.steps", 0)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if watch_steps:
                tracer.tensor_steps += counters.get("engine.steps", 0) - before
            tracer._after(name, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        for module_name, path, name in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr] if parents else getattr(owner, attr)
            wrapper = self._wrap(name, f"{module_name}.{path}", original)
            if parents:
                self._patch(owner, attr, wrapper)
                continue
            # Every module-level binding of the function, wherever a
            # ``from ... import`` copied it.
            for module in list(sys.modules.values()):
                if module is None or not module.__name__.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def self_times(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def _has_ancestor(self, index: int, prefix: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0].startswith(prefix):
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: str, rep: int) -> None:
        """Append this repetition's spans to a JSONL file."""
        selfs = self.self_times()
        with open(path, "a", encoding="utf-8") as handle:
            for index, ((name, start, end, parent), own) in enumerate(zip(self.spans, selfs)):
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "rep": rep,
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "self": own,
                        }
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, counters: Dict[str, int]) -> Dict[str, float]:
    """One traced repetition's per-layer metrics (trace overhead aside)."""
    selfs = tracer.self_times()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    for (name, start, end, _), own in zip(tracer.spans, selfs):
        self_s[name] += own
        total_s[name] += end - start
    cells_ms = sorted(
        (end - start) * 1e3
        for index, (name, start, end, _) in enumerate(tracer.spans)
        if name == "run.run_many" and tracer._has_ancestor(index, "bench.sweep_cold/")
    )

    def phase_s(phase: str) -> float:
        """Whole time of one phase: the spans of all its operations."""
        return sum(t for name, t in total_s.items() if name.startswith(f"bench.{phase}/"))

    count = counters.get
    hits, misses = count("sweep.cache.hits", 0), count("sweep.cache.misses", 0)
    engine_steps = count("engine.steps", 0)
    tensor_s = self_s["kernel.tensor.run_trajectory_population"]
    space_s = self_s["kernel.space.ConfigSpace.stable_codes"] + self_s["kernel.space.ConfigSpace.dag_report"]
    return {
        "tensor.population_s": tensor_s,
        "tensor.steps": tracer.tensor_steps,
        "tensor.steps_per_s": _ratio(tracer.tensor_steps, tensor_s),
        "tensor.buckets": count("tensor.buckets", 0),
        "tensor.compactions": count("tensor.compactions", 0),
        "tensor.escalations": count("tensor.escalations.f64", 0) + count("tensor.escalations.exact", 0),
        "batch.build_vector_jobs_s": self_s["kernel.batch.build_vector_jobs"],
        "batch.runner_run_s": self_s["kernel.batch.BatchRunner.run"],
        "batch.kernel_games_built": tracer.calls["repro.kernel.core.KernelGame.__init__"],
        "engine.runs": count("engine.runs", 0),
        "engine.steps": engine_steps,
        "engine.scans": count("engine.scans", 0),
        "engine.scans_per_step": _ratio(count("engine.scans", 0), engine_steps),
        "run.run_many_self_s": self_s["run.run_many"],
        "run.calls": tracer.calls["run.run_many"],
        "sweep.cold_s": phase_s("sweep_cold"),
        "sweep.warm_s": phase_s("sweep_warm"),
        "sweep.merge_s": phase_s("sweep_merge"),
        "sweep.cache_key_s": self_s["sweep.SweepCell.cache_key"],
        "sweep.cache_load_s": self_s["sweep.ResultCache.load"],
        "sweep.cache_store_s": self_s["sweep.ResultCache.store"],
        "sweep.cache.hits": hits,
        "sweep.cache.misses": misses,
        "sweep.cache.writes": count("sweep.cache.writes", 0),
        "sweep.hit_ratio": _ratio(hits, hits + misses),
        "sweep.cell_p50_ms": statistics.median(cells_ms) if cells_ms else 0.0,
        "sweep.cell_p90_ms": cells_ms[int(0.9 * (len(cells_ms) - 1))] if cells_ms else 0.0,
        "io.atomic_writes": tracer.calls["io.write_json_atomic"],
        "io.write_s": self_s["io.write_json_atomic"],
        "io.bytes_written": tracer.bytes_written,
        "noisy.runs": count("noisy.runs", 0),
        "noisy.activations": count("noisy.activations", 0),
        "noisy.moves": count("noisy.moves", 0),
        "noisy.moves_per_activation": _ratio(count("noisy.moves", 0), count("noisy.activations", 0)),
        "noisy.run_s": self_s["stochastic.NoisyBatchRunner.run"],
        "analysis.measure_convergence_s": self_s["analysis.measure_convergence"],
        "analysis.basin_profile_s": self_s["analysis.class_basin_profile"],
        "classes.stepper_s": self_s["kernel.classes.run_class_better_response"],
        "classes.steps": count("classes.steps", 0),
        "classes.moves": count("classes.moves", 0),
        "classes.moves_per_step": _ratio(count("classes.moves", 0), count("classes.steps", 0)),
        "classes.orbit_s": self_s["kernel.classes.ClassGame.orbit_size"],
        "classes.orbit_calls": tracer.calls["kernel.classes.ClassGame.orbit_size"],
        "classes.stable_profiles_s": self_s["kernel.classes.ClassGame.stable_profiles"],
        "space.stable_codes_s": self_s["kernel.space.ConfigSpace.stable_codes"],
        "space.dag_report_s": self_s["kernel.space.ConfigSpace.dag_report"],
        "space.codes_visited": count("space.codes_visited", 0),
        "space.codes_per_s": _ratio(count("space.codes_visited", 0), space_s),
        "space.equilibria": count("space.equilibria", 0),
    }


def integrity_problems(tracer: Tracer, counters: Dict[str, int]) -> List[str]:
    """Wrapper call counts that disagree with the program's own counters.

    A wrapper that missed a binding undercounts, so each pair names a
    call site the traced run would otherwise silently drop.
    """
    problems = []
    pairs = (
        ("ResultCache.store calls", tracer.calls["sweep.ResultCache.store"], "sweep.cache.writes"),
        (
            "run_class_better_response calls",
            tracer.calls["kernel.classes.run_class_better_response"],
            "classes.runs",
        ),
        ("trajectory steps returned by run_many", tracer.returned_steps, "engine.steps"),
    )
    for what, seen, counter in pairs:
        if seen != counters.get(counter, 0):
            problems.append(f"{what} = {seen}, but {counter} = {counters.get(counter, 0)}")
    for counter in ("run_many.cells.process", "run_many.cells.thread", "pool.degradations"):
        if counters.get(counter, 0):
            problems.append(f"{counter} = {counters[counter]}: a worker pool ran")
    return problems
