"""One workload process: build the inputs, run the timed phase, check.

Started by ``run.py``; prints one JSON object on its last stdout line.

Modes:

``setup``
    Build the inputs and report when they were ready (``setup_s``).
``measure``
    Repeat the timed phase untraced for ``--seconds`` of timed work,
    timing every operation on its own with the host's speed measured
    around it (``hostspeed.py``).
``trace``
    Alternate untraced and traced repetitions for ``--seconds``; report
    per-layer metrics from the traced ones and the difference between
    the two as the tracing overhead.

The process imports ``repro`` from the ``src`` directory of the checkout
it lives in and refuses any other copy.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import repro  # noqa: E402

if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
    sys.exit(f"repro was imported from {repro.__file__}, not from {SRC}")

from repro.obs import MetricsRecorder, observe  # noqa: E402

import tracer as tracing  # noqa: E402
from hostspeed import OpClock  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Audit, digest  # noqa: E402

#: Fewest repetitions of each kind a run makes, however long they take.
MIN_REPS = 3


def load_goldens() -> Dict[str, Any]:
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as handle:
        return json.load(handle)


class Checker:
    """Accumulates the audits of every repetition of one run."""

    def __init__(self, workload: Any, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reference: Any = None
        self.golden: Any = None

    def check(self, out: Any) -> None:
        audit: Audit = self.workload.audit(out)
        summary_digest = digest(self.workload.summary(out))
        if self.reference is None:
            self.reference = summary_digest
            self.workload.deep_audit(out, audit)
            self.golden = self.workload.golden(out)
            if self.seed == DEFAULT_SEED:
                expected = load_goldens().get(self.workload.name)
                if expected != self.golden:
                    audit.fail(audit.attempted, "outputs differ from the golden values")
        elif summary_digest != self.reference:
            audit.fail(audit.attempted, "a repetition's outputs differ from the first's")
        self.attempted += audit.attempted
        self.failed += min(audit.failed, audit.attempted)
        for problem in audit.problems:
            self.report(problem)

    def report(self, problem: str) -> None:
        if problem not in self.problems:
            self.problems.append(problem)

    def single_threaded(self) -> None:
        extra = threading.active_count() - 1
        if os.path.isdir("/proc/self/task"):
            extra = max(extra, len(os.listdir("/proc/self/task")) - 1)
        if extra:
            self.report(f"{extra} extra thread(s) ran in the workload process")
            self.failed += 1


def timed(workload: Any, spans: Any = None) -> Tuple[Any, OpClock]:
    """One repetition, every operation timed on its own.

    With ``spans``, a traced repetition: the operations are spans under
    one ``bench.rep`` span, and only the whole repetition is timed.
    """
    gc.collect()
    clock = OpClock()
    if spans is None:
        out = workload.rep(clock)
    else:
        with clock("bench.rep"), spans.span("bench.rep"):
            out = workload.rep(spans.span)
    return out, clock


def measure(workload: Any, checker: Checker, seconds: float) -> Dict[str, Any]:
    clocks: List[OpClock] = []
    while sum(c.total("wall") for c in clocks) < seconds or len(clocks) < MIN_REPS:
        out, clock = timed(workload)
        clocks.append(clock)
        checker.check(out)
        workload.cleanup()

    def median(field: str) -> float:
        return statistics.median(c.total(field) for c in clocks)

    return {
        "wall_s": median("ref_wall"),
        "cpu_s": median("ref_cpu"),
        "raw_wall_s": median("wall"),
        "raw_cpu_s": median("cpu"),
        "host_factor": statistics.median(c.factor() for c in clocks),
        "reps": len(clocks),
    }


def trace(workload: Any, checker: Checker, seconds: float, run_id: str, spans_path: str) -> Dict[str, Any]:
    plain: List[float] = []
    traced: List[float] = []
    per_rep: List[Dict[str, float]] = []
    while sum(plain) + sum(traced) < seconds or len(traced) < MIN_REPS:
        out, clock = timed(workload)
        plain.append(clock.total("ref_wall"))
        checker.check(out)
        workload.cleanup()

        recorder = MetricsRecorder()
        spans = tracing.Tracer(run_id, recorder)
        spans.install()
        try:
            with observe(recorder):
                out, clock = timed(workload, spans)
        finally:
            spans.uninstall()
        traced.append(clock.total("ref_wall"))
        # Traced outputs must be digest-identical to the untraced ones:
        # the checker compares every repetition with the first.
        checker.check(out)
        for problem in tracing.integrity_problems(spans, recorder.counters):
            checker.failed += 1
            checker.report(problem)
        per_rep.append(tracing.layer_metrics(spans, recorder.counters))
        spans.write(spans_path, len(traced))
        workload.cleanup()
    metrics = {name: statistics.median(rep[name] for rep in per_rep) for name in per_rep[0]}
    metrics["obs.trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {"metrics": metrics}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, os.path.join(args.scratch, "sweep"))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result: Dict[str, Any] = {
        "setup_end": time.monotonic(),
        "setup_user": usage.ru_utime,
        "setup_system": usage.ru_stime,
    }
    if args.mode != "setup":
        checker = Checker(workload, args.seed)
        gc.freeze()
        if args.mode == "measure":
            result.update(measure(workload, checker, args.seconds))
        else:
            run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
            spans_path = os.path.join(args.scratch, f"spans-{run_id}.jsonl")
            result.update(trace(workload, checker, args.seconds, run_id, spans_path))
            result["spans"] = spans_path
        checker.single_threaded()
        result.update(
            attempted=checker.attempted,
            failed=checker.failed,
            problems=checker.problems,
            golden=checker.golden,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
