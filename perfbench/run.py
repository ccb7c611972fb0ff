"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload population --seed 0 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (process start
until the inputs are built; median of ten fresh processes, after one
discarded warm-up), ``wall_s`` and ``cpu_s`` (medians over repetitions
of the timed phase, in seconds of the reference host: see
``hostspeed.py``), ``peak_rss_mb`` and ``ok_frac`` (operations that
passed every check, over operations attempted). Stderr also prints the
wall and CPU medians as measured and the host factor. ``--trace 1``
reports the per-layer metrics of a traced run instead. Workloads, checks
and the layer table are described in ``perfbench/README.md``.

Every workload runs in a child process with one BLAS/OpenMP thread and
no worker pool; this process only starts them and folds their results.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from hostspeed import Sample, loop_times  # noqa: E402

WORKLOADS = ("population", "sweep-grid", "exact-analysis")
#: Set-up processes timed per run, half before the timed run and half after.
SETUP_SAMPLES = 10
#: Whole-run deadline; the result must be printed well inside 180 s.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

#: glibc keeps freed memory mapped instead of handing it back and
#: faulting it in again on the next repetition. Page-fault time is
#: kernel time, which on a shared host varies several-fold.
MALLOC_VARS = {
    "MALLOC_MMAP_THRESHOLD_": str(256 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_TOP_PAD_": str(64 << 20),
}

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class WorkerFailed(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    env.update(MALLOC_VARS)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: argparse.Namespace, mode: str, scratch: str, deadline: float) -> Dict[str, Any]:
    """Run one worker to completion and return its result line.

    ``setup`` is the worker's set-up as a :class:`hostspeed.Sample`: from
    process start until its inputs were built, with the host factor
    measured just before the start and just after the worker ended.
    """
    command = [
        sys.executable,
        WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--scratch", scratch,
    ]
    loops = loop_times()
    started = time.monotonic()
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as error:
        raise WorkerFailed(f"{mode} worker timed out after {error.timeout:.0f} s")
    if done.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    wall = result["setup_end"] - started
    result["setup"] = Sample(wall, result["setup_user"], result["setup_system"], loops + loop_times())
    return result


def end_to_end(args: argparse.Namespace, scratch: str, deadline: float) -> Dict[str, Any]:
    def setups(count: int) -> List[Sample]:
        return [spawn(args, "setup", scratch, deadline)["setup"] for _ in range(count)]

    spawn(args, "setup", scratch, deadline)  # warm-up: byte-code and file caches
    # Half the set-up samples before the timed run and half after, so
    # they span the run rather than one moment of the host's speed.
    before = setups(SETUP_SAMPLES // 2)
    result = spawn(args, "measure", scratch, deadline)
    samples = before + setups(SETUP_SAMPLES // 2)
    values = {
        "setup_s": statistics.median(s.ref_wall for s in samples),
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": 1.0 - result["failed"] / result["attempted"],
    }
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result["measured"] = {
        "setup_s": statistics.median(s.wall for s in samples),
        "wall_s": result["raw_wall_s"],
        "cpu_s": result["raw_cpu_s"],
        "host_factor": result["host_factor"],
        "repetitions": result["reps"],
    }
    return result


def per_layer(args: argparse.Namespace, scratch: str, deadline: float) -> Dict[str, Any]:
    from tracer import LAYER_METRICS

    result = spawn(args, "trace", scratch, deadline)
    values = result["metrics"]
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    scratch = os.path.join(ROOT, ".bench_build", "perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        result = measure(args, scratch, deadline)
    except WorkerFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        shutil.rmtree(scratch, ignore_errors=True)
        return 1
    shutil.rmtree(os.path.join(scratch, "sweep"), ignore_errors=True)
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if args.trace:
        print(f"perfbench: spans written to {os.path.relpath(result['spans'], ROOT)}", file=sys.stderr)
    else:
        # Only traced runs leave a file behind: their spans.
        shutil.rmtree(scratch, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{args.workload:>15} {name:<32} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    for name, value in result.get("measured", {}).items():
        print(f"{args.workload:>15} {'as measured: ' + name:<32} {value:>16.6g}", file=sys.stderr)
    line = {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
