#!/usr/bin/env python
"""Assert instrumented-code benchmarks stayed within a slowdown budget.

Usage::

    python benchmarks/overhead_guard.py baseline.json candidate.json \
        --prefix bench_engine --tolerance 0.03

The observability layer promises zero overhead when disabled: the
NullRecorder default must leave the hot loops' cost unchanged. This
guard compares a candidate ``bench.json`` against a baseline and fails
(exit 1) if any benchmark matching ``--prefix`` slowed down by more
than ``--tolerance`` (fractional — 0.03 allows 3%).

Missing baselines (first run on a branch, expired CI artifact) and
empty intersections skip with exit 0 so the guard never blocks a build
for reasons other than a real regression. Baselines from another
library version are compared — that is what the guard is for — but a
python, numpy or platform mismatch (``compare._STAMP_KEYS``) is
reported and skips, since cross-toolchain timings are not evidence of
overhead.
"""

from __future__ import annotations

import argparse
import os
import sys

from compare import _STAMP_KEYS, _load


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="pre-change bench.json")
    parser.add_argument("candidate", help="post-change bench.json")
    parser.add_argument(
        "--prefix",
        default="bench_engine",
        help="only guard benchmarks whose fullname contains this (default: bench_engine)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.03,
        help="allowed fractional slowdown (default: 0.03 = 3%%)",
    )
    args = parser.parse_args(argv)

    if not os.path.exists(args.baseline):
        print(f"overhead guard: no baseline at {args.baseline}; skipping")
        return 0
    baseline, base_stamp, _ = _load(args.baseline)
    candidate, cand_stamp, _ = _load(args.candidate)
    if base_stamp and cand_stamp:
        mismatched = [
            key for key in _STAMP_KEYS if base_stamp.get(key) != cand_stamp.get(key)
        ]
        if mismatched:
            print(
                "overhead guard: environment stamps differ "
                f"({', '.join(mismatched)}); cross-toolchain timings are not "
                "overhead evidence; skipping"
            )
            return 0

    shared = sorted(
        name for name in set(baseline) & set(candidate) if args.prefix in name
    )
    if not shared:
        print(f"overhead guard: no shared benchmarks matching {args.prefix!r}; skipping")
        return 0

    failures = 0
    for name in shared:
        old = baseline[name]
        new = candidate[name]
        ratio = new / old if old else float("inf")
        verdict = "ok" if ratio <= 1.0 + args.tolerance else "REGRESSION"
        if verdict != "ok":
            failures += 1
        print(
            f"{verdict:>10}  {name}  {old * 1e3:.2f}ms → {new * 1e3:.2f}ms "
            f"({(ratio - 1.0) * 100.0:+.1f}%)"
        )
    if failures:
        print(
            f"overhead guard: {failures} benchmark(s) slowed beyond "
            f"{args.tolerance * 100.0:.0f}%",
            file=sys.stderr,
        )
        return 1
    print(f"overhead guard: {len(shared)} benchmark(s) within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
