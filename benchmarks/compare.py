#!/usr/bin/env python
"""Diff two pytest-benchmark JSON artifacts and print per-bench speedups.

Usage::

    python benchmarks/compare.py old_bench.json new_bench.json

For every benchmark present in both files, prints old/new mean runtime
and the speedup ratio (old ÷ new — >1 means the new run is faster);
benches present in only one file are listed separately. The table is
meant to be pasted into PR descriptions, next to the CI ``bench.json``
artifacts it consumes.

Both files carry the ``repro_stamp`` the benchmark harness embeds
(library/python/numpy versions, platform, hostname). Comparing across
library versions is the point — every change bumps it — but when the
python, numpy or platform stamps disagree the numbers measure a
different toolchain, not a speedup, so the comparison is refused with
exit code 2 — override with ``--force`` if you really mean it. The
hostname is not compared: it differs on every CI runner. Files without
a stamp (pre-stamp artifacts) compare with a warning.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional, Tuple

#: Stamp fields that must agree for a comparison to be meaningful.
_STAMP_KEYS = ("python", "numpy", "platform")


def _load(path: str) -> Tuple[Dict[str, float], Optional[Dict[str, Any]], str]:
    """benchmark fullname → mean value, the environment stamp, the units.

    Accepts both pytest-benchmark artifacts (mean seconds) and
    ``repro.sweep`` reports (mean steps; the report declares
    ``"units": "steps"``) — both carry ``benchmarks[].fullname``,
    ``benchmarks[].stats.mean`` and a ``repro_stamp``.
    """
    with open(path) as handle:
        data = json.load(handle)
    means = {
        bench["fullname"]: bench["stats"]["mean"] for bench in data.get("benchmarks", [])
    }
    return means, data.get("repro_stamp"), data.get("units", "seconds")


def _check_stamps(
    old_stamp: Optional[Dict[str, Any]],
    new_stamp: Optional[Dict[str, Any]],
    force: bool,
) -> bool:
    """Whether the two runs are comparable; prints warnings/refusals."""
    if old_stamp is None or new_stamp is None:
        for label, stamp in (("old", old_stamp), ("new", new_stamp)):
            if stamp is None:
                print(
                    f"warning: {label} bench.json carries no repro_stamp; "
                    "cannot verify it ran the same toolchain",
                    file=sys.stderr,
                )
        return True
    mismatched = [
        key
        for key in _STAMP_KEYS
        if old_stamp.get(key) != new_stamp.get(key)
    ]
    if not mismatched:
        return True
    for key in mismatched:
        print(
            f"{'refusing' if not force else 'warning'}: {key} differs between runs "
            f"({old_stamp.get(key)!r} vs {new_stamp.get(key)!r})",
            file=sys.stderr,
        )
    if force:
        return True
    print(
        "these artifacts measure different toolchains, not a speedup; "
        "rerun the baseline on this toolchain or pass --force",
        file=sys.stderr,
    )
    return False


def _fmt_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def _fmt_value(value: float, units: str) -> str:
    if units == "seconds":
        return _fmt_seconds(value)
    return f"{value:.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline bench.json (e.g. from main)")
    parser.add_argument("new", help="candidate bench.json (e.g. from the PR)")
    parser.add_argument(
        "--force",
        action="store_true",
        help="compare even when the environment stamps disagree",
    )
    args = parser.parse_args(argv)

    old, old_stamp, old_units = _load(args.old)
    new, new_stamp, new_units = _load(args.new)
    if old_units != new_units:
        print(
            f"refusing: units differ between runs ({old_units!r} vs {new_units!r}); "
            "a timing artifact cannot be diffed against a sweep report",
            file=sys.stderr,
        )
        return 2
    if not _check_stamps(old_stamp, new_stamp, args.force):
        return 2
    shared = sorted(set(old) & set(new))
    if not shared:
        print("no common benchmarks between the two files", file=sys.stderr)
        return 1

    name_width = max(len(name) for name in shared)
    ratio_head = "speedup" if old_units == "seconds" else "old/new"
    print(f"{'benchmark'.ljust(name_width)}  {'old':>10}  {'new':>10}  {ratio_head:>8}")
    print(f"{'-' * name_width}  {'-' * 10}  {'-' * 10}  {'-' * 8}")
    for name in shared:
        ratio = old[name] / new[name] if new[name] else float("inf")
        print(
            f"{name.ljust(name_width)}  {_fmt_value(old[name], old_units):>10}  "
            f"{_fmt_value(new[name], new_units):>10}  {ratio:>7.2f}×"
        )
    for label, names in (("only in old", set(old) - set(new)), ("only in new", set(new) - set(old))):
        for name in sorted(names):
            print(f"{label}: {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
