"""Sweep execution: shards, resume, caching, merge.

:func:`run_sweep` drives a :class:`~repro.sweep.grid.SweepGrid` through
:func:`repro.run_many` with three fabric guarantees layered on top:

**Sharding.** With ``shard="K/N"`` (1-based) only the cells whose
fingerprint lands in shard *K* of an *N*-way partition run — the
partition is a pure function of cell content, so N hosts given the same
grid and root seed agree on it with zero coordination. Each shard
appends a JSONL manifest under ``<out>/shards/`` recording what it
opened, computed, hit in cache and finished (with wall times — the
manifests are receipts; the deterministic results live in the cache).

**Resume.** A completed cell's result is stored in the content-addressed
:class:`~repro.sweep.cache.ResultCache` under ``<out>/cache/`` via an
atomic rename. A killed sweep restarted with the same arguments
re-loads every completed cell as a cache hit and re-runs only the rest
— correctness needs no journal replay because the cache write *is* the
commit point. Overlapping grids (same cells, different sweep) hit the
same entries.

**Merge.** When every cell of the grid is complete,
:func:`merge_sweep` (or ``run_sweep`` itself, when it ran unsharded)
folds the cached results into one deterministic
``bench.json``-compatible report at ``<out>/report.json`` — killed,
resumed, sharded-across-hosts and uninterrupted sweeps all produce
byte-identical reports.

Without ``out=`` the fabric runs *ephemerally* — no cache, no
manifests, all pending cells in one :func:`repro.run_many` call (so
vectorized cross-cell packing still applies). That is the mode the
in-process callers (``measure_convergence``, E2/E9/E15) use: same
grid declaration, same seeds, no filesystem footprint.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.log import get_logger
from repro.obs.recorder import get_recorder
from repro.run import run_many
from repro.sweep.cache import ResultCache
from repro.sweep.grid import SweepCell, SweepGrid, parse_shard, seed_descriptor
from repro.sweep.report import build_report, cell_entry
from repro.util.rng import seed_sequence

__all__ = ["SweepError", "SweepResult", "merge_sweep", "run_sweep"]

logger = get_logger("sweep")

GRID_FORMAT = "game-of-coins/sweep-grid"
_GRID_VERSION = 1


class SweepError(RuntimeError):
    """A sweep-fabric failure (bad arguments, unmergeable state)."""


@dataclass
class SweepResult:
    """What one :func:`run_sweep` call produced (this shard's view)."""

    #: Cells this call was responsible for, in grid order.
    cells: List[SweepCell]
    #: Cell id → cell result (records list, or a streamed aggregate).
    results: Dict[str, Any]
    #: Cell id → content-addressed cache key.
    keys: Dict[str, str]
    cache_hits: int = 0
    cache_misses: int = 0
    #: Output directory (None for ephemeral sweeps).
    out: Optional[str] = None
    #: Merged report (present when this call completed the whole grid).
    report: Optional[Dict[str, Any]] = None
    #: Path of the written report, when ``out`` was set and merged.
    report_path: Optional[str] = None
    wall_seconds: float = 0.0
    shard: Optional[Tuple[int, int]] = None
    _order: List[str] = field(default_factory=list, repr=False)

    def in_order(self) -> List[Any]:
        """Results of this call's cells, in grid order."""
        return [self.results[cell_id] for cell_id in self._order]


def _write_grid_receipt(
    out: str,
    entries: Sequence[Dict[str, Any]],
    root_desc: Any,
    n_shards: int,
    *,
    force: bool,
) -> str:
    """Persist (atomically) what this grid is, for merge and resume checks."""
    from repro import __version__
    from repro.io import write_json_atomic

    path = os.path.join(out, "grid.json")
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                previous = json.load(handle)
        except (OSError, ValueError):
            previous = None
        if previous is not None and not force:
            if previous.get("root") != root_desc:
                raise SweepError(
                    f"{path} was written with root seed {previous.get('root')!r}, "
                    f"this sweep uses {root_desc!r}; cached results would never "
                    "match. Use a fresh --out directory or pass force=True."
                )
    payload = {
        "format": GRID_FORMAT,
        "version": _GRID_VERSION,
        "root": root_desc,
        "repro_version": __version__,
        "n_shards": n_shards,
        "cells": list(entries),
    }
    return write_json_atomic(payload, path)


class _ShardManifest:
    """Append-only JSONL journal of one shard's progress (a receipt).

    Append mode is deliberate: a resumed shard continues the same file,
    so the journal shows the kill and the resume — it is never the
    source of truth (the cache is), so replaying it is unnecessary and
    clobbering it would destroy the evidence.
    """

    def __init__(self, path: str, *, truncate: bool = False) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self.path = path
        self._handle = open(path, "w" if truncate else "a", encoding="utf-8")

    def write(self, event: str, **fields: Any) -> None:
        record = {"event": event}
        record.update(fields)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


def run_sweep(
    grid: SweepGrid,
    *,
    out: Optional[str] = None,
    seed: Any = None,
    executor: str = "auto",
    max_workers: Optional[int] = None,
    shard: Union[None, str, Tuple[int, int]] = None,
    wave: Optional[int] = None,
    resume: bool = True,
    force: bool = False,
) -> SweepResult:
    """Run (this shard of) *grid*, caching, resuming and merging.

    Parameters
    ----------
    out:
        Sweep directory (created): ``cache/`` entries, ``shards/``
        manifests, ``grid.json`` receipt, and — once the whole grid is
        complete — ``report.json``. ``None`` runs ephemerally (no
        filesystem footprint, no resume).
    seed:
        Root seed (int, ``SeedSequence`` or None). Cells with explicit
        ``RunSpec.seed`` ignore it; all others derive append-stable
        roots from it plus their fingerprint.
    shard:
        ``"K/N"`` (or 1-based ``(K, N)``): run only shard K of the
        fingerprint partition. Requires ``out`` (shards meet in the
        cache). The merged report is written by whichever invocation
        finds the grid complete — normally a final ``merge_sweep``.
    wave:
        Cells per :func:`repro.run_many` call. Default: all pending
        cells in one call (best vectorized packing); ``wave=1`` commits
        each cell to cache before starting the next (finest resume
        granularity — what the CLI uses).
    resume:
        Load completed cells from the cache (default). ``resume=False``
        recomputes everything; with an existing sweep directory it
        refuses unless ``force`` is also set.
    force:
        Override the root-seed receipt check and the ``resume=False``
        clobber refusal.
    """
    cells = grid.cells()
    shard_kn = parse_shard(shard)
    if shard_kn is not None and out is None:
        raise SweepError("shard= requires out=: shards meet in the cache directory")
    root = seed_sequence(seed)
    root_desc = seed_descriptor(root)
    from repro import __version__

    keys = {cell.cell_id: cell.cache_key(root, version=__version__) for cell in cells}
    entries = [cell_entry(cell, keys[cell.cell_id]) for cell in cells]

    if shard_kn is None:
        mine = list(cells)
        shard_index, n_shards = 1, 1
    else:
        shard_index, n_shards = shard_kn
        mine = [cell for cell in cells if cell.shard(n_shards) == shard_index - 1]

    recorder = get_recorder()
    observing = recorder.enabled
    if observing:
        recorder.count("sweep.runs")
        recorder.count("sweep.cells", len(mine))
        recorder.event(
            "sweep.open",
            cells=len(cells),
            mine=len(mine),
            shard=shard_index,
            of=n_shards,
            out=out,
        )

    cache: Optional[ResultCache] = None
    manifest: Optional[_ShardManifest] = None
    started = perf_counter()
    if out is not None:
        os.makedirs(out, exist_ok=True)
        _write_grid_receipt(out, entries, root_desc, n_shards, force=force)
        cache = ResultCache(os.path.join(out, "cache"))
        manifest_path = os.path.join(
            out, "shards", f"shard-{shard_index}-of-{n_shards}.jsonl"
        )
        if not resume and os.path.exists(manifest_path) and not force:
            raise SweepError(
                f"{manifest_path} exists and resume=False would restart the "
                "shard; pass force=True to truncate it (or leave resume on)"
            )
        manifest = _ShardManifest(manifest_path, truncate=(not resume and force))
        manifest.write(
            "shard.open",
            shard=shard_index,
            of=n_shards,
            cells=len(mine),
            grid_cells=len(cells),
            root=root_desc,
            pid=os.getpid(),
            resume=resume,
        )

    results: Dict[str, Any] = {}
    hits = 0
    pending: List[SweepCell] = []
    for cell in mine:
        key = keys[cell.cell_id]
        cached = cache.load(key) if (cache is not None and resume) else None
        if cached is not None:
            hits += 1
            results[cell.cell_id] = cached
            if manifest is not None:
                manifest.write("cell.done", cell=cell.cell_id, key=key, cached=True)
        else:
            pending.append(cell)

    try:
        wave_size = max(1, len(pending) if wave is None else wave)
        for start in range(0, len(pending), wave_size):
            batch = pending[start : start + wave_size]
            specs = [
                replace(cell.spec, seed=cell.resolve_seed(root)) for cell in batch
            ]
            wave_started = perf_counter()
            batch_results = run_many(
                specs, executor=executor, max_workers=max_workers
            )
            wave_wall = perf_counter() - wave_started
            for cell, result in zip(batch, batch_results):
                key = keys[cell.cell_id]
                results[cell.cell_id] = result
                if cache is not None:
                    cache.store(key, result, cell_id=cell.cell_id)
                if manifest is not None:
                    manifest.write("cell.done", cell=cell.cell_id, key=key, cached=False)
            if manifest is not None and len(pending) > len(batch):
                manifest.write(
                    "wave.done", cells=len(batch), wall=round(wave_wall, 6)
                )
        wall = perf_counter() - started
        if manifest is not None:
            manifest.write(
                "shard.done",
                cells=len(mine),
                hits=hits,
                misses=len(pending),
                wall=round(wall, 6),
            )
    finally:
        if manifest is not None:
            manifest.close()

    if observing:
        recorder.event(
            "sweep.done",
            cells=len(mine),
            hits=hits,
            misses=len(pending),
            wall=round(perf_counter() - started, 6),
        )

    result = SweepResult(
        cells=mine,
        results=results,
        keys={cell.cell_id: keys[cell.cell_id] for cell in mine},
        cache_hits=hits,
        cache_misses=len(pending),
        out=out,
        wall_seconds=perf_counter() - started,
        shard=shard_kn,
        _order=[cell.cell_id for cell in mine],
    )
    if shard_kn is None:
        # This call owned the whole grid: merge now.
        result.report = build_report(entries, results)
        if out is not None:
            from repro.io import write_json_atomic

            result.report_path = write_json_atomic(
                result.report, os.path.join(out, "report.json"), sort_keys=False
            )
    return result


def merge_sweep(out: str, *, write: bool = True) -> Dict[str, Any]:
    """Merge a sweep directory's cached cells into the final report.

    Reads the ``grid.json`` receipt, loads every cell from the cache,
    and raises :class:`SweepError` naming the incomplete cells (and the
    shards that own them) if any are missing — the caller re-runs those
    shards and merges again. With ``write=True`` (default) the report
    is also written atomically to ``<out>/report.json``.
    """
    path = os.path.join(out, "grid.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            receipt = json.load(handle)
    except FileNotFoundError:
        raise SweepError(f"{out!r} has no grid.json receipt; was a sweep run there?")
    if receipt.get("format") != GRID_FORMAT:
        raise SweepError(f"{path} is not a sweep grid receipt")
    from repro.sweep.cache import cell_result_from_records

    cache = ResultCache(os.path.join(out, "cache"))
    entries = receipt["cells"]
    n_shards = int(receipt.get("n_shards", 1))
    results: Dict[str, Any] = {}
    missing: List[str] = []
    for entry in entries:
        key = entry["key"]
        try:
            with open(cache.path_for(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            results[entry["id"]] = cell_result_from_records(
                payload["stream"], payload["results"]
            )
        except (OSError, ValueError, KeyError):
            shard_of = int(entry["fingerprint"][:16], 16) % n_shards + 1
            missing.append(f"{entry['id']} (shard {shard_of}/{n_shards})")
    if missing:
        preview = "; ".join(missing[:8])
        more = f" … and {len(missing) - 8} more" if len(missing) > 8 else ""
        raise SweepError(
            f"sweep at {out!r} is incomplete: {len(missing)}/{len(entries)} "
            f"cell(s) missing — {preview}{more}. Re-run the owning shards, "
            "then merge again."
        )
    report = build_report(entries, results)
    if write:
        from repro.io import write_json_atomic

        write_json_atomic(report, os.path.join(out, "report.json"), sort_keys=False)
    return report
