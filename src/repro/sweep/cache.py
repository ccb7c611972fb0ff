"""Content-addressed result cache for sweep cells.

Entries live at ``<root>/<key[:2]>/<key>.json`` where ``key`` is
:meth:`~repro.sweep.grid.SweepCell.cache_key` — the SHA-256 of (cell
fingerprint, resolved seed, library version, source digest and numpy
version). Because the address *is* the provenance, any grid that
declares an equivalent cell under the same root seed re-uses the entry,
and entries written by different library code or numpy versions or
seeds can never collide.

Writes are atomic (:func:`repro.io.write_json_atomic`), so a cache
entry either exists completely or not at all — which is exactly the
resume predicate :func:`~repro.sweep.runner.run_sweep` uses after a
crash: corrupt or truncated files (impossible via this writer, but
possible via copy tools) simply read as a miss and the cell re-runs.

Hits, misses and writes are counted on the active
:mod:`repro.obs` recorder (``sweep.cache.hits`` /
``sweep.cache.misses`` / ``sweep.cache.writes``).

Result records round-trip exactly: :class:`TrajectorySummary`,
:class:`CellStats`, :class:`NoisyRunResult` and :class:`ClassRunResult`
are all counts, names and verdicts (no Fractions), so JSON preserves
them bit-for-bit and a cache hit compares equal to the freshly
computed object.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.io import write_json_atomic
from repro.kernel.batch import CellStats, TrajectorySummary
from repro.kernel.classes import ClassRunResult
from repro.obs.recorder import get_recorder
from repro.stochastic.noisy_engine import NoisyRunResult

__all__ = ["ResultCache", "result_from_dict", "result_to_dict"]

_ENTRY_FORMAT = "game-of-coins/sweep-cache-entry"
_ENTRY_VERSION = 1


def result_to_dict(result: Any) -> Dict[str, Any]:
    """A typed JSON form of one run record (or streamed aggregate)."""
    if isinstance(result, TrajectorySummary):
        return {
            "type": "trajectory",
            "run_index": result.run_index,
            "policy_name": result.policy_name,
            "scheduler_name": result.scheduler_name,
            "steps": result.steps,
            "converged": result.converged,
            "final_coins": list(result.final_coins),
        }
    if isinstance(result, CellStats):
        return {
            "type": "stats",
            "runs": result.runs,
            "policy_name": result.policy_name,
            "scheduler_name": result.scheduler_name,
            "steps": list(result.steps),
            "converged": result.converged,
            "finals": [[list(coins), count] for coins, count in result.finals],
        }
    if isinstance(result, NoisyRunResult):
        return {
            "type": "noisy",
            "run_index": result.run_index,
            "final_coins": list(result.final_coins),
            "activations": result.activations,
            "moves": result.moves,
            "settled": result.settled,
            "reached_equilibrium": result.reached_equilibrium,
            "rounds_sampled": result.rounds_sampled,
        }
    if isinstance(result, ClassRunResult):
        return {
            "type": "classes",
            "run_index": result.run_index,
            "policy": result.policy,
            "scheduler": result.scheduler,
            "steps": result.steps,
            "moved": result.moved,
            "converged": result.converged,
            "final": [list(row) for row in result.final],
        }
    raise TypeError(f"no cache serialization for {type(result).__name__}")


def result_from_dict(payload: Dict[str, Any]) -> Any:
    """Rebuild the exact record :func:`result_to_dict` serialized."""
    kind = payload.get("type")
    if kind == "trajectory":
        return TrajectorySummary(
            run_index=payload["run_index"],
            policy_name=payload["policy_name"],
            scheduler_name=payload["scheduler_name"],
            steps=payload["steps"],
            converged=payload["converged"],
            final_coins=tuple(payload["final_coins"]),
        )
    if kind == "stats":
        return CellStats(
            runs=payload["runs"],
            policy_name=payload["policy_name"],
            scheduler_name=payload["scheduler_name"],
            steps=tuple(payload["steps"]),
            converged=payload["converged"],
            finals=tuple((tuple(coins), count) for coins, count in payload["finals"]),
        )
    if kind == "noisy":
        return NoisyRunResult(
            run_index=payload["run_index"],
            final_coins=tuple(payload["final_coins"]),
            activations=payload["activations"],
            moves=payload["moves"],
            settled=payload["settled"],
            reached_equilibrium=payload["reached_equilibrium"],
            rounds_sampled=payload["rounds_sampled"],
        )
    if kind == "classes":
        return ClassRunResult(
            run_index=payload["run_index"],
            policy=payload["policy"],
            scheduler=payload["scheduler"],
            steps=payload["steps"],
            moved=payload["moved"],
            converged=payload["converged"],
            final=tuple(tuple(row) for row in payload["final"]),
        )
    raise ValueError(f"unknown cached result type {kind!r}")


def cell_result_to_records(result: Any) -> Tuple[bool, List[Dict[str, Any]]]:
    """``(stream, record dicts)`` for a cell result (aggregate or list)."""
    if isinstance(result, CellStats):
        return True, [result_to_dict(result)]
    return False, [result_to_dict(record) for record in result]


def cell_result_from_records(stream: bool, records: List[Dict[str, Any]]) -> Any:
    rebuilt = [result_from_dict(record) for record in records]
    if stream:
        if len(rebuilt) != 1:
            raise ValueError(f"streamed entry must hold one aggregate, got {len(rebuilt)}")
        return rebuilt[0]
    return rebuilt


class ResultCache:
    """Filesystem cache of completed cell results, addressed by key."""

    def __init__(self, root: str) -> None:
        self.root = root

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def load(self, key: str) -> Optional[Any]:
        """The cached cell result, or None (counted as hit/miss)."""
        recorder = get_recorder()
        try:
            with open(self.path_for(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("format") != _ENTRY_FORMAT or payload.get("key") != key:
                raise ValueError("not a cache entry for this key")
            result = cell_result_from_records(payload["stream"], payload["results"])
        except FileNotFoundError:
            if recorder.enabled:
                recorder.count("sweep.cache.misses")
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Truncated/corrupt/foreign file: a miss, never an error —
            # the cell recomputes and the atomic store replaces it.
            if recorder.enabled:
                recorder.count("sweep.cache.misses")
            return None
        if recorder.enabled:
            recorder.count("sweep.cache.hits")
        return result

    def store(self, key: str, result: Any, *, cell_id: Optional[str] = None) -> str:
        """Atomically persist one completed cell result under *key*."""
        stream, records = cell_result_to_records(result)
        payload = {
            "format": _ENTRY_FORMAT,
            "version": _ENTRY_VERSION,
            "key": key,
            "cell_id": cell_id,
            "stream": stream,
            "results": records,
        }
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_json_atomic(payload, path, indent=None, sort_keys=True)
        recorder = get_recorder()
        if recorder.enabled:
            recorder.count("sweep.cache.writes")
        return path
