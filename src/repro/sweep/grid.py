"""Declarative sweep grids: axes of ``RunSpec`` fields → deterministic cells.

A :class:`SweepGrid` is the declarative description of an experiment
grid — games × policies × schedulers × budgets × … — as a mapping of
:class:`~repro.run.RunSpec` field names to value lists, plus shared
``base`` fields, an optional ``exclude`` filter and an optional
per-cell ``override`` hook. :meth:`SweepGrid.cells` expands it (axis
order outer-to-inner, like nested loops) into :class:`SweepCell`
records, each carrying:

* a human-readable, path-safe **cell id** (``"game=5x2/policy=best-response"``)
  built from axis labels — strategies label themselves via ``.name``,
  anything can be labeled explicitly with :func:`labeled`;
* a **fingerprint**: the SHA-256 of the cell's canonical JSON form
  (exact game content, strategy identities, backend, budgets —
  everything that determines the distribution of results *except* the
  seed). The fingerprint is pure content: re-declaring the same cell in
  a different grid, order or process yields the same fingerprint.

Fingerprints make the fabric's determinism content-addressed rather
than positional:

* **append-stable seeding** — a cell without an explicit ``seed``
  derives its root ``SeedSequence`` from the sweep root's entropy
  extended with the fingerprint words, so adding, removing or
  reordering cells never changes another cell's randomness (a stronger
  guarantee than :func:`repro.run_many`'s cell-order spawning);
* **stable sharding** — :meth:`SweepCell.shard` places a cell by
  fingerprint modulo the shard count, so every host of a ``--shard
  K/N`` fleet agrees on the partition without coordination;
* **content-addressed caching** — :meth:`SweepCell.cache_key` hashes
  (fingerprint, resolved seed, library version, a digest of the
  library's source (:func:`source_digest`), numpy version) into the key
  the :class:`~repro.sweep.cache.ResultCache` stores results under, so
  any overlapping grid re-uses completed cells.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import re
from dataclasses import dataclass, fields as dataclass_fields
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.game import Game
from repro.run import RunSpec

__all__ = [
    "Labeled",
    "SweepCell",
    "SweepGrid",
    "cell_fingerprint",
    "labeled",
    "parse_shard",
    "source_digest",
]


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 of every ``.py`` file of the ``repro`` package, once per process.

    Part of every cache key: ``__version__`` does not move with each
    change to the code, and a cache must not serve results that other
    code produced.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


#: Seed descriptors are JSON values: an int, a word list, or a mapping.
SeedDescriptor = Union[int, List[int], Dict[str, Any]]


@dataclass(frozen=True)
class Labeled:
    """An axis value with an explicit label for cell ids."""

    label: str
    value: Any


def labeled(label: str, value: Any) -> Labeled:
    """Attach *label* to an axis value (``labeled("5x2", game)``)."""
    return Labeled(label, value)


# ----------------------------------------------------------------------
# Canonical cell form and fingerprints
# ----------------------------------------------------------------------


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _canonical_game(game: Any) -> Dict[str, Any]:
    """A JSON-ready content form of a per-miner or class-compressed game."""
    from repro.kernel.classes import ClassGame

    if isinstance(game, ClassGame):
        return {
            "kind": "classes",
            "classes": [
                [_fraction_str(power), int(count), [int(c) for c in alphabet]]
                for power, count, alphabet in zip(
                    game.power_fractions, game.populations, game.alphabets
                )
            ],
            "rewards": [_fraction_str(reward) for reward in game.reward_fractions],
            "coins": list(game.coin_names),
        }
    from repro.io import game_to_dict

    return game_to_dict(game)


def _strategy_identity(strategy: Any, default_factory: Callable[[], Any]) -> Dict[str, Any]:
    """Class path + ``.name`` of a policy/scheduler (defaults resolved)."""
    resolved = strategy if strategy is not None else default_factory()
    return {
        "class": f"{type(resolved).__module__}.{type(resolved).__qualname__}",
        "name": getattr(resolved, "name", None),
    }


def _engine_identity(engine: Any) -> Dict[str, Any]:
    """Canonical form of a noisy cell's engine configuration."""
    from repro.stochastic.noisy_engine import NoisyLearningEngine

    resolved = engine if engine is not None else NoisyLearningEngine()
    identity: Dict[str, Any] = {
        "class": f"{type(resolved).__module__}.{type(resolved).__qualname__}"
    }
    if isinstance(resolved, NoisyLearningEngine):
        budget = resolved.budget
        identity.update(
            budget=budget if isinstance(budget, int) else repr(budget),
            max_activations=resolved.max_activations,
            patience=resolved.patience,
            inertia=resolved.inertia,
            exploration=resolved.exploration,
        )
    else:
        # Custom engines must carry their configuration in repr() for
        # the fingerprint to distinguish configurations.
        identity["repr"] = repr(resolved)
    return identity


def canonical_cell(spec: RunSpec) -> Dict[str, Any]:
    """The cell's canonical JSON form — everything but the seed.

    Two specs with equal canonical forms produce identically
    distributed results under equal seeds; the form (and therefore the
    fingerprint) deliberately excludes ``seed`` and ``label``.
    """
    from repro.learning.policies import RandomImprovingPolicy
    from repro.learning.schedulers import UniformRandomScheduler

    game = _canonical_game(spec.game)
    payload: Dict[str, Any] = {
        "format": "game-of-coins/sweep-cell",
        "version": 1,
        "game": game,
        "kind": spec.kind,
        "runs": spec.runs,
        "backend": spec.backend,
        "max_steps": spec.max_steps,
        # A masked game's mask keeps the cell's own "allowed" slot, so
        # an unmasked cell's form (and cache key) is unchanged.
        "allowed": game.pop("allowed", None),
        "stream": spec.stream,
    }
    if spec.kind == "noisy":
        payload["engine"] = _engine_identity(spec.engine)
    elif spec.kind == "classes":
        payload["policy"] = spec.policy if spec.policy is not None else "random-improving"
        payload["scheduler"] = spec.scheduler if spec.scheduler is not None else "uniform"
    else:
        payload["policy"] = _strategy_identity(spec.policy, RandomImprovingPolicy)
        payload["scheduler"] = _strategy_identity(spec.scheduler, UniformRandomScheduler)
    return payload


def cell_fingerprint(spec: RunSpec) -> str:
    """SHA-256 hex digest of :func:`canonical_cell`."""
    blob = json.dumps(canonical_cell(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _entropy_words(sequence: np.random.SeedSequence) -> List[int]:
    entropy = sequence.entropy
    if entropy is None:
        return [0]
    if isinstance(entropy, (int, np.integer)):
        return [int(entropy)]
    return [int(word) for word in entropy]


def seed_descriptor(seed: Any) -> SeedDescriptor:
    """A JSON-able description of a seed (int or ``SeedSequence``)."""
    if isinstance(seed, np.random.SeedSequence):
        return {
            "entropy": _entropy_words(seed),
            "spawn_key": [int(k) for k in seed.spawn_key],
        }
    return int(seed)


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One expanded grid cell: id, spec, and its content fingerprint."""

    cell_id: str
    spec: RunSpec
    fingerprint: str

    def shard(self, n_shards: int) -> int:
        """This cell's 0-based shard index under an *n_shards* partition."""
        if n_shards < 1:
            raise ValueError(f"n_shards must be ≥ 1, got {n_shards}")
        return int(self.fingerprint[:16], 16) % n_shards

    def resolve_seed(self, root: np.random.SeedSequence) -> Any:
        """The seed this cell runs under: explicit, or fingerprint-derived.

        An explicit ``spec.seed`` passes through untouched (so grids
        wrapping legacy experiments reproduce their numbers exactly).
        Otherwise the cell's root is ``SeedSequence(root entropy +
        fingerprint words)`` — append-stable and independent of the
        cell's position in the grid.
        """
        if self.spec.seed is not None:
            return self.spec.seed
        words = [int(self.fingerprint[i : i + 16], 16) for i in range(0, 64, 16)]
        return np.random.SeedSequence(_entropy_words(root) + words)

    def cache_key(self, root: np.random.SeedSequence, *, version: Optional[str] = None) -> str:
        """Content address of this cell's results under *root*.

        SHA-256 over (fingerprint, resolved seed descriptor, library
        version, :func:`source_digest`, numpy version) — the full
        provenance of the result bytes, so a cache can never serve
        results produced by different code, different randomness, or a
        different cell. numpy is in the key because ``Generator`` streams
        are not guaranteed stable across numpy releases.
        """
        if version is None:
            from repro import __version__ as version
        blob = json.dumps(
            {
                "cell": self.fingerprint,
                "seed": seed_descriptor(self.resolve_seed(root)),
                "repro": version,
                "source": source_digest(),
                "numpy": np.__version__,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def parse_shard(shard: Union[None, str, Tuple[int, int]]) -> Optional[Tuple[int, int]]:
    """Normalize a ``--shard K/N`` argument to 1-based ``(K, N)``."""
    if shard is None:
        return None
    if isinstance(shard, str):
        match = re.fullmatch(r"(\d+)/(\d+)", shard.strip())
        if not match:
            raise ValueError(f"shard must look like 'K/N' (e.g. '2/8'), got {shard!r}")
        index, count = int(match.group(1)), int(match.group(2))
    else:
        index, count = shard
    if count < 1 or not 1 <= index <= count:
        raise ValueError(f"shard index must satisfy 1 ≤ K ≤ N, got {index}/{count}")
    return index, count


# ----------------------------------------------------------------------
# Grids
# ----------------------------------------------------------------------

_RUNSPEC_FIELDS = frozenset(field.name for field in dataclass_fields(RunSpec))

_LABEL_SANITIZE = re.compile(r"[^A-Za-z0-9_.,()+^-]+")


def _auto_label(value: Any) -> str:
    from repro.kernel.classes import ClassGame

    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (str, int, float)):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}-{value.denominator}"
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return name
    if isinstance(value, (Game, ClassGame)):
        blob = json.dumps(_canonical_game(value), sort_keys=True, separators=(",", ":"))
        return "game-" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:8]
    digest = hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:8]
    return f"{type(value).__name__.lower()}-{digest}"


def _sanitize_label(label: str) -> str:
    clean = _LABEL_SANITIZE.sub("-", label).strip("-")
    return clean or "value"


class SweepGrid:
    """Axes of ``RunSpec`` fields, expanded deterministically into cells.

    Parameters
    ----------
    axes:
        Ordered mapping of ``RunSpec`` field name → sequence of values.
        The cartesian product is walked with the *first* axis outermost
        (like nested for-loops in declaration order). Values label
        themselves in cell ids (``.name`` for strategies, ``str`` for
        scalars, a content hash for games); wrap a value in
        :func:`labeled` to choose the label.
    base:
        ``RunSpec`` fields shared by every cell (e.g. ``runs``,
        ``backend``, ``stream``).
    exclude:
        Optional predicate over the axis-value dict; cells where it
        returns True are dropped from the grid.
    override:
        Optional hook over the axis-value dict returning extra
        ``RunSpec`` fields for that cell (e.g. a legacy per-cell
        ``seed``, or an ``engine`` built from a ``budget`` axis value).
    """

    def __init__(
        self,
        axes: Mapping[str, Sequence[Any]],
        *,
        base: Optional[Mapping[str, Any]] = None,
        exclude: Optional[Callable[[Dict[str, Any]], bool]] = None,
        override: Optional[Callable[[Dict[str, Any]], Optional[Mapping[str, Any]]]] = None,
    ) -> None:
        if not axes:
            raise ValueError("a sweep grid needs at least one axis")
        self.axes: Dict[str, List[Any]] = {}
        for key, values in axes.items():
            values = list(values)
            if not values:
                raise ValueError(f"axis {key!r} has no values")
            self.axes[key] = values
        self.base: Dict[str, Any] = dict(base or {})
        for key in itertools.chain(self.axes, self.base):
            if key not in _RUNSPEC_FIELDS:
                raise ValueError(
                    f"{key!r} is not a RunSpec field; axes and base must use "
                    f"RunSpec field names ({', '.join(sorted(_RUNSPEC_FIELDS))})"
                )
        overlap = set(self.axes) & set(self.base)
        if overlap:
            raise ValueError(f"axes and base both set {sorted(overlap)}")
        self.exclude = exclude
        self.override = override
        self._cells: Optional[List[SweepCell]] = None

    def cells(self) -> List[SweepCell]:
        """Expand (and memoize) the grid into labeled fingerprinted cells."""
        if self._cells is not None:
            return self._cells
        axis_items: List[List[Tuple[str, str, Any]]] = []
        for key, values in self.axes.items():
            entries = []
            for value in values:
                if isinstance(value, Labeled):
                    label, raw = value.label, value.value
                else:
                    label, raw = _auto_label(value), value
                entries.append((key, _sanitize_label(label), raw))
            axis_items.append(entries)
        cells: List[SweepCell] = []
        seen: Dict[str, int] = {}
        for combo in itertools.product(*axis_items):
            values = {key: raw for key, _, raw in combo}
            if self.exclude is not None and self.exclude(dict(values)):
                continue
            params = dict(self.base)
            params.update(values)
            if self.override is not None:
                extra = self.override(dict(values))
                if extra:
                    for key in extra:
                        if key not in _RUNSPEC_FIELDS:
                            raise ValueError(f"override returned non-RunSpec field {key!r}")
                    params.update(extra)
            cell_id = "/".join(f"{key}={label}" for key, label, _ in combo)
            if params.get("label") is None:
                params["label"] = cell_id
            spec = RunSpec(**params)
            if cell_id in seen:
                raise ValueError(
                    f"duplicate cell id {cell_id!r}; label axis values explicitly "
                    "with labeled(...) to disambiguate"
                )
            seen[cell_id] = 1
            cells.append(SweepCell(cell_id, spec, cell_fingerprint(spec)))
        if not cells:
            raise ValueError("grid expanded to zero cells (exclude dropped everything)")
        self._cells = cells
        return cells

    def __len__(self) -> int:
        return len(self.cells())
