"""Shared scaffolding for the E1–E16 experiment runners.

Each experiment module exposes ``run(...) -> ExperimentResult`` with
keyword parameters sized so the default run finishes in seconds, plus
registry metadata — ``DESCRIPTION``, ``FAST_PARAMS`` and declared
``ACCEPTS_BACKEND``/``ACCEPTS_EXECUTOR`` capabilities, collected by
:data:`repro.experiments.EXPERIMENTS`. The result couples the
printable table (what EXPERIMENTS.md records) with a metrics dict
(what tests and benchmarks assert on).

Learning-heavy runners additionally take ``backend=`` (``"fast"``
integer kernel — the default — or ``"exact"`` Fractions; identical
results) and ``executor=`` (handed to :func:`repro.run_many`, which
picks the mechanism — tensor-vectorized populations, worker pools, or
serial; identical results in every mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.util.tables import Table


@dataclass
class ExperimentResult:
    """A rendered table plus machine-checkable headline metrics."""

    experiment: str
    table: Table
    metrics: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        return self.table.render()

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
