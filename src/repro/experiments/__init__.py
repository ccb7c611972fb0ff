"""The E1–E16 experiment runners (one per paper table/figure).

Each module exposes ``run(**params) -> ExperimentResult`` plus its own
metadata — ``DESCRIPTION``, the ``--fast`` parameter set
(``FAST_PARAMS``) and declared CLI knob capabilities
(``ACCEPTS_BACKEND`` / ``ACCEPTS_EXECUTOR``).
The :data:`EXPERIMENTS`
registry collects that metadata into :class:`ExperimentSpec` records so
the CLI (and the ``benchmarks/`` harness) never re-derive it from
signatures or parallel dicts.
"""

from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Dict, Mapping, Optional

from repro.experiments import (
    e01_migration,
    e02_convergence,
    e03_no_exact_potential,
    e04_potential_monotonicity,
    e05_welfare,
    e06_better_equilibrium,
    e07_reward_design,
    e08_design_cost,
    e09_learning_speed,
    e10_security_ablation,
    e11_asymmetric,
    e12_simultaneous,
    e13_basins,
    e14_exact_paths,
    e15_noisy_convergence,
    e16_risk,
)
from repro.experiments.common import ExperimentResult


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment's runner plus the metadata its module declares."""

    name: str
    run: Callable[..., ExperimentResult]
    description: str
    #: The shrunken parameter set behind the CLI's ``--fast`` flag.
    fast_params: Mapping[str, Any] = field(default_factory=dict)
    #: Whether ``run`` takes a ``backend=`` / ``executor=`` knob. The
    #: CLI forwards the flags only where declared — no signature
    #: inspection.
    accepts_backend: bool = False
    accepts_executor: bool = False
    #: The experiment's grid as a :class:`~repro.sweep.SweepGrid`
    #: factory (``sweep_grid(**params)``), for experiments that route
    #: through the sweep fabric — drives ``python -m repro sweep``
    #: (sharding, caching, resumable manifests). ``None`` for
    #: experiments without a declarative grid.
    sweep_grid: Optional[Callable[..., Any]] = None


def _spec(name: str, module: ModuleType) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        run=module.run,
        description=module.DESCRIPTION,
        fast_params=dict(module.FAST_PARAMS),
        accepts_backend=getattr(module, "ACCEPTS_BACKEND", False),
        accepts_executor=getattr(module, "ACCEPTS_EXECUTOR", False),
        sweep_grid=getattr(module, "sweep_grid", None),
    )


#: E1–E10 reproduce the paper's artifacts; E11–E16 execute its
#: discussion/future-work directions (asymmetric mining, simultaneous
#: dynamics, basin analysis + manipulation planning, noisy sampled
#: learning, realized-reward risk).
EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        _spec("E1", e01_migration),
        _spec("E2", e02_convergence),
        _spec("E3", e03_no_exact_potential),
        _spec("E4", e04_potential_monotonicity),
        _spec("E5", e05_welfare),
        _spec("E6", e06_better_equilibrium),
        _spec("E7", e07_reward_design),
        _spec("E8", e08_design_cost),
        _spec("E9", e09_learning_speed),
        _spec("E10", e10_security_ablation),
        _spec("E11", e11_asymmetric),
        _spec("E12", e12_simultaneous),
        _spec("E13", e13_basins),
        _spec("E14", e14_exact_paths),
        _spec("E15", e15_noisy_convergence),
        _spec("E16", e16_risk),
    )
}

#: Back-compat name → runner map (the registry's ``run`` column).
ALL_EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    name: spec.run for name, spec in EXPERIMENTS.items()
}

__all__ = ["ALL_EXPERIMENTS", "EXPERIMENTS", "ExperimentResult", "ExperimentSpec"]
