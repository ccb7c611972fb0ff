"""Simultaneous-move better-response dynamics — and why the paper's
sequential model matters.

Theorem 1 covers *sequential* improvement steps: one miner moves at a
time. Real markets are messier — many miners re-evaluate on the same
profitability tick and jump together, each correct in isolation and
wrong in aggregate. That is exactly the over-correction that made the
2017 BTC/BCH hashrate oscillation violent (see
:mod:`repro.chainsim.miningsim`).

This module implements the synchronous dynamic: every round, *all*
miners with a better response move at once (each to its best response
computed against the current configuration). Unlike the sequential
dynamic, this one can cycle forever; E12 measures how often, and how
well small amounts of inertia (each miner independently moves only with
probability ``p``) restore convergence — the standard remedy in the
learning-in-games literature.

The round loop is written once against the
:class:`~repro.learning.view.GameView` protocol; ``backend`` picks the
view (``"fast"`` integer kernel / ``"exact"`` Fractions), with
identical rounds, movers, inertia draws and verdicts either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.coin import Coin
from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.core.miner import Miner
from repro.learning.view import make_view
from repro.util.rng import RngLike, make_rng


@dataclass
class SimultaneousResult:
    """Outcome of a synchronous better-response run."""

    configurations: List[Configuration]
    converged: bool
    #: Index at which a configuration first repeated (a cycle witness),
    #: or None if the run converged or hit the round budget first.
    cycle_start: Optional[int]

    @property
    def rounds(self) -> int:
        return len(self.configurations) - 1

    @property
    def final(self) -> Configuration:
        return self.configurations[-1]

    @property
    def cycled(self) -> bool:
        return self.cycle_start is not None


def run_simultaneous(
    game: Game,
    initial: Configuration,
    *,
    inertia: float = 0.0,
    max_rounds: int = 10_000,
    seed: RngLike = None,
    backend: str = "fast",
) -> SimultaneousResult:
    """Synchronous best-response dynamic with optional inertia.

    Each round, every miner with an improving move switches to its best
    response — simultaneously — unless inertia keeps it put (each
    unstable miner *stays* with probability ``inertia``, independently).
    Detection: convergence = a round in which no miner has a best
    response; cycling = a configuration seen before (the dynamic is
    Markov for ``inertia=0``, so a repeat proves a permanent cycle). A
    round in which inertia holds every unstable miner changes nothing
    but still counts against ``max_rounds``.
    """
    if not 0.0 <= inertia < 1.0:
        raise ValueError(f"inertia must be in [0, 1), got {inertia}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be ≥ 1, got {max_rounds}")
    game.validate_configuration(initial)
    rng = make_rng(seed)
    view = make_view(game, initial, backend=backend)

    seen: Dict[Configuration, int] = {initial: 0}
    configurations = [initial]
    for round_index in range(1, max_rounds + 1):
        movers: List[Tuple[Miner, Coin]] = []
        unstable = False
        for miner in view.miners:
            target = view.best_response(miner)
            if target is None:
                continue
            unstable = True
            if inertia > 0.0 and rng.random() < inertia:
                continue
            movers.append((miner, target))
        if not unstable:
            return SimultaneousResult(
                configurations=configurations, converged=True, cycle_start=None
            )
        # Targets were all evaluated against the pre-round state, so
        # applying them one by one realizes the simultaneous jump.
        for miner, target in movers:
            view.apply(miner, target)
        config = view.configuration()
        configurations.append(config)
        if inertia == 0.0:
            previous = seen.get(config)
            if previous is not None:
                return SimultaneousResult(
                    configurations=configurations,
                    converged=False,
                    cycle_start=previous,
                )
            seen[config] = round_index
    return SimultaneousResult(
        configurations=configurations, converged=view.is_stable(), cycle_start=None
    )


def cycling_fraction(
    game: Game,
    *,
    starts: int = 20,
    inertia: float = 0.0,
    max_rounds: int = 500,
    seed: RngLike = None,
    backend: str = "fast",
) -> float:
    """Fraction of random starts from which the synchronous dynamic cycles."""
    from repro.core.factories import random_configuration

    rng = make_rng(seed)
    cycles = 0
    for _ in range(starts):
        start = random_configuration(game, seed=rng)
        result = run_simultaneous(
            game, start, inertia=inertia, max_rounds=max_rounds, seed=rng, backend=backend
        )
        cycles += int(result.cycled or not result.converged)
    return cycles / starts
