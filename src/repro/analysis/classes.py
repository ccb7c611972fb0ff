"""Population-level analysis over the compressed class kernel.

The per-miner analyses (:mod:`repro.analysis.basins`,
:mod:`repro.analysis.convergence`) identify a trajectory's endpoint by
its :class:`~repro.core.configuration.Configuration`. At population
scale that object does not exist — a million-miner game never
materializes miners — so these helpers speak the class kernel's native
currency instead: a *count profile*, the tuple-of-tuples count matrix
of :class:`~repro.kernel.classes.ClassGame` (miners per class × coin).

* :func:`measure_class_convergence` — macro-step statistics of the
  chunked class stepper over seeded multinomial starts, folded into
  the same :class:`~repro.analysis.convergence.ConvergenceStats` shape
  the E2 grid uses.
* :func:`class_basin_profile` — the landing distribution over stable
  count profiles, with orbit weights available exactly (how many
  per-miner equilibria each profile represents).

Execution routes through :func:`repro.run_many` with
``kind="classes"`` cells, so the seeding convention (stream ``2i``
draws start *i*, ``2i+1`` drives its stepper) matches every other
batch lane in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.core.game import Game
from repro.kernel.classes import ClassGame, Profile
from repro.analysis.convergence import ConvergenceStats, stats_from_steps
from repro.util.rng import RngLike, normalize_seed

GameLike = Union[Game, ClassGame]


def _as_class_game(game: GameLike) -> ClassGame:
    return game if isinstance(game, ClassGame) else ClassGame.from_game(game)


@dataclass(frozen=True)
class ClassBasinProfile:
    """Landing distribution over stable *count profiles*.

    The compressed sibling of
    :class:`~repro.analysis.basins.BasinProfile`: keys are count
    matrices (one per equilibrium *orbit*), not per-miner
    configurations. ``orbit_sizes`` maps each reached profile to the
    exact number of per-miner equilibria it represents, so expanding
    ``counts`` by ``orbit_sizes`` recovers per-miner multiplicities
    without ever enumerating miners.
    """

    #: stable count profile → number of starts that converged to it.
    counts: Dict[Profile, int]
    samples: int
    #: stable count profile → exact per-miner orbit size (multinomial).
    orbit_sizes: Dict[Profile, int]

    @property
    def frequencies(self) -> Dict[Profile, float]:
        """count profile → fraction of starts that converged to it."""
        return {profile: count / self.samples for profile, count in self.counts.items()}

    @property
    def distinct_equilibria(self) -> int:
        """Number of distinct equilibrium *orbits* reached."""
        return len(self.counts)

    def count_of(self, profile: Profile) -> int:
        """Number of starts that landed on *profile* (0 if unseen)."""
        return self.counts.get(profile, 0)

    def dominant(self) -> Tuple[Profile, float]:
        """The most likely landing profile and its frequency."""
        profile = max(self.counts, key=lambda p: self.counts[p])
        return profile, self.counts[profile] / self.samples

    def entropy(self) -> float:
        """Shannon entropy (bits) of the landing distribution."""
        samples = self.samples
        return -sum(
            (count / samples) * math.log2(count / samples)
            for count in self.counts.values()
            if count > 0
        )


def _run_class_cells(
    cgame: ClassGame,
    *,
    runs: int,
    policy: Optional[str],
    scheduler: Optional[str],
    max_steps: Optional[int],
    seed: RngLike,
):
    from repro.run import RunSpec, run_many

    return run_many(
        [
            RunSpec(
                game=cgame,
                runs=runs,
                kind="classes",
                policy=policy,
                scheduler=scheduler,
                max_steps=max_steps,
                seed=normalize_seed(seed),
            )
        ]
    )[0]


def measure_class_convergence(
    game: GameLike,
    *,
    runs: int = 20,
    policy: Optional[str] = None,
    scheduler: Optional[str] = None,
    max_steps: Optional[int] = None,
    seed: RngLike = None,
) -> ConvergenceStats:
    """Macro-step statistics of the chunked class stepper.

    Accepts a per-miner :class:`Game`, masked or not (compressed on
    entry), or a ready
    :class:`ClassGame` built ``from_spec`` — the only route when the
    population is too large to materialize. Steps here are *macro*
    steps (one chunked class move each), so the numbers measure the
    compressed dynamic itself, not a per-miner path length. Every step
    of the class stepper is an exact better-response move, so the
    potential-monotone invariant holds by construction and the
    returned fraction is 1.
    """
    if runs < 1:
        raise ValueError(f"runs must be ≥ 1, got {runs}")
    cgame = _as_class_game(game)
    results = _run_class_cells(
        cgame,
        runs=runs,
        policy=policy,
        scheduler=scheduler,
        max_steps=max_steps,
        seed=seed,
    )
    return stats_from_steps([result.steps for result in results], monotone=runs)


def class_basin_profile(
    game: GameLike,
    *,
    samples: int = 50,
    policy: Optional[str] = None,
    scheduler: Optional[str] = None,
    max_steps: Optional[int] = None,
    seed: RngLike = None,
) -> ClassBasinProfile:
    """Landing distribution over stable count profiles.

    Each sample draws a uniform-multinomial start per class (stream
    ``2i``) and runs the chunked class stepper (stream ``2i+1``); the
    reached stable profile is tallied. ``orbit_sizes`` carries the
    exact per-miner multiplicity of every reached profile from
    :meth:`ClassGame.orbit_size` — no per-miner enumeration.
    """
    if samples < 1:
        raise ValueError(f"samples must be ≥ 1, got {samples}")
    cgame = _as_class_game(game)
    results = _run_class_cells(
        cgame,
        runs=samples,
        policy=policy,
        scheduler=scheduler,
        max_steps=max_steps,
        seed=seed,
    )
    counts: Dict[Profile, int] = {}
    for result in results:
        counts[result.final] = counts.get(result.final, 0) + 1
    orbit_sizes = {profile: cgame.orbit_size(profile) for profile in counts}
    return ClassBasinProfile(counts=counts, samples=samples, orbit_sizes=orbit_sizes)
