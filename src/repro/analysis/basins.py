"""Basin-of-attraction analysis: which equilibrium does learning find?

Theorem 1 says learning converges; it does not say *where*. For games
with several equilibria, the reached one depends on the start and on
the improvement path — which is precisely why the reward design
mechanism exists (you cannot rely on luck to land in your favourite
equilibrium). This module measures the empirical landing distribution:

* :func:`basin_profile` — from many random starts, the frequency of
  each reached equilibrium.
* :func:`basin_by_policy` — how much the landing distribution shifts
  across learning policies (same starts, different paths).

E13 reports these; the manipulation planner
(:mod:`repro.manipulation.planner`) uses them to price "wait for luck"
against "pay for the mechanism".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.learning.policies import BetterResponsePolicy
from repro.run import RunSpec, run_many
from repro.util.rng import RngLike, normalize_seed


@dataclass(frozen=True)
class BasinProfile:
    """Landing distribution of equilibria from random starts.

    The raw integer landing counts are the source of truth; float
    frequencies are derived views, so exact consumers (the manipulation
    planner's luck baseline) never round-trip through floats.
    """

    #: equilibrium → number of starts that converged to it.
    counts: Dict[Configuration, int]
    samples: int

    @property
    def frequencies(self) -> Dict[Configuration, float]:
        """equilibrium → fraction of starts that converged to it."""
        return {config: count / self.samples for config, count in self.counts.items()}

    @property
    def distinct_equilibria(self) -> int:
        return len(self.counts)

    def count_of(self, equilibrium: Configuration) -> int:
        """Number of starts that landed on *equilibrium* (0 if unseen)."""
        return self.counts.get(equilibrium, 0)

    def probability_of(self, equilibrium: Configuration) -> float:
        """Empirical probability of landing on *equilibrium* (0 if unseen)."""
        count = self.counts.get(equilibrium, 0)
        return count / self.samples if count else 0.0

    def dominant(self) -> Tuple[Configuration, float]:
        """The most likely equilibrium and its frequency."""
        equilibrium = max(self.counts, key=lambda c: self.counts[c])
        return equilibrium, self.counts[equilibrium] / self.samples

    def entropy(self) -> float:
        """Shannon entropy (bits) of the landing distribution.

        0 means learning is effectively deterministic about where it
        ends; log2(#equilibria) means all basins are equally likely.
        """
        import math

        samples = self.samples
        return -sum(
            (count / samples) * math.log2(count / samples)
            for count in self.counts.values()
            if count > 0
        )


def basin_profile(
    game: Game,
    *,
    samples: int = 50,
    policy: Optional[BetterResponsePolicy] = None,
    seed: RngLike = None,
    backend: str = "fast",
    executor: str = "auto",
    max_workers: Optional[int] = None,
) -> BasinProfile:
    """Estimate the landing distribution from uniform random starts.

    Sampling routes through :func:`repro.run_many` — *executor* picks
    the mechanism (``"vectorized"`` tensor kernel, pooled workers, or
    ``"auto"``); the seeding scheme is the library-wide convention
    (stream ``2i`` draws start *i*, stream ``2i+1`` drives its engine),
    so the counts are identical in every mode.
    """
    if samples < 1:
        raise ValueError(f"samples must be ≥ 1, got {samples}")
    summaries = run_many(
        [
            RunSpec(
                game=game,
                runs=samples,
                policy=policy,
                backend=backend,
                seed=normalize_seed(seed),
            )
        ],
        executor=executor,
        max_workers=max_workers,
    )[0]
    counts: Dict[Configuration, int] = {}
    for summary in summaries:
        final = summary.final_configuration(game)
        counts[final] = counts.get(final, 0) + 1
    return BasinProfile(counts=counts, samples=samples)


def basin_by_policy(
    game: Game,
    policies: Sequence[BetterResponsePolicy],
    *,
    samples: int = 30,
    seed: int = 0,
    backend: str = "fast",
    executor: str = "auto",
    max_workers: Optional[int] = None,
) -> Dict[str, BasinProfile]:
    """Landing distributions per policy (shared starting points)."""
    return {
        policy.name: basin_profile(
            game,
            samples=samples,
            policy=policy,
            seed=seed,
            backend=backend,
            executor=executor,
            max_workers=max_workers,
        )
        for policy in policies
    }


def expected_payoff_from_luck(
    game: Game, miner, profile: BasinProfile
):
    """A miner's expected payoff if the market just 'falls' somewhere.

    The baseline a rational manipulator compares the design mechanism
    against: do nothing and take the basin-weighted average payoff.
    Exact: the weights are the profile's raw integer landing counts
    over its sample total, not float frequencies.
    """
    from fractions import Fraction

    total = Fraction(0)
    for equilibrium, count in profile.counts.items():
        total += game.payoff(miner, equilibrium) * Fraction(count, profile.samples)
    return total
