"""Exact-rational block lottery over the game layer.

The paper's payoff ``u_p(s) = m_p · F(s.p) / M_{s.p}(s)`` is the
*expectation* of a physical process: each coin repeatedly races a block,
and the winner — drawn with probability proportional to power — takes
the whole block reward. This module realizes that process at the game
layer, one *round* at a time (every occupied coin finds exactly one
block per round), with the repo's determinism idiom:

* winners are decided by **integer cumulative thresholds** over a
  shared RNG draw — one uniform integer ``r ∈ [0, M_c)`` per block,
  compared against the cumulative (kernel-scaled, exact) integer powers
  of the miners on the coin. No float enters the decision, so a win is
  exactly the Bernoulli event the model's expectation integrates over;
* all draws come from a caller-provided ``numpy`` generator, so runs
  with the same stream are bit-identical regardless of where they
  execute (serial / thread / process — the batch runners pre-spawn one
  stream per run).

Realized rewards stay exact: a miner that wins ``w`` of ``T`` rounds on
coin ``c`` earned ``w · F(c)`` (a :class:`~fractions.Fraction`), whose
per-round average ``w/T · F(c)`` is an unbiased estimator of the model
payoff. The estimator/risk layers build on these primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.core.miner import Miner
from repro.kernel.core import KernelGame
from repro.kernel.exact import _INT64_SAFE
from repro.obs.recorder import get_recorder
from repro.util.rng import RngLike, make_rng


def draw_below(rng: np.random.Generator, bound: int) -> int:
    """One exact uniform integer in ``[0, bound)`` for any ``bound ≥ 1``.

    Bounds within the int64 range use a single generator call. Larger
    bounds are sampled by rejection on ``bit_length(bound)``-bit chunks
    (32 bits per draw), which is exact for arbitrary-precision masses.
    """
    if bound < 1:
        raise ValueError(f"bound must be ≥ 1, got {bound}")
    if bound <= _INT64_SAFE:
        return int(rng.integers(0, bound))
    bits = bound.bit_length()
    while True:
        value = 0
        remaining = bits
        while remaining > 0:
            take = min(remaining, 32)
            value = (value << take) | int(rng.integers(0, 1 << take))
            remaining -= take
        if value < bound:
            return value


def sample_win_count(
    rng: np.random.Generator, weight: int, mass: int, rounds: int
) -> int:
    """How many of *rounds* blocks a ``weight``-power miner wins.

    The coin carries total integer ``mass`` (the miner's own weight
    included). Each block is one threshold draw ``r ∈ [0, mass)``; the
    miner wins iff ``r < weight`` — exactly Bernoulli(weight/mass) —
    so the count is Binomial(rounds, weight/mass) with no float in the
    decision. This is the marginal the noisy engine estimates payoffs
    from.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be non-negative, got {rounds}")
    if not 0 < weight <= mass:
        raise ValueError(f"need 0 < weight ≤ mass, got weight={weight}, mass={mass}")
    if rounds == 0:
        return 0
    recorder = get_recorder()
    if recorder.enabled:
        recorder.count("stochastic.budget_rounds", rounds)
    if mass <= _INT64_SAFE:
        draws = rng.integers(0, mass, size=rounds)
        return int(np.count_nonzero(draws < weight))
    return sum(1 for _ in range(rounds) if draw_below(rng, mass) < weight)


@dataclass(frozen=True)
class LotterySample:
    """Realized block wins of one lottery run (picklable).

    ``wins[i]`` is how many of the ``rounds`` rounds miner *i* (in
    ``game.miners`` order) won on its coin; per round every occupied
    coin finds exactly one block.
    """

    wins: Tuple[int, ...]
    rounds: int

    def win_frequency(self, index: int) -> Fraction:
        """Exact empirical win rate of miner *index*."""
        if self.rounds == 0:
            return Fraction(0)
        return Fraction(self.wins[index], self.rounds)


def sample_wins_state(
    kernel: KernelGame,
    assign: Sequence[int],
    mass: Sequence[int],
    rounds: int,
    rng: np.random.Generator,
) -> List[int]:
    """Index-level sampler: per-miner win counts for an assignment.

    Coins race in coin-index order; within a coin the cumulative
    thresholds follow miner order, so the draw sequence — and therefore
    the whole sample — is a pure function of the RNG stream.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be non-negative, got {rounds}")
    wins = [0] * kernel.n_miners
    if rounds == 0:
        return wins
    powers = kernel.powers
    occupied = 0
    for j in range(kernel.n_coins):
        total = mass[j]
        if total == 0:
            continue
        occupied += 1
        members = [i for i in range(kernel.n_miners) if assign[i] == j]
        if len(members) == 1:
            wins[members[0]] += rounds
            continue
        if total <= _INT64_SAFE:
            cumulative = np.cumsum([powers[i] for i in members], dtype=np.int64)
            draws = rng.integers(0, total, size=rounds)
            winners = np.searchsorted(cumulative, draws, side="right")
            for position, count in zip(*np.unique(winners, return_counts=True)):
                wins[members[int(position)]] += int(count)
        else:
            cumulative_py: List[int] = []
            running = 0
            for i in members:
                running += powers[i]
                cumulative_py.append(running)
            for _ in range(rounds):
                r = draw_below(rng, total)
                for position, threshold in enumerate(cumulative_py):
                    if r < threshold:
                        wins[members[position]] += 1
                        break
    recorder = get_recorder()
    if recorder.enabled:
        # Every occupied coin finds one block per round.
        recorder.count("stochastic.races", rounds * occupied)
        recorder.count("stochastic.lottery_rounds", rounds)
    return wins


def sample_block_wins(
    game_or_kernel: Union[Game, KernelGame],
    config: Configuration,
    *,
    rounds: int,
    seed: RngLike = None,
) -> LotterySample:
    """Sample *rounds* rounds of block lotteries under *config*."""
    kernel = (
        game_or_kernel
        if isinstance(game_or_kernel, KernelGame)
        else KernelGame(game_or_kernel)
    )
    assign = kernel.assignment_of(config)
    mass = kernel.mass_of(assign)
    wins = sample_wins_state(kernel, assign, mass, rounds, make_rng(seed))
    return LotterySample(wins=tuple(wins), rounds=rounds)


def realized_rewards(
    game: Game, config: Configuration, sample: LotterySample
) -> Dict[Miner, Fraction]:
    """Exact total reward per miner implied by a lottery sample.

    A miner that won ``w`` rounds on coin ``c`` earned ``w · F(c)``;
    dividing by ``sample.rounds`` gives the per-round average whose
    expectation is the model payoff.
    """
    if len(sample.wins) != len(game.miners):
        raise ValueError(
            f"sample covers {len(sample.wins)} miners but the game has "
            f"{len(game.miners)}"
        )
    return {
        miner: sample.wins[i] * game.rewards[config.coin_of(miner)]
        for i, miner in enumerate(game.miners)
    }
