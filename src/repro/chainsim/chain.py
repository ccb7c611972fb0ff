"""Blockchain bookkeeping: blocks, per-chain state, reward tallies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chainsim.difficulty import DifficultyRule, StaticDifficulty
from repro.exceptions import SimulationError
from repro.market.coins import CoinSpec


@dataclass(frozen=True)
class Block:
    """One mined block: height, wall-clock time, finder, value paid."""

    height: int
    timestamp_h: float
    miner: str
    reward_coins: float


@dataclass
class Blockchain:
    """One coin's chain state within the mining simulation."""

    spec: CoinSpec
    difficulty: float
    rule: DifficultyRule = field(default_factory=StaticDifficulty)
    blocks: List[Block] = field(default_factory=list)
    #: ``blocks``' times, grown by :meth:`append`; a per-block rebuild is O(n²).
    _timestamps_h: List[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.difficulty <= 0:
            raise SimulationError(
                f"{self.spec.name}: initial difficulty must be positive"
            )
        self._timestamps_h = [b.timestamp_h for b in self.blocks]

    @property
    def height(self) -> int:
        return len(self.blocks)

    @property
    def target_interval_h(self) -> float:
        return self.spec.block_interval_s / 3600.0

    def append(self, timestamp_h: float, miner: str) -> Block:
        """Record a found block and run the difficulty rule."""
        if self.blocks and timestamp_h < self.blocks[-1].timestamp_h:
            raise SimulationError(
                f"{self.spec.name}: block timestamps must be non-decreasing"
            )
        block = Block(
            height=self.height,
            timestamp_h=timestamp_h,
            miner=miner,
            reward_coins=self.spec.coins_per_block,
        )
        self.blocks.append(block)
        self._timestamps_h.append(timestamp_h)
        self.difficulty = self.rule.adjust(
            self._timestamps_h, self.difficulty, self.target_interval_h
        )
        if self.difficulty <= 0:
            raise SimulationError(f"{self.spec.name}: difficulty rule produced ≤ 0")
        return block

    def rewards_by_miner(self) -> Dict[str, float]:
        """Total coin units each miner earned on this chain."""
        totals: Dict[str, float] = {}
        for block in self.blocks:
            totals[block.miner] = totals.get(block.miner, 0.0) + block.reward_coins
        return totals

    def blocks_in_window(self, start_h: float, end_h: float) -> int:
        """How many blocks landed in the half-open window [start, end)."""
        return sum(1 for b in self.blocks if start_h <= b.timestamp_h < end_h)

    def mean_interval_h(self, last: Optional[int] = None) -> Optional[float]:
        """Mean spacing of the last *last* blocks (None = whole chain)."""
        times = self._timestamps_h
        if last is not None:
            times = times[-last - 1 :]
        if len(times) < 2:
            return None
        return (times[-1] - times[0]) / (len(times) - 1)
