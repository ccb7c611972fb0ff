"""Tests for blockchain bookkeeping."""

import pytest

from repro.chainsim.chain import Block, Blockchain
from repro.chainsim.difficulty import DifficultyRule, StaticDifficulty
from repro.exceptions import SimulationError
from repro.market.coins import bitcoin_spec


@pytest.fixture
def chain():
    return Blockchain(spec=bitcoin_spec(), difficulty=100.0, rule=StaticDifficulty())


class TestAppend:
    def test_heights_sequential(self, chain):
        chain.append(0.1, "a")
        chain.append(0.2, "b")
        assert [b.height for b in chain.blocks] == [0, 1]
        assert chain.height == 2

    def test_reward_paid_per_block(self, chain):
        block = chain.append(0.1, "a")
        assert block.reward_coins == bitcoin_spec().coins_per_block

    def test_time_must_not_decrease(self, chain):
        chain.append(1.0, "a")
        with pytest.raises(SimulationError, match="non-decreasing"):
            chain.append(0.5, "b")

    def test_positive_difficulty_required(self):
        with pytest.raises(SimulationError):
            Blockchain(spec=bitcoin_spec(), difficulty=0.0)


class TestQueries:
    def test_rewards_by_miner(self, chain):
        chain.append(0.1, "a")
        chain.append(0.2, "a")
        chain.append(0.3, "b")
        rewards = chain.rewards_by_miner()
        assert rewards["a"] == pytest.approx(2 * bitcoin_spec().coins_per_block)
        assert rewards["b"] == pytest.approx(bitcoin_spec().coins_per_block)

    def test_blocks_in_window(self, chain):
        for t in (0.5, 1.5, 2.5, 3.5):
            chain.append(t, "a")
        assert chain.blocks_in_window(1.0, 3.0) == 2

    def test_mean_interval(self, chain):
        for t in (0.0, 1.0, 2.0, 4.0):
            chain.append(t, "a")
        assert chain.mean_interval_h() == pytest.approx(4.0 / 3)
        assert chain.mean_interval_h(last=1) == pytest.approx(2.0)

    def test_mean_interval_needs_two_blocks(self, chain):
        assert chain.mean_interval_h() is None
        chain.append(0.0, "a")
        assert chain.mean_interval_h() is None


class RecordingRule(DifficultyRule):
    """Keeps a copy of the timestamps each adjustment was given."""

    def __init__(self):
        self.seen = []

    def adjust(self, timestamps_h, difficulty, target_interval_h):
        self.seen.append(list(timestamps_h))
        return difficulty


class TestRuleTimestamps:
    def test_rule_sees_every_block_time_oldest_first(self):
        rule = RecordingRule()
        chain = Blockchain(spec=bitcoin_spec(), difficulty=100.0, rule=rule)
        for t in (0.5, 1.0, 1.0, 2.5):
            chain.append(t, "a")
        assert rule.seen == [[0.5], [0.5, 1.0], [0.5, 1.0, 1.0], [0.5, 1.0, 1.0, 2.5]]

    def test_chain_built_with_blocks_starts_in_sync(self):
        rule = RecordingRule()
        blocks = [
            Block(height=i, timestamp_h=t, miner="a", reward_coins=1.0)
            for i, t in enumerate((0.0, 0.2, 0.7))
        ]
        chain = Blockchain(
            spec=bitcoin_spec(), difficulty=100.0, rule=rule, blocks=blocks
        )
        chain.append(1.0, "b")
        assert rule.seen == [[0.0, 0.2, 0.7, 1.0]]
        assert chain.mean_interval_h() == pytest.approx(1.0 / 3)
