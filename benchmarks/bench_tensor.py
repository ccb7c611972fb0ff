"""Benchmarks for the tensor population kernel behind ``run_many``.

The headline claim of the batch API redesign: an E2-style population
(a 100×10 game, many trajectories from random starts) runs an order of
magnitude faster through ``executor="vectorized"`` than through a
worker pool, because the tensor kernel advances *every* live
trajectory with one numpy step instead of re-entering the scalar
stepper per run. Measured at population 1000 on a 2-vCPU VM (one BLAS
thread; vectorized best of five single rounds, the others one round):
vectorized 0.39 s on the float-lane ``random_game`` and 0.32 s on the
int-lane integer game, vs process 8.1 s vs serial 14.5 s (~37×).

Three population sizes chart the crossover: at 10 runs the pool/array
overheads dominate, at 100 vectorization already wins, at 1000 it is
well over 10× and the gap keeps widening with population size. The
int-lane case times the exact int64 lane that integer games (such as
perfbench's ``population`` workload) take. Every variant asserts the
same converged-run count, so the speedup is measured on bit-identical
work (``tests/test_tensor_parity.py`` holds the full parity proof).
"""

import numpy as np
import pytest

from repro.core.factories import random_game
from repro.core.game import Game
from repro.kernel.core import KernelGame
from repro.kernel.tensor import kernel_lane
from repro.run import RunSpec, run_many

#: The E2-style workload: the suite's largest standard game shape.
#: ``random_game``'s fractional powers put it in the float lane.
GAME = random_game(100, 10, seed=0)


def _int_game(seed: int) -> Game:
    """The same shape with distinct integer powers and integer rewards."""
    rng = np.random.default_rng(seed)
    powers = rng.choice(np.arange(1, 1001), 100, replace=False)
    rewards = rng.integers(10, 100, 10)
    return Game.create([int(p) for p in powers], [int(r) for r in rewards])


#: The int64 lane, which integer games such as perfbench's use.
INT_GAME = _int_game(0)


def _population(executor: str, runs: int, game: Game = GAME):
    cells = [RunSpec(game=game, runs=runs, seed=7)]
    return run_many(cells, executor=executor)[0]


@pytest.mark.parametrize("runs", [10, 100, 1000])
def test_vectorized_population(benchmark, runs):
    summaries = benchmark.pedantic(
        _population, args=("vectorized", runs), iterations=1, rounds=1
    )
    assert len(summaries) == runs
    assert all(summary.converged for summary in summaries)


@pytest.mark.parametrize("runs", [100, 1000])
def test_vectorized_population_int_lane(benchmark, runs):
    assert kernel_lane(KernelGame(INT_GAME)) == "int"
    summaries = benchmark.pedantic(
        _population, args=("vectorized", runs, INT_GAME), iterations=1, rounds=1
    )
    assert len(summaries) == runs
    assert all(summary.converged for summary in summaries)


@pytest.mark.parametrize("runs", [10, 100, 1000])
def test_serial_population(benchmark, runs):
    summaries = benchmark.pedantic(
        _population, args=("serial", runs), iterations=1, rounds=1
    )
    assert len(summaries) == runs
    assert all(summary.converged for summary in summaries)


def test_process_population_1000(benchmark):
    summaries = benchmark.pedantic(
        _population, args=("process", 1000), iterations=1, rounds=1
    )
    assert len(summaries) == 1000
    assert all(summary.converged for summary in summaries)


def test_all_executors_identical_at_100(benchmark):
    """The speedup is on identical work: every executor, same summaries."""

    def sweep():
        return {
            executor: _population(executor, 100)
            for executor in ("serial", "vectorized", "process")
        }

    results = benchmark.pedantic(sweep, iterations=1, rounds=1)
    assert results["serial"] == results["vectorized"] == results["process"]
