"""The :func:`repro.run_many` front door: equivalence, seeding, fallback.

Four families of guarantees:

* **Executor equivalence** — the same cell list returns bit-identical
  results under every executor mode (the whole point of the redesign).
* **One fold** — a ``stream=True`` cell is exactly
  :meth:`~repro.kernel.batch.CellStats.fold` of its summary list, and
  ``run_many`` is the only public batch entry point.
* **Seeding** — explicit ``RunSpec.seed`` reproduces the pool helpers
  exactly, and derived seeds are append-stable.
* **Pool fallback** — a broken worker pool degrades quietly to serial
  with the original error surfaced in the warning.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro import EXECUTORS, RunSpec, run_many
from repro.core.factories import random_game
from repro.kernel.batch import BatchRunner, CellStats, PooledRunner
from repro.learning.policies import BestResponsePolicy, MinimalGainPolicy
from repro.learning.schedulers import RoundRobinScheduler
from repro.stochastic.noisy_engine import NoisyBatchRunner, NoisyLearningEngine


def _cells():
    game_a = random_game(6, 3, seed=1)
    game_b = random_game(6, 3, seed=2)  # same shape: shares tensor buckets
    game_c = random_game(9, 2, seed=3)
    return [
        RunSpec(game=game_a, runs=5, seed=11),
        RunSpec(game=game_b, runs=5, policy=BestResponsePolicy(), seed=12),
        RunSpec(game=game_c, runs=4, policy=MinimalGainPolicy(),
                scheduler=RoundRobinScheduler(), seed=13),
        RunSpec(game=game_a, runs=6, kind="noisy",
                engine=NoisyLearningEngine(budget=8, max_activations=400), seed=14),
    ]


def test_every_executor_returns_identical_results():
    reference = run_many(_cells(), executor="serial")
    for mode in ("auto", "thread", "vectorized"):
        assert run_many(_cells(), executor=mode) == reference


@pytest.mark.parametrize("backend, builds", [("fast", 1), ("exact", 0)])
def test_scalar_cell_builds_one_kernel_game(monkeypatch, backend, builds):
    """Every run of a serial cell plays one game: the chunk builds its
    KernelGame once and hands it to each run's view ("fast" only)."""
    from repro.kernel.core import KernelGame

    built = []
    original = KernelGame.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(KernelGame, "__init__", counting)
    cell = RunSpec(game=random_game(6, 3, seed=1), runs=6, seed=11, backend=backend)
    run_many([cell], executor="serial")
    assert len(built) == builds


def test_engine_rejects_a_kernel_on_other_backends():
    from repro.core.factories import random_configuration
    from repro.kernel.core import KernelGame
    from repro.learning.engine import LearningEngine

    game = random_game(6, 3, seed=1)
    start = random_configuration(game, seed=2)
    kernel = KernelGame(game)
    fast = LearningEngine(backend="fast", record="summary")
    assert fast.run(game, start, seed=3, kernel=kernel) == fast.run(game, start, seed=3)
    with pytest.raises(ValueError, match="only used by backend='fast'"):
        LearningEngine(backend="exact").run(game, start, seed=3, kernel=kernel)


def test_matches_direct_runner_calls():
    """run_many is a router: cell results equal the underlying runners'."""
    cells = _cells()
    results = run_many(cells, executor="serial")
    with BatchRunner() as runner:
        for cell, cell_results in zip(cells[:3], results[:3]):
            assert cell_results == runner.run(
                cell.game, runs=cell.runs, policy=cell.policy,
                scheduler=cell.scheduler, seed=cell.seed,
            )
    with NoisyBatchRunner() as runner:
        assert results[3] == runner.run(
            cells[3].game, replications=cells[3].runs,
            engine=cells[3].engine, seed=cells[3].seed,
        )


@pytest.mark.parametrize("executor", ["serial", "thread", "process", "vectorized"])
def test_streamed_cells_fold_their_summaries(executor):
    """``stream=True`` is the one CellStats fold of the summary list, on every path."""
    cells = [cell for cell in _cells() if cell.kind == "trajectory"]
    summaries = run_many(cells, executor="serial")
    with warnings.catch_warnings():
        # Hosts without process pools degrade to serial.
        warnings.simplefilter("ignore", RuntimeWarning)
        streamed = run_many(
            [dataclasses.replace(cell, stream=True) for cell in cells],
            executor=executor,
            max_workers=2,
        )
    for records, stats in zip(summaries, streamed):
        assert stats == CellStats.fold(
            [(s.steps, s.converged, s.final_coins) for s in records],
            records[0].policy_name,
            records[0].scheduler_name,
        )
        assert stats.runs == len(records)


def test_cellstats_merge_of_chunk_folds_is_the_whole_fold():
    records = [
        (3, True, ("a", "b")),
        (0, True, ("b", "b")),
        (7, False, ("a", "b")),
        (2, True, ("a", "a")),
        (5, True, ("b", "b")),
    ]
    whole = CellStats.fold(records, "p", "s")
    for cut in range(1, len(records)):
        parts = [CellStats.fold(records[:cut], "p", "s"), CellStats.fold(records[cut:], "p", "s")]
        assert CellStats.merge(parts) == whole
    assert whole.steps == (3, 0, 7, 2, 5)
    assert whole.converged == 4
    assert whole.final_counts() == {("a", "a"): 1, ("a", "b"): 2, ("b", "b"): 2}
    assert whole.mean_steps == pytest.approx(17 / 5)


def test_trajectory_pool_helper_has_no_vectorized_mode():
    """Vectorized trajectory cells run only through run_many's tensor path."""
    assert "vectorized" not in BatchRunner.pool_modes
    with pytest.raises(ValueError, match="executor"):
        BatchRunner(executor="vectorized")


def test_run_many_is_the_only_batch_entry_point():
    import repro
    import repro.kernel
    import repro.stochastic
    from repro.analysis.basins import basin_profile
    from repro.analysis.convergence import measure_convergence
    from repro.experiments import e02_convergence

    for module in (repro, repro.kernel, repro.stochastic):
        assert not hasattr(module, "run_trajectory_batch")
        assert not hasattr(module, "run_noisy_batch")
        assert "BatchRunner" not in module.__all__
        assert "NoisyBatchRunner" not in module.__all__
    game = random_game(4, 2, seed=0)
    with BatchRunner() as runner:
        with pytest.raises(TypeError):
            measure_convergence(game, runs=2, seed=1, runner=runner)
        with pytest.raises(TypeError):
            basin_profile(game, samples=2, seed=1, runner=runner)
    with pytest.raises(TypeError):
        e02_convergence.run(miner_counts=(5,), coin_counts=(2,), runs_per_cell=1, workers=1)


def test_derived_seeds_are_append_stable():
    """Appending a cell never changes earlier cells' derived randomness."""
    game = random_game(5, 2, seed=4)
    short = [RunSpec(game=game, runs=3)]
    longer = short + [RunSpec(game=game, runs=3)]
    assert run_many(short, seed=99)[0] == run_many(longer, seed=99)[0]


def test_runspec_validation():
    game = random_game(4, 2, seed=0)
    with pytest.raises(ValueError, match="runs"):
        RunSpec(game=game, runs=0)
    with pytest.raises(ValueError, match="kind"):
        RunSpec(game=game, runs=1, kind="bogus")
    with pytest.raises(ValueError, match="backend"):
        RunSpec(game=game, runs=1, backend="bogus")
    with pytest.raises(ValueError, match="engine"):
        RunSpec(game=game, runs=1, kind="noisy", policy=BestResponsePolicy())
    with pytest.raises(ValueError, match="policy"):
        RunSpec(game=game, runs=1, engine=NoisyLearningEngine())


def test_executor_validation():
    with pytest.raises(ValueError, match="executor"):
        run_many([], executor="bogus")
    assert run_many([], executor="auto") == []
    assert set(EXECUTORS) == {"auto", "serial", "thread", "process", "vectorized"}


def test_broken_pool_degrades_quietly_and_names_the_error(monkeypatch):
    """Pool creation failure → serial results + the original exception."""
    game = random_game(6, 2, seed=9)
    reference = run_many([RunSpec(game=game, runs=8, seed=21)], executor="serial")[0]

    def explode(self, mode, workers):
        raise OSError("semaphores exhausted (simulated)")

    monkeypatch.setattr(PooledRunner, "_get_pool", explode)
    with pytest.warns(RuntimeWarning, match="OSError: semaphores exhausted"):
        degraded = run_many(
            [RunSpec(game=game, runs=8, seed=21)],
            executor="process",
            max_workers=2,
        )[0]
    assert degraded == reference
