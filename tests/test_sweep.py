"""The sweep fabric: grids, fingerprints, shards, cache, crash-resume.

Four families of guarantees:

* **Grids** — deterministic expansion, stable labels, validation.
* **Fingerprints** — pure content (seed/label excluded), append-stable
  derived seeding, coordination-free shard partition.
* **Cache** — exact round trips for every result kind, hit/miss/write
  counters, overlapping grids sharing entries.
* **Crash safety** — a shard SIGKILLed mid-sweep resumes from its cache
  commits and the merged report is byte-identical to an uninterrupted
  run (the acceptance criterion of the fabric).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.core.factories import random_game
from repro.experiments import EXPERIMENTS, e02_convergence, e09_learning_speed
from repro.kernel.batch import CellStats
from repro.learning.policies import BestResponsePolicy, MinimalGainPolicy
from repro.obs import MetricsRecorder, observe
from repro.run import RunSpec, run_many
from repro.stochastic.noisy_engine import NoisyLearningEngine
from repro.sweep import (
    REPORT_FORMAT,
    ResultCache,
    SweepError,
    SweepGrid,
    cell_fingerprint,
    labeled,
    merge_sweep,
    parse_shard,
    result_from_dict,
    result_to_dict,
    run_sweep,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _small_grid(seed=None, runs=3):
    game_a = random_game(5, 2, seed=1)
    game_b = random_game(6, 3, seed=2)
    return SweepGrid(
        {
            "game": [labeled("a", game_a), labeled("b", game_b)],
            "policy": [BestResponsePolicy(), MinimalGainPolicy()],
        },
        base={"runs": runs, "stream": True, "seed": seed},
    )


class TestGrid:
    def test_expansion_is_deterministic(self):
        first = _small_grid().cells()
        second = _small_grid().cells()
        assert [c.cell_id for c in first] == [c.cell_id for c in second]
        assert [c.fingerprint for c in first] == [c.fingerprint for c in second]

    def test_first_axis_is_outermost(self):
        ids = [c.cell_id for c in _small_grid().cells()]
        assert ids == [
            "game=a/policy=best-response",
            "game=a/policy=minimal-gain",
            "game=b/policy=best-response",
            "game=b/policy=minimal-gain",
        ]

    def test_non_runspec_field_rejected(self):
        with pytest.raises(ValueError, match="not a RunSpec field"):
            SweepGrid({"wheels": [1, 2]})

    def test_axes_base_overlap_rejected(self):
        game = random_game(4, 2, seed=0)
        with pytest.raises(ValueError, match="both set"):
            SweepGrid({"game": [game]}, base={"game": game})

    def test_duplicate_cell_ids_rejected(self):
        game = random_game(4, 2, seed=0)
        with pytest.raises(ValueError, match="duplicate cell id"):
            SweepGrid(
                {"game": [labeled("same", game), labeled("same", game)]},
                base={"runs": 2},
            ).cells()

    def test_exclude_filters_and_empty_grid_rejected(self):
        grid = _small_grid()
        filtered = SweepGrid(
            grid.axes, base=grid.base,
            exclude=lambda v: v["policy"].name == "minimal-gain",
        )
        assert len(filtered) == 2
        with pytest.raises(ValueError, match="zero cells"):
            SweepGrid(grid.axes, base=grid.base, exclude=lambda v: True).cells()

    def test_override_sets_runspec_fields_only(self):
        game = random_game(4, 2, seed=0)
        grid = SweepGrid(
            {"game": [game]}, base={"runs": 2}, override=lambda v: {"seed": 7}
        )
        assert grid.cells()[0].spec.seed == 7
        bad = SweepGrid(
            {"game": [game]}, base={"runs": 2}, override=lambda v: {"bogus": 1}
        )
        with pytest.raises(ValueError, match="non-RunSpec field"):
            bad.cells()


class TestFingerprints:
    def test_seed_and_label_excluded(self):
        game = random_game(5, 2, seed=1)
        base = RunSpec(game=game, runs=4, seed=1, label="x")
        other = RunSpec(game=game, runs=4, seed=2, label="y")
        assert cell_fingerprint(base) == cell_fingerprint(other)

    def test_unmasked_fingerprint_is_pinned(self):
        """Existing caches stay valid: an unmasked cell's key is fixed."""
        spec = RunSpec(game=random_game(5, 3, seed=7), runs=4)
        assert cell_fingerprint(spec) == (
            "ecb2a34c181d7447fbb015d351c827aacee3928629ed59f170be194a7f846ab9"
        )

    def test_mask_changes_the_fingerprint(self):
        game = random_game(5, 3, seed=7)
        masked = game.with_allowed({game.miners[0]: [game.coins[1]]})
        keys = {
            cell_fingerprint(RunSpec(game=g, runs=4))
            for g in (game, masked, masked.with_allowed({game.miners[0]: [game.coins[2]]}))
        }
        assert len(keys) == 3

    def test_content_changes_the_fingerprint(self):
        game = random_game(5, 2, seed=1)
        base = RunSpec(game=game, runs=4)
        assert cell_fingerprint(base) != cell_fingerprint(RunSpec(game=game, runs=5))
        assert cell_fingerprint(base) != cell_fingerprint(
            RunSpec(game=game, runs=4, policy=BestResponsePolicy())
        )
        assert cell_fingerprint(base) != cell_fingerprint(
            RunSpec(game=random_game(5, 2, seed=2), runs=4)
        )

    def test_derived_seeds_are_append_stable(self):
        """A cell's randomness depends on root + content, not position."""
        import numpy as np

        root = np.random.SeedSequence(42)
        small = _small_grid().cells()
        grid = _small_grid()
        bigger = SweepGrid(
            {
                "game": grid.axes["game"] + [labeled("c", random_game(7, 2, seed=9))],
                "policy": grid.axes["policy"],
            },
            base=grid.base,
        ).cells()
        by_id = {c.cell_id: c for c in bigger}
        for cell in small:
            mine = cell.resolve_seed(root)
            theirs = by_id[cell.cell_id].resolve_seed(root)
            assert mine.entropy == theirs.entropy

    def test_explicit_seed_passes_through(self):
        import numpy as np

        cell = _small_grid(seed=123).cells()[0]
        assert cell.resolve_seed(np.random.SeedSequence(42)) == 123

    def test_cache_key_binds_seed_and_version(self, monkeypatch):
        import numpy as np

        cell = _small_grid().cells()[0]
        root_a, root_b = np.random.SeedSequence(1), np.random.SeedSequence(2)
        assert cell.cache_key(root_a) != cell.cache_key(root_b)
        assert cell.cache_key(root_a) != cell.cache_key(root_a, version="0.0.0")
        # Generator streams may change across numpy releases.
        key = cell.cache_key(root_a)
        monkeypatch.setattr(np, "__version__", "0.0.0")
        assert cell.cache_key(root_a) != key


class TestShards:
    def test_parse_shard(self):
        assert parse_shard(None) is None
        assert parse_shard("2/8") == (2, 8)
        assert parse_shard((1, 3)) == (1, 3)
        for bad in ("0/3", "4/3", "1/0", "x/y"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_partition_covers_cells_exactly_once(self, n_shards):
        cells = e02_convergence.sweep_grid(
            miner_counts=(5, 8), coin_counts=(2, 3), runs_per_cell=2, seed=0
        ).cells()
        assigned = [cell.shard(n_shards) for cell in cells]
        assert all(0 <= index < n_shards for index in assigned)
        # Partition is a pure function of content: stable across calls.
        assert assigned == [cell.shard(n_shards) for cell in cells]

    def test_shard_requires_out(self):
        with pytest.raises(SweepError, match="requires out"):
            run_sweep(_small_grid(seed=3), shard="1/2")

    def test_sharded_runs_meet_in_cache_and_merge(self, tmp_path):
        out = str(tmp_path / "sweep")
        grid = lambda: _small_grid(seed=3)  # noqa: E731
        parts = [run_sweep(grid(), out=out, seed=0, shard=f"{k}/3") for k in (1, 2, 3)]
        assert sum(len(part.cells) for part in parts) == 4
        merged = merge_sweep(out)
        solo = run_sweep(grid(), seed=0)
        assert merged["benchmarks"] == solo.report["benchmarks"]


class TestCache:
    def test_round_trips_every_result_kind(self):
        from repro.sweep.cache import cell_result_from_records, cell_result_to_records

        game = random_game(5, 2, seed=4)
        specs = [
            RunSpec(game=game, runs=3, seed=5),
            RunSpec(game=game, runs=3, seed=5, stream=True),
            RunSpec(game=game, runs=3, kind="noisy", seed=5,
                    engine=NoisyLearningEngine(budget=4, max_activations=200)),
        ]
        for spec, result in zip(specs, run_many(specs)):
            stream, records = cell_result_to_records(result)
            rebuilt = cell_result_from_records(
                stream, json.loads(json.dumps(records))
            )
            assert rebuilt == result
        stats = run_many([specs[1]])[0]
        assert result_from_dict(result_to_dict(stats)) == stats

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        stats = CellStats(runs=1, policy_name="p", scheduler_name="s",
                          steps=(3,), converged=1, finals=())
        key = "ab" + "0" * 62
        cache.store(key, stats, cell_id="cell")
        assert cache.load(key) == stats
        with open(cache.path_for(key), "w") as handle:
            handle.write("{not json")
        assert cache.load(key) is None

    def test_counters_fire(self, tmp_path):
        out = str(tmp_path / "sweep")
        recorder = MetricsRecorder()
        with observe(recorder):
            run_sweep(_small_grid(seed=3), out=out, seed=0)
            run_sweep(_small_grid(seed=3), out=out, seed=0)
        assert recorder.counters["sweep.cache.misses"] == 4
        assert recorder.counters["sweep.cache.writes"] == 4
        assert recorder.counters["sweep.cache.hits"] == 4
        assert recorder.counters["sweep.cells"] == 8

    def test_overlapping_grid_reuses_entries(self, tmp_path):
        out = str(tmp_path / "sweep")
        run_sweep(_small_grid(seed=3), out=out, seed=0)
        grid = _small_grid(seed=3)
        wider = SweepGrid(
            {
                "game": grid.axes["game"] + [labeled("c", random_game(7, 2, seed=9))],
                "policy": grid.axes["policy"],
            },
            base=grid.base,
        )
        second = run_sweep(wider, out=out, seed=0)
        assert second.cache_hits == 4
        assert second.cache_misses == 2

    def test_changed_source_misses(self, tmp_path, monkeypatch):
        from repro.sweep import grid as grid_module

        out = str(tmp_path / "sweep")
        run_sweep(_small_grid(seed=3), out=out, seed=0)
        assert run_sweep(_small_grid(seed=3), out=out, seed=0).cache_hits == 4
        # Same version string, different code: nothing may be served.
        monkeypatch.setattr(grid_module, "source_digest", lambda: "0" * 64)
        edited = run_sweep(_small_grid(seed=3), out=out, seed=0)
        assert edited.cache_hits == 0
        assert edited.cache_misses == 4

    def test_source_digest_is_memoized_hex(self):
        from repro.sweep.grid import source_digest

        digest = source_digest()
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert source_digest() is digest


class TestRunSweep:
    def test_ephemeral_equals_cached(self, tmp_path):
        cached = run_sweep(_small_grid(seed=3), out=str(tmp_path / "s"), seed=0)
        ephemeral = run_sweep(_small_grid(seed=3), seed=0)
        assert cached.in_order() == ephemeral.in_order()
        assert cached.report == ephemeral.report

    @pytest.mark.parametrize("executor", ["serial", "thread", "vectorized"])
    def test_executors_agree(self, executor):
        reference = run_sweep(_small_grid(seed=3), executor="auto")
        assert run_sweep(_small_grid(seed=3), executor=executor).report == reference.report

    def test_wave_size_does_not_change_results(self, tmp_path):
        one = run_sweep(_small_grid(seed=3), out=str(tmp_path / "a"), seed=0, wave=1)
        all_at_once = run_sweep(_small_grid(seed=3), out=str(tmp_path / "b"), seed=0)
        assert one.report == all_at_once.report

    def test_root_seed_mismatch_refused(self, tmp_path):
        out = str(tmp_path / "sweep")
        run_sweep(_small_grid(), out=out, seed=0)
        with pytest.raises(SweepError, match="root seed"):
            run_sweep(_small_grid(), out=out, seed=1)

    def test_no_resume_refuses_existing_shard_unless_forced(self, tmp_path):
        out = str(tmp_path / "sweep")
        run_sweep(_small_grid(seed=3), out=out, seed=0)
        with pytest.raises(SweepError, match="resume=False"):
            run_sweep(_small_grid(seed=3), out=out, seed=0, resume=False)
        forced = run_sweep(_small_grid(seed=3), out=out, seed=0, resume=False, force=True)
        assert forced.cache_hits == 0  # recomputed from scratch, deterministically
        assert forced.cache_misses == 4

    def test_merge_names_missing_cells_and_shards(self, tmp_path):
        out = str(tmp_path / "sweep")
        result = run_sweep(_small_grid(seed=3), out=out, seed=0)
        victim = result.cells[0]
        os.unlink(ResultCache(os.path.join(out, "cache")).path_for(
            result.keys[victim.cell_id]
        ))
        with pytest.raises(SweepError, match=victim.cell_id):
            merge_sweep(out)

    def test_resume_recomputes_only_missing_cells(self, tmp_path):
        out = str(tmp_path / "sweep")
        first = run_sweep(_small_grid(seed=3), out=out, seed=0)
        victim = first.cells[2]
        os.unlink(ResultCache(os.path.join(out, "cache")).path_for(
            first.keys[victim.cell_id]
        ))
        second = run_sweep(_small_grid(seed=3), out=out, seed=0)
        assert second.cache_hits == 3
        assert second.cache_misses == 1
        assert second.report == first.report


class TestReport:
    def test_report_shape_and_determinism(self, tmp_path):
        result = run_sweep(_small_grid(seed=3), out=str(tmp_path / "s"), seed=0)
        report = result.report
        assert report["format"] == REPORT_FORMAT
        assert report["units"] == "steps"
        assert {"repro_version", "python", "numpy"} <= set(report["repro_stamp"])
        assert len(report["benchmarks"]) == 4
        for bench in report["benchmarks"]:
            assert bench["fullname"].startswith("sweep::")
            assert set(bench["stats"]) >= {"mean", "min", "max", "stddev", "rounds"}
        with open(result.report_path) as handle:
            assert json.load(handle) == report

    def test_no_wall_clock_in_report(self, tmp_path):
        """Reports must be bit-identical across reruns: no timestamps."""
        result = run_sweep(_small_grid(seed=3), out=str(tmp_path / "s"), seed=0)
        blob = json.dumps(result.report)
        for banned in ("wall", "time", "host", "date"):
            assert banned not in blob

    def test_compare_py_accepts_sweep_reports(self, tmp_path, capsys):
        sys.path.insert(0, os.path.join(REPO, "benchmarks"))
        try:
            import compare
        finally:
            sys.path.pop(0)
        result = run_sweep(_small_grid(seed=3), out=str(tmp_path / "s"), seed=0)
        assert compare.main([result.report_path, result.report_path]) == 0
        out = capsys.readouterr().out
        assert "sweep::game=a/policy=best-response" in out
        # A timing artifact cannot be diffed against a steps report.
        bench_style = dict(result.report)
        bench_style.pop("units")
        fake = tmp_path / "bench.json"
        fake.write_text(json.dumps(bench_style))
        assert compare.main([str(fake), result.report_path]) == 2


class TestExperimentGrids:
    def test_registry_exposes_sweepable_experiments(self):
        sweepable = {n for n, s in EXPERIMENTS.items() if s.sweep_grid is not None}
        assert {"E2", "E9", "E15"} <= sweepable

    def test_e9_grid_matches_run_many_numbers(self):
        grid = e09_learning_speed.sweep_grid(miners=6, coins=2, runs=3, seed=5)
        swept = run_sweep(grid).in_order()
        for cell, stats in zip(grid.cells(), swept):
            direct = run_many([cell.spec])[0]
            assert stats == direct


KILL_SCRIPT = textwrap.dedent(
    """
    import os, signal
    from repro.experiments.e02_convergence import sweep_grid
    from repro.sweep import run_sweep
    from repro.sweep.cache import ResultCache

    original = ResultCache.store
    committed = dict(n=0)

    def killing_store(self, key, result, *, cell_id):
        original(self, key, result, cell_id=cell_id)
        committed["n"] += 1
        if committed["n"] == 2:
            os.kill(os.getpid(), signal.SIGKILL)

    ResultCache.store = killing_store
    grid = sweep_grid(miner_counts=(5, 8), coin_counts=(2, 3), runs_per_cell=3, seed=21)
    run_sweep(grid, out={out!r}, seed=21, wave=1)
    """
)


class TestCrashResume:
    def test_sigkill_mid_shard_then_resume_is_bit_identical(self, tmp_path):
        """The fabric's acceptance criterion, end to end.

        A subprocess commits two cells to cache and SIGKILLs itself
        mid-sweep. The resumed sweep re-runs only the remaining cells,
        and the merged report is byte-for-byte identical to a sweep
        that was never interrupted.
        """
        out = str(tmp_path / "killed")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        proc = subprocess.run(
            [sys.executable, "-c", KILL_SCRIPT.format(out=out)],
            env=env, cwd=REPO, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        def grid():
            return e02_convergence.sweep_grid(
                miner_counts=(5, 8), coin_counts=(2, 3), runs_per_cell=3, seed=21
            )

        total = len(grid().cells())
        resumed = run_sweep(grid(), out=out, seed=21, wave=1)
        assert resumed.cache_hits == 2
        assert resumed.cache_misses == total - 2

        pristine = str(tmp_path / "pristine")
        uninterrupted = run_sweep(grid(), out=pristine, seed=21, wave=1)
        with open(resumed.report_path, "rb") as handle:
            resumed_bytes = handle.read()
        with open(uninterrupted.report_path, "rb") as handle:
            pristine_bytes = handle.read()
        assert resumed_bytes == pristine_bytes

        # The shard manifest is an append-only receipt: it shows both
        # the killed attempt and the resume.
        manifest = os.path.join(out, "shards", "shard-1-of-1.jsonl")
        events = [json.loads(line) for line in open(manifest)]
        assert sum(1 for e in events if e["event"] == "shard.open") == 2
        assert sum(1 for e in events if e["event"] == "shard.done") == 1
        cached_flags = [e["cached"] for e in events if e["event"] == "cell.done"]
        assert cached_flags.count(True) == 2
