"""The observability layer: recorders, traces, manifests, hook points.

Four families of guarantees:

* **Zero overhead / zero interference** — with the default NullRecorder
  nothing is recorded, and switching a MetricsRecorder on changes no
  result and consumes no extra RNG draw.
* **Counter accounting** — engine step/scan totals match the returned
  trajectories exactly on every executor; tensor lane counters match
  :func:`~repro.kernel.tensor.kernel_lane` predictions per game, and
  the draw-route counters follow the bit generator's type.
* **Export** — JSONL traces round-trip and manifests carry the
  environment stamp, counters and wall time.
* **Satellites** — deprecation warnings point at the caller, and the
  bench compare tooling refuses cross-version artifacts.
"""

from __future__ import annotations

import io
import json
import logging
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import Game, LearningEngine, RunSpec, run_many
from repro.cli import main as cli_main
from repro.core.factories import random_configuration, random_game
from repro.kernel.core import KernelGame
from repro.kernel.space import ConfigSpace
from repro.kernel.tensor import TrajectoryJob, kernel_lane, run_trajectory_population
from repro.obs import (
    NULL_RECORDER,
    MetricsRecorder,
    NullRecorder,
    RunManifest,
    TraceWriter,
    configure_logging,
    environment_stamp,
    get_logger,
    get_recorder,
    observe,
    report,
    set_recorder,
)
from repro.stochastic.estimator import estimate_payoffs
from repro.stochastic.lottery import sample_block_wins

REPO_ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# Recorder protocol
# ----------------------------------------------------------------------


class TestRecorder:
    def test_null_recorder_is_default_and_inert(self):
        recorder = get_recorder()
        assert recorder is NULL_RECORDER
        assert not recorder.enabled
        recorder.count("x")
        recorder.gauge("g", 1)
        recorder.add_time("t", 0.5)
        recorder.event("e", detail=1)
        with recorder.timer("span"):
            pass  # no state anywhere to assert on — that's the point

    def test_observe_installs_and_restores(self):
        metrics = MetricsRecorder()
        with observe(metrics) as rec:
            assert rec is metrics
            assert get_recorder() is metrics
        assert get_recorder() is NULL_RECORDER

    def test_observe_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with observe(MetricsRecorder()):
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER

    def test_set_recorder_returns_previous_and_none_resets(self):
        metrics = MetricsRecorder()
        previous = set_recorder(metrics)
        try:
            assert previous is NULL_RECORDER
            assert set_recorder(None) is metrics
        finally:
            set_recorder(None)
        assert isinstance(get_recorder(), NullRecorder)

    def test_metrics_recorder_collects(self):
        rec = MetricsRecorder()
        rec.count("a")
        rec.count("a", 4)
        rec.gauge("g", "value")
        with rec.timer("span"):
            pass
        rec.add_time("span", 0.25)
        rec.event("hello", x=1)
        assert rec.counter("a") == 5
        assert rec.counter("missing") == 0
        assert rec.gauges["g"] == "value"
        assert rec.timers["span"][1] == 2
        assert rec.timers["span"][0] >= 0.25
        snapshot = rec.snapshot()
        assert snapshot["counters"]["a"] == 5
        assert snapshot["timers"]["span"]["count"] == 2
        assert snapshot["events"] == 1

    def test_report_renders_counters_and_timers(self):
        rec = MetricsRecorder()
        rec.count("engine.runs", 7)
        rec.add_time("run_many", 0.5)
        text = report(rec).render()
        assert "engine.runs" in text
        assert "7" in text
        assert "run_many" in text
        # A NullRecorder reports an empty (but renderable) table.
        assert "metric" in report(NULL_RECORDER).render()


# ----------------------------------------------------------------------
# Zero interference: identical results, identical RNG consumption
# ----------------------------------------------------------------------


class TestZeroInterference:
    def test_observing_consumes_no_extra_rng(self):
        game = random_game(6, 3, seed=5)
        start = random_configuration(game, seed=6)
        rng_null = np.random.default_rng(7)
        plain = LearningEngine().run(game, start, seed=rng_null)
        rng_obs = np.random.default_rng(7)
        with observe(MetricsRecorder()):
            observed = LearningEngine().run(game, start, seed=rng_obs)
        assert rng_null.bit_generator.state == rng_obs.bit_generator.state
        assert observed.final == plain.final
        assert observed.length == plain.length

    def test_observing_changes_no_run_many_result(self):
        cells = [RunSpec(game=random_game(6, 3, seed=1), runs=4, seed=11)]
        plain = run_many(cells, executor="auto")
        with observe(MetricsRecorder()):
            observed = run_many(cells, executor="auto")
        assert observed == plain


# ----------------------------------------------------------------------
# Counter accounting across executors
# ----------------------------------------------------------------------


def _trajectory_cells():
    return [
        RunSpec(game=random_game(6, 3, seed=1), runs=5, seed=11),
        RunSpec(game=random_game(9, 2, seed=3), runs=4, seed=13),
    ]


class TestCounterAccounting:
    @pytest.mark.parametrize("mode", ["serial", "vectorized"])
    def test_engine_totals_match_trajectories(self, mode):
        cells = _trajectory_cells()
        with observe(MetricsRecorder()) as rec:
            results = run_many(cells, executor=mode, seed=3)
        runs = sum(cell.runs for cell in cells)
        steps = sum(summary.steps for cell in results for summary in cell)
        assert rec.counter("engine.runs") == runs
        assert rec.counter("engine.steps") == steps
        # Every run's loop scans once per step plus the final stable scan.
        assert rec.counter("engine.scans") == steps + runs

    @pytest.mark.parametrize("mode", ["serial", "vectorized"])
    def test_noisy_totals_match_results(self, mode):
        from repro.stochastic.noisy_engine import NoisyLearningEngine

        cells = [
            RunSpec(
                game=random_game(6, 3, seed=2),
                runs=5,
                kind="noisy",
                engine=NoisyLearningEngine(budget=8, max_activations=200),
                seed=17,
            )
        ]
        with observe(MetricsRecorder()) as rec:
            results = run_many(cells, executor=mode, seed=4)
        flat = [r for cell in results for r in cell]
        assert rec.counter("noisy.runs") == len(flat)
        assert rec.counter("noisy.activations") == sum(r.activations for r in flat)
        assert rec.counter("noisy.moves") == sum(r.moves for r in flat)
        assert rec.counter("noisy.rounds_sampled") == sum(r.rounds_sampled for r in flat)

    def test_lane_counters_match_kernel_lane_per_game(self):
        game_int = Game.create(powers=[3, 2, 1], reward_values=[5, 3])
        # Coprime rewards so kernel gcd-normalization keeps the magnitude.
        game_float = Game.create(powers=[3, 2, 1], reward_values=[2**61, 3])
        game_exact = Game.create(powers=[2**62, 2, 1], reward_values=[5, 3])
        expected = {
            "int": kernel_lane(KernelGame(game_int)),
            "float": kernel_lane(KernelGame(game_float)),
            "exact": kernel_lane(KernelGame(game_exact)),
        }
        assert expected == {"int": "int", "float": "float", "exact": "exact"}

        cells = [
            RunSpec(game=game_int, runs=3, seed=21),
            RunSpec(game=game_float, runs=2, seed=22),
            RunSpec(game=game_exact, runs=2, seed=23),
        ]
        with observe(MetricsRecorder()) as rec:
            results = run_many(cells, executor="vectorized", seed=5)
        assert rec.counter("tensor.lane.int") == 3
        assert rec.counter("tensor.lane.float") == 2
        assert rec.counter("tensor.lane.exact") == 2
        assert rec.counter("tensor.buckets") >= 2  # exact lane bypasses buckets
        # The mixed population still converged everywhere, all executors equal.
        assert all(summary.converged for cell in results for summary in cell)
        # And the engine totals cover all lanes, scalar fallback included.
        assert rec.counter("engine.runs") == 7

    @pytest.mark.parametrize(
        "kind, counted, silent",
        [
            (np.random.PCG64, "tensor.draws.replayed", "tensor.draws.loop"),
            (np.random.MT19937, "tensor.draws.loop", "tensor.draws.replayed"),
        ],
    )
    def test_draw_route_counters(self, kind, counted, silent):
        """Default-rng populations replay their bounded draws; MT19937 loops."""
        game = random_game(12, 3, seed=2)
        kernel = KernelGame(game)
        jobs = [
            TrajectoryJob(
                kernel=kernel,
                assign=kernel.assignment_of(random_configuration(game, seed=seed)),
                rng=np.random.Generator(kind(seed)),
            )
            for seed in range(20)
        ]
        with observe(MetricsRecorder()) as rec:
            run_trajectory_population(jobs)
        assert rec.counter(counted) > 0
        assert rec.counter(silent) == 0
        # Every step makes at most one scheduler and one policy draw.
        assert rec.counter(counted) <= 2 * rec.counter("engine.steps")

    def test_run_many_route_counters(self):
        cells = _trajectory_cells()
        with observe(MetricsRecorder()) as rec:
            run_many(cells, executor="vectorized", seed=6)
        assert rec.counter("run_many.cells.vectorized") == len(cells)
        assert rec.counter("run_many.vectorized_jobs") == sum(c.runs for c in cells)
        events = [e for e in rec.events if e["event"] == "run_many.cell"]
        assert len(events) == len(cells)
        assert all(e["route"] == "vectorized" for e in events)

    def test_space_counters(self):
        space = ConfigSpace(random_game(4, 2, seed=8))
        with observe(MetricsRecorder()) as rec:
            codes = space.stable_codes()
        assert rec.counter("space.scans") == 1
        assert rec.counter("space.codes_visited") == space.scan_size
        assert rec.counter("space.equilibria") == len(codes)

        with observe(MetricsRecorder()) as rec:
            dag = space.dag_report()
        assert rec.counter("space.codes_visited") == dag.nodes_scanned

        with observe(MetricsRecorder()) as rec:
            space.four_cycle_witness()
        event = next(e for e in rec.events if e["event"] == "space.four_cycle")
        assert rec.counter("space.codes_visited") == event["visited"] <= space.size

    def test_stochastic_counters(self):
        game = random_game(5, 2, seed=9)
        config = random_configuration(game, seed=10)
        occupied = len({config.coin_of(m) for m in game.miners})
        with observe(MetricsRecorder()) as rec:
            sample_block_wins(game, config, rounds=10, seed=11)
        assert rec.counter("stochastic.races") == 10 * occupied
        assert rec.counter("stochastic.lottery_rounds") == 10
        with observe(MetricsRecorder()) as rec:
            estimate_payoffs(game, config, rounds=8, seed=12)
        assert rec.counter("stochastic.estimates") == 1

    def test_classes_counters_match_results(self):
        from repro.kernel.classes import ClassGame

        with observe(MetricsRecorder()) as rec:
            cgame = ClassGame.from_spec(
                [(1, None, 6_000), (4, (0, 1), 2_000)], rewards=[5, 3, 2]
            )
            results = run_many(
                [RunSpec(game=cgame, runs=5, kind="classes", seed=31)]
            )[0]
        compress = next(e for e in rec.events if e["event"] == "classes.compress")
        assert compress["miners"] == 8_000
        assert compress["classes"] == 2
        assert compress["ratio"] == 8_000 / 2
        assert rec.counter("classes.compressions") == 1
        assert rec.counter("classes.runs") == 5
        assert rec.counter("classes.steps") == sum(r.steps for r in results)
        assert rec.counter("classes.moves") == sum(r.moved for r in results)
        # Each run scanned once per step plus the final stable scan.
        assert rec.counter("classes.scans") == sum(r.steps for r in results) + 5
        assert rec.counter("classes.converged") == sum(r.converged for r in results) == 5
        assert rec.counter("run_many.cells.classes") == 1
        events = [e for e in rec.events if e["event"] == "run_many.cell"]
        assert [e["route"] for e in events] == ["classes"]

    def test_classes_observability_consumes_no_rng_and_changes_nothing(self):
        from repro.kernel.classes import ClassGame, run_class_better_response

        cgame = ClassGame.from_spec(
            [(1, None, 500), (3, None, 250)], rewards=[4, 3, 2]
        )
        start = cgame.random_counts(seed=41)

        rng_plain = np.random.default_rng(42)
        plain = run_class_better_response(cgame, start, seed=rng_plain, chunk=True)
        rng_observed = np.random.default_rng(42)
        with observe(MetricsRecorder()):
            observed = run_class_better_response(
                cgame, start, seed=rng_observed, chunk=True
            )
        assert observed.final == plain.final
        assert observed.steps == plain.steps
        assert observed.moved == plain.moved
        # Instrumentation consumed no draw: the generators end in the
        # exact same state, bit for bit.
        assert rng_observed.bit_generator.state == rng_plain.bit_generator.state

    def test_pool_degradation_counter(self, monkeypatch):
        from repro.kernel.batch import PooledRunner

        def explode(self, mode, workers):
            raise OSError("semaphores exhausted (simulated)")

        monkeypatch.setattr(PooledRunner, "_get_pool", explode)
        game = random_game(6, 2, seed=9)
        with observe(MetricsRecorder()) as rec:
            with pytest.warns(RuntimeWarning, match="running serially"):
                run_many(
                    [RunSpec(game=game, runs=8, seed=21)],
                    executor="process",
                    max_workers=2,
                )
        assert rec.counter("pool.degradations") == 1
        assert any(e["event"] == "pool.degraded" for e in rec.events)


# ----------------------------------------------------------------------
# Trace + manifest export
# ----------------------------------------------------------------------


class TestExport:
    def test_trace_writer_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(str(path)) as writer:
            writer.write("custom", value=np.int64(3), label="x")
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["event"] == "trace.open"
        assert records[1] == {"t": records[1]["t"], "event": "custom", "value": 3, "label": "x"}
        assert records[-1]["event"] == "trace.close"
        assert records[-1]["records"] == len(records) - 1
        writer.write("dropped")  # post-close writes are silently ignored
        assert len(path.read_text().strip().splitlines()) == len(lines)

    def test_metrics_recorder_forwards_events_to_trace(self):
        stream = io.StringIO()
        writer = TraceWriter(stream)
        rec = MetricsRecorder(trace=writer)
        rec.event("tick", n=1)
        events = [json.loads(line)["event"] for line in stream.getvalue().splitlines()]
        assert events == ["trace.open", "tick"]

    def test_environment_stamp_contents(self):
        stamp = environment_stamp()
        assert stamp["repro_version"] == repro.__version__
        assert stamp["numpy"] == np.__version__
        for key in ("python", "platform", "hostname", "git_sha"):
            assert key in stamp

    def test_manifest_roundtrip(self, tmp_path):
        rec = MetricsRecorder()
        rec.count("engine.runs", 3)
        rec.add_time("run_many", 0.5)
        manifest = RunManifest.from_recorder(
            rec, command="run E2", args={"fast": True}, seed=7,
            executor="serial", wall_seconds=1.25,
        )
        path = tmp_path / "manifest.json"
        manifest.write(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["command"] == "run E2"
        assert loaded["seed"] == 7
        assert loaded["counters"]["engine.runs"] == 3
        assert loaded["phases"]["run_many"]["count"] == 1
        assert loaded["environment"]["repro_version"] == repro.__version__


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestCli:
    def test_run_with_metrics_and_trace(self, tmp_path):
        trace_path = tmp_path / "e02.jsonl"
        out = io.StringIO()
        code = cli_main(
            ["run", "E2", "--fast", "--metrics", "--trace", str(trace_path)],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "observability summary" in text
        assert str(trace_path) in text

        records = [
            json.loads(line) for line in trace_path.read_text().strip().splitlines()
        ]
        assert records[0]["event"] == "trace.open"
        assert records[-1]["event"] == "trace.close"
        assert any(r["event"] == "run_many.cell" for r in records)

        manifest = json.loads((tmp_path / "e02.jsonl.manifest.json").read_text())
        counters = manifest["counters"]
        # FAST_PARAMS: 2 sizes × 1 coin count × 3 policies × 3 runs.
        assert counters["engine.runs"] == 18
        assert counters["engine.scans"] == counters["engine.steps"] + counters["engine.runs"]
        assert manifest["environment"]["repro_version"] == repro.__version__
        assert manifest["wall_seconds"] > 0
        assert get_recorder() is NULL_RECORDER  # CLI restored the default

    def test_metrics_without_trace_prints_summary_only(self, tmp_path):
        out = io.StringIO()
        code = cli_main(["run", "E2", "--fast", "--metrics"], out=out)
        assert code == 0
        assert "observability summary" in out.getvalue()
        assert "manifest" not in out.getvalue()

    def test_verbosity_flags_parse(self):
        out = io.StringIO()
        assert cli_main(["-v", "list"], out=out) == 0
        root = logging.getLogger("repro")
        try:
            assert root.level == logging.INFO
        finally:
            for handler in list(root.handlers):
                if getattr(handler, "_repro_obs_handler", False):
                    root.removeHandler(handler)
            root.setLevel(logging.NOTSET)


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------


class TestLogging:
    def test_get_logger_names(self):
        assert get_logger().name == "repro"
        assert get_logger("kernel.batch").name == "repro.kernel.batch"

    def test_configure_logging_maps_verbosity_and_dedups(self):
        root = logging.getLogger("repro")
        try:
            stream = io.StringIO()
            assert configure_logging(-1, stream=stream).level == logging.ERROR
            assert configure_logging(0, stream=stream).level == logging.WARNING
            assert configure_logging(1, stream=stream).level == logging.INFO
            assert configure_logging(2, stream=stream).level == logging.DEBUG
            tagged = [
                h for h in root.handlers if getattr(h, "_repro_obs_handler", False)
            ]
            assert len(tagged) == 1  # repeated calls replace, never stack
            get_logger("test").debug("visible now")
            assert "visible now" in stream.getvalue()
        finally:
            for handler in list(root.handlers):
                if getattr(handler, "_repro_obs_handler", False):
                    root.removeHandler(handler)
            root.setLevel(logging.NOTSET)


# ----------------------------------------------------------------------
# Bench tooling
# ----------------------------------------------------------------------


class TestBenchTooling:
    @staticmethod
    def _bench_json(tmp_path, name, mean, stamp):
        payload = {
            "benchmarks": [{"fullname": "bench_engine.py::test_x", "stats": {"mean": mean}}],
        }
        if stamp is not None:
            payload["repro_stamp"] = stamp
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    @staticmethod
    def _run(script, *args):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "benchmarks" / script), *args],
            capture_output=True,
            text=True,
        )

    def test_compare_refuses_cross_version_unless_forced(self, tmp_path):
        old = self._bench_json(
            tmp_path, "old.json", 0.010,
            {"repro_version": "1.2.0", "python": "3.12.0", "numpy": "2.0.0"},
        )
        # Library versions differ on every feature change: still comparable.
        bumped = self._bench_json(
            tmp_path, "bumped.json", 0.009,
            {"repro_version": "1.3.0", "python": "3.12.0", "numpy": "2.0.0"},
        )
        accepted = self._run("compare.py", old, bumped)
        assert accepted.returncode == 0
        assert "bench_engine" in accepted.stdout
        new = self._bench_json(
            tmp_path, "new.json", 0.009,
            {"repro_version": "1.3.0", "python": "3.12.0", "numpy": "2.1.0"},
        )
        refused = self._run("compare.py", old, new)
        assert refused.returncode == 2
        assert "numpy differs" in refused.stderr
        forced = self._run("compare.py", old, new, "--force")
        assert forced.returncode == 0
        assert "bench_engine" in forced.stdout

    def test_compare_warns_on_missing_stamp_but_proceeds(self, tmp_path):
        old = self._bench_json(tmp_path, "old.json", 0.010, None)
        new = self._bench_json(
            tmp_path, "new.json", 0.009,
            {"repro_version": "1.3.0", "python": "3.12.0", "numpy": "2.0.0"},
        )
        result = self._run("compare.py", old, new)
        assert result.returncode == 0
        assert "no repro_stamp" in result.stderr

    def test_overhead_guard_flags_regressions_and_skips_missing(self, tmp_path):
        stamp = {"repro_version": "1.3.0", "python": "3.12.0", "numpy": "2.0.0"}
        base = self._bench_json(tmp_path, "base.json", 0.010, stamp)
        slow = self._bench_json(tmp_path, "slow.json", 0.011, stamp)
        ok = self._bench_json(tmp_path, "ok.json", 0.0102, stamp)

        failed = self._run("overhead_guard.py", base, slow, "--tolerance", "0.03")
        assert failed.returncode == 1
        assert "REGRESSION" in failed.stdout

        passed = self._run("overhead_guard.py", base, ok, "--tolerance", "0.03")
        assert passed.returncode == 0
        assert "within budget" in passed.stdout

        skipped = self._run(
            "overhead_guard.py", str(tmp_path / "missing.json"), ok
        )
        assert skipped.returncode == 0
        assert "skipping" in skipped.stdout

        # A library-version bump alone still gets guarded.
        bumped = self._bench_json(
            tmp_path, "bumped.json", 0.011, {**stamp, "repro_version": "1.4.0"}
        )
        guarded = self._run("overhead_guard.py", base, bumped, "--tolerance", "0.03")
        assert guarded.returncode == 1
        assert "REGRESSION" in guarded.stdout


class TestClobberGuards:
    def test_trace_writer_refuses_existing_path(self, tmp_path):
        from repro.obs import TraceWriter

        path = str(tmp_path / "trace.jsonl")
        TraceWriter(path).close()
        with pytest.raises(FileExistsError, match="already exists"):
            TraceWriter(path)
        writer = TraceWriter(path, force=True)
        writer.close()
        assert writer.records >= 1

    def test_manifest_refuses_existing_path_with_force_false(self, tmp_path):
        from repro.obs import MetricsRecorder, RunManifest

        manifest = RunManifest.from_recorder(
            MetricsRecorder(), command="test", args={}, seed=0,
            executor="serial", wall_seconds=0.0,
        )
        path = str(tmp_path / "run.manifest.json")
        manifest.write(path, force=False)
        with pytest.raises(FileExistsError, match="already exists"):
            manifest.write(path, force=False)
        # Library default stays permissive (force=True).
        manifest.write(path)
