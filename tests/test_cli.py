"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_all_experiments(self):
        code, text = _run(["list"])
        assert code == 0
        for i in range(1, 17):
            assert f"E{i} " in text or f"E{i}\n" in text or f"E{i}  " in text


class TestRun:
    def test_run_fast_e03(self):
        code, text = _run(["run", "E3", "--fast", "--seed", "1"])
        assert code == 0
        assert "E3" in text
        assert "metrics" in text

    def test_run_fast_e05(self):
        code, text = _run(["run", "E5", "--fast"])
        assert code == 0
        assert "Observation 3" in text or "E5" in text

    def test_run_fast_e15_noisy(self):
        code, text = _run(["run", "E15", "--fast", "--seed", "1"])
        assert code == 0
        assert "misconvergence" in text
        assert "metrics" in text

    def test_run_fast_e16_risk(self):
        code, text = _run(["run", "E16", "--fast", "--seed", "1"])
        assert code == 0
        assert "equilibrium" in text
        assert "metrics" in text

    def test_unaccepted_knob_noted_not_crashed(self):
        code, text = _run(["run", "E5", "--fast", "--backend", "exact"])
        assert code == 0
        # E5 takes no backend parameter: the CLI says so instead of crashing.
        assert "does not take --backend" in text

    def test_backend_and_workers_on_e13(self):
        code, text = _run(
            ["run", "E13", "--fast", "--seed", "1", "--backend", "exact"]
        )
        assert code == 0
        assert "E13" in text

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            _run(["run", "E99"])

    @pytest.mark.parametrize("command", [["run", "E2", "--fast"], ["sweep", "E2"], ["demo"]])
    def test_workers_flag_removed(self, command, capsys):
        # Parallelism is chosen with --executor alone.
        with pytest.raises(SystemExit) as exit_info:
            _run([*command, "--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestDemo:
    def test_class_backend_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            _run(["demo", "--backend", "class"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'class'" in capsys.readouterr().err

    def test_demo_reports_equilibrium(self):
        code, text = _run(["demo", "--miners", "5", "--coins", "2", "--seed", "3"])
        assert code == 0
        assert "converged" in text
        assert "payoffs" in text
        assert "basins" in text

    def test_demo_backend_exact_matches_fast(self):
        _, fast_text = _run(["demo", "--miners", "5", "--coins", "2", "--seed", "3"])
        code, exact_text = _run(
            ["demo", "--miners", "5", "--coins", "2", "--seed", "3",
             "--backend", "exact"]
        )
        assert code == 0
        assert exact_text == fast_text  # identical trajectories, both backends

    def test_demo_noisy_reports_verdict(self):
        code, text = _run(
            ["demo", "--miners", "4", "--coins", "2", "--seed", "3", "--noisy",
             "--budget", "128"]
        )
        assert code == 0
        assert "noisy learner (budget 128)" in text


class TestMigrate:
    def test_migrate_prints_sparklines(self):
        code, text = _run(["migrate", "--seed", "2017"])
        assert code == 0
        assert "BCH hashrate share" in text
        assert "switches" in text


def test_no_command_exits():
    with pytest.raises(SystemExit):
        _run([])


class TestSweep:
    def test_ephemeral_sweep(self):
        code, text = _run(["sweep", "E9", "--fast", "--seed", "5"])
        assert code == 0
        assert "20 cell(s)" in text
        assert "0 cached, 20 computed" in text

    def test_cold_then_warm_with_out(self, tmp_path):
        out = str(tmp_path / "sweep")
        code, text = _run(["sweep", "E9", "--fast", "--seed", "5", "--out", out])
        assert code == 0
        assert "0 cached, 20 computed" in text
        assert "report:" in text
        code, text = _run(["sweep", "E9", "--fast", "--seed", "5", "--out", out])
        assert code == 0
        assert "20 cached, 0 computed" in text

    def test_sharded_then_merge(self, tmp_path):
        out = str(tmp_path / "sweep")
        for k in (1, 2):
            code, text = _run([
                "sweep", "E15", "--fast", "--seed", "7",
                "--out", out, "--shard", f"{k}/2",
            ])
            assert code == 0
        code, text = _run(["sweep", "E15", "--fast", "--seed", "7", "--out", out, "--merge"])
        assert code == 0
        assert "merged 3 cell(s)" in text

    def test_merge_requires_out(self):
        code, text = _run(["sweep", "E9", "--merge"])
        assert code == 2
        assert "--merge requires --out" in text

    def test_experiment_without_grid_rejected(self):
        code, text = _run(["sweep", "E1"])
        assert code == 2
        assert "no sweep grid" in text
        assert "E2" in text

    def test_root_seed_mismatch_is_an_error(self, tmp_path):
        out = str(tmp_path / "sweep")
        assert _run(["sweep", "E9", "--fast", "--seed", "5", "--out", out])[0] == 0
        code, text = _run(["sweep", "E9", "--fast", "--seed", "6", "--out", out])
        assert code == 1
        assert "root seed" in text

    def test_metrics_prints_cache_counters(self, tmp_path):
        out = str(tmp_path / "sweep")
        assert _run(["sweep", "E9", "--fast", "--seed", "5", "--out", out])[0] == 0
        code, text = _run([
            "sweep", "E9", "--fast", "--seed", "5", "--out", out, "--metrics"
        ])
        assert code == 0
        assert "sweep.cache.hits" in text


class TestTraceForce:
    def test_trace_refuses_clobber_without_force(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        assert _run(["run", "E3", "--fast", "--trace", trace])[0] == 0
        code, text = _run(["run", "E3", "--fast", "--trace", trace])
        assert code == 2
        assert "already exists" in text
        code, _ = _run(["run", "E3", "--fast", "--trace", trace, "--force"])
        assert code == 0
