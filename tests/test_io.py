"""Tests for JSON serialization (exact round trips)."""

from fractions import Fraction

import pytest

from repro.core.factories import random_configuration, random_game
from repro.exceptions import InvalidModelError
from repro.io import (
    configuration_from_dict,
    configuration_to_dict,
    game_from_dict,
    game_to_dict,
    load_configuration,
    load_game,
    load_trajectory,
    save_configuration,
    save_game,
    save_trajectory,
    trajectory_from_dict,
    trajectory_to_dict,
)
from repro.learning.engine import LearningEngine


class TestGameRoundTrip:
    def test_dict_round_trip_is_exact(self):
        game = random_game(7, 3, seed=1)
        rebuilt = game_from_dict(game_to_dict(game))
        assert [m.power for m in rebuilt.miners] == [m.power for m in game.miners]
        assert [rebuilt.rewards[c] for c in rebuilt.coins] == [
            game.rewards[c] for c in game.coins
        ]

    def test_round_trip_preserves_strategic_structure(self):
        game = random_game(6, 2, seed=2)
        rebuilt = game_from_dict(game_to_dict(game))
        config = random_configuration(game, seed=3)
        rebuilt_config = configuration_from_dict(
            configuration_to_dict(config), rebuilt
        )
        assert rebuilt.is_stable(rebuilt_config) == game.is_stable(config)
        for miner, rebuilt_miner in zip(game.miners, rebuilt.miners):
            assert rebuilt.payoff(rebuilt_miner, rebuilt_config) == game.payoff(
                miner, config
            )

    def test_file_round_trip(self, tmp_path):
        game = random_game(5, 2, seed=4)
        path = tmp_path / "game.json"
        save_game(game, str(path))
        assert load_game(str(path)).rewards == game.rewards

    def test_fractions_not_degraded_to_floats(self):
        game = random_game(3, 2, seed=5)
        payload = game_to_dict(game)
        for entry in payload["miners"]:
            assert isinstance(entry["power"], str) and "/" in entry["power"]

    def test_wrong_format_rejected(self):
        with pytest.raises(InvalidModelError, match="format"):
            game_from_dict({"format": "something-else"})

    def test_wrong_version_rejected(self):
        game = random_game(3, 2, seed=6)
        payload = game_to_dict(game)
        payload["version"] = 99
        with pytest.raises(InvalidModelError, match="version"):
            game_from_dict(payload)

    def test_bad_rational_rejected(self):
        game = random_game(3, 2, seed=7)
        payload = game_to_dict(game)
        payload["miners"][0]["power"] = "not-a-number"
        with pytest.raises(InvalidModelError, match="bad rational"):
            game_from_dict(payload)


class TestConfigurationRoundTrip:
    def test_file_round_trip(self, tmp_path):
        game = random_game(4, 2, seed=8)
        config = random_configuration(game, seed=9)
        path = tmp_path / "config.json"
        save_configuration(config, str(path))
        assert load_configuration(str(path), game) == config

    def test_missing_miner_rejected(self):
        game = random_game(4, 2, seed=10)
        config = random_configuration(game, seed=11)
        payload = configuration_to_dict(config)
        del payload["assignment"]["p1"]
        with pytest.raises(InvalidModelError, match="misses"):
            configuration_from_dict(payload, game)

    def test_wrong_format_rejected(self):
        game = random_game(3, 2, seed=12)
        with pytest.raises(InvalidModelError, match="format"):
            configuration_from_dict({"format": "nope", "assignment": {}}, game)


class TestTrajectoryRoundTrip:
    def _trajectory(self, seed, record="configs"):
        game = random_game(6, 3, seed=seed)
        start = random_configuration(game, seed=seed + 1)
        engine = LearningEngine(record=record)
        return game, engine.run(game, start, seed=seed + 2)

    def test_dict_round_trip_is_exact(self):
        game, trajectory = self._trajectory(20)
        rebuilt = trajectory_from_dict(trajectory_to_dict(trajectory), game)
        assert rebuilt.converged == trajectory.converged
        assert rebuilt.configurations == trajectory.configurations
        assert len(rebuilt.steps) == len(trajectory.steps)
        for original, loaded in zip(trajectory.steps, rebuilt.steps):
            assert loaded.miner == original.miner
            assert loaded.source == original.source
            assert loaded.target == original.target
            # Exact Fractions, not floats: the gains survive bit-for-bit.
            assert loaded.payoff_before == original.payoff_before
            assert loaded.payoff_after == original.payoff_after
            assert isinstance(loaded.payoff_after, Fraction)
        assert rebuilt.total_gain() == trajectory.total_gain()

    def test_file_round_trip(self, tmp_path):
        game, trajectory = self._trajectory(23)
        path = tmp_path / "trajectory.json"
        save_trajectory(trajectory, str(path))
        rebuilt = load_trajectory(str(path), game)
        assert rebuilt.configurations == trajectory.configurations
        assert rebuilt.final == trajectory.final

    def test_round_trip_without_recorded_configurations(self):
        game, trajectory = self._trajectory(26, record="steps")
        assert len(trajectory.configurations) <= 2
        rebuilt = trajectory_from_dict(trajectory_to_dict(trajectory), game)
        assert rebuilt.configurations == trajectory.configurations
        assert rebuilt.final == trajectory.final

    def test_payoffs_not_degraded_to_floats(self):
        _, trajectory = self._trajectory(29)
        payload = trajectory_to_dict(trajectory)
        for entry in payload["steps"]:
            assert isinstance(entry["payoff_before"], str) and "/" in entry["payoff_before"]
            assert isinstance(entry["payoff_after"], str) and "/" in entry["payoff_after"]

    def test_wrong_format_rejected(self):
        game = random_game(3, 2, seed=32)
        with pytest.raises(InvalidModelError, match="format"):
            trajectory_from_dict({"format": "nope"}, game)

    def test_inconsistent_steps_rejected(self):
        game, trajectory = self._trajectory(35)
        payload = trajectory_to_dict(trajectory)
        if not payload["steps"]:
            pytest.skip("trajectory started at an equilibrium")
        first = payload["steps"][0]
        first["source"], first["target"] = first["target"], first["source"]
        with pytest.raises(InvalidModelError, match="inconsistent"):
            trajectory_from_dict(payload, game)

    def test_unknown_miner_rejected(self):
        game, trajectory = self._trajectory(38)
        payload = trajectory_to_dict(trajectory)
        payload["miner_order"][0] = "nobody"
        with pytest.raises(InvalidModelError, match="nobody"):
            trajectory_from_dict(payload, game)


class TestAtomicWrites:
    def test_returns_path_and_writes_trailing_newline(self, tmp_path):
        from repro.io import write_json_atomic

        path = str(tmp_path / "doc.json")
        assert write_json_atomic({"a": 1}, path) == path
        with open(path) as handle:
            text = handle.read()
        assert text.endswith("\n")
        assert __import__("json").loads(text) == {"a": 1}

    def test_overwrites_in_place(self, tmp_path):
        from repro.io import write_json_atomic

        path = str(tmp_path / "doc.json")
        write_json_atomic({"v": 1}, path)
        write_json_atomic({"v": 2}, path)
        with open(path) as handle:
            assert __import__("json").load(handle) == {"v": 2}

    def test_no_temp_file_left_behind(self, tmp_path):
        from repro.io import write_json_atomic

        path = str(tmp_path / "doc.json")
        write_json_atomic({"ok": True}, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]

    def test_failed_serialization_leaves_old_file_intact(self, tmp_path):
        from repro.io import write_json_atomic

        path = str(tmp_path / "doc.json")
        write_json_atomic({"v": 1}, path)
        with pytest.raises(TypeError):
            write_json_atomic({"v": object()}, path)
        with open(path) as handle:
            assert __import__("json").load(handle) == {"v": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]

    def test_save_helpers_route_through_atomic_writes(self, tmp_path, monkeypatch):
        import repro.io as io_module

        calls = []
        original = io_module.write_json_atomic

        def spy(payload, path, **kwargs):
            calls.append(path)
            return original(payload, path, **kwargs)

        monkeypatch.setattr(io_module, "write_json_atomic", spy)
        game = random_game(4, 2, seed=6)
        save_game(game, str(tmp_path / "game.json"))
        save_configuration(
            random_configuration(game, seed=7), str(tmp_path / "config.json")
        )
        assert len(calls) == 2
