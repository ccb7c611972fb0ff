"""Tests for utilities: tables, RNG helpers, validation."""

import numpy as np
import pytest

from repro.util.rng import make_rng, normalize_seed, seed_sequence, spawn_rngs
from repro.util.tables import Table, format_table
from repro.util.validation import require, require_type


class TestTables:
    def test_render_contains_rows(self):
        table = Table("Title", ["a", "b"])
        table.add_row(1, 2.5)
        text = table.render()
        assert "Title" in text
        assert "1" in text and "2.500" in text

    def test_row_arity_checked(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError, match="cells"):
            table.add_row(1)

    def test_float_formats(self):
        table = Table("T", ["x"])
        table.add_row(2.0)
        table.add_row(1234567.0)
        table.add_row(0.0001)
        rendered = table.render()
        assert "2.0" in rendered
        assert "1234567.0" in rendered  # integral floats keep one decimal
        assert "0.0001" in rendered  # small values use compact %g form

    def test_format_table_alignment(self):
        text = format_table("T", ["col"], [["x"], ["longer"]])
        lines = text.splitlines()
        assert len({len(line) for line in lines[2:]}) <= 2  # header + ruler + rows


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_int_is_deterministic(self):
        assert make_rng(7).integers(0, 100) == make_rng(7).integers(0, 100)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_bad_seed_type(self):
        with pytest.raises(TypeError):
            make_rng("seed")

    def test_spawn_independence(self):
        a, b = spawn_rngs(1, 2)
        assert a.integers(0, 10**9) != b.integers(0, 10**9)

    def test_spawn_deterministic(self):
        first = [rng.integers(0, 10**9) for rng in spawn_rngs(5, 3)]
        second = [rng.integers(0, 10**9) for rng in spawn_rngs(5, 3)]
        assert first == second

    def test_normalize_seed_keeps_ints(self):
        assert normalize_seed(5) == 5 and type(normalize_seed(5)) is int
        assert normalize_seed(np.int64(5)) == 5 and type(normalize_seed(np.int64(5))) is int
        assert normalize_seed(None) is None
        sequence = np.random.SeedSequence(5)
        assert normalize_seed(sequence) is sequence
        with pytest.raises(TypeError):
            normalize_seed("seed")

    def test_normalize_seed_splits_generators(self):
        a = normalize_seed(np.random.default_rng(5))
        b = normalize_seed(np.random.default_rng(5))
        assert a.entropy == b.entropy and a.spawn_key == b.spawn_key
        shared = np.random.default_rng(5)
        assert normalize_seed(shared).spawn_key != normalize_seed(shared).spawn_key

    def test_seed_sequence_keeps_integer_streams(self):
        for seed in (5, np.int64(5)):
            root = seed_sequence(seed)
            assert root.entropy == 5 and type(root.entropy) is int
            assert root.generate_state(4).tolist() == (
                np.random.SeedSequence(5).generate_state(4).tolist()
            )
        sequence = np.random.SeedSequence(5)
        assert seed_sequence(sequence) is sequence

    def test_seed_sequence_spawns_from_generators(self):
        a = seed_sequence(np.random.default_rng(5))
        b = seed_sequence(np.random.default_rng(5))
        assert a.entropy == b.entropy and a.spawn_key == b.spawn_key
        shared = np.random.default_rng(5)
        assert seed_sequence(shared).spawn_key != seed_sequence(shared).spawn_key

    def test_seed_sequence_none_is_fresh_and_bad_type_rejected(self):
        assert seed_sequence(None).entropy != seed_sequence(None).entropy
        with pytest.raises(TypeError):
            seed_sequence("seed")

    @pytest.mark.parametrize(
        "make_seed",
        [
            lambda: 5,
            lambda: np.int64(5),
            lambda: np.random.SeedSequence(5),
            lambda: np.random.default_rng(5),
        ],
        ids=["int", "np.integer", "SeedSequence", "Generator"],
    )
    def test_spawn_deterministic_for_every_seed_type(self, make_seed):
        first = [rng.integers(0, 10**9) for rng in spawn_rngs(make_seed(), 3)]
        second = [rng.integers(0, 10**9) for rng in spawn_rngs(make_seed(), 3)]
        assert first == second

    def test_spawn_integer_streams_unchanged(self):
        expected = np.random.SeedSequence(5).spawn(3)
        for seed in (5, np.int64(5)):
            draws = [rng.integers(0, 10**9) for rng in spawn_rngs(seed, 3)]
            assert draws == [np.random.default_rng(c).integers(0, 10**9) for c in expected]

    def test_spawn_count_validated(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestValidation:
    def test_require_passes(self):
        require(True, "never raised")

    def test_require_raises_with_message(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_require_custom_error(self):
        with pytest.raises(KeyError):
            require(False, "k", error=KeyError)

    def test_require_type(self):
        require_type(1, int, "x")
        with pytest.raises(TypeError, match="x must be int"):
            require_type("s", int, "x")

    def test_require_type_tuple(self):
        require_type(1.5, (int, float), "y")
        with pytest.raises(TypeError, match="int or float"):
            require_type("s", (int, float), "y")


class TestExceptions:
    def test_hierarchy(self):
        from repro.exceptions import (
            AssumptionViolatedError,
            ConvergenceError,
            GameOfCoinsError,
            InvalidConfigurationError,
            InvalidModelError,
            NotAnEquilibriumError,
            RewardDesignError,
            SimulationError,
        )

        for exc in (
            InvalidModelError,
            InvalidConfigurationError,
            NotAnEquilibriumError,
            ConvergenceError,
            AssumptionViolatedError,
            RewardDesignError,
            SimulationError,
        ):
            assert issubclass(exc, GameOfCoinsError)
