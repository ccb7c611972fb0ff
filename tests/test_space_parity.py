"""Parity: the index-level enumeration engine vs the Fraction brute force.

On ~100 random small games (plus symmetric hand-built ones), every
answer the :mod:`repro.kernel.space` engine gives — equilibria, sink
sets, acyclicity verdicts, longest-path lengths, 4-cycle witnesses,
reachable equilibria — must be *identical* (content and order) to the
seed's Fraction-arithmetic brute force over Configuration objects,
including after orbit expansion under equal-power symmetry reduction.
"""

import pytest

from repro.analysis.paths import (
    analyze_improvement_dag,
    improvement_graph,
    is_acyclic,
    longest_improvement_path,
    reachable_equilibria,
    sink_configurations,
)
from repro.core.equilibrium import enumerate_equilibria, iter_equilibria
from repro.core.factories import random_configuration, random_game
from repro.core.game import Game
from repro.core.potential import find_nonzero_four_cycle
from repro.exceptions import InvalidModelError
from repro.kernel.space import ConfigSpace

# 100 random games: ids 0-59 are 4-miner, 60-99 are 5-miner; coins
# alternate between 2 and 3 so both radices are exercised.
RANDOM_CASES = [
    (4 if case < 60 else 5, 2 if case % 2 == 0 else 3, case)
    for case in range(100)
]

# Equal-power games where symmetry reduction actually kicks in.
SYMMETRIC_GAMES = [
    ([3, 3, 3, 3], [7, 4]),
    ([2, 2, 2, 1, 1], [5, 3, 2]),
    ([1, 1, 1, 1, 1], [9, 2]),
    ([5, 5, 2, 2, 2, 1], [4, 8]),
    ([4, 4, 4, 4], [1, 1, 1]),
]


def _game(miners, coins, seed):
    return random_game(miners, coins, seed=seed)


class TestCodes:
    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES[:10])
    def test_code_order_is_product_order(self, miners, coins, seed):
        game = _game(miners, coins, seed)
        space = ConfigSpace(game)
        ordered = [space.config_of(code) for code in range(space.size)]
        assert ordered == list(game.all_configurations())

    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES[:10])
    def test_product_walk_keeps_codes_and_masses_exact(self, miners, coins, seed):
        game = _game(miners, coins, seed)
        space = ConfigSpace(game)
        codes = []
        for code, assign, mass in space.iter_product():
            codes.append(code)
            assert code == space.encode(assign)
            assert mass == space.mass_of(assign)
        assert codes == list(range(space.size))


class TestEquilibriumParity:
    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES)
    def test_enumerate_matches_fraction_scan(self, miners, coins, seed):
        game = _game(miners, coins, seed)
        assert enumerate_equilibria(game, backend="space") == enumerate_equilibria(
            game, backend="exact"
        )

    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES[::10])
    def test_iter_matches_fraction_scan(self, miners, coins, seed):
        game = _game(miners, coins, seed)
        assert list(iter_equilibria(game, backend="space")) == list(
            iter_equilibria(game, backend="exact")
        )

    @pytest.mark.parametrize("powers,rewards", SYMMETRIC_GAMES)
    def test_symmetric_orbit_expansion_matches(self, powers, rewards):
        game = Game.create(powers, rewards)
        space = ConfigSpace(game)
        assert space.has_symmetry, "these games must take the orbit route"
        assert enumerate_equilibria(game, backend="space") == enumerate_equilibria(
            game, backend="exact"
        )

    @pytest.mark.parametrize("powers,rewards", SYMMETRIC_GAMES)
    def test_orbit_multiplicities_cover_the_space(self, powers, rewards):
        space = ConfigSpace(Game.create(powers, rewards))
        cgame = space._class_game()
        scanned = 0
        members = []
        for profile in cgame.iter_profiles():
            orbit = space._orbit_codes(profile).tolist()
            assert len(orbit) == cgame.orbit_size(profile)
            for code in orbit:
                assert cgame.counts_of_assignment(space.decode(code)) == list(map(list, profile))
            scanned += 1
            members.extend(orbit)
        assert scanned == space.scan_size
        assert sorted(members) == list(range(space.size))


class TestDagParity:
    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES[::5])
    def test_acyclicity_longest_path_and_sinks(self, miners, coins, seed):
        game = _game(miners, coins, seed)
        graph = improvement_graph(game)
        analysis = analyze_improvement_dag(game, backend="space")
        assert analysis.acyclic == is_acyclic(graph)
        assert analysis.longest_path == longest_improvement_path(graph)
        assert list(analysis.sinks) == sink_configurations(graph)
        assert analysis.total_configurations == game.configuration_count()

    @pytest.mark.parametrize("powers,rewards", SYMMETRIC_GAMES)
    def test_symmetric_dag_matches_full_graph(self, powers, rewards):
        game = Game.create(powers, rewards)
        graph = improvement_graph(game)
        analysis = analyze_improvement_dag(game, backend="space")
        assert analysis.symmetry_reduced
        assert analysis.nodes_scanned < analysis.total_configurations
        assert analysis.acyclic == is_acyclic(graph)
        assert analysis.longest_path == longest_improvement_path(graph)
        assert set(analysis.sinks) == set(sink_configurations(graph))
        # Expanded sinks come back in enumeration order, like the seed.
        assert list(analysis.sinks) == sink_configurations(graph)

    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES[2::20])
    def test_exact_backend_agrees_with_space(self, miners, coins, seed):
        game = _game(miners, coins, seed)
        exact = analyze_improvement_dag(game, backend="exact")
        space = analyze_improvement_dag(game, backend="space")
        assert (exact.acyclic, exact.longest_path, list(exact.sinks)) == (
            space.acyclic,
            space.longest_path,
            list(space.sinks),
        )

    def test_limit_guard(self):
        game = random_game(20, 3, seed=0)
        with pytest.raises(InvalidModelError, match="limit"):
            analyze_improvement_dag(game, limit=100)

    def test_limit_guards_orbit_expansion_too(self):
        # Few orbits, combinatorially many equilibria: the guard must
        # fire on the *expanded* sink count, not just the orbit count.
        game = Game.create([1] * 30, [5, 7, 9])
        assert ConfigSpace(game).scan_size < 1000
        with pytest.raises(InvalidModelError, match="limit"):
            analyze_improvement_dag(game)
        with pytest.raises(InvalidModelError, match="limit"):
            enumerate_equilibria(game, limit=10_000)


class TestReachabilityParity:
    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES[1::10])
    def test_reachable_sinks_match_including_order(self, miners, coins, seed):
        game = _game(miners, coins, seed)
        start = random_configuration(game, seed=seed + 1000)
        assert reachable_equilibria(game, start, backend="space") == reachable_equilibria(
            game, start, backend="exact"
        )


class TestFourCycleParity:
    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES[::4])
    def test_witness_identical_to_fraction_scan(self, miners, coins, seed):
        game = _game(miners, coins, seed)
        fast = find_nonzero_four_cycle(game, backend="space")
        slow = find_nonzero_four_cycle(game, backend="exact")
        assert fast == slow

    def test_single_miner_has_no_witness(self):
        game = Game.create([4], [3, 2])
        assert find_nonzero_four_cycle(game, backend="space") is None

    def test_single_coin_has_no_witness(self):
        game = Game.create([4, 2], [3])
        assert find_nonzero_four_cycle(game, backend="space") is None

    def test_paper_counterexample_witness(self):
        game = Game.create([2, 1], [1, 1])
        witness = find_nonzero_four_cycle(game, backend="space")
        assert witness is not None
        assert witness == find_nonzero_four_cycle(game, backend="exact")
        assert witness[5] != 0


class TestSymmetryInternals:
    def test_every_code_sits_in_its_count_matrix_orbit(self):
        space = ConfigSpace(Game.create([2, 2, 1, 1], [5, 3]))
        cgame = space._class_game()
        for code in range(space.size):
            profile = cgame.counts_of_assignment(space.decode(code))
            orbit = space._orbit_codes(profile).tolist()
            assert code in orbit
            assert len(set(orbit)) == len(orbit)
            # The canonical assignment (coins ascending per class) is the
            # orbit's smallest code.
            assert min(orbit) == space.encode(cgame.assignment_of_counts(profile))

    def test_no_symmetry_for_distinct_powers(self):
        space = ConfigSpace(random_game(5, 2, seed=0))
        assert not space.has_symmetry
        assert space.scan_size == space.size
        space.stable_codes()
        space.dag_report()
        # The full route never builds the class kernel.
        assert space._classes is None

    def test_stability_is_orbit_invariant(self):
        game = Game.create([2, 2, 2, 1], [5, 3])
        space = ConfigSpace(game)
        cgame = space._class_game()
        for profile in cgame.iter_profiles():
            stable = cgame.is_stable_counts(profile)
            for member in space._orbit_codes(profile).tolist():
                config = space.config_of(member)
                assert game.is_stable(config) == stable


@pytest.mark.parametrize("size", range(7))
@pytest.mark.parametrize("alphabet", [(0,), (0, 1), (1, 3), (0, 2, 3), (0, 1, 2, 3)])
def test_block_choice_multiplicities_cover_every_assignment(size, alphabet):
    """A block of ``size`` equal miners on ``alphabet`` (beside one
    unmasked miner of another power): the count matrices, each expanded
    into its orbit of per-miner codes, have the class kernel's orbit
    multiplicities and hit every mask-valid assignment exactly once."""
    game = Game.create([2] * size + [1], [9, 7, 5, 3])
    block = {miner: [game.coins[j] for j in alphabet] for miner in game.miners[:size]}
    space = ConfigSpace(game.with_allowed(block))
    cgame = space._class_game()
    codes = []
    for profile in cgame.iter_profiles():
        orbit = space._orbit_codes(profile).tolist()
        assert len(orbit) == cgame.orbit_size(profile)
        codes.extend(orbit)
    assert len(codes) == space.size == len(alphabet) ** size * len(game.coins)
    assert sorted(codes) == [code for code, _, _ in space.iter_product()]
