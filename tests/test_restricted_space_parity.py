"""Parity: the mask-aware enumeration engine vs the restricted brute force.

The differential test wall behind the masked :class:`ConfigSpace`: on
dozens of random games × random per-miner allowed-coin masks (plus
hand-built symmetric and hardware-partition cases), every answer the
mask-aware space engine gives — restricted equilibria, sink sets,
acyclicity verdicts, longest legal paths, 4-cycle witnesses, reachable
equilibria — must be *identical* (content and order) to the Fraction
brute force over :class:`~repro.core.restricted.RestrictedGame`,
including after orbit expansion under power-*and*-mask symmetry
reduction. A hypothesis sweep mirrors ``test_space_parity.py``'s, with
masks drawn alongside the games.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.paths import (
    analyze_improvement_dag,
    improvement_graph,
    is_acyclic,
    longest_improvement_path,
    reachable_equilibria,
    sink_configurations,
)
from repro.core.configuration import Configuration
from repro.core.equilibrium import enumerate_equilibria, greedy_equilibrium, iter_equilibria
from repro.core.factories import random_game
from repro.core.game import Game
from repro.core.potential import find_nonzero_four_cycle
from repro.core.restricted import RestrictedGame
from repro.exceptions import InvalidConfigurationError, InvalidModelError
from repro.kernel.space import ConfigSpace

# Random game × random mask cases: 4-miner then 5-miner games, coins
# alternating between 2 and 3 so both radices meet nontrivial masks.
RANDOM_CASES = [
    (4 if case < 36 else 5, 2 if case % 2 == 0 else 3, case)
    for case in range(60)
]

# Equal powers *and* equal masks on a block — symmetry must kick in —
# given as (powers, rewards, per-miner allowed coin-index sets).
SYMMETRIC_MASKED_GAMES = [
    ([3, 3, 3, 3], [7, 4], [(0, 1), (0, 1), (0,), (0,)]),
    ([2, 2, 2, 1, 1], [5, 3, 2], [(0, 2), (0, 2), (0, 2), (0, 1, 2), (0, 1, 2)]),
    ([1, 1, 1, 1, 1], [9, 2], [(0, 1), (0, 1), (0, 1), (0, 1), (1,)]),
    ([5, 5, 2, 2, 2, 1], [4, 8], [(0, 1), (0, 1), (1,), (1,), (1,), (0, 1)]),
    ([4, 4, 4, 4], [1, 1, 1], [(0, 2), (0, 2), (0, 2), (0, 2)]),
]


def _game(miners, coins, seed):
    return random_game(miners, coins, seed=seed)


def _restrict(game, seed):
    """A deterministic pseudo-random nonempty mask per miner."""
    rng = np.random.default_rng(seed)
    k = len(game.coins)
    allowed = {}
    for miner in game.miners:
        size = int(rng.integers(1, k + 1))
        indices = sorted(rng.choice(k, size=size, replace=False).tolist())
        allowed[miner] = [game.coins[j] for j in indices]
    return RestrictedGame(game, allowed)


def _masked_case(miners, coins, seed):
    game = _game(miners, coins, seed)
    return game, _restrict(game, seed + 10_000)


def _symmetric_masked(powers, rewards, masks):
    game = Game.create(powers, rewards)
    allowed = {
        miner: [game.coins[j] for j in mask]
        for miner, mask in zip(game.miners, masks)
    }
    return game, RestrictedGame(game, allowed)


class TestMaskedWalks:
    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES[:10])
    def test_product_walk_is_the_restricted_scan_order(self, miners, coins, seed):
        game, restricted = _masked_case(miners, coins, seed)
        space = ConfigSpace(restricted)
        walked = [space.config_of(code) for code, _, _ in space.iter_product()]
        assert walked == list(restricted.all_configurations())
        codes = []
        for code, assign, mass in space.iter_product():
            codes.append(code)
            assert code == space.encode(assign)
            assert mass == space.mass_of(assign)
            assert space.is_valid_assign(assign)
        assert codes == sorted(codes)
        assert len(codes) == space.size == restricted.configuration_count()

    def test_masked_successors_stay_valid_and_invalid_code_raises(self):
        game, restricted = _masked_case(4, 3, 7)
        space = ConfigSpace(restricted)
        for code, assign, mass in space.iter_product():
            for child in space.successor_codes(code, assign, mass):
                assert space.is_valid_assign(space.decode(child))
        invalid = next(
            code
            for code in range(game.configuration_count())
            if not space.is_valid_assign(space.decode(code))
        )
        with pytest.raises(InvalidConfigurationError, match="mask"):
            space.successors(invalid)


class TestEquilibriumParity:
    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES)
    def test_enumerate_matches_restricted_fraction_scan(self, miners, coins, seed):
        game, restricted = _masked_case(miners, coins, seed)
        assert enumerate_equilibria(
            restricted, backend="space"
        ) == enumerate_equilibria(restricted, backend="exact")

    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES[::6])
    def test_iter_matches_restricted_fraction_scan(self, miners, coins, seed):
        game, restricted = _masked_case(miners, coins, seed)
        assert list(iter_equilibria(restricted, backend="space")) == list(
            iter_equilibria(restricted, backend="exact")
        )

    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES[::6])
    def test_allowed_mapping_equals_restricted_game(self, miners, coins, seed):
        game, restricted = _masked_case(miners, coins, seed)
        mask = restricted.allowed
        assert enumerate_equilibria(game.with_allowed(mask)) == enumerate_equilibria(
            restricted
        )
        assert list(iter_equilibria(game.with_allowed(mask))) == list(
            iter_equilibria(restricted)
        )

    @pytest.mark.parametrize("powers,rewards,masks", SYMMETRIC_MASKED_GAMES)
    def test_symmetric_masked_orbit_expansion_matches(self, powers, rewards, masks):
        game, restricted = _symmetric_masked(powers, rewards, masks)
        space = ConfigSpace(restricted)
        assert space.has_symmetry, "these games must take the masked orbit route"
        assert enumerate_equilibria(
            restricted, backend="space"
        ) == enumerate_equilibria(restricted, backend="exact")

    @pytest.mark.parametrize("powers,rewards,masks", SYMMETRIC_MASKED_GAMES)
    def test_masked_orbit_multiplicities_cover_the_valid_space(
        self, powers, rewards, masks
    ):
        _, restricted = _symmetric_masked(powers, rewards, masks)
        space = ConfigSpace(restricted)
        cgame = space._class_game()
        scanned = 0
        members = []
        for profile in cgame.iter_profiles():
            orbit = space._orbit_codes(profile).tolist()
            assert len(orbit) == cgame.orbit_size(profile)
            for member in orbit:
                assign = space.decode(member)
                assert space.is_valid_assign(assign)
                assert cgame.counts_of_assignment(assign) == list(map(list, profile))
            scanned += 1
            members.extend(orbit)
        assert scanned == space.scan_size
        assert sorted(members) == [code for code, _, _ in space.iter_product()]
        assert len(members) == space.size == restricted.configuration_count()

    def test_equal_power_different_mask_miners_are_not_merged(self):
        game = Game.create([2, 2, 2], [5, 3, 4])
        c = game.coins
        restricted = RestrictedGame(
            game,
            {
                game.miners[0]: [c[0], c[1]],
                game.miners[1]: [c[1], c[2]],
                game.miners[2]: [c[0], c[1]],
            },
        )
        space = ConfigSpace(restricted)
        # Miners 0 and 2 share power and mask; miner 1 must sit alone.
        assert space.has_symmetry
        assert space.scan_size < space.size
        assert enumerate_equilibria(
            restricted, backend="space"
        ) == enumerate_equilibria(restricted, backend="exact")


class TestDagParity:
    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES[::4])
    def test_acyclicity_longest_path_and_sinks(self, miners, coins, seed):
        game, restricted = _masked_case(miners, coins, seed)
        graph = improvement_graph(restricted)
        analysis = analyze_improvement_dag(restricted, backend="space")
        assert analysis.acyclic == is_acyclic(graph)
        assert analysis.longest_path == longest_improvement_path(graph)
        assert list(analysis.sinks) == sink_configurations(graph)
        assert analysis.total_configurations == restricted.configuration_count()

    @pytest.mark.parametrize("powers,rewards,masks", SYMMETRIC_MASKED_GAMES)
    def test_symmetric_masked_dag_matches_full_graph(self, powers, rewards, masks):
        game, restricted = _symmetric_masked(powers, rewards, masks)
        graph = improvement_graph(restricted)
        analysis = analyze_improvement_dag(restricted, backend="space")
        assert analysis.symmetry_reduced
        assert analysis.nodes_scanned < analysis.total_configurations
        assert analysis.acyclic == is_acyclic(graph)
        assert analysis.longest_path == longest_improvement_path(graph)
        # Expanded sinks come back in enumeration order, like the seed.
        assert list(analysis.sinks) == sink_configurations(graph)

    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES[2::12])
    def test_exact_backend_agrees_with_space(self, miners, coins, seed):
        game, restricted = _masked_case(miners, coins, seed)
        exact = analyze_improvement_dag(restricted, backend="exact")
        space = analyze_improvement_dag(restricted, backend="space")
        assert (exact.acyclic, exact.longest_path, list(exact.sinks)) == (
            space.acyclic,
            space.longest_path,
            list(space.sinks),
        )

    def test_restriction_only_removes_edges(self):
        # The restricted longest path never exceeds the free one, and
        # every restricted equilibrium set contains the free equilibria
        # that happen to be mask-valid... the converse containment need
        # not hold, so only the path bound is asserted here.
        game, restricted = _masked_case(4, 3, 11)
        free = analyze_improvement_dag(game, backend="space")
        masked = analyze_improvement_dag(restricted, backend="space")
        assert masked.longest_path <= free.longest_path


class TestReachabilityParity:
    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES[1::6])
    def test_reachable_sinks_match_including_order(self, miners, coins, seed):
        game, restricted = _masked_case(miners, coins, seed)
        starts = list(restricted.all_configurations())
        start = starts[seed % len(starts)]
        assert reachable_equilibria(
            restricted, start, backend="space"
        ) == reachable_equilibria(restricted, start, backend="exact")

    def test_invalid_start_raises_on_both_backends(self):
        game = Game.create([4, 2, 1], [3, 5])
        restricted = RestrictedGame(
            game,
            {
                game.miners[0]: [game.coins[0]],
                game.miners[1]: list(game.coins),
                game.miners[2]: list(game.coins),
            },
        )
        invalid = Configuration(game.miners, [game.coins[1]] * 3)
        # Backend-identical failure: same exception type either way.
        with pytest.raises(InvalidConfigurationError):
            reachable_equilibria(restricted, invalid, backend="space")
        with pytest.raises(InvalidConfigurationError):
            reachable_equilibria(restricted, invalid, backend="exact")


class TestFourCycleParity:
    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES[::3])
    def test_witness_identical_to_restricted_fraction_scan(self, miners, coins, seed):
        game, restricted = _masked_case(miners, coins, seed)
        fast = find_nonzero_four_cycle(restricted, backend="space")
        slow = find_nonzero_four_cycle(restricted, backend="exact")
        assert fast == slow

    def test_witness_deviations_are_legal(self):
        for seed in range(8):
            game, restricted = _masked_case(4, 3, seed + 90)
            witness = find_nonzero_four_cycle(restricted, backend="space")
            if witness is None:
                continue
            start, miner_a, coin_a, miner_b, coin_b, defect = witness
            restricted.validate_configuration(start)
            assert restricted.is_allowed(miner_a, coin_a)
            assert restricted.is_allowed(miner_b, coin_b)
            assert defect != 0

    def test_single_allowed_coin_each_has_no_witness(self):
        game = Game.create([4, 2], [3, 2])
        restricted = RestrictedGame(
            game,
            {game.miners[0]: [game.coins[0]], game.miners[1]: [game.coins[1]]},
        )
        assert find_nonzero_four_cycle(restricted, backend="space") is None
        assert find_nonzero_four_cycle(restricted, backend="exact") is None


class TestGreedyProperty:
    """The Appendix A construction meets the enumerated equilibrium set."""

    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES[::4])
    def test_greedy_in_enumerated_set_iff_stable(self, miners, coins, seed):
        game, restricted = _masked_case(miners, coins, seed)
        greedy = greedy_equilibrium(restricted)
        equilibria = set(enumerate_equilibria(restricted, backend="space"))
        assert (greedy in equilibria) == restricted.is_stable(greedy)

    @pytest.mark.parametrize("seed", range(12))
    def test_greedy_always_lands_in_set_for_hardware_partitions(self, seed):
        # With disjoint hardware classes the game decomposes per class,
        # so Claim 6 applies within each class and greedy is stable —
        # and therefore always a member of the enumerated set.
        game = _game(5, 3, seed)
        rng = np.random.default_rng(seed + 77)
        coin_algorithms = {
            coin.name: "scrypt" if index % 2 else "sha256d"
            for index, coin in enumerate(game.coins)
        }
        miner_hardware = {
            miner.name: "scrypt" if rng.random() < 0.5 else "sha256d"
            for miner in game.miners
        }
        restricted = RestrictedGame.by_algorithm(
            game, coin_algorithms, miner_hardware
        )
        greedy = greedy_equilibrium(restricted)
        assert restricted.is_stable(greedy)
        assert greedy in set(enumerate_equilibria(restricted, backend="space"))


class TestTrivialMaskIdentity:
    """All-coins-allowed masks must collapse to the unmasked engine."""

    @pytest.mark.parametrize("miners,coins,seed", RANDOM_CASES[::10])
    def test_trivial_mask_normalizes_to_unmasked(self, miners, coins, seed):
        game = _game(miners, coins, seed)
        full = {miner: list(game.coins) for miner in game.miners}
        space = ConfigSpace(game.with_allowed(full))
        # Identical *code path*, not merely identical answers: the
        # normalized mask is None, so every unrestricted branch runs.
        assert not space.masked
        assert space.kernel.allowed is None
        plain = ConfigSpace(game)
        assert space.size == plain.size
        assert space.stable_codes() == plain.stable_codes()
        report = space.dag_report()
        plain_report = plain.dag_report()
        assert report == plain_report

    def test_trivial_restricted_game_matches_free_enumeration(self):
        game = _game(4, 3, 17)
        restricted = RestrictedGame(
            game, {miner: list(game.coins) for miner in game.miners}
        )
        assert enumerate_equilibria(restricted, backend="space") == enumerate_equilibria(
            game, backend="space"
        )
        assert analyze_improvement_dag(restricted).sinks == analyze_improvement_dag(
            game
        ).sinks


class TestEdgeCases:
    def test_single_miner_game(self):
        game = Game.create([4], [3, 2, 5])
        restricted = RestrictedGame(game, {game.miners[0]: [game.coins[0], game.coins[2]]})
        assert enumerate_equilibria(
            restricted, backend="space"
        ) == enumerate_equilibria(restricted, backend="exact")
        analysis = analyze_improvement_dag(restricted)
        exact = analyze_improvement_dag(restricted, backend="exact")
        assert (analysis.acyclic, analysis.longest_path, list(analysis.sinks)) == (
            exact.acyclic,
            exact.longest_path,
            list(exact.sinks),
        )

    def test_single_coin_game(self):
        game = Game.create([4, 2, 1], [3])
        assert enumerate_equilibria(game, backend="space") == enumerate_equilibria(
            game, backend="exact"
        )
        analysis = analyze_improvement_dag(game, backend="space")
        assert analysis.acyclic and analysis.longest_path == 0
        assert len(analysis.sinks) == 1

    def test_fully_pinned_mask_is_one_configuration(self):
        game = Game.create([4, 2, 1], [3, 5])
        restricted = RestrictedGame(
            game, {miner: [game.coins[0]] for miner in game.miners}
        )
        space = ConfigSpace(restricted)
        assert space.size == 1
        walked = [code for code, _, _ in space.iter_product()]
        assert len(walked) == 1
        equilibria = enumerate_equilibria(restricted, backend="space")
        assert equilibria == enumerate_equilibria(restricted, backend="exact")
        assert len(equilibria) == 1  # nobody can move, so it is stable

    @pytest.mark.parametrize("powers,rewards,masks", SYMMETRIC_MASKED_GAMES[:3])
    def test_orbit_and_full_routes_agree_under_masks(self, powers, rewards, masks):
        _, restricted = _symmetric_masked(powers, rewards, masks)
        space = ConfigSpace(restricted)
        orbits = space.dag_report()
        full = space._dag(orbits=False)
        assert orbits.symmetry_reduced and not full.symmetry_reduced
        assert (orbits.acyclic, orbits.longest_path, orbits.sink_codes) == (
            full.acyclic,
            full.longest_path,
            full.sink_codes,
        )
        assert space.stable_codes() == list(full.sink_codes)

    def test_max_codes_caps_the_expanded_result(self):
        # Equal powers and equal masks: few orbits, combinatorially
        # many equilibria — the cap must fire on the *expanded* count.
        game = Game.create([1] * 12, [5, 7])
        space = ConfigSpace(game)
        stable = space.stable_codes()
        assert len(stable) > 10
        with pytest.raises(InvalidModelError, match="scan limit"):
            space.stable_codes(max_codes=10)
        # A cap at the exact count passes untouched.
        assert space.stable_codes(max_codes=len(stable)) == stable

    def test_empty_mask_raises(self):
        game = Game.create([4, 2], [3, 2])
        with pytest.raises(InvalidModelError, match="at least one coin"):
            ConfigSpace(game.with_allowed({game.miners[0]: []}))
        with pytest.raises(InvalidModelError, match="at least one coin"):
            RestrictedGame(game, {m: [] for m in game.miners})

    def test_unknown_miner_in_mask_raises_instead_of_running_unrestricted(self):
        game = Game.create([4, 2], [3, 2])
        stranger = Game.create([9, 8], [1, 1]).miners[0]
        with pytest.raises(InvalidModelError, match="not"):
            enumerate_equilibria(game.with_allowed({stranger: [game.coins[0]]}))
        with pytest.raises(InvalidModelError, match="not"):
            analyze_improvement_dag(game.with_allowed({stranger: [game.coins[0]]}))
        full = {miner: list(game.coins) for miner in game.miners}
        with pytest.raises(InvalidModelError, match="not"):
            RestrictedGame(game, {**full, stranger: [game.coins[0]]})


# ---------------------------------------------------------------------------
# Hypothesis sweep: random games × random masks
# ---------------------------------------------------------------------------


@st.composite
def masked_games(draw):
    """A small exact-integer game plus a nonempty per-miner mask.

    Integer powers/rewards make equal-power (and thus symmetric-block)
    collisions likely, so the sweep exercises the orbit machinery too.
    """
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=3))
    powers = draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n)
    )
    rewards = draw(
        st.lists(st.integers(min_value=1, max_value=5), min_size=k, max_size=k)
    )
    masks = draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=k - 1), min_size=1, max_size=k),
            min_size=n,
            max_size=n,
        )
    )
    return powers, rewards, [sorted(mask) for mask in masks]


@settings(max_examples=60, deadline=None)
@given(masked_games())
def test_masked_space_parity_property(data):
    """Hypothesis: masked space answers equal the restricted Fraction
    brute force — equilibria (with order), DAG facts, and witnesses."""
    powers, rewards, masks = data
    game = Game.create(powers=powers, reward_values=rewards)
    restricted = RestrictedGame(
        game,
        {
            miner: [game.coins[j] for j in mask]
            for miner, mask in zip(game.miners, masks)
        },
    )
    assert enumerate_equilibria(
        restricted, backend="space"
    ) == enumerate_equilibria(restricted, backend="exact")
    space = analyze_improvement_dag(restricted, backend="space")
    exact = analyze_improvement_dag(restricted, backend="exact")
    assert space.acyclic and exact.acyclic  # Theorem 1 survives restriction
    assert space.longest_path == exact.longest_path
    assert list(space.sinks) == list(exact.sinks)
    assert find_nonzero_four_cycle(restricted, backend="space") == (
        find_nonzero_four_cycle(restricted, backend="exact")
    )


@settings(max_examples=25, deadline=None)
@given(masked_games(), st.integers(min_value=0, max_value=10_000))
def test_masked_reachability_property(data, pick):
    powers, rewards, masks = data
    game = Game.create(powers=powers, reward_values=rewards)
    restricted = RestrictedGame(
        game,
        {
            miner: [game.coins[j] for j in mask]
            for miner, mask in zip(game.miners, masks)
        },
    )
    starts = list(restricted.all_configurations())
    start = starts[pick % len(starts)]
    assert reachable_equilibria(
        restricted, start, backend="space"
    ) == reachable_equilibria(restricted, start, backend="exact")
