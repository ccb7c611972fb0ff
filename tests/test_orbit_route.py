"""The orbit route of :class:`ConfigSpace` against its full route.

A game whose (power, alphabet) classes repeat answers every orbit-level
question on the count matrices of its :class:`ClassGame`: the
orbit-quotient graph (:meth:`ConfigSpace._orbit_blocks`) is peeled by
:func:`~repro.kernel.space._longest_path`, and its sinks, expanded to
per-miner codes, are the equilibria. These tests hold that route to the
per-miner full graph (``ConfigSpace._dag(orbits=False)`` and
:meth:`ConfigSpace._move_blocks`, called directly), to the class
kernel's own scan (:meth:`ClassGame.stable_profiles`) and to the
Fraction brute force (``backend="exact"``): equilibria, sinks,
acyclicity and longest path, masked and unmasked, in and out of the
int64 lane.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.paths import analyze_improvement_dag
from repro.core.equilibrium import enumerate_equilibria
from repro.core.factories import random_game
from repro.core.game import Game
from repro.exceptions import InvalidModelError
from repro.kernel.space import ConfigSpace
from repro.kernel.tensor import kernel_lane


def _sinks(blocks):
    """Nodes of a move builder with no improving move, ascending."""
    return [
        node
        for lo, nodes, src, _ in blocks
        for node in nodes[np.bincount(src - lo, minlength=len(nodes)) == 0].tolist()
    ]


def _assert_routes_agree(game):
    space = ConfigSpace(game)
    assert space.has_symmetry
    cgame = space._class_game()
    kernel = space.kernel

    # The class kernel is built over the space's own kernel classes.
    assert cgame.kernel is kernel
    assert cgame.members == kernel.classes
    assert tuple(cgame.powers) == tuple(kernel.powers[m[0]] for m in kernel.classes)
    assert space.scan_size == cgame.profile_count() <= space.size

    orbits = space.dag_report()
    full = space._dag(orbits=False)
    exact = analyze_improvement_dag(game, backend="exact")
    assert orbits.symmetry_reduced and not full.symmetry_reduced
    assert orbits.acyclic and full.acyclic and exact.acyclic
    assert orbits.longest_path == full.longest_path == exact.longest_path
    assert orbits.sink_codes == full.sink_codes
    assert [space.config_of(code) for code in orbits.sink_codes] == list(exact.sinks)
    assert orbits.nodes_scanned == space.scan_size
    assert full.nodes_scanned == orbits.total_configurations == space.size

    stable = space.stable_codes()
    assert stable == _sinks(space._move_blocks()) == list(full.sink_codes)
    # Orbit-graph ranks run in the class kernel's profile order, and its
    # sinks are the class kernel's stable profiles.
    assert space._profiles_at(range(space.scan_size)) == list(cgame.iter_profiles())
    assert space._profiles_at(_sinks(space._orbit_blocks())) == cgame.stable_profiles()
    assert [space.config_of(code) for code in stable] == enumerate_equilibria(
        game, backend="exact"
    )

    # Orbit multiplicities: the orbits of all count matrices partition
    # the (mask-valid) space, each of its orbit size.
    members = []
    for profile in cgame.iter_profiles():
        orbit = space._orbit_codes(profile).tolist()
        assert len(orbit) == cgame.orbit_size(profile)
        members.extend(orbit)
    assert sorted(members) == [code for code, _, _ in space.iter_product()]


@st.composite
def repeated_class_games(draw):
    """A small integer game in which miner 0's class has a twin.

    The last miner copies miner 0's power and mask, so at least one
    class repeats whatever else the draw gives.
    """
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=3))
    powers = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n))
    rewards = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=k, max_size=k))
    masks = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.sets(st.integers(min_value=0, max_value=k - 1), min_size=1, max_size=k),
                min_size=n,
                max_size=n,
            ),
        )
    )
    game = Game.create(powers=powers + powers[:1], reward_values=rewards)
    if masks is None:
        return game
    # Game.create names miners p1, p2, ... in input order.
    mask_of = {f"p{i + 1}": mask for i, mask in enumerate(masks + masks[:1])}
    return game.with_allowed(
        {miner: [game.coins[j] for j in sorted(mask_of[miner.name])] for miner in game.miners}
    )


@settings(max_examples=80, deadline=None)
@given(repeated_class_games())
def test_orbit_route_equals_full_route_and_fraction_route(game):
    _assert_routes_agree(game)


@pytest.mark.parametrize(
    "powers,rewards",
    [([3, 3, 3, 3], [7, 4]), ([2, 2, 2, 1, 1], [5, 3, 2]), ([5, 5, 2, 2, 2, 1], [4, 8])],
)
def test_orbit_route_on_hand_built_games(powers, rewards):
    _assert_routes_agree(Game.create(powers, rewards))


def test_orbit_route_off_the_int64_lane():
    # Powers 1/p for distinct primes p scale past 2**62: object arrays.
    primes = [1_000_003, 1_000_003, 1_000_033, 1_000_033, 10_000_019]
    game = Game.create([Fraction(1, p) for p in primes], [Fraction(1, 999_983), 3, 5])
    assert kernel_lane(ConfigSpace(game).kernel) != "int"
    _assert_routes_agree(game)


@pytest.mark.parametrize("seed", range(4))
def test_orbit_graph_of_an_asymmetric_game_is_its_full_graph(seed):
    # Every class a singleton: one count matrix per configuration.
    space = ConfigSpace(random_game(5, 3, seed=seed))
    assert not space.has_symmetry
    orbits = space._dag(orbits=True)
    full = space.dag_report()
    assert orbits.nodes_scanned == full.nodes_scanned == space.size
    assert (orbits.acyclic, orbits.longest_path, orbits.sink_codes) == (
        full.acyclic,
        full.longest_path,
        full.sink_codes,
    )


def test_orbit_codes_beyond_int64():
    # 3**41 codes do not fit int64, so orbits expand on Python integers.
    space = ConfigSpace(Game.create([1] * 41, [1, 2, 3]))
    assert space.n_coins**space.n_miners > np.iinfo(np.int64).max
    cgame = space._class_game()
    profile = ((39, 1, 1),)
    orbit = space._orbit_codes(profile).tolist()
    assert len(orbit) == len(set(orbit)) == cgame.orbit_size(profile) == 41 * 40
    assert all(type(code) is int for code in orbit)
    for code in orbit[:50]:
        assert cgame.counts_of_assignment(space.decode(code)) == [[39, 1, 1]]
    assert min(orbit) == space.encode(cgame.assignment_of_counts(profile))


def test_one_configuration_orbit_route():
    # Every miner pinned to its coin: one node, no move, one sink.
    game = Game.create([2, 2, 1], [3, 5])
    pinned = game.with_allowed({miner: [game.coins[0]] for miner in game.miners})
    space = ConfigSpace(pinned)
    report = space.dag_report()
    assert report.symmetry_reduced and report.nodes_scanned == space.size == 1
    assert report.acyclic and report.longest_path == 0
    assert list(report.sink_codes) == space.stable_codes() == [0]


@pytest.mark.parametrize(
    "powers,orbits", [([1] * 8, True), (list(range(1, 9)), False)], ids=["orbit", "full"]
)
def test_result_cap_is_the_same_on_both_routes(powers, orbits):
    space = ConfigSpace(Game.create(powers, [5, 7]))
    assert space.has_symmetry == orbits
    stable = space.stable_codes()
    assert len(stable) > 2
    for call in (
        lambda cap: space.stable_codes(max_codes=cap),
        lambda cap: list(space.dag_report(max_sinks=cap).sink_codes),
    ):
        with pytest.raises(InvalidModelError, match="scan limit"):
            call(2)
        assert call(len(stable)) == stable
