"""The numpy move builder and the sink-peeling longest path.

:meth:`ConfigSpace._move_blocks` builds every improving move of the full
(non-symmetric) improvement graph in blocks of nodes, and
:func:`~repro.kernel.space._longest_path` peels that graph's sinks level
by level. These tests pin the builder to the scalar
:meth:`ConfigSpace.successor_codes` it replaced, node by node, on
unmasked, hardware-masked and off-int64 games; check the full-graph
report against the Fraction brute force; check that the block size does
not change any answer; and exercise the peel on hand-built graphs,
cyclic ones included, which Theorem 1 games never produce.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import repro.kernel.space as space_module
from repro.analysis.paths import analyze_improvement_dag
from repro.core.equilibrium import enumerate_equilibria
from repro.core.factories import random_game
from repro.core.game import Game
from repro.core.restricted import RestrictedGame
from repro.exceptions import InvalidModelError
from repro.kernel.space import ConfigSpace, _longest_path
from repro.kernel.tensor import kernel_lane
from repro.util.rng import spawn_rngs


def _masked(miners, coins, seed):
    """An E11-style game: coins split between two PoW algorithms."""
    rng = spawn_rngs(seed, 1)[0]
    game = random_game(miners, coins, seed=rng)
    algorithms = {
        coin.name: "scrypt" if index % 2 else "sha256d"
        for index, coin in enumerate(game.coins)
    }
    hardware = {
        miner.name: "scrypt" if rng.random() < 0.4 else "sha256d" for miner in game.miners
    }
    return RestrictedGame.by_algorithm(game, algorithms, hardware)


def _off_int64():
    """Powers 1/p for distinct primes p: scaled integers pass 2**62."""
    primes = [1_000_003, 1_000_033, 1_000_037, 10_000_019]
    return Game.create([Fraction(1, p) for p in primes], [Fraction(1, 999_983), 3, 5])


GAMES = (
    [pytest.param(random_game(n, k, seed=s), id=f"free-{n}x{k}-{s}")
     for n, k, s in [(4, 2, 0), (5, 3, 1), (3, 4, 2), (6, 2, 3), (1, 3, 4), (2, 1, 5)]]
    + [pytest.param(_masked(n, k, s), id=f"masked-{n}x{k}-{s}")
       for n, k, s in [(6, 4, 0), (7, 4, 1), (5, 3, 2)]]
    + [pytest.param(_off_int64(), id="off-int64")]
    # Equal rewards: a lone miner eyeing an empty coin ties exactly, so
    # the strict inequality decides edges.
    + [pytest.param(Game.create([1, 2, 3, 1], [5, 5, 5]), id="ties")]
)


def _builder_edges(space):
    """{code: sorted successor codes} from the move builder."""
    blocks = list(space._move_blocks())
    codes = np.concatenate([block[1] for block in blocks]).tolist()
    edges = {code: [] for code in codes}
    for _, _, src, dst in blocks:
        for s, d in zip(src.tolist(), dst.tolist()):
            edges[codes[s]].append(codes[d])
    return {code: sorted(children) for code, children in edges.items()}


def test_off_int64_game_leaves_the_int_lane():
    assert kernel_lane(ConfigSpace(_off_int64()).kernel) != "int"


@pytest.mark.parametrize("game", GAMES)
def test_builder_edges_match_scalar_successors(game):
    space = ConfigSpace(game)
    scalar = {
        code: sorted(space.successor_codes(code, assign, mass))
        for code, assign, mass in space.iter_product()
    }
    assert _builder_edges(space) == scalar
    assert list(scalar) == sorted(scalar)


@pytest.mark.parametrize("game", GAMES)
def test_full_report_matches_fraction_analysis(game):
    space = ConfigSpace(game)
    report = space._dag(orbits=False)
    exact = analyze_improvement_dag(game, backend="exact")
    assert report.acyclic and exact.acyclic
    assert report.longest_path == exact.longest_path
    assert [space.config_of(code) for code in report.sink_codes] == list(exact.sinks)
    assert report.nodes_scanned == report.total_configurations == space.size
    stable = [space.config_of(code) for code in space.stable_codes()]
    assert stable == enumerate_equilibria(game, backend="exact")


@pytest.mark.parametrize("rows", [1, 5, 7])
@pytest.mark.parametrize("game", GAMES)
def test_block_size_does_not_change_results(game, rows, monkeypatch):
    space = ConfigSpace(game)

    def answers():
        return (
            space._dag(orbits=False),
            space._dag(orbits=True),
            space.dag_report(),
            space.stable_codes(),
            _builder_edges(space),
        )

    expected = answers()
    monkeypatch.setattr(space_module, "_BLOCK_ROWS", rows)
    blocks = list(space._move_blocks())
    assert len(blocks) == -(-space.size // rows)
    assert [block[0] for block in blocks] == list(range(0, space.size, rows))
    assert answers() == expected


def test_space_past_int64_fails_fast():
    """5^30 configurations: the scans' node ranks would pass int64, so
    both raise a named error before building any block."""
    space = ConfigSpace(random_game(30, 5, seed=1))
    assert not space.has_symmetry
    for scan in (space.stable_codes, space.dag_report):
        with pytest.raises(InvalidModelError, match=f"{5**30} configurations"):
            scan()


def test_orbit_space_past_int64_fails_fast():
    """30 classes of two miners over 5 coins: 15^30 count matrices."""
    game = Game.create(powers=[i // 2 + 1 for i in range(60)], reward_values=[1, 2, 3, 4, 5])
    space = ConfigSpace(game)
    assert space.has_symmetry
    for scan in (space.stable_codes, space.dag_report):
        with pytest.raises(InvalidModelError, match=f"{15**30} count-matrix orbits"):
            scan()


# ----------------------------------------------------------------------
# The peel on hand-built graphs
# ----------------------------------------------------------------------


def _peel(n_nodes, edges):
    src = np.array([s for s, _ in edges], dtype=np.int64)
    dst = np.array([d for _, d in edges], dtype=np.int64)
    return _longest_path(n_nodes, src, dst)


def _dfs_longest_path(n_nodes, edges):
    """Reference answer: a coloured depth-first search with memoized depths."""
    succ = [[] for _ in range(n_nodes)]
    for s, d in edges:
        succ[s].append(d)
    color = [0] * n_nodes
    depth = [0] * n_nodes

    def visit(node):
        color[node] = 1
        for child in succ[node]:
            if color[child] == 1:
                return False
            if color[child] == 0 and not visit(child):
                return False
            depth[node] = max(depth[node], depth[child] + 1)
        color[node] = 2
        return True

    for node in range(n_nodes):
        if not color[node] and not visit(node):
            return False, None
    return True, max(depth, default=0)


def test_empty_graph():
    assert _peel(0, []) == (True, 0)


def test_isolated_nodes():
    assert _peel(5, []) == (True, 0)


@pytest.mark.parametrize("length", [1, 2, 9])
def test_chain_of_length_l(length):
    edges = [(i, i + 1) for i in range(length)]
    assert _peel(length + 1, edges) == (True, length)
    # Edge order and node labels do not matter.
    assert _peel(length + 1, [(length - s, length - d) for s, d in reversed(edges)]) == (
        True,
        length,
    )


def test_diamond():
    # 0 → {1, 2} → 3, plus a shortcut 0 → 3.
    assert _peel(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]) == (True, 2)


@pytest.mark.parametrize("cycle", [[(5, 6), (6, 5)], [(5, 6), (6, 7), (7, 5)]])
def test_cycle_hanging_off_an_acyclic_part(cycle):
    acyclic_part = [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)]
    into_cycle = [(4, 5)]
    assert _peel(8, acyclic_part + into_cycle + cycle) == (False, None)
    assert _peel(8, acyclic_part + cycle) == (False, None)


def test_quotient_style_graph_with_repeated_edges():
    # Orbit quotients repeat edges: two members of one block moving to
    # the same coin land on the same canonical successor.
    edges = [(0, 1), (0, 1), (1, 2), (1, 2), (1, 3), (0, 3), (3, 2), (3, 2)]
    assert _peel(4, edges) == _dfs_longest_path(4, edges) == (True, 3)


@pytest.mark.parametrize("seed", range(20))
def test_random_dags_with_repeats_match_dfs(seed):
    rng = random.Random(seed)
    n_nodes = rng.randint(1, 40)
    label = list(range(n_nodes))
    rng.shuffle(label)
    edges = []
    for _ in range(rng.randint(0, 3 * n_nodes)):
        a, b = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if a != b:
            high, low = max(a, b), min(a, b)
            edges.append((label[high], label[low]))
    edges += edges[: len(edges) // 3]
    assert _peel(n_nodes, edges) == _dfs_longest_path(n_nodes, edges)
