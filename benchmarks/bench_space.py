"""Head-to-head: Fraction brute force vs the index-level space engine.

Both free-game benches perform the identical Theorem 1 workload on the
identical six games at the seed problem size (5 miners × 2 coins): full
improvement-DAG analysis (acyclicity + exact longest path + sinks)
plus equilibrium enumeration. ``fraction`` is the seed path
(Configuration objects, Fraction arithmetic); ``space`` is the
integer-code engine with its numpy-blocked move builder. Run both and
feed the JSON to
``benchmarks/compare.py`` to print the speedup ratio — the engine is
≥10× faster at this size and the gap widens with the space
(the full analysis of a 12×2 game drops from ~13 s to ~0.03 s).

The ``restricted`` pair runs the same workload on hardware-restricted
games at E11's size (10 miners × 4 coins, coins split between two PoW
algorithms): the mask-aware engine walks only the ~2^10 mask-valid
codes with per-miner digit alphabets, while the Fraction path
brute-forces the masked ``Game.all_configurations``.

Cross-checks assert both paths return identical answers, so the bench
doubles as an end-to-end parity test at benchmark scale.

``large_dag_space`` tracks the move builder and the sink peel where
they dominate: the full improvement DAG of a 9×3 free game (19,683
nodes) and of a 10×4 hardware-restricted game, through
``analyze_improvement_dag(backend="space")``. The Fraction path is too
slow at that size to run alongside, so the check there is that every
sink is a Fraction-verified equilibrium.

``symmetric_space`` tracks the orbit route: ``dag_report`` plus
``stable_codes`` on twelve equal miners over four coins (455 count
matrices standing for 16.7M configurations, 277,200 equilibria to
expand) and on three classes of three miners over three coins. The
small game is checked against its per-miner full graph; on the large
one a sample of sinks is checked stable by the Fraction core.
"""

from repro.analysis.paths import analyze_improvement_dag
from repro.core.equilibrium import enumerate_equilibria
from repro.core.factories import random_game
from repro.core.game import Game
from repro.core.restricted import RestrictedGame
from repro.kernel.space import ConfigSpace
from repro.util.rng import spawn_rngs

GAMES = 6
MINERS = 5
COINS = 2

RESTRICTED_GAMES = 4
RESTRICTED_MINERS = 10
RESTRICTED_COINS = 4


def _games():
    rngs = spawn_rngs(0, GAMES)
    return [random_game(MINERS, COINS, seed=rngs[i]) for i in range(GAMES)]


def _restricted_games():
    """E11-sized hardware-restricted games (deterministic splits)."""
    rngs = spawn_rngs(7, RESTRICTED_GAMES)
    restricted = []
    for i in range(RESTRICTED_GAMES):
        rng = rngs[i]
        game = random_game(RESTRICTED_MINERS, RESTRICTED_COINS, seed=rng)
        coin_algorithms = {
            coin.name: "scrypt" if index % 2 else "sha256d"
            for index, coin in enumerate(game.coins)
        }
        miner_hardware = {
            miner.name: "scrypt" if rng.random() < 0.4 else "sha256d"
            for miner in game.miners
        }
        restricted.append(
            RestrictedGame.by_algorithm(game, coin_algorithms, miner_hardware)
        )
    return restricted


def _large_games():
    """A 9×3 free game and a 10×4 game split between two PoW algorithms."""
    rngs = spawn_rngs(11, 2)
    free = random_game(9, 3, seed=rngs[0])
    base = random_game(10, 4, seed=rngs[1])
    coin_algorithms = {
        coin.name: "sha256d" if index < 2 else "scrypt"
        for index, coin in enumerate(base.coins)
    }
    miner_hardware = {
        miner.name: "sha256d" if index % 2 == 0 else "scrypt"
        for index, miner in enumerate(base.miners)
    }
    return [free, RestrictedGame.by_algorithm(base, coin_algorithms, miner_hardware)]


def _workload(backend):
    results = []
    for game in _games():
        analysis = analyze_improvement_dag(game, backend=backend)
        equilibria = enumerate_equilibria(game, backend=backend)
        results.append(
            (analysis.acyclic, analysis.longest_path, list(analysis.sinks), equilibria)
        )
    return results


def _restricted_workload(backend):
    results = []
    for restricted in _restricted_games():
        analysis = analyze_improvement_dag(restricted, backend=backend)
        equilibria = enumerate_equilibria(restricted, backend=backend)
        results.append(
            (analysis.acyclic, analysis.longest_path, list(analysis.sinks), equilibria)
        )
    return results


def test_enumeration_fraction(benchmark):
    results = benchmark(_workload, "exact")
    assert all(acyclic for acyclic, _, _, _ in results)


def test_enumeration_space(benchmark):
    results = benchmark(_workload, "space")
    assert all(acyclic for acyclic, _, _, _ in results)
    assert results == _workload("exact"), "space engine must match the Fraction path"


def test_restricted_enumeration_fraction(benchmark):
    results = benchmark(_restricted_workload, "exact")
    assert all(acyclic for acyclic, _, _, _ in results)


def test_restricted_enumeration_space(benchmark):
    results = benchmark(_restricted_workload, "space")
    assert all(acyclic for acyclic, _, _, _ in results)
    assert results == _restricted_workload("exact"), (
        "mask-aware space engine must match the restricted Fraction path"
    )


def test_large_dag_space(benchmark):
    games = _large_games()
    results = benchmark(
        lambda: [analyze_improvement_dag(game, backend="space") for game in games]
    )
    for game, analysis in zip(games, results):
        assert analysis.acyclic and analysis.longest_path >= 1
        assert analysis.sinks and all(game.is_stable(sink) for sink in analysis.sinks)


def _symmetric_games():
    """Twelve equal miners × 4 coins, and three classes of three × 3 coins."""
    return [
        Game.create([3] * 12, [5, 7, 9, 11]),
        Game.create([1, 1, 1, 2, 2, 2, 4, 4, 4], [5, 7, 9]),
    ]


def test_symmetric_space(benchmark):
    games = _symmetric_games()

    def scan():
        spaces = [ConfigSpace(game) for game in games]
        return spaces, [(space.dag_report(), space.stable_codes()) for space in spaces]

    spaces, results = benchmark(scan)
    for game, space, (report, codes) in zip(games, spaces, results):
        assert report.symmetry_reduced and report.acyclic
        assert list(report.sink_codes) == codes
        for code in codes[:5] + codes[-5:]:
            assert game.is_stable(space.config_of(code))
    big, small = results
    assert len(big[1]) == 277_200
    full = spaces[1]._dag(orbits=False)
    assert (full.longest_path, full.sink_codes) == (small[0].longest_path, small[0].sink_codes)
