#!/usr/bin/env python3
"""Asymmetric mining: the paper's future-work case, executed.

"One also may wonder about the asymmetric case where some coins can be
mined only by a subset of the miners" (Discussion). Here: a market with
two SHA256d coins and two Scrypt coins, miners with fixed hardware
classes, and legal better-response learning. Theorem 1's convergence
survives the restriction — and the example shows *why it matters*:
hardware walls segment the market, so the same miner earns a different
RPU depending on which side of the wall it was born on.

Run: ``python examples/asymmetric_mining.py``
"""

from repro.core import RestrictedGame, greedy_equilibrium, random_game
from repro.core.configuration import Configuration
from repro.learning import LearningEngine


def main() -> None:
    game = random_game(10, 4, seed=21)
    coin_algorithms = {"c1": "sha256d", "c2": "sha256d", "c3": "scrypt", "c4": "scrypt"}
    miner_hardware = {
        miner.name: ("sha256d" if index < 6 else "scrypt")
        for index, miner in enumerate(game.miners)
    }
    restricted = RestrictedGame.by_algorithm(game, coin_algorithms, miner_hardware)
    print(restricted)
    for miner in game.miners:
        allowed = ", ".join(coin.name for coin in restricted.allowed_coins(miner))
        print(f"  {miner.name} ({miner_hardware[miner.name]:8s}) may mine: {allowed}")

    # Start everyone on their first allowed coin and learn.
    start = Configuration.from_mapping(
        game.miners,
        {miner: restricted.allowed_coins(miner)[0] for miner in game.miners},
    )
    trajectory = LearningEngine().run(restricted, start, seed=1)
    print(f"\nconverged in {trajectory.length} legal better-response steps")
    print(f"equilibrium: {trajectory.final.as_dict()}")
    assert restricted.is_stable(trajectory.final)

    print("\nRPU per coin at the restricted equilibrium:")
    for coin in game.coins:
        rpu = game.rpu(coin, trajectory.final)
        print(f"  {coin.name} ({coin_algorithms[coin.name]:8s}): "
              f"{float(rpu) if rpu is not None else float('nan'):.3f}")
    print("\nnote the RPU gap between hardware classes: the wall prevents")
    print("arbitrage, so per-unit profitability does NOT equalize across it.")

    greedy = greedy_equilibrium(restricted)
    print(f"\nrestricted greedy construction stable: {restricted.is_stable(greedy)}")


if __name__ == "__main__":
    main()
