"""Market scenarios: coins + rate/fee processes + a miner population.

A scenario is the bridge between the market substrate and the game
model: it materializes a :class:`WeightSeries` and can produce, for any
time-grid index, the exact game ``G_{Π,C,F(t)}`` the paper analyzes.
Replaying learning across the game sequence is how E1 reproduces
Figure 1's hashrate migration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.coin import Coin, make_coins
from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.core.miner import Miner
from repro.exceptions import SimulationError
from repro.learning.engine import LearningEngine
from repro.market.coins import CoinSpec, bitcoin_cash_spec, bitcoin_spec
from repro.market.exchange_rates import RateProcess, btc_bch_november_2017
from repro.market.fees import ConstantFees, FeeProcess
from repro.market.population import pool_population, uniform_population
from repro.market.weights import WeightSeries, build_weight_series
from repro.util.rng import RngLike, make_rng, spawn_rngs


@dataclass
class MarketScenario:
    """A complete multi-coin market over a time horizon."""

    specs: Sequence[CoinSpec]
    rate_processes: Sequence[RateProcess]
    fee_processes: Sequence[FeeProcess]
    miners: Sequence[Miner]
    times_h: np.ndarray
    seed: Optional[int] = None

    _weights: Optional[WeightSeries] = field(default=None, repr=False)
    _coins: Optional[Tuple[Coin, ...]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not (len(self.specs) == len(self.rate_processes) == len(self.fee_processes)):
            raise SimulationError(
                "specs, rate processes and fee processes must align one-to-one"
            )
        if len(self.specs) < 1:
            raise SimulationError("a scenario needs at least one coin")
        if len(self.miners) < 1:
            raise SimulationError("a scenario needs at least one miner")
        self._coins = make_coins(spec.name for spec in self.specs)

    @property
    def coins(self) -> Tuple[Coin, ...]:
        assert self._coins is not None
        return self._coins

    def weight_series(self) -> WeightSeries:
        """Materialize (and cache) the per-coin weight paths."""
        if self._weights is None:
            rngs = spawn_rngs(self.seed, 2 * len(self.specs))
            components = []
            for index, spec in enumerate(self.specs):
                rates = self.rate_processes[index].sample(self.times_h, seed=rngs[2 * index])
                fees = self.fee_processes[index].sample(self.times_h, seed=rngs[2 * index + 1])
                components.append((spec, rates, fees))
            self._weights = build_weight_series(self.times_h, components)
        return self._weights

    def game_at(self, index: int) -> Game:
        """The exact game ``G_{Π,C,F(t_index)}``."""
        weights = self.weight_series()
        rewards = weights.reward_function(index, self.coins)
        return Game(tuple(self.miners), self.coins, rewards)

    def games(self) -> Iterator[Game]:
        for index in range(len(self.times_h)):
            yield self.game_at(index)

    def replay(
        self,
        *,
        engine: Optional[LearningEngine] = None,
        seed: RngLike = None,
        initial: Optional[Configuration] = None,
    ) -> "ScenarioReplay":
        """Run better-response learning through the whole weight series.

        At each time step the miners face the game with the current
        weights, starting from where the previous step left them, and
        learning runs to convergence (weights move on a slower time
        scale than profit-switching decisions — the Figure 1 episode
        played out over days while switching takes minutes).
        """
        rng = make_rng(seed)
        if engine is None:
            engine = LearningEngine(record="steps")
        weights = self.weight_series()

        if initial is None:
            # Everyone starts on the first coin (BTC in the Figure 1
            # scenario) and the first tick's learning spreads them out.
            config = Configuration.uniform(tuple(self.miners), self.coins[0])
        else:
            config = initial
        configurations: List[Configuration] = []
        steps: List[int] = []
        for index in range(len(weights)):
            game = self.game_at(index)
            trajectory = engine.run(game, config, seed=rng)
            config = trajectory.final
            configurations.append(config)
            steps.append(trajectory.length)
        return ScenarioReplay(
            scenario=self,
            configurations=configurations,
            steps_per_tick=steps,
        )


@dataclass
class ScenarioReplay:
    """The equilibrium path of a scenario replay, with summary accessors."""

    scenario: MarketScenario
    configurations: List[Configuration]
    steps_per_tick: List[int]

    def hashrate_share(self, coin_name: str) -> np.ndarray:
        """Fraction of total power on *coin_name* at each time step.

        This is the quantity Figure 1(b) plots (hashrate tracks miner
        count/power on each chain).
        """
        coin = next(c for c in self.scenario.coins if c.name == coin_name)
        total = float(sum(miner.power for miner in self.scenario.miners))
        shares = np.empty(len(self.configurations))
        for index, config in enumerate(self.configurations):
            on_coin = sum(
                float(miner.power) for miner in config.miners_on(coin)
            )
            shares[index] = on_coin / total
        return shares

    def total_switches(self) -> int:
        return int(sum(self.steps_per_tick))


def multi_coin_scenario(
    n_coins: int,
    *,
    horizon_h: float = 120.0,
    resolution_h: float = 4.0,
    n_miners: int = 30,
    base_rate: float = 1000.0,
    volatility: float = 0.01,
    seed: int = 0,
) -> MarketScenario:
    """A generic market of *n_coins* GBM-priced coins.

    Coins share Bitcoin's block economics but differ in price level
    (geometric spacing, so reward weights span about one order of
    magnitude) and each follows its own GBM path. Useful for experiments
    beyond the two-coin Figure 1 episode.
    """
    from repro.market.exchange_rates import GeometricBrownianRate

    if n_coins < 1:
        raise SimulationError("need at least one coin")
    times = np.arange(0.0, horizon_h + 1e-9, resolution_h)
    specs = []
    rates = []
    fees = []
    for index in range(n_coins):
        specs.append(
            CoinSpec(
                name=f"COIN{index + 1}",
                block_interval_s=600.0,
                block_subsidy=12.5,
                fees_per_block=0.5,
            )
        )
        level = base_rate * (0.6 ** index)
        rates.append(
            GeometricBrownianRate(initial=level, volatility_per_sqrt_h=volatility)
        )
        fees.append(ConstantFees(0.5))
    miners = uniform_population(n_miners, seed=seed)
    return MarketScenario(
        specs=tuple(specs),
        rate_processes=tuple(rates),
        fee_processes=tuple(fees),
        miners=miners,
        times_h=times,
        seed=seed,
    )


def btc_bch_scenario(
    *,
    horizon_h: float = 240.0,
    resolution_h: float = 2.0,
    total_power: float = 1000.0,
    tail_miners: int = 30,
    seed: int = 2017,
) -> MarketScenario:
    """The Figure 1 scenario: BTC vs BCH around November 12, 2017."""
    times, btc_rate, bch_rate = btc_bch_november_2017(
        horizon_h=horizon_h, resolution_h=resolution_h
    )
    miners = pool_population(
        total_power=total_power, tail_miners=tail_miners, seed=seed
    )
    return MarketScenario(
        specs=(bitcoin_spec(), bitcoin_cash_spec()),
        rate_processes=(btc_rate, bch_rate),
        fee_processes=(ConstantFees(2.0), ConstantFees(0.3)),
        miners=miners,
        times_h=times,
        seed=seed,
    )
