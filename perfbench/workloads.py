"""The three workloads: inputs from a seed, one timed repetition, checks.

Each workload builds its inputs once (the set-up that ``setup_s``
measures), then runs :meth:`rep` repeatedly — one repetition is the unit
``wall_s`` and ``cpu_s`` are medians of. A repetition is a fixed
sequence of operations, each wrapped in ``op(name)``: the untraced run
times every operation on its own and measures the host's speed between
them, the traced run records each as a span. A phase made of several
operations names them ``bench.<phase>/<part>``. Everything here calls public
``repro`` functions only, resolved at call time through the ``repro``
package so the traced run's wrappers see every call.

The games are a fixed instance set (:func:`instance_rng`); the seed
draws every run seed, sweep seed and sample, so every seed asks for
about the same amount of work and the spread across seeds stays small.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

import numpy as np

import repro
import repro.analysis
import repro.kernel
import repro.kernel.space
import repro.sweep
from repro.core.restricted import RestrictedGame
from repro.learning.policies import (
    BestResponsePolicy,
    MinimalGainPolicy,
    RandomImprovingPolicy,
)
from repro.learning.schedulers import UniformRandomScheduler
from repro.stochastic.noisy_engine import NoisyLearningEngine

#: Goldens in ``goldens.json`` hold for this seed only.
DEFAULT_SEED = 0
#: Seed of the games every workload runs on, whatever ``--seed`` is.
INSTANCE_SEED = 0

Op = Callable[[str], Any]


def no_op(name: str) -> Any:
    return contextlib.nullcontext()


def digest(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def make_game(rng: np.random.Generator, miners: int, coins: int) -> "repro.Game":
    """A random game with distinct integer powers and integer rewards."""
    powers = rng.choice(np.arange(1, 10 * miners + 1), miners, replace=False)
    rewards = rng.integers(10, 100, coins)
    return repro.Game.create([int(p) for p in powers], [int(r) for r in rewards])


def instance_rng(workload: int) -> np.random.Generator:
    """The generator of one workload's games, the same on every seed.

    The seed draws every random run, start and schedule; the games stay
    fixed, so every seed asks for the same work. Games drawn from the
    seed made the work of one repetition differ by up to 15% between
    seeds, which the run-to-run spread cannot afford.
    """
    return np.random.default_rng([INSTANCE_SEED, workload])


def run_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


@dataclass
class Audit:
    """What the checks of one repetition found."""

    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def exactly_stable(game: "repro.Game", coin_names) -> bool:
    """The exact Fraction verdict of the game core, not of any kernel."""
    config = game.configuration(coin_names)
    powers = game.coin_power_map(config)
    return all(game.is_miner_stable_given(m, config, powers) for m in game.miners)


class Population:
    """``run_many(executor="vectorized")`` over E2's largest shape.

    Four 100×10 games and four 50×5 games, 100 random-improving,
    uniform-scheduler runs each: 800 trajectories per repetition, all
    stepped in lockstep by the tensor kernel.
    """

    name = "population"
    SHAPES = ((100, 10),) * 4 + ((50, 5),) * 4
    RUNS = 100

    def __init__(self, seed: int, scratch: str) -> None:
        games, rng = instance_rng(1), np.random.default_rng([seed, 1])
        self.games = [make_game(games, n, k) for n, k in self.SHAPES]
        self.cells = [
            repro.RunSpec(
                game,
                runs=self.RUNS,
                policy=RandomImprovingPolicy(),
                scheduler=UniformRandomScheduler(),
                seed=run_seed(rng),
            )
            for game in self.games
        ]

    def rep(self, op: Op = no_op) -> Any:
        with op("bench.run_many"):
            return repro.run_many(self.cells, executor="vectorized")

    def cleanup(self) -> None:
        pass

    def summary(self, out: Any) -> Any:
        return [[[r.steps, list(r.final_coins)] for r in cell] for cell in out]

    def audit(self, out: Any) -> Audit:
        audit = Audit(attempted=sum(len(cell) for cell in out))
        stuck = sum(not r.converged for cell in out for r in cell)
        if stuck:
            audit.fail(stuck, f"{stuck} run(s) ran out of step budget")
        return audit

    def deep_audit(self, out: Any, audit: Audit) -> None:
        unstable = 0
        for game, cell in zip(self.games, out):
            unstable += sum(not exactly_stable(game, r.final_coins) for r in cell)
            # One full Game.is_stable per cell ties the fast exact check
            # above to the plainest form of the definition.
            first = game.configuration(cell[0].final_coins)
            if game.is_stable(first) != exactly_stable(game, cell[0].final_coins):
                audit.fail(1, "Game.is_stable disagrees with is_miner_stable_given")
        if unstable:
            audit.fail(unstable, f"{unstable} final state(s) not exactly stable")

    def golden(self, out: Any) -> Dict[str, Any]:
        return {"digest": digest(self.summary(out))}


class SweepGridWorkload:
    """Per-cell overhead of the sweep fabric on about two hundred small cells.

    Cold ``run_sweep`` into a directory (writes) on 56 cells, an
    ephemeral ``run_sweep`` on 180, six warm re-opens of the directory
    (reads), ``merge_sweep``, then ``measure_convergence`` on every game.
    """

    name = "sweep-grid"
    GAMES = 60
    # Only these games' cells go through the on-disk cache. Every cell
    # there costs an fsynced write, and on a shared host fsync waits
    # vary tenfold from minute to minute; the other cells run
    # ephemerally, with the same per-cell work short of the cache.
    CACHED_GAMES = 16
    NOISY_GAMES = 4
    NOISY_BUDGETS = (256, 512)
    WARM_OPENS = 6
    CONVERGENCE_RUNS = 20

    def __init__(self, seed: int, scratch: str) -> None:
        games, rng = instance_rng(2), np.random.default_rng([seed, 2])
        # Fixed shape schedule over 5–20 miners × 2–4 coins.
        self.games = [
            make_game(games, 5 + (i % 16), 2 + (i % 3)) for i in range(self.GAMES)
        ]

        def trajectories(games: List[Any]) -> Any:
            return repro.sweep.SweepGrid(
                {
                    "game": [repro.sweep.labeled(f"g{i}", g) for i, g in enumerate(games)],
                    "policy": [RandomImprovingPolicy(), BestResponsePolicy(), MinimalGainPolicy()],
                },
                base={"runs": 3},
            )

        # Five or six miners: at seven, near-ties make the activations a
        # run needs vary tenfold with the run seed.
        noisy_games = [
            make_game(games, 5 + (i % 2), 2) for i in range(self.NOISY_GAMES)
        ]
        # Budgets of 64 or less routinely exhaust the activation budget
        # without settling (E15's "never settles" region); those runs
        # would count as failed operations.
        noisy = repro.sweep.SweepGrid(
            {
                "game": [
                    repro.sweep.labeled(f"n{i}", g) for i, g in enumerate(noisy_games)
                ],
                "engine": [
                    repro.sweep.labeled(
                        f"b{budget}",
                        NoisyLearningEngine(budget=budget, max_activations=20_000),
                    )
                    for budget in self.NOISY_BUDGETS
                ],
            },
            base={"runs": 1, "kind": "noisy"},
        )
        #: Swept into directories under ``scratch``.
        self.grids = {"traj": trajectories(self.games[: self.CACHED_GAMES]), "noisy": noisy}
        #: Swept ephemerally; its first cells are the cached "traj" grid.
        self.wide = trajectories(self.games)
        # Expanding a grid fingerprints its cells: set-up work.
        for grid in [*self.grids.values(), self.wide]:
            grid.cells()
        self.sweep_seed = run_seed(rng)
        self.convergence_seeds = [run_seed(rng) for _ in self.games]
        self.scratch = scratch

    def _sweep(self, key: str) -> Any:
        return repro.sweep.run_sweep(
            self.grids[key],
            out=os.path.join(self.scratch, key),
            seed=self.sweep_seed,
            executor="serial",
            wave=1,
        )

    def rep(self, op: Op = no_op) -> Any:
        cold = {}
        for key in self.grids:
            with op(f"bench.sweep_cold/{key}"):
                cold[key] = self._sweep(key)
        with op("bench.sweep_ephemeral"):
            wide = repro.sweep.run_sweep(
                self.wide, out=None, seed=self.sweep_seed, executor="serial", wave=1
            )
        warm = []
        for i in range(self.WARM_OPENS):
            with op(f"bench.sweep_warm/{i}"):
                warm.append({key: self._sweep(key) for key in self.grids})
        merged = {}
        for key in self.grids:
            with op(f"bench.sweep_merge/{key}"):
                merged[key] = repro.sweep.merge_sweep(os.path.join(self.scratch, key))
        with op("bench.convergence"):
            stats = [
                repro.analysis.measure_convergence(
                    game, runs=self.CONVERGENCE_RUNS, seed=seed, executor="vectorized"
                )
                for game, seed in zip(self.games, self.convergence_seeds)
            ]
        return {"cold": cold, "wide": wide, "warm": warm, "merged": merged, "stats": stats}

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    @staticmethod
    def _portable(report: Dict[str, Any]) -> Dict[str, Any]:
        """The report minus version-bound fields (stamp, cache keys)."""
        return {
            "cells": report["cells"],
            "benchmarks": [
                {k: v for k, v in entry.items() if k != "key"}
                for entry in report["benchmarks"]
            ],
        }

    def summary(self, out: Any) -> Any:
        return {
            "reports": {key: self._portable(r.report) for key, r in out["cold"].items()},
            "wide": self._portable(out["wide"].report),
            "convergence": [list(s.as_row()) for s in out["stats"]],
        }

    def audit(self, out: Any) -> Audit:
        cold = out["cold"]
        n_cells = {key: len(grid) for key, grid in self.grids.items()}
        ops = sum(n_cells.values())
        wide = out["wide"].in_order()
        audit = Audit(
            attempted=ops * (1 + len(out["warm"]))
            + len(wide)
            + len(out["merged"])
            + len(out["stats"])
        )
        cached = cold["traj"].in_order()
        if wide[: len(cached)] != cached:
            audit.fail(len(cached), "ephemeral results differ from the cached sweep's")
        for key, result in cold.items():
            if result.cache_misses != n_cells[key] or result.cache_hits:
                audit.fail(n_cells[key], f"cold {key} sweep was not all misses")
            if out["merged"][key] != result.report:
                audit.fail(1, f"merged {key} report differs from the in-process report")
        for opened in out["warm"]:
            for key, result in opened.items():
                if result.cache_hits != n_cells[key] or result.cache_misses:
                    audit.fail(
                        n_cells[key],
                        f"warm {key} re-open: {result.cache_hits} hits, "
                        f"{result.cache_misses} misses for {n_cells[key]} cells",
                    )
                if result.report != cold[key].report or result.in_order() != cold[key].in_order():
                    audit.fail(n_cells[key], f"warm {key} report differs from cold")
        stuck = sum(not r.converged for cell in wide for r in cell)
        if stuck:
            audit.fail(stuck, f"{stuck} trajectory run(s) ran out of step budget")
        unsettled = sum(not r.settled for cell in cold["noisy"].in_order() for r in cell)
        if unsettled:
            audit.fail(unsettled, f"{unsettled} noisy run(s) never settled")
        for stats in out["stats"]:
            if stats.runs != self.CONVERGENCE_RUNS or stats.potential_monotone_fraction != 1.0:
                audit.fail(1, f"measure_convergence returned {stats}")
        return audit

    def deep_audit(self, out: Any, audit: Audit) -> None:
        unstable = 0
        for cell, result in zip(self.wide.cells(), out["wide"].in_order()):
            unstable += sum(
                not exactly_stable(cell.spec.game, r.final_coins) for r in result
            )
        if unstable:
            audit.fail(unstable, f"{unstable} final state(s) not exactly stable")

    def golden(self, out: Any) -> Dict[str, Any]:
        return {"digest": digest(self.summary(out))}


class ExactAnalysis:
    """Exact enumeration and the population-compressed class kernel.

    ``ConfigSpace.stable_codes`` and ``dag_report`` on five games of 7–12
    miners and 2–4 coins (one E11-style hardware-restricted 10×4), a four-tier
    ``ClassGame.from_spec`` market of 10⁵ miners under
    ``measure_class_convergence`` and ``class_basin_profile``, and
    ``stable_profiles`` on a small class game.
    """

    name = "exact-analysis"
    SHAPES = ((12, 2), (9, 3), (7, 4), (8, 3))
    # The population example's four tiers at a tenth of its size.
    TIERS = ((1, None, 60_000), (20, None, 30_000), (400, (0, 1, 2), 9_000), (9_000, (0, 1), 1_000))
    CLASS_RUNS = 100
    # Several one-sample basin profiles rather than one large one: each
    # computes one orbit size per distinct landing profile, and a single
    # sample lands on exactly one. Their seeds are part of the instance:
    # one orbit size costs 0.2 to 0.35 s depending on the profile, so
    # seeded samples made the work differ by a third between seeds.
    BASIN_PROFILES = 6
    BASIN_SAMPLES = 1

    def __init__(self, seed: int, scratch: str) -> None:
        instances, rng = instance_rng(3), np.random.default_rng([seed, 3])
        games: List[Any] = [make_game(instances, n, k) for n, k in self.SHAPES]
        # E11-style: coins split between two PoW algorithms, every
        # miner's rig runs one of them.
        base = make_game(instances, 10, 4)
        algorithms = {c.name: ("sha256d" if i < 2 else "scrypt") for i, c in enumerate(base.coins)}
        hardware = {m.name: ("sha256d" if i % 2 == 0 else "scrypt") for i, m in enumerate(base.miners)}
        games.append(RestrictedGame.by_algorithm(base, algorithms, hardware))
        self.games = games
        self.market = repro.kernel.ClassGame.from_spec(
            list(self.TIERS), rewards=[100, 35, 20, 8], coin_names=["btc", "bch", "ltc", "doge"]
        )
        # Powers from a small set, so miners fall into interchangeable
        # classes and the orbit expansion below is not trivial.
        self.small = repro.Game.create(
            [int(p) for p in instances.integers(1, 4, 10)],
            [int(r) for r in instances.integers(10, 100, 3)],
        )
        self.small_classes = repro.kernel.ClassGame.from_spec(
            [(3, None, 6), (5, None, 4), (7, (0, 1), 3)],
            rewards=[int(r) for r in instances.integers(10, 100, 3)],
        )
        self.class_seed = run_seed(rng)
        self.basin_seeds = [run_seed(instances) for _ in range(self.BASIN_PROFILES)]

    def rep(self, op: Op = no_op) -> Any:
        space = []
        for i, game in enumerate(self.games):
            with op(f"bench.space/{i}"):
                configs = repro.kernel.space.ConfigSpace(game)
                space.append((configs.stable_codes(), configs.dag_report()))
        with op("bench.class_convergence"):
            convergence = repro.analysis.measure_class_convergence(
                self.market, runs=self.CLASS_RUNS, seed=self.class_seed
            )
        basins = []
        for i, seed in enumerate(self.basin_seeds):
            with op(f"bench.basin/{i}"):
                basins.append(
                    repro.analysis.class_basin_profile(
                        self.market, samples=self.BASIN_SAMPLES, seed=seed
                    )
                )
        with op("bench.stable_profiles"):
            profiles = self.small_classes.stable_profiles()
        return {"space": space, "convergence": convergence, "basins": basins, "profiles": profiles}

    def cleanup(self) -> None:
        pass

    def summary(self, out: Any) -> Any:
        return {
            "stable_counts": [len(codes) for codes, _ in out["space"]],
            "longest_paths": [report.longest_path for _, report in out["space"]],
            "sink_counts": [len(report.sink_codes) for _, report in out["space"]],
            "class_stats": list(out["convergence"].as_row()),
            "orbit_digest": digest(
                [
                    sorted(
                        [list(map(list, p)), hex(basin.orbit_sizes[p]), n]
                        for p, n in basin.counts.items()
                    )
                    for basin in out["basins"]
                ]
            ),
            "stable_profiles": [list(map(list, p)) for p in out["profiles"]],
        }

    def audit(self, out: Any) -> Audit:
        audit = Audit(
            attempted=2 * len(out["space"])
            + self.CLASS_RUNS
            + self.BASIN_PROFILES * self.BASIN_SAMPLES
            + 1
        )
        for (codes, report), game in zip(out["space"], self.games):
            if not report.acyclic or report.longest_path is None:
                audit.fail(1, f"improvement DAG of {game!r} is not acyclic")
            if list(report.sink_codes) != codes:
                audit.fail(1, "DAG sinks differ from the stable codes")
        stats = out["convergence"]
        if stats.runs != self.CLASS_RUNS or stats.potential_monotone_fraction != 1.0:
            audit.fail(self.CLASS_RUNS, f"measure_class_convergence returned {stats}")
        for basin in out["basins"]:
            if sum(basin.counts.values()) != self.BASIN_SAMPLES:
                audit.fail(self.BASIN_SAMPLES, "basin profile lost samples")
            for profile, count in basin.counts.items():
                if not self.market.is_stable_counts(profile):
                    audit.fail(count, "basin landed on an unstable profile")
        for profile in out["profiles"]:
            if not self.small_classes.is_stable_counts(profile):
                audit.fail(1, "stable_profiles returned an unstable profile")
        return audit

    def deep_audit(self, out: Any, audit: Audit) -> None:
        # Re-run measure_class_convergence's cell directly to see every
        # final state (the helper returns step statistics only).
        results = repro.run_many(
            [
                repro.RunSpec(
                    self.market, runs=self.CLASS_RUNS, kind="classes", seed=self.class_seed
                )
            ],
            executor="serial",
        )[0]
        bad = sum(
            not (r.converged and self.market.is_stable_counts(r.final)) for r in results
        )
        if bad:
            audit.fail(bad, f"{bad} class run(s) did not reach a stable profile")
        if max(r.steps for r in results) != out["convergence"].max_steps:
            audit.fail(1, "class run steps disagree with measure_class_convergence")
        # Orbit sizes count per-miner configurations exactly: the
        # orbit-expanded stable profiles of a per-miner game are as many
        # as its stable codes.
        small = repro.kernel.ClassGame.from_game(self.small)
        expanded = sum(small.orbit_size(p) for p in small.stable_profiles())
        codes = repro.kernel.space.ConfigSpace(self.small).stable_codes()
        if expanded != len(codes):
            audit.fail(1, f"stable profiles expand to {expanded}, ConfigSpace finds {len(codes)}")

    def golden(self, out: Any) -> Dict[str, Any]:
        return self.summary(out)


WORKLOADS = {w.name: w for w in (Population, SweepGridWorkload, ExactAnalysis)}
