"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the available experiments with one-line descriptions.
``run E7 [--seed N] [--fast] [--backend B] [--executor X] [--metrics]
[--trace PATH]``
    Run one experiment and print its table (``--fast`` shrinks the
    workload for a quick look; ``--backend``/``--executor`` are passed
    through to runners that accept them — same numbers, different
    speed). ``--metrics`` prints the observability
    summary table; ``--trace PATH`` writes a JSONL event trace plus a
    ``PATH.manifest.json`` run manifest (args, seed, versions, wall
    time, counter totals). Existing trace/manifest files are never
    clobbered unless ``--force`` is given.
``sweep E2 [--out DIR] [--shard K/N] [--merge] [--seed N] [--fast] …``
    Run an experiment's declarative grid through the sweep fabric
    (:mod:`repro.sweep`): content-addressed caching under
    ``DIR/cache/``, append-only shard manifests under ``DIR/shards/``,
    and a deterministic ``bench.json``-compatible ``DIR/report.json``.
    A killed sweep re-run with the same arguments resumes (completed
    cells are cache hits). ``--shard K/N`` runs only shard K of an
    N-way fingerprint partition (run each shard anywhere, then
    ``--merge`` folds the shared cache into the report). Without
    ``--out`` the sweep is ephemeral (no cache, no manifests).

Global flags (before the subcommand): ``-v``/``-q`` raise/lower the
``repro.*`` logging level (repeatable).
``all [--fast]``
    Run every experiment in order.
``demo [--miners N] [--coins K] [--seed N] [--backend B] [--executor X] [--noisy]``
    Generate a random game, converge learning from a random start, and
    print the equilibrium with payoffs and a basin profile.
    ``--noisy`` additionally runs the sample-based learner from the
    same start and reports whether it found an exact equilibrium.
``classes [--miners N] [--coins K] [--tiers T] [--seed N] [--restricted]``
    Population-compressed walkthrough: build a hardware-tier class game
    (default one million miners in four tiers), converge the exact
    count-level stepper, and print equilibrium hashrate shares and
    per-tier payoffs.
``migrate [--seed N]``
    Replay the Figure 1 BTC/BCH episode and print sparklines.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments import EXPERIMENTS
from repro.learning.view import BACKENDS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Game of Coins (ICDCS 2021) reproduction toolkit",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more repro.* logging (repeatable: -v INFO, -vv DEBUG)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="less repro.* logging (repeatable)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run = subparsers.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS, key=_experiment_key))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--fast", action="store_true", help="shrunken workload")
    run.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="numeric backend for runners that accept one (identical results)",
    )
    run.add_argument(
        "--executor",
        choices=("auto", "serial", "thread", "process", "vectorized"),
        default=None,
        help="batch mechanism for runners that accept one (identical results)",
    )
    run.add_argument(
        "--metrics",
        action="store_true",
        help="collect counters/timers and print the observability summary",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL event trace to PATH plus PATH.manifest.json",
    )
    run.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing --trace file and its manifest",
    )

    sweep = subparsers.add_parser(
        "sweep", help="run an experiment grid through the sweep fabric"
    )
    sweep.add_argument("experiment", choices=sorted(EXPERIMENTS, key=_experiment_key))
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--fast", action="store_true", help="shrunken workload")
    sweep.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="sweep directory (cache, shard manifests, report.json); "
        "omit for an ephemeral run",
    )
    sweep.add_argument(
        "--shard",
        metavar="K/N",
        default=None,
        help="run only shard K of an N-way partition (requires --out)",
    )
    sweep.add_argument(
        "--merge",
        action="store_true",
        help="merge a completed sharded sweep's cache into report.json and exit",
    )
    sweep.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="numeric backend for grids that accept one (identical results)",
    )
    sweep.add_argument(
        "--executor",
        choices=("auto", "serial", "thread", "process", "vectorized"),
        default="auto",
        help="batch mechanism (identical results)",
    )
    sweep.add_argument(
        "--wave",
        type=int,
        default=1,
        help="cells committed to cache per batch (default 1: finest resume "
        "granularity; 0 = all pending cells in one batch)",
    )
    sweep.add_argument(
        "--no-resume",
        action="store_true",
        help="recompute every cell instead of loading completed ones from cache",
    )
    sweep.add_argument(
        "--force",
        action="store_true",
        help="override the root-seed receipt check / --no-resume clobber refusal",
    )
    sweep.add_argument(
        "--metrics",
        action="store_true",
        help="collect counters (incl. sweep.cache.*) and print the summary",
    )

    run_all = subparsers.add_parser("all", help="run every experiment")
    run_all.add_argument("--seed", type=int, default=0)
    run_all.add_argument("--fast", action="store_true")

    demo = subparsers.add_parser("demo", help="random game walkthrough")
    demo.add_argument("--miners", type=int, default=8)
    demo.add_argument("--coins", type=int, default=3)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--backend",
        choices=BACKENDS,
        default="fast",
        help="learning-loop arithmetic (identical trajectories)",
    )
    demo.add_argument(
        "--executor",
        choices=("auto", "serial", "thread", "process", "vectorized"),
        default="auto",
        help="batch mechanism for the basin sampling (identical results)",
    )
    demo.add_argument(
        "--noisy",
        action="store_true",
        help="also run the sample-based noisy learner from the same start",
    )
    demo.add_argument(
        "--budget",
        type=int,
        default=64,
        help="lottery rounds per estimate for --noisy (default 64)",
    )

    classes = subparsers.add_parser(
        "classes", help="population-compressed walkthrough (millions of miners)"
    )
    classes.add_argument("--miners", type=int, default=1_000_000)
    classes.add_argument("--coins", type=int, default=4)
    classes.add_argument("--tiers", type=int, default=4)
    classes.add_argument("--seed", type=int, default=0)
    classes.add_argument(
        "--restricted",
        action="store_true",
        help="restrict higher hardware tiers to later coins",
    )

    migrate = subparsers.add_parser("migrate", help="Figure 1 sparkline replay")
    migrate.add_argument("--seed", type=int, default=2017)
    return parser


def _experiment_key(name: str) -> int:
    return int(name[1:])


def _cmd_list(out) -> int:
    for name in sorted(EXPERIMENTS, key=_experiment_key):
        out.write(f"{name:>4}  {EXPERIMENTS[name].description}\n")
    return 0


def _cmd_run(
    name: str,
    seed: int,
    fast: bool,
    out,
    backend: Optional[str] = None,
    executor: Optional[str] = None,
    metrics: bool = False,
    trace: Optional[str] = None,
    force: bool = False,
) -> int:
    spec = EXPERIMENTS[name]
    params = dict(spec.fast_params) if fast else {}
    params["seed"] = seed
    # Forward only the knobs the experiment declares it accepts; the
    # CLI stays uniform while experiments adopt backend/executor
    # incrementally.
    for knob, value, accepted in (
        ("backend", backend, spec.accepts_backend),
        ("executor", executor, spec.accepts_executor),
    ):
        if value is not None:
            if not accepted:
                out.write(f"note: {name} does not take --{knob}; ignoring\n")
            else:
                params[knob] = value
    if not metrics and trace is None:
        result = spec.run(**params)
        out.write(result.render() + "\n")
        out.write(f"\nmetrics: {result.metrics}\n")
        return 0

    from time import perf_counter

    from repro.obs import MetricsRecorder, RunManifest, TraceWriter, observe, report

    try:
        writer = TraceWriter(trace, force=force) if trace is not None else None
    except FileExistsError as error:
        out.write(f"error: {error}\n")
        return 2
    recorder = MetricsRecorder(trace=writer)
    started = perf_counter()
    with observe(recorder):
        result = spec.run(**params)
    wall = perf_counter() - started
    out.write(result.render() + "\n")
    out.write(f"\nmetrics: {result.metrics}\n")
    if writer is not None:
        writer.close()
        manifest_path = f"{writer.path}.manifest.json"
        manifest = RunManifest.from_recorder(
            recorder,
            command=f"run {name}",
            args={
                "experiment": name,
                "seed": seed,
                "fast": fast,
                "backend": backend,
                "executor": executor,
            },
            seed=seed,
            executor=executor if executor is not None else "auto",
            wall_seconds=wall,
        )
        try:
            manifest.write(manifest_path, force=force)
        except FileExistsError as error:
            out.write(f"error: {error}\n")
            return 2
        out.write(f"trace: {writer.path} ({writer.records} records)\n")
        out.write(f"manifest: {manifest_path}\n")
    if metrics:
        out.write("\n" + report(recorder).render() + "\n")
    return 0


def _cmd_sweep(
    name: str,
    seed: int,
    fast: bool,
    out,
    directory: Optional[str] = None,
    shard: Optional[str] = None,
    merge: bool = False,
    backend: Optional[str] = None,
    executor: str = "auto",
    wave: int = 1,
    resume: bool = True,
    force: bool = False,
    metrics: bool = False,
) -> int:
    import os

    from repro.sweep import SweepError, merge_sweep, run_sweep

    spec = EXPERIMENTS[name]
    if spec.sweep_grid is None:
        sweepable = ", ".join(
            n
            for n in sorted(EXPERIMENTS, key=_experiment_key)
            if EXPERIMENTS[n].sweep_grid is not None
        )
        out.write(f"{name} declares no sweep grid (sweepable: {sweepable})\n")
        return 2
    if merge:
        if directory is None:
            out.write("--merge requires --out DIR\n")
            return 2
        try:
            report = merge_sweep(directory)
        except SweepError as error:
            out.write(f"error: {error}\n")
            return 1
        out.write(
            f"merged {len(report['benchmarks'])} cell(s) -> "
            f"{os.path.join(directory, 'report.json')}\n"
        )
        return 0
    params = dict(spec.fast_params) if fast else {}
    params["seed"] = seed
    if backend is not None:
        if spec.accepts_backend:
            params["backend"] = backend
        else:
            out.write(f"note: {name} does not take --backend; ignoring\n")
    grid = spec.sweep_grid(**params)

    from repro.obs import MetricsRecorder, observe, report

    recorder = MetricsRecorder()
    try:
        with observe(recorder) if metrics else _null_context():
            result = run_sweep(
                grid,
                out=directory,
                seed=seed,
                executor=executor,
                shard=shard,
                wave=None if wave == 0 else wave,
                resume=resume,
                force=force,
            )
    except SweepError as error:
        out.write(f"error: {error}\n")
        return 1
    shard_note = f" (shard {result.shard[0]}/{result.shard[1]})" if result.shard else ""
    out.write(
        f"{name} sweep{shard_note}: {len(result.cells)} cell(s), "
        f"{result.cache_hits} cached, {result.cache_misses} computed "
        f"in {result.wall_seconds:.3f}s\n"
    )
    if result.report_path is not None:
        out.write(f"report: {result.report_path}\n")
    elif result.shard is not None:
        out.write("run the remaining shards, then merge with --merge\n")
    if metrics:
        out.write("\n" + report(recorder).render() + "\n")
    return 0


def _null_context():
    from contextlib import nullcontext

    return nullcontext()


def _cmd_demo(
    miners: int,
    coins: int,
    seed: int,
    out,
    backend: str = "fast",
    executor: str = "auto",
    noisy: bool = False,
    budget: int = 64,
) -> int:
    from repro.analysis.basins import basin_profile
    from repro.analysis.welfare import payoff_distribution
    from repro.core.factories import random_configuration, random_game
    from repro.learning.engine import LearningEngine

    game = random_game(miners, coins, seed=seed)
    out.write(f"{game}\n")
    start = random_configuration(game, seed=seed + 1)
    trajectory = LearningEngine(backend=backend).run(game, start, seed=seed + 2)
    out.write(
        f"converged in {trajectory.length} steps to {trajectory.final.as_dict()}\n"
    )
    out.write("payoffs:\n")
    for name, payoff in payoff_distribution(game, trajectory.final).items():
        out.write(f"  {name}: {float(payoff):.3f}\n")
    profile = basin_profile(
        game, samples=25, seed=seed + 3, backend=backend, executor=executor
    )
    out.write(
        f"basins: {profile.distinct_equilibria} equilibria reached from 25 starts, "
        f"entropy {profile.entropy():.2f} bits\n"
    )
    if noisy:
        from repro.stochastic.noisy_engine import NoisyLearningEngine

        result = NoisyLearningEngine(budget=budget).run(game, start, seed=seed + 4)
        verdict = "an exact equilibrium" if result.reached_equilibrium else (
            "NOT an equilibrium (misconverged)"
        )
        out.write(
            f"noisy learner (budget {budget}): settled={result.settled} after "
            f"{result.activations} activations / {result.moves} moves on {verdict}\n"
        )
    return 0


def _cmd_classes(
    miners: int,
    coins: int,
    tiers: int,
    seed: int,
    restricted: bool,
    out,
) -> int:
    from time import perf_counter

    from repro.kernel.classes import ClassGame, run_class_better_response

    if miners < tiers or tiers < 1 or coins < 1:
        out.write("need at least one coin and one miner per tier\n")
        return 2
    # A hardware-tier pyramid: each tier 5x the power and roughly a
    # quarter the population of the one below it.
    weights = [4 ** (tiers - 1 - k) for k in range(tiers)]
    total_weight = sum(weights)
    populations = [max(1, miners * w // total_weight) for w in weights]
    populations[0] += miners - sum(populations)
    spec = []
    for k in range(tiers):
        allowed = tuple(range(min(k, coins - 1), coins)) if restricted else None
        spec.append((5**k, allowed, populations[k]))
    rewards = [2 * coins - j for j in range(coins)]
    cgame = ClassGame.from_spec(spec, rewards)
    out.write(f"{cgame} — compression {cgame.compression:,.0f}x\n")
    started = perf_counter()
    counts = cgame.random_counts(seed=seed)
    trajectory = run_class_better_response(
        cgame, counts, seed=seed + 1, chunk=True, record="summary"
    )
    wall = perf_counter() - started
    out.write(
        f"converged={trajectory.converged} in {trajectory.steps} macro steps "
        f"({trajectory.moved:,} miner moves) — {wall:.3f}s\n"
    )
    mass = cgame.mass_of(trajectory.final)
    total_mass = sum(mass)
    out.write("equilibrium hashrate shares:\n")
    for j, name in enumerate(cgame.coin_names):
        out.write(f"  {name}: {mass[j] / total_mass:.3f}\n")
    out.write("per-miner payoffs by tier (occupied coins):\n")
    for k, payoffs in enumerate(cgame.class_payoffs(trajectory.final)):
        rendered = ", ".join(
            f"{coin}={float(value):.6f}" for coin, value in sorted(payoffs.items())
        )
        out.write(f"  {cgame.class_names[k]} (power {5**k}): {rendered}\n")
    return 0


def _cmd_migrate(seed: int, out) -> int:
    from repro.market.scenario import btc_bch_scenario
    from repro.util.sparkline import labeled_sparkline

    scenario = btc_bch_scenario(horizon_h=240, resolution_h=6, tail_miners=15, seed=seed)
    replay = scenario.replay(seed=seed + 1)
    weights = scenario.weight_series()
    out.write("Figure 1 replay (240 simulated hours, spike at t=96h):\n")
    out.write(labeled_sparkline("BCH/BTC weight ratio", weights.ratio("BCH", "BTC")) + "\n")
    out.write(labeled_sparkline("BCH hashrate share", replay.hashrate_share("BCH")) + "\n")
    out.write(f"coin switches: {replay.total_switches()}\n")
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    if args.verbose or args.quiet:
        from repro.obs import configure_logging

        configure_logging(args.verbose - args.quiet)
    if args.command == "list":
        return _cmd_list(out)
    if args.command == "run":
        return _cmd_run(
            args.experiment, args.seed, args.fast, out,
            backend=args.backend, executor=args.executor,
            metrics=args.metrics, trace=args.trace, force=args.force,
        )
    if args.command == "sweep":
        return _cmd_sweep(
            args.experiment, args.seed, args.fast, out,
            directory=args.out, shard=args.shard, merge=args.merge,
            backend=args.backend, executor=args.executor,
            wave=args.wave, resume=not args.no_resume, force=args.force,
            metrics=args.metrics,
        )
    if args.command == "all":
        code = 0
        for name in sorted(EXPERIMENTS, key=_experiment_key):
            out.write(f"\n=== {name} ===\n")
            code = max(code, _cmd_run(name, args.seed, args.fast, out))
        return code
    if args.command == "demo":
        return _cmd_demo(
            args.miners, args.coins, args.seed, out,
            backend=args.backend, executor=args.executor,
            noisy=args.noisy, budget=args.budget,
        )
    if args.command == "classes":
        return _cmd_classes(
            args.miners, args.coins, args.tiers, args.seed, args.restricted, out
        )
    if args.command == "migrate":
        return _cmd_migrate(args.seed, out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
