"""Game of Coins — a reproduction of Spiegelman, Keidar & Tennenholtz
(ICDCS 2021 / arXiv:1805.08979).

The library models strategic mining across multiple cryptocurrencies as
a game, proves-by-execution the paper's two main results — every
better-response learning converges to a pure equilibrium (Theorem 1),
and a dynamic reward design mechanism can steer the system between any
two equilibria (Algorithm 2 / Theorem 2) — and embeds the game in
market and proof-of-work substrates that reproduce the paper's
motivating Figure 1.

Quickstart::

    from repro import Game, LearningEngine, random_configuration

    game = Game.create(powers=[50, 30, 20, 10, 5], reward_values=[100, 60, 30])
    start = random_configuration(game, seed=1)
    trajectory = LearningEngine().run(game, start, seed=2)
    assert trajectory.converged and game.is_stable(trajectory.final)

Performance & backends
----------------------
All sequential dynamics run through **one trajectory loop**
(:func:`repro.learning.engine.run_better_response`) written against the
strategy-view protocol (:class:`repro.learning.view.GameView`): the
policy decides *where*, the scheduler decides *who*, and the view
answers every evaluation query. The ``backend`` knob picks the view:

``backend="fast"`` (the default)
    :class:`repro.kernel.KernelView`. Powers and rewards are
    normalized to common integer denominators once per game; state is
    a coin index per miner plus an incrementally maintained integer
    mass per coin (O(1) per step); every better-response / stability
    comparison is a plain integer cross-multiplication. The fast
    backend is *exact*: it reproduces the Fraction core's decisions
    bit-for-bit (same strict inequalities, same tie-breaks, same RNG
    draw sequence), which ``tests/test_kernel_parity.py`` and
    ``tests/test_view_parity.py`` assert on hundreds of randomized
    games — for standard **and custom** policies/schedulers alike,
    since the same strategy code runs on both views. Restricted
    (asymmetric) games ride the same kernel: the allowed-coin mask is a
    field of :class:`~repro.core.game.Game`, so
    ``LearningEngine().run(game.with_allowed(mask), start)`` is
    restricted learning.

``backend="exact"``
    :class:`repro.learning.ExactView` — the original Fraction
    arithmetic. Kept for audits; no strategy *needs* it anymore.

To write a custom strategy, subclass
:class:`~repro.learning.policies.BetterResponsePolicy` and override
``choose_view(self, view, miner, rng)`` (or
:class:`~repro.learning.schedulers.ActivationScheduler` and
``pick_view``) — the only strategy entry points; query the view and
it runs at kernel speed on the default backend. See README "Writing
custom strategies" for measured numbers (~9× on an E9-sized
custom-policy workload).

Many-trajectory workloads (seeds × schedulers × policies) go through
**one front door**: :func:`repro.run_many`. Describe each batch as a
:class:`repro.RunSpec` (game + runs + policy/scheduler or a noisy
engine) and pick a mechanism with ``executor=`` — ``"vectorized"``
hands same-shape trajectory cells to the tensor kernel
(:mod:`repro.kernel.tensor`), which advances the whole population per
numpy step; ``"process"``/``"thread"`` fan out over
:mod:`concurrent.futures` pools; ``"auto"`` (the default) picks for
you. Per-run RNG streams are spawned up front from one root seed and
the tensor kernel replicates the scalar stepper's draw sequence
bit-for-bit, so **every executor returns identical results** —
``tests/test_tensor_parity.py`` asserts finals, step counts and final
RNG states match the scalar :class:`~repro.kernel.KernelView` stepper
on hundreds of randomized games. ``run_many`` is the only batch entry
point; :func:`repro.sweep.run_sweep` layers caching and sharding on
it. Measured: a 1000-trajectory E2-style population (100×10) runs
~12× faster vectorized than multi-process on one core.

Population-compressed dynamics
~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~
When miners are interchangeable — equal kernel-scaled power *and*
equal allowed-coin set — the per-miner representation is pure
redundancy. :class:`repro.kernel.ClassGame` stores a configuration as
an integer *count matrix* (miners per class × coin) and
:func:`repro.kernel.run_class_better_response` runs exact
better-response dynamics over counts, moving whole chunks of
interchangeable miners per macro step with a closed-form maximal run
length. Populations of millions converge exactly in milliseconds on
one core; ``run_many`` routes ``RunSpec(kind="classes")`` cells
through it, and build one ``from_spec([(power, allowed, count), …])``
without ever materializing miners. Stable count profiles
orbit-expand to bit-for-bit the per-miner equilibrium sets
(``tests/test_classes.py`` asserts this against the per-miner full
graph of :class:`~repro.kernel.space.ConfigSpace` on hundreds of games).

Exact enumeration
~~~~~~~~~~~~~~~~~
The exact analyses — ``enumerate_equilibria``,
``analyze_improvement_dag`` (Theorem 1's acyclicity, the exact longest
improving path, sinks), ``reachable_equilibria`` and the Proposition 1
refuter ``find_nonzero_four_cycle`` — default to ``backend="space"``:
:class:`repro.kernel.space.ConfigSpace` represents each configuration
as a base-``|C|`` integer code, builds the full graph's improving moves
for blocks of nodes at once with numpy, finds the longest path by
peeling sinks, answers every query through the kernel's integer
cross-multiplication, and, when the game has interchangeable miners,
scans one class count matrix per orbit instead (a 12-equal-miner ×
3-coin game shrinks from 531,441 configurations to 91 orbits).
Results — content and order, after orbit expansion — are bit-for-bit
those of ``backend="exact"``, the Fraction brute force, which
``tests/test_space_parity.py`` asserts on ~100 games. Measured:
the seed-size Theorem 1 workload (six 5×2 games) runs ~55× faster
(176 ms → 3.2 ms), a 12×2 game ~440× (13.4 s → 0.03 s); practical
scan limits rose from 100k Fraction nodes to 2M integer-code nodes.

The engine is *mask-aware*. The allowed-coin mask is a field of the
game (``Game(..., allowed=mask)``, ``game.with_allowed(mask)``, or
:meth:`RestrictedGame.by_algorithm
<repro.core.restricted.RestrictedGame.by_algorithm>` for hardware
classes), and on a masked game all four entry points analyze the
paper's asymmetric case exactly: each miner's digit becomes an
alphabet of its allowed coin indices, every scan visits only mask-valid
codes, and symmetry merges only miners
with equal power *and* equal allowed set. Restricted equilibrium
sets, the restricted improvement DAG (Theorem 1 survives — the
restriction only removes edges), exact longest legal paths, and
legal-cycle Proposition 1 witnesses all match the Fraction brute
force over the masked ``Game.all_configurations``
configuration-for-configuration
(``tests/test_restricted_space_parity.py``). Measured: four E11-sized
hardware-restricted games (10×4) run ~110× faster (4.4 s → 40 ms),
and E11's exact-enumeration tier certifies every game's full
restricted equilibrium count and worst-case legal path at default
sizes.

Stochastic realization
~~~~~~~~~~~~~~~~~~~~~~
Everything above works on *expected* payoffs; :mod:`repro.stochastic`
realizes the randomness they integrate over. An exact-rational block
lottery (integer cumulative thresholds, no float in any win decision)
turns a configuration into sampled per-miner rewards;
:class:`~repro.stochastic.noisy_engine.NoisyLearningEngine` runs
better-response learning on *estimated* payoffs with a pluggable
per-decision sample budget, and the risk layer measures what the
expectation hides — reward variance (closed form and sampled),
ruin-style tail probabilities, time-to-equilibrium distributions, and
the misconvergence rate of noisy learning against the exact
ConfigSpace equilibrium set. Fixed-seed noisy batches
(``RunSpec(kind="noisy")``) are bit-identical across serial, threaded,
multi-process and vectorized execution, and a
chainsim bridge reconciles the lottery with the event-driven PoW
simulator. E15/E16 report the headline numbers.

To check a working tree locally the way CI does::

    PYTHONPATH=src python -m pytest -x -q          # tier-1 tests
    ruff check src tests                           # lint (CI's scope)
    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only  # benches

Subpackages
-----------
``repro.core``
    Miners, coins, configurations, the game, potentials, equilibria,
    assumption checkers (paper Sections 2–4, Appendices A–B).
``repro.kernel``
    The integer fast path: :class:`~repro.kernel.core.KernelGame`
    normalization, the :class:`~repro.kernel.engine.KernelView`
    strategy-view implementation behind ``backend="fast"``, the
    :class:`~repro.kernel.space.ConfigSpace` enumeration engine behind
    ``backend="space"``, the tensor population kernel
    (:mod:`repro.kernel.tensor`) behind ``executor="vectorized"``, the
    population-compressed class kernel (:mod:`repro.kernel.classes`)
    behind ``kind="classes"``, and the pool
    helpers behind :func:`repro.run_many` (:mod:`repro.kernel.batch`).
``repro.learning``
    The :class:`~repro.learning.view.GameView` strategy-view protocol,
    better-response policies × activation schedulers, and the single
    view-driven trajectory loop every sequential/simultaneous dynamic
    shares; an MWU regret-learning baseline.
``repro.design``
    The dynamic reward design mechanism (Section 5) with cost
    accounting and naive single-shot baselines.
``repro.manipulation``
    Proposition 2 witnesses; whale-transaction and exchange-rate cost
    models with ROI reports.
``repro.market``
    Coin specs, exchange-rate/fee processes, coin weights, miner
    populations, the November-2017 BTC/BCH scenario.
``repro.chainsim``
    Event-driven PoW simulation: block lotteries, difficulty rules,
    strategic switching at block granularity.
``repro.analysis``
    Welfare (Observation 3), price of anarchy/stability, convergence
    statistics, exact improvement-DAG analysis, basins of attraction,
    51%-security metrics, and the sampled-side risk re-exports.
``repro.stochastic``
    The Monte Carlo realization layer: exact-rational block lotteries,
    payoff estimators with confidence intervals, the noisy
    better-response engine and its lockstep population stepper,
    risk/misconvergence
    analysis, and the chainsim bridge.
``repro.experiments``
    The E1–E16 experiment runners behind ``benchmarks/``.
``repro.obs``
    Zero-overhead observability: the :class:`~repro.obs.Recorder`
    counter/timer/event protocol (NullRecorder default — disabled
    instrumentation costs nothing and changes nothing), JSONL traces,
    run manifests, the ``repro.*`` logging tree, and the CLI's
    ``--metrics``/``--trace`` surface.

Module layer map (``repro.run`` sits on top)::

    repro.run (RunSpec / run_many)          ← the batch front door
      ├─ repro.kernel.tensor                ← vectorized populations
      ├─ repro.kernel.classes               ← population-compressed counts
      ├─ repro.kernel.batch                 ← pooled/serial trajectories
      └─ repro.stochastic.noisy_engine      ← noisy replication batches
    repro.obs (Recorder / traces / manifests) ← every layer emits into it
"""

from repro.core import (
    Coin,
    Configuration,
    Game,
    Miner,
    RewardFunction,
    compare_potential,
    enumerate_equilibria,
    greedy_equilibrium,
    make_coins,
    make_miners,
    proposition1_counterexample,
    random_configuration,
    random_game,
    rpu_list,
    sorted_by_power,
    symmetric_potential,
    two_distinct_equilibria,
)
from repro.design import DynamicRewardDesign, MechanismResult
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
from repro.kernel import (
    ClassGame,
    ClassRunResult,
    KernelGame,
    TrajectorySummary,
    run_class_better_response,
    run_class_simultaneous,
)
from repro.learning import (
    BestResponsePolicy,
    LearningEngine,
    MinimalGainPolicy,
    RandomImprovingPolicy,
    Trajectory,
    converge,
)
from repro.manipulation import find_better_equilibrium_exhaustive, manipulation_roi
from repro import obs
from repro.run import EXECUTORS, RunSpec, run_many
from repro.kernel.batch import CellStats
from repro.sweep import SweepError, SweepGrid, labeled, merge_sweep, run_sweep
from repro.stochastic import (
    NoisyLearningEngine,
    NoisyRunResult,
    estimate_payoffs,
    misconvergence_profile,
    reward_risk,
    sample_block_wins,
)

__version__ = "1.4.0"

__all__ = [
    "Coin",
    "Configuration",
    "Game",
    "Miner",
    "RewardFunction",
    "compare_potential",
    "enumerate_equilibria",
    "greedy_equilibrium",
    "make_coins",
    "make_miners",
    "proposition1_counterexample",
    "random_configuration",
    "random_game",
    "rpu_list",
    "sorted_by_power",
    "symmetric_potential",
    "two_distinct_equilibria",
    "DynamicRewardDesign",
    "MechanismResult",
    "AssumptionViolatedError",
    "ConvergenceError",
    "GameOfCoinsError",
    "InvalidConfigurationError",
    "InvalidModelError",
    "NotAnEquilibriumError",
    "RewardDesignError",
    "SimulationError",
    "ClassGame",
    "ClassRunResult",
    "KernelGame",
    "TrajectorySummary",
    "run_class_better_response",
    "run_class_simultaneous",
    "BestResponsePolicy",
    "LearningEngine",
    "MinimalGainPolicy",
    "RandomImprovingPolicy",
    "Trajectory",
    "converge",
    "find_better_equilibrium_exhaustive",
    "manipulation_roi",
    "EXECUTORS",
    "RunSpec",
    "run_many",
    "CellStats",
    "SweepError",
    "SweepGrid",
    "labeled",
    "merge_sweep",
    "run_sweep",
    "obs",
    "NoisyLearningEngine",
    "NoisyRunResult",
    "estimate_payoffs",
    "misconvergence_profile",
    "reward_risk",
    "sample_block_wins",
    "__version__",
]
