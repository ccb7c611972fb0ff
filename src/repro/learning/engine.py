"""The better-response learning engine — one loop for every backend.

Runs one improving path: repeatedly ask the scheduler *who* moves and
the policy *where*, apply the step, and stop at a stable configuration.
Theorem 1 guarantees termination for any scheduler × policy pair; the
engine enforces a step budget anyway so a buggy custom policy (one that
returns non-improving moves) cannot loop forever — and it *verifies*
the improvement contract on every step.

There is exactly one trajectory loop, :func:`run_better_response`,
written against the :class:`~repro.learning.view.GameView` protocol.
The ``backend`` knob selects which view drives it:

``"fast"`` (default)
    :class:`~repro.kernel.engine.KernelView` — powers and rewards
    normalized to common integer denominators once, every payoff
    comparison an integer cross-multiplication, per-coin masses
    maintained incrementally in O(1) per step. Decision-for-decision
    (and RNG-draw-for-draw) identical to ``"exact"`` for every
    strategy, custom subclasses included.
``"exact"``
    :class:`~repro.learning.view.ExactView` — the original
    :class:`fractions.Fraction` arithmetic. Kept for audits.

Restricted games (:meth:`LearningEngine.run` with ``allowed=``), the
simultaneous dynamic and the noisy sampled learner all run over the
same views, so the restriction mask, the integer fast path and
incremental state maintenance exist in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional, Union

import numpy as np

from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.core.restricted import RestrictedGame, as_restricted
from repro.exceptions import ConvergenceError
from repro.obs.recorder import get_recorder
from repro.learning.policies import BetterResponsePolicy, RandomImprovingPolicy
from repro.learning.schedulers import ActivationScheduler, UniformRandomScheduler
from repro.learning.trajectory import Step, Trajectory
from repro.learning.view import GameView, make_view
from repro.util.rng import RngLike, make_rng

#: Default per-run step budget. Theorem 1 guarantees finite convergence,
#: but the bound is the potential's range; this default is generous for
#: the game sizes the experiments use.
DEFAULT_MAX_STEPS = 1_000_000

#: Recording modes for :func:`run_better_response`. ``"configs"`` keeps
#: every step and every intermediate configuration; ``"steps"`` keeps the
#: steps but only [initial, final] configurations; ``"summary"`` streams —
#: counts plus final state only, no per-:class:`Step` Fraction pairs, so
#: batch executors stop paying allocation for history nobody reads.
RECORD_MODES = ("configs", "steps", "summary")


def run_better_response(
    view: GameView,
    policy: BetterResponsePolicy,
    scheduler: ActivationScheduler,
    rng: np.random.Generator,
    *,
    max_steps: int,
    raise_on_budget: bool = True,
    record: str = "configs",
) -> Trajectory:
    """The shared trajectory stepper: one improving path over *view*.

    Strategy-agnostic and backend-agnostic — the view answers every
    evaluation query, the policy's ``choose_view`` and the scheduler's
    ``pick_view`` make every decision, and the loop verifies the
    better-response contract on each step. :class:`LearningEngine` is a
    thin wrapper over this function.

    ``record`` selects one of :data:`RECORD_MODES`. ``"summary"`` skips
    the per-step payoff verification (which exists to catch buggy
    *custom* policies) along with the :class:`Step` records; it consumes
    exactly the same RNG draws as the full modes.
    """
    if record not in RECORD_MODES:
        raise ValueError(f"record must be one of {RECORD_MODES}, got {record!r}")
    recorder = get_recorder()
    run_started = perf_counter() if recorder.enabled else 0.0
    choose = policy.choose_view
    pick = scheduler.pick_view
    scheduler.reset()

    summary_only = record == "summary"
    trajectory = Trajectory(configurations=[view.configuration()])
    if summary_only:
        trajectory.step_count = 0
    for index in range(max_steps):
        unstable = view.unstable_miners()
        if not unstable:
            trajectory.converged = True
            break
        miner = pick(view, unstable, rng)
        target = choose(view, miner, rng)
        if target is None:
            raise ConvergenceError(
                f"scheduler activated miner {miner.name!r} but the policy "
                "found no improving move; scheduler/policy disagree on stability"
            )
        if summary_only:
            view.apply(miner, target)
            trajectory.step_count += 1
            continue
        before = view.payoff(miner)
        after = view.payoff_after_move(miner, target)
        if after <= before:
            raise ConvergenceError(
                f"policy {policy.name!r} returned a non-improving move for "
                f"{miner.name!r} ({before} → {after}); better-response contract violated"
            )
        source = view.coin_of(miner)
        view.apply(miner, target)
        trajectory.steps.append(
            Step(
                index=index,
                miner=miner,
                source=source,
                target=target,
                payoff_before=before,
                payoff_after=after,
            )
        )
        if record == "configs":
            trajectory.configurations.append(view.configuration())
    else:
        # Budget exhausted: the final state may still happen to be stable.
        if view.is_stable():
            trajectory.converged = True
        elif raise_on_budget:
            raise ConvergenceError(
                f"better-response learning did not converge within {max_steps} steps"
            )
    if record != "configs" and trajectory.length:
        trajectory.configurations.append(view.configuration())
    if recorder.enabled:
        # Totals only, emitted once per run: the per-step path stays
        # untouched, so the NullRecorder default is truly zero-overhead
        # and the RNG draw sequence is identical either way. Every loop
        # iteration scanned for unstable miners, and the budget-exhausted
        # epilogue re-checked stability once, so scans = steps + 1.
        steps = trajectory.length
        recorder.add_time("engine.run", perf_counter() - run_started)
        recorder.count("engine.runs")
        recorder.count("engine.steps", steps)
        recorder.count("engine.scans", steps + 1)
        if trajectory.converged:
            recorder.count("engine.converged")
    return trajectory


@dataclass
class LearningEngine:
    """A reusable better-response learning runner.

    Parameters
    ----------
    policy:
        Where an activated miner moves (default: uniformly random
        improving move — the canonical "arbitrary" learner).
    scheduler:
        Who moves next (default: uniformly random unstable miner).
    max_steps:
        Step budget; exceeded ⇒ :class:`ConvergenceError` when
        ``raise_on_budget`` else an unconverged trajectory.
    record:
        One of :data:`RECORD_MODES`. ``"configs"`` (default) keeps every
        intermediate configuration (needed by potential audits; costs
        memory on long runs); ``"steps"`` keeps the steps but only the
        endpoints; ``"summary"`` streams: step counts and final state
        only, no per-step :class:`~repro.learning.trajectory.Step`
        records.
    backend:
        ``"fast"`` (integer kernel view, default), ``"exact"``
        (Fraction view) or ``"class"`` (population-compressed view
        with per-(power, alphabet)-class scan memoization). All three
        produce identical trajectories for every policy/scheduler —
        including custom subclasses; see the module docstring.
    """

    policy: Optional[BetterResponsePolicy] = None
    scheduler: Optional[ActivationScheduler] = None
    max_steps: int = DEFAULT_MAX_STEPS
    raise_on_budget: bool = True
    backend: str = "fast"
    record: str = "configs"

    def __post_init__(self) -> None:
        if self.policy is None:
            self.policy = RandomImprovingPolicy()
        if self.scheduler is None:
            self.scheduler = UniformRandomScheduler()
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {self.max_steps}")
        if self.backend not in ("fast", "exact", "class"):
            raise ValueError(
                f"backend must be 'fast', 'exact' or 'class', got {self.backend!r}"
            )
        if self.record not in RECORD_MODES:
            raise ValueError(f"record must be one of {RECORD_MODES}, got {self.record!r}")

    def run(
        self,
        game: Union[Game, RestrictedGame],
        initial: Configuration,
        *,
        seed: RngLike = None,
        allowed=None,
    ) -> Trajectory:
        """Run better-response learning from *initial* to convergence.

        Returns the full :class:`Trajectory`. Raises
        :class:`ConvergenceError` if the budget is exhausted and
        ``raise_on_budget`` is set. *game* may be a
        :class:`~repro.core.restricted.RestrictedGame`, or ``allowed``
        may restrict each miner to a subset of coins (same contract as
        :func:`~repro.core.restricted.as_restricted`); *initial* must
        then sit on allowed coins, else ``InvalidConfigurationError``.
        """
        base, restricted = as_restricted(game, allowed)
        (base if restricted is None else restricted).validate_configuration(initial)
        mask = None if restricted is None else restricted.allowed_map()
        rng = make_rng(seed)
        policy = self.policy
        scheduler = self.scheduler
        assert policy is not None and scheduler is not None  # set in __post_init__
        view = make_view(base, initial, backend=self.backend, allowed=mask)
        return run_better_response(
            view,
            policy,
            scheduler,
            rng,
            max_steps=self.max_steps,
            raise_on_budget=self.raise_on_budget,
            record=self.record,
        )


def converge(
    game: Game,
    initial: Configuration,
    *,
    policy: Optional[BetterResponsePolicy] = None,
    scheduler: Optional[ActivationScheduler] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    seed: RngLike = None,
    backend: str = "fast",
) -> Configuration:
    """Convenience wrapper: run learning and return only the final state."""
    engine = LearningEngine(
        policy=policy,
        scheduler=scheduler,
        max_steps=max_steps,
        record="steps",
        backend=backend,
    )
    return engine.run(game, initial, seed=seed).final
