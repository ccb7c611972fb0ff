"""The dynamic reward design mechanism (paper Algorithms 1 and 2).

Given two equilibria ``s0, sf`` of ``G_{Π,C,F}``, the mechanism walks
the system from ``s0`` to ``sf`` through the stage milestones ``s^1,
…, s^n = sf`` of Eq. 3. Each loop iteration designs a reward function
(Eqs. 4–5), lets *arbitrary* better-response learning converge in the
designed game, and repeats until the stage milestone is reached.
Lemma 1 confines each stage's learning to ``T_i`` and forces the mover
to its destination; Theorem 2's potential ``Φ_i`` bounds the loop count.

The runner optionally *audits* those paper invariants at runtime (on by
default): every violation raises instead of silently producing a wrong
reproduction. In ``mode="feasible"`` (designed rewards never drop below
the organic ``F``) the ``T_i`` invariant can genuinely break — miners
may escape to an off-stage coin whose organic reward is too attractive
— and the mechanism then recovers by re-converging under ``F`` and
restarting, counting the restart in the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.design.cost import CostLedger, phase_cost
from repro.design.reward_design import DesignMode, stage1_rewards, stage_rewards
from repro.design.stages import (
    in_stage_set,
    intermediate_configuration,
    mover_index,
    ordered_miners,
    progress_rank,
)
from repro.exceptions import NotAnEquilibriumError, RewardDesignError
from repro.learning.engine import LearningEngine
from repro.learning.policies import BetterResponsePolicy
from repro.learning.schedulers import ActivationScheduler
from repro.util.rng import RngLike, make_rng


@dataclass(frozen=True)
class StageReport:
    """Measured outcome of one stage of Algorithm 2."""

    stage: int
    #: Loop iterations (reward designs) the stage needed.
    iterations: int
    #: Total better-response steps across the stage's learning phases.
    steps: int


@dataclass
class MechanismResult:
    """Outcome of one full mechanism run."""

    success: bool
    final: Configuration
    stage_reports: List[StageReport] = field(default_factory=list)
    ledger: CostLedger = field(default_factory=CostLedger)
    #: Times the feasible mode had to restart after a T_i escape.
    restarts: int = 0

    @property
    def total_steps(self) -> int:
        return sum(report.steps for report in self.stage_reports)

    @property
    def total_iterations(self) -> int:
        return sum(report.iterations for report in self.stage_reports)


class DynamicRewardDesign:
    """Algorithm 2 runner.

    Parameters
    ----------
    policy, scheduler:
        The better-response learner used inside each phase. The paper's
        guarantee is for *arbitrary* learners, so any valid pair works;
        adversarial pairs (e.g. ``MinimalGainPolicy`` ×
        ``SmallestFirstScheduler``) are the interesting stress test.
    mode:
        ``"paper"`` follows Eq. 4 literally (empty coins get reward 0);
        ``"feasible"`` floors designed rewards at the organic ``F``.
    audit:
        Verify Lemma 1 / Theorem 2 invariants during the run.
    max_iterations_per_stage:
        Safety valve; Theorem 2 bounds iterations by ``2^(n−i+1)``, and
        in practice stages take ``≤ n`` iterations.
    max_restarts:
        Feasible-mode recovery budget.
    """

    def __init__(
        self,
        *,
        policy: Optional[BetterResponsePolicy] = None,
        scheduler: Optional[ActivationScheduler] = None,
        mode: DesignMode = "paper",
        audit: bool = True,
        max_iterations_per_stage: int = 10_000,
        max_steps_per_phase: int = 1_000_000,
        max_restarts: int = 25,
    ):
        if mode not in ("paper", "feasible"):
            raise RewardDesignError(f"unknown design mode {mode!r}")
        self.mode: DesignMode = mode
        self.audit = audit
        self.max_iterations_per_stage = max_iterations_per_stage
        self.max_restarts = max_restarts
        self._engine = LearningEngine(
            policy=policy,
            scheduler=scheduler,
            max_steps=max_steps_per_phase,
            record="steps",
        )

    # ------------------------------------------------------------------

    def run(
        self,
        game: Game,
        initial: Configuration,
        target: Configuration,
        *,
        seed: RngLike = None,
    ) -> MechanismResult:
        """Move *game* from equilibrium *initial* to equilibrium *target*.

        Both endpoints must be stable under the game's base rewards
        (Algorithm 1's contract); violating endpoints raise
        :class:`NotAnEquilibriumError`.
        """
        game.validate_configuration(initial)
        game.validate_configuration(target)
        if not game.is_stable(initial):
            raise NotAnEquilibriumError("initial configuration is not stable under F")
        if not game.is_stable(target):
            raise NotAnEquilibriumError("target configuration is not stable under F")
        ordered_miners(game)  # validates strictly decreasing powers

        rng = make_rng(seed)
        result = MechanismResult(success=False, final=initial)
        current = initial
        restarts = 0
        while True:
            outcome = self._attempt(game, current, target, rng, result)
            if outcome is not None:
                result.success = True
                result.final = outcome
                result.restarts = restarts
                return result
            # Feasible-mode escape: re-converge under the organic rewards
            # and retry from whatever equilibrium the market settles in.
            restarts += 1
            if restarts > self.max_restarts:
                raise RewardDesignError(
                    f"mechanism exceeded {self.max_restarts} restarts in feasible mode"
                )
            current = self._engine.run(game, result.final, seed=rng).final

    # ------------------------------------------------------------------

    def _attempt(
        self,
        game: Game,
        initial: Configuration,
        target: Configuration,
        rng,
        result: MechanismResult,
    ) -> Optional[Configuration]:
        """One full pass of Algorithm 2; ``None`` signals a T_i escape."""
        current = initial
        n = len(game.miners)
        for stage in range(1, n + 1):
            milestone = intermediate_configuration(game, target, stage)
            iterations = 0
            steps = 0
            while current != milestone:
                iterations += 1
                if iterations > self.max_iterations_per_stage:
                    raise RewardDesignError(
                        f"stage {stage} exceeded {self.max_iterations_per_stage} "
                        "iterations; Theorem 2 guarantees termination, so this "
                        "indicates a bug or an adversarial custom learner"
                    )
                rank_before = (
                    progress_rank(game, target, stage, current) if stage > 1 else None
                )
                mover_before = (
                    mover_index(game, target, stage, current) if stage > 1 else None
                )
                config_before = current
                if stage == 1:
                    designed = stage1_rewards(game, target, mode=self.mode)
                else:
                    designed = stage_rewards(
                        game, target, stage, current, mode=self.mode
                    )
                trajectory = self._engine.run(game.with_rewards(designed), current, seed=rng)
                current = trajectory.final
                steps += trajectory.length
                result.ledger.add(
                    phase_cost(
                        game,
                        designed,
                        stage=stage,
                        iteration=iterations,
                        steps=trajectory.length,
                    )
                )
                if stage > 1 and not in_stage_set(game, target, stage, current):
                    if self.mode == "feasible":
                        result.final = current
                        return None
                    raise RewardDesignError(
                        f"learning escaped T_{stage} in paper mode; Lemma 1 is "
                        "violated — this is a bug"
                    )
                if self.audit and stage > 1:
                    try:
                        self._audit_iteration(
                            game,
                            target,
                            stage,
                            current,
                            rank_before,
                            mover_before,
                            config_before,
                        )
                    except RewardDesignError:
                        if self.mode != "feasible":
                            raise
                        # Feasible-mode floors can over-attract the
                        # destination, breaking Lemma 1's script while
                        # staying inside T_i. Recover like an escape.
                        result.final = current
                        return None
            result.stage_reports.append(
                StageReport(stage=stage, iterations=iterations, steps=steps)
            )
        if current != target:
            raise RewardDesignError(
                "mechanism completed all stages but did not reach the target; "
                "this is a bug"
            )
        return current

    def _audit_iteration(
        self,
        game: Game,
        target: Configuration,
        stage: int,
        current: Configuration,
        rank_before: Optional[int],
        mover_before: Optional[int],
        config_before: Optional[Configuration] = None,
    ) -> None:
        """Check Lemma 1(1)-(2) and Theorem 2's Φ monotonicity per phase."""
        miners = ordered_miners(game)
        destination = target.coin_of(miners[stage - 1])
        if mover_before is not None:
            mover = miners[mover_before - 1]
            if current.coin_of(mover) != destination:
                raise RewardDesignError(
                    f"Lemma 1 violated in stage {stage}: mover p{mover_before} is not "
                    "on the destination coin after the phase"
                )
            if config_before is not None:
                # Lemma 1(1): every miner indexed below the mover keeps
                # its pre-phase coin.
                for index in range(mover_before - 1):
                    miner = miners[index]
                    if current.coin_of(miner) != config_before.coin_of(miner):
                        raise RewardDesignError(
                            f"Lemma 1 violated in stage {stage}: miner "
                            f"p{index + 1} moved during the phase although it "
                            "is above the mover"
                        )
        if rank_before is not None:
            rank_after = progress_rank(game, target, stage, current)
            if rank_after <= rank_before:
                raise RewardDesignError(
                    f"Theorem 2 violated in stage {stage}: Φ did not increase "
                    f"({rank_before} → {rank_after})"
                )
