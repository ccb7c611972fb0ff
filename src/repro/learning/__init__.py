"""Better-response learning: policies × schedulers × one view-driven engine (+ MWU baseline)."""

from repro.learning.engine import (
    DEFAULT_MAX_STEPS,
    LearningEngine,
    converge,
    run_better_response,
)
from repro.learning.view import ExactView, GameView, make_view
from repro.learning.policies import (
    STANDARD_POLICIES,
    BestResponsePolicy,
    BetterResponsePolicy,
    EpsilonGreedyPolicy,
    FirstImprovingPolicy,
    MaxRpuPolicy,
    MinimalGainPolicy,
    RandomImprovingPolicy,
)
from repro.learning.regret import MultiplicativeWeightsLearner, MwuResult
from repro.learning.simultaneous import (
    SimultaneousResult,
    cycling_fraction,
    run_simultaneous,
)
from repro.learning.schedulers import (
    STANDARD_SCHEDULERS,
    ActivationScheduler,
    LargestFirstScheduler,
    RoundRobinScheduler,
    SmallestFirstScheduler,
    UniformRandomScheduler,
)
from repro.learning.trajectory import Step, Trajectory

__all__ = [
    "DEFAULT_MAX_STEPS",
    "ExactView",
    "GameView",
    "LearningEngine",
    "converge",
    "make_view",
    "run_better_response",
    "STANDARD_POLICIES",
    "BetterResponsePolicy",
    "BestResponsePolicy",
    "EpsilonGreedyPolicy",
    "FirstImprovingPolicy",
    "MaxRpuPolicy",
    "MinimalGainPolicy",
    "RandomImprovingPolicy",
    "MultiplicativeWeightsLearner",
    "MwuResult",
    "SimultaneousResult",
    "cycling_fraction",
    "run_simultaneous",
    "STANDARD_SCHEDULERS",
    "ActivationScheduler",
    "LargestFirstScheduler",
    "RoundRobinScheduler",
    "SmallestFirstScheduler",
    "UniformRandomScheduler",
    "Step",
    "Trajectory",
]
