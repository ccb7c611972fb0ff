"""Parity wall for the population-compressed class kernel.

The class kernel re-represents a configuration as an integer count
matrix (miners per (power, alphabet) class × coin). These tests pin its
central promise — *compression changes the representation, never the
game* — differentially against the two established exact engines:

* **Enumeration parity** — stable count profiles orbit-expand
  bit-for-bit to the equilibrium code sets of :class:`ConfigSpace`'s
  per-miner full graph, masked and unmasked, on a 100+-game sweep plus
  a hypothesis sweep of random games × random hardware masks.
* **Trajectory parity** — with every class a singleton the count-level
  stepper consumes the *same RNG draw sequence* as the per-miner
  engine; with populated classes its deterministic modes match the
  per-miner engine under a class-canonical scheduler step for step.
* **Chunking soundness** — the closed-form maximal run length of
  :meth:`ClassGame.max_chunk` is exactly the number of successively
  improving single moves, verified move by move.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configuration import Configuration
from repro.core.factories import random_configuration, random_game
from repro.core.game import Game
from repro.core.restricted import RestrictedGame
from repro.exceptions import InvalidConfigurationError, InvalidModelError
from repro.kernel.classes import (
    CLASS_POLICIES,
    ClassGame,
    run_class_better_response,
    run_class_simultaneous,
)
from repro.kernel.space import ConfigSpace
from repro.learning.engine import LearningEngine
from repro.learning.policies import (
    BestResponsePolicy,
    FirstImprovingPolicy,
    MinimalGainPolicy,
    RandomImprovingPolicy,
)
from repro.learning.schedulers import ActivationScheduler, UniformRandomScheduler
from repro.learning.simultaneous import run_simultaneous
from repro.run import RunSpec, run_many

# ----------------------------------------------------------------------
# The sweep: deterministic games with real compression (repeated powers)
# ----------------------------------------------------------------------

POWER_POOL = [Fraction(1), Fraction(2), Fraction(3), Fraction(5), Fraction(1, 2)]
REWARD_POOL = [Fraction(1), Fraction(2), Fraction(3), Fraction(5), Fraction(7)]

N_UNMASKED = 56
N_MASKED = 52
SWEEP = list(range(N_UNMASKED + N_MASKED))


def sweep_case(case):
    """Game #case of the sweep: tie-heavy powers/rewards, mask for the
    second half. Deterministic in *case*."""
    rng = np.random.default_rng(10_000 + case)
    n = int(rng.integers(3, 7))
    k = int(rng.integers(2, 4))
    powers = [POWER_POOL[int(rng.integers(0, len(POWER_POOL)))] for _ in range(n)]
    rewards = [REWARD_POOL[int(rng.integers(0, len(REWARD_POOL)))] for _ in range(k)]
    game = Game.create(powers=powers, reward_values=rewards)
    allowed = None
    if case >= N_UNMASKED:
        allowed = {}
        for miner in game.miners:
            size = int(rng.integers(1, k + 1))
            picks = sorted(rng.choice(k, size=size, replace=False).tolist())
            allowed[miner] = [game.coins[j] for j in picks]
    return game, allowed


def _smallest_orbit_code(space, cgame, code):
    """The smallest code in *code*'s orbit: coins ascending within each class."""
    counts = cgame.counts_of_assignment(space.decode(code))
    return space.encode(cgame.assignment_of_counts(counts))


def expanded_is_stable(game, allowed, cgame, counts):
    """Per-miner stability verdict of a count matrix, via the canonical
    orbit representative on the exact kernel."""
    assign = cgame.assignment_of_counts(counts)
    config = Configuration(game.miners, [game.coins[j] for j in assign])
    if allowed is None:
        return game.is_stable(config)
    return RestrictedGame(game, allowed).is_stable(config)


@pytest.mark.parametrize("case", SWEEP)
def test_class_kernel_matches_config_space(case):
    """The wall: classes ≡ the kernel's (power, alphabet) groups, stable
    profiles ≡ stable orbits of the per-miner full graph, orbit
    expansion ≡ the per-miner equilibrium count."""
    game, allowed = sweep_case(case)
    cgame = ClassGame.from_game(game.with_allowed(allowed))
    space = ConfigSpace(game.with_allowed(allowed))
    kernel = space.kernel

    # Classes are exactly the kernel's classes, same order, same scale.
    assert cgame.members == kernel.classes
    assert tuple(cgame.powers) == tuple(kernel.powers[m[0]] for m in kernel.classes)
    assert cgame.alphabets == tuple(kernel.alphabets[m[0]] for m in kernel.classes)
    assert cgame.profile_count() == space.scan_size

    stable = cgame.stable_profiles()
    codes = list(space._dag(orbits=False).sink_codes)

    # Orbit expansion: profile multiplicities cover every per-miner
    # equilibrium exactly once.
    assert sum(cgame.orbit_size(profile) for profile in stable) == len(codes)

    # And the profiles are the canonical representatives of exactly the
    # stable orbits — content equality, not just counting.
    profile_codes = {
        space.encode(cgame.assignment_of_counts(profile)) for profile in stable
    }
    assert profile_codes == {_smallest_orbit_code(space, cgame, code) for code in codes}

    # Stability verdicts agree on random (mostly unstable) states too.
    rng = np.random.default_rng(900 + case)
    for _ in range(5):
        counts = cgame.random_counts(seed=rng)
        assert cgame.is_stable_counts(counts) == expanded_is_stable(
            game, allowed, cgame, counts
        )

    # The stepper converges to a true equilibrium, chunked or not.
    for chunk in (False, True):
        trajectory = run_class_better_response(
            cgame, cgame.random_counts(seed=rng), seed=rng, chunk=chunk
        )
        assert trajectory.converged
        assert cgame.is_stable_counts(trajectory.final)
        assert expanded_is_stable(game, allowed, cgame, trajectory.final)


# ----------------------------------------------------------------------
# Hypothesis: random games × random masks, spec round-trips
# ----------------------------------------------------------------------


@st.composite
def class_sweep_games(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    k = draw(st.integers(min_value=2, max_value=3))
    powers = draw(
        st.lists(st.sampled_from(POWER_POOL), min_size=n, max_size=n)
    )
    rewards = draw(
        st.lists(st.sampled_from(REWARD_POOL), min_size=k, max_size=k)
    )
    masks = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.sets(
                    st.integers(min_value=0, max_value=k - 1), min_size=1, max_size=k
                ),
                min_size=n,
                max_size=n,
            ),
        )
    )
    return powers, rewards, masks


@settings(max_examples=40, deadline=None)
@given(class_sweep_games(), st.integers(min_value=0, max_value=2**31 - 1))
def test_class_kernel_equilibria_property(data, run_seed):
    powers, rewards, masks = data
    game = Game.create(powers=powers, reward_values=rewards)
    allowed = (
        None
        if masks is None
        else {
            miner: [game.coins[j] for j in sorted(mask)]
            for miner, mask in zip(game.miners, masks)
        }
    )
    cgame = ClassGame.from_game(game.with_allowed(allowed))
    space = ConfigSpace(game.with_allowed(allowed))
    stable = cgame.stable_profiles()
    codes = space._dag(orbits=False).sink_codes
    assert sum(cgame.orbit_size(profile) for profile in stable) == len(codes)
    profile_codes = {
        space.encode(cgame.assignment_of_counts(profile)) for profile in stable
    }
    assert profile_codes == {_smallest_orbit_code(space, cgame, c) for c in codes}

    trajectory = run_class_better_response(
        cgame, cgame.random_counts(seed=run_seed), seed=run_seed, chunk=True
    )
    assert trajectory.converged
    assert trajectory.final in set(stable)


@settings(max_examples=30, deadline=None)
@given(class_sweep_games(), st.integers(min_value=0, max_value=2**31 - 1))
def test_from_spec_equals_from_game(data, run_seed):
    """A spec-built twin of a compressed game is indistinguishable:
    same normalization, same equilibria, same seeded trajectories."""
    powers, rewards, masks = data
    game = Game.create(powers=powers, reward_values=rewards)
    allowed = (
        None
        if masks is None
        else {
            miner: [game.coins[j] for j in sorted(mask)]
            for miner, mask in zip(game.miners, masks)
        }
    )
    cgame = ClassGame.from_game(game.with_allowed(allowed))
    twin = ClassGame.from_spec(
        [(power, alphabet, count) for power, alphabet, count in cgame.spec()],
        rewards=cgame.reward_fractions,
        coin_names=cgame.coin_names,
    )
    assert twin.spec() == cgame.spec()
    assert twin.powers == cgame.powers
    assert twin.rewards == cgame.rewards
    assert twin.stable_profiles() == cgame.stable_profiles()
    for policy in CLASS_POLICIES:
        start = cgame.random_counts(seed=run_seed)
        a = run_class_better_response(cgame, start, policy=policy, seed=run_seed)
        b = run_class_better_response(twin, start, policy=policy, seed=run_seed)
        assert (a.steps, a.moved, a.final) == (b.steps, b.moved, b.final)


# ----------------------------------------------------------------------
# Trajectory parity against the per-miner engine
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_singleton_classes_are_draw_for_draw_identical(seed):
    """All-distinct powers ⇒ every class a singleton ⇒ the class stepper
    and the per-miner engine consume the same RNG stream and walk the
    same path."""
    game = random_game(5, 3, seed=seed)  # strict_powers ⇒ singletons
    cgame = ClassGame.from_game(game)
    assert cgame.n_classes == len(game.miners)
    start = random_configuration(game, seed=seed)

    rng_miner = np.random.default_rng(seed)
    rng_class = np.random.default_rng(seed)
    engine = LearningEngine(record="summary")
    per_miner = engine.run(game, start, seed=rng_miner)
    compressed = run_class_better_response(
        cgame, cgame.counts_of(start), seed=rng_class
    )
    assert compressed.converged and per_miner.converged
    assert compressed.steps == per_miner.length
    assert compressed.final == tuple(
        tuple(row) for row in cgame.counts_of(per_miner.final)
    )
    # Same number of draws, same values: the streams end in lockstep.
    assert int(rng_miner.integers(0, 2**62)) == int(rng_class.integers(0, 2**62))


class CanonicalPairScheduler(ActivationScheduler):
    """Per-miner twin of the class stepper's ``first-unstable`` order:
    activate the unstable miner whose (class, current coin) pair is
    canonically first."""

    name = "canonical-pair"

    def __init__(self, cgame: ClassGame):
        self.cgame = cgame

    def pick_view(self, view, unstable, rng):
        index = view.kernel.miner_index
        class_of = self.cgame.class_of
        return min(
            unstable, key=lambda miner: (class_of[index[miner]], view.assign[index[miner]])
        )


@pytest.mark.parametrize("case", [0, 3, 17, 31, 60, 77, 95])
@pytest.mark.parametrize(
    "policy_name, policy_factory",
    [
        ("best-response", BestResponsePolicy),
        ("first-improving", FirstImprovingPolicy),
        ("minimal-gain", MinimalGainPolicy),
    ],
)
def test_populated_classes_match_canonical_per_miner_engine(
    case, policy_name, policy_factory
):
    """With multiple miners per class, deterministic class dynamics
    match the per-miner engine step for step under the class-canonical
    activation order."""
    game, allowed = sweep_case(case)
    cgame = ClassGame.from_game(game.with_allowed(allowed))
    start = random_configuration(game, seed=case)
    if allowed is not None:
        # Project the start into the mask: first allowed coin per miner.
        start = Configuration(
            game.miners,
            [
                allowed[miner][0] if start.coin_of(miner) not in allowed[miner] else start.coin_of(miner)
                for miner in game.miners
            ],
        )
    engine = LearningEngine(
        policy=policy_factory(),
        scheduler=CanonicalPairScheduler(cgame),
        record="summary",
    )
    per_miner = engine.run(game.with_allowed(allowed), start, seed=0)
    compressed = run_class_better_response(
        cgame,
        cgame.counts_of(start),
        policy=policy_name,
        scheduler="first-unstable",
        seed=0,
    )
    assert compressed.converged and per_miner.converged
    assert compressed.steps == per_miner.length
    assert compressed.final == tuple(
        tuple(row) for row in cgame.counts_of(per_miner.final)
    )


# ----------------------------------------------------------------------
# Chunking: the closed form is exactly the maximal improving run
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", [1, 9, 23, 42, 71, 88, 104])
def test_max_chunk_is_the_exact_maximal_improving_run(case):
    game, allowed = sweep_case(case)
    cgame = ClassGame.from_game(game.with_allowed(allowed))
    rng = np.random.default_rng(case)
    checked = 0
    for _ in range(12):
        counts = cgame.random_counts(seed=rng)
        mass = cgame.mass_of(counts)
        for k, src in cgame.unstable_pairs(counts, mass):
            for dst in cgame.better_targets(k, src, mass):
                available = counts[k][src]
                q = cgame.max_chunk(k, src, dst, mass, available)
                assert 1 <= q <= available
                # Each of the q single moves is improving at its state…
                work = list(mass)
                power = cgame.powers[k]
                for _step in range(q):
                    assert cgame.improving(k, src, dst, work)
                    work[src] -= power
                    work[dst] += power
                # …and the (q+1)-th is not (unless the class ran out).
                if q < available:
                    assert not cgame.improving(k, src, dst, work)
                checked += 1
    assert checked > 0


def test_chunked_runs_converge_on_large_populations():
    cgame = ClassGame.from_spec(
        [
            (1, None, 400_000),
            (5, None, 300_000),
            (25, (0, 1), 200_000),
            (100, (1, 2, 3), 100_000),
        ],
        rewards=[10, 7, 5, 3],
    )
    trajectory = run_class_better_response(
        cgame, cgame.random_counts(seed=5), seed=5, chunk=True
    )
    assert trajectory.converged
    assert cgame.is_stable_counts(trajectory.final)
    # Chunking is the point: macro steps ≪ miners moved.
    assert trajectory.steps < 1_000 < trajectory.moved
    # Population conservation, per class.
    for k, row in enumerate(trajectory.final):
        assert sum(row) == cgame.populations[k]
        for j, value in enumerate(row):
            assert value == 0 or j in cgame.alphabets[k]


# ----------------------------------------------------------------------
# Simultaneous rounds
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", [2, 8, 19, 40, 64, 81, 99])
def test_simultaneous_counts_match_per_miner_rounds(case):
    """At ``inertia=0`` the count-level synchronous dynamic reproduces
    the per-miner one round for round — including cycles."""
    game, allowed = sweep_case(case)
    if allowed is not None:
        return  # the per-miner simultaneous dynamic is unmasked-only
    cgame = ClassGame.from_game(game)
    start = random_configuration(game, seed=case)
    per_miner = run_simultaneous(game, start, max_rounds=60)
    compressed = run_class_simultaneous(cgame, cgame.counts_of(start), max_rounds=60)
    assert compressed.converged == per_miner.converged
    assert compressed.cycled == per_miner.cycled
    assert compressed.cycle_start == per_miner.cycle_start
    assert compressed.rounds == per_miner.rounds
    for config, profile in zip(per_miner.configurations, compressed.profiles):
        assert tuple(tuple(row) for row in cgame.counts_of(config)) == profile


def test_simultaneous_inertia_smoke():
    cgame = ClassGame.from_spec(
        [(1, None, 1_000), (4, None, 500)], rewards=[3, 2, 1]
    )
    result = run_class_simultaneous(
        cgame, cgame.random_counts(seed=1), inertia=0.5, seed=1, max_rounds=200
    )
    for profile in result.profiles:
        for k, row in enumerate(profile):
            assert sum(row) == cgame.populations[k]
    with pytest.raises(ValueError):
        run_class_simultaneous(cgame, cgame.random_counts(seed=1), inertia=1.0)
    with pytest.raises(ValueError):
        run_class_simultaneous(cgame, cgame.random_counts(seed=1), max_rounds=0)


# ----------------------------------------------------------------------
# run_many: the kind="classes" route
# ----------------------------------------------------------------------


def test_run_many_classes_route_is_deterministic_and_stable():
    game, _ = sweep_case(13)
    big = ClassGame.from_spec(
        [(1, None, 50_000), (9, (0, 1), 25_000)], rewards=[4, 3, 2]
    )
    cells = [
        RunSpec(game=game, runs=6, kind="classes", seed=3),
        RunSpec(game=big, runs=4, kind="classes", policy="best-response", seed=4),
    ]
    first = run_many(cells)
    second = run_many(cells)
    assert first == second
    compressed = ClassGame.from_game(game)
    for result in first[0]:
        assert result.converged
        assert compressed.is_stable_counts(result.final)
        assert result.policy == "random-improving" and result.scheduler == "uniform"
    for result in first[1]:
        assert result.converged
        assert big.is_stable_counts(result.final)
        assert result.policy == "best-response"
    assert [r.run_index for r in first[0]] == list(range(6))


def test_run_many_classes_cell_validation():
    game, _ = sweep_case(13)
    with pytest.raises(ValueError):
        RunSpec(game=game, runs=2, kind="classes", policy=RandomImprovingPolicy())
    with pytest.raises(ValueError):
        RunSpec(game=game, runs=2, kind="classes", scheduler=UniformRandomScheduler())
    with pytest.raises(ValueError):
        run_class_better_response(
            ClassGame.from_game(game), ClassGame.from_game(game).random_counts(), policy="nope"
        )
    with pytest.raises(ValueError):
        run_class_better_response(
            ClassGame.from_game(game), ClassGame.from_game(game).random_counts(), scheduler="nope"
        )


# ----------------------------------------------------------------------
# Validation and error surfaces
# ----------------------------------------------------------------------


def test_from_spec_validation():
    with pytest.raises(InvalidModelError, match="at least one coin"):
        ClassGame.from_spec([(1, None, 5)], rewards=[])
    with pytest.raises(InvalidModelError, match="at least one class"):
        ClassGame.from_spec([], rewards=[1, 2])
    with pytest.raises(InvalidModelError, match="empty: count"):
        ClassGame.from_spec([(1, None, 0)], rewards=[1, 2])
    with pytest.raises(InvalidModelError, match="count must be an int"):
        ClassGame.from_spec([(1, None, 2.5)], rewards=[1, 2])
    with pytest.raises(InvalidModelError, match="count must be an int"):
        ClassGame.from_spec([(1, None, True)], rewards=[1, 2])
    with pytest.raises(InvalidModelError, match="empty allowed set"):
        ClassGame.from_spec([(1, (), 5)], rewards=[1, 2])
    with pytest.raises(InvalidModelError, match="outside"):
        ClassGame.from_spec([(1, (0, 2), 5)], rewards=[1, 2])
    with pytest.raises(InvalidModelError, match="overflows"):
        ClassGame.from_spec([(1, None, 10**12 + 1)], rewards=[1, 2])
    with pytest.raises(InvalidModelError, match="coin names"):
        ClassGame.from_spec([(1, None, 5)], rewards=[1, 2], coin_names=["only"])

    # Duplicate (power, alphabet) entries merge into one class.
    merged = ClassGame.from_spec(
        [(1, None, 2), (2, (0,), 3), (1, None, 4)], rewards=[1, 2]
    )
    assert merged.n_classes == 2
    assert merged.populations == (6, 3)

    # Spec-built games have no per-miner side.
    with pytest.raises(InvalidModelError, match="built from a spec"):
        merged.assignment_of_counts([[6, 0], [3, 0]])


def test_from_game_compresses_a_restricted_game():
    game, _ = sweep_case(0)
    restricted = RestrictedGame(
        game, {miner: list(game.coins) for miner in game.miners}
    )
    assert ClassGame.from_game(restricted).total_miners == len(game.miners)


def test_validate_counts_rejects_malformed_states():
    cgame = ClassGame.from_spec(
        [(1, (0, 1), 4), (3, (1, 2), 2)], rewards=[1, 2, 3]
    )
    cgame.validate_counts([[2, 2, 0], [0, 1, 1]])
    with pytest.raises(InvalidConfigurationError, match="rows"):
        cgame.validate_counts([[4, 0, 0]])
    with pytest.raises(InvalidConfigurationError, match="entries"):
        cgame.validate_counts([[4, 0], [0, 1, 1]])
    with pytest.raises(InvalidConfigurationError, match="must be an int"):
        cgame.validate_counts([[2.0, 2, 0], [0, 1, 1]])
    with pytest.raises(InvalidConfigurationError, match="negative"):
        cgame.validate_counts([[5, -1, 0], [0, 1, 1]])
    with pytest.raises(InvalidConfigurationError, match="mask"):
        cgame.validate_counts([[3, 0, 1], [0, 1, 1]])
    with pytest.raises(InvalidConfigurationError, match="sum"):
        cgame.validate_counts([[2, 1, 0], [0, 1, 1]])


def test_orbit_size_rejects_invalid_count_matrices():
    cgame = ClassGame.from_spec(
        [(1, (0, 1), 4), (3, (1, 2), 2)], rewards=[1, 2, 3]
    )
    assert cgame.orbit_size([[2, 2, 0], [0, 1, 1]]) == 6 * 2
    # A row missing its population used to yield a meaningless integer.
    with pytest.raises(InvalidConfigurationError, match="sum"):
        cgame.orbit_size([[2, 1, 0], [0, 1, 1]])
    with pytest.raises(InvalidConfigurationError, match="mask"):
        cgame.orbit_size([[3, 0, 1], [0, 1, 1]])
    with pytest.raises(InvalidConfigurationError, match="negative"):
        cgame.orbit_size([[5, -1, 0], [0, 1, 1]])


@pytest.mark.parametrize(
    "spec, rewards",
    [
        ([(1, None, 5)], [3, 2]),
        ([(1, (0, 1), 4), (3, (1, 2), 3)], [1, 2, 3]),
        ([(2, (0, 2), 3), (1, None, 4), (5, (1,), 2)], [4, 3, 2]),
        ([(1, (0, 1, 3), 6), (2, (2, 3), 5)], [5, 4, 3, 2]),
    ],
)
def test_orbit_sizes_partition_the_masked_configuration_space(spec, rewards):
    """Every per-miner configuration lies in exactly one count profile's
    orbit, so the orbit sizes sum to ∏_k |allowed_k| ** population_k."""
    cgame = ClassGame.from_spec(spec, rewards=rewards)
    expected = 1
    for _, allowed, population in spec:
        width = len(rewards) if allowed is None else len(allowed)
        expected *= width**population
    assert sum(cgame.orbit_size(p) for p in cgame.iter_profiles()) == expected


def test_class_payoffs_and_compression_reporting():
    cgame = ClassGame.from_spec(
        [(2, None, 30), (1, None, 10)], rewards=[6, 3]
    )
    assert cgame.compression == 20.0
    counts = [[20, 10], [0, 10]]
    payoffs = cgame.class_payoffs(counts)
    # Mass on c1 = 40, on c2 = 30: one power-2 miner earns 2·6/40 on c1.
    assert payoffs[0]["c1"] == Fraction(2 * 6, 40)
    assert payoffs[0]["c2"] == Fraction(2 * 3, 30)
    assert "c1" not in payoffs[1]
    assert payoffs[1]["c2"] == Fraction(1 * 3, 30)
    # Uniform-start multinomial respects alphabets and populations.
    counts = cgame.random_counts(seed=9)
    for k, row in enumerate(counts):
        assert sum(row) == cgame.populations[k]


# ----------------------------------------------------------------------
# Analysis helpers over the compressed lane
# ----------------------------------------------------------------------


def test_class_analysis_helpers():
    from repro.analysis import class_basin_profile, measure_class_convergence

    game, _ = sweep_case(21)
    stats = measure_class_convergence(game, runs=12, seed=2)
    assert stats.runs == 12
    assert stats.potential_monotone_fraction == 1.0
    assert stats.max_steps >= stats.median_steps >= 0

    cgame = ClassGame.from_game(game)
    profile = class_basin_profile(cgame, samples=30, seed=2)
    assert profile.samples == 30
    assert sum(profile.counts.values()) == 30
    stable = set(cgame.stable_profiles())
    assert set(profile.counts) <= stable
    for landed, size in profile.orbit_sizes.items():
        assert size == cgame.orbit_size(landed)
    dominant, share = profile.dominant()
    assert dominant in profile.counts and 0 < share <= 1
    assert profile.entropy() >= 0
    assert abs(sum(profile.frequencies.values()) - 1.0) < 1e-9

    with pytest.raises(ValueError):
        measure_class_convergence(game, runs=0)
    with pytest.raises(ValueError):
        class_basin_profile(game, samples=0)
