"""Population-compressed class kernel: exact dynamics for millions of miners.

Every dynamic in the library — better-response, simultaneous, noisy,
enumeration — only ever distinguishes miners up to their
(power, allowed-coin-mask) *class*: two miners with equal power and
equal alphabet see identical payoffs and identical move legality at
every state. This module makes the class the *state representation*,
and :class:`~repro.kernel.space.ConfigSpace` runs its orbit-level
scans (equilibria, the orbit-quotient DAG) on it. A configuration of a
:class:`ClassGame` is an integer count matrix ``counts[class][coin]``
instead of a coin per miner, so the cost of a better-response scan is
``O(#classes · #coins²)`` regardless of population — a million miners
in six hardware tiers step as fast as six miners.

Everything stays exact: powers and rewards are normalized to common
integer denominators exactly like :class:`~repro.kernel.core.KernelGame`
(the same ``_common_integers`` scaling, so class-kernel comparisons are
bit-for-bit the per-miner kernel's), an improving move is "move one
miner of class *i* from coin *c* to coin *c′*" decided by the same
integer cross-multiplication, and payoffs are recovered per class as
:class:`fractions.Fraction`.

Two entry layers:

:func:`run_class_better_response` / :func:`run_class_simultaneous`
    Count-level steppers. ``chunk=True`` moves the *maximal* run of
    miners of one class for which every successive single move is still
    improving (a closed-form integer bound), collapsing the
    ``O(population)`` tail of sequential convergence into
    ``O(log population)`` macro steps — this is what makes million-miner
    scenarios converge in seconds while remaining a legitimate
    better-response path under Theorem 1.
:func:`repro.run_many` (``kind="classes"`` cells)
    The population/batch route: seeded multinomial random starts, one
    compressed run per cell repetition.

Parity is the wall: ``tests/test_classes.py`` checks equilibrium sets
and convergence verdicts against the Fraction brute force and the
per-miner kernel after orbit expansion, and
``tests/test_orbit_route.py`` checks :class:`ConfigSpace`'s orbit
route against its per-miner full graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from time import perf_counter
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro._numeric import Number, multinomial, to_positive_fraction
from repro.core.coin import Coin
from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.core.miner import Miner
from repro.exceptions import (
    ConvergenceError,
    InvalidConfigurationError,
    InvalidModelError,
)
from repro.kernel.core import KernelGame, _common_integers
from repro.obs.recorder import get_recorder
from repro.util.rng import RngLike, make_rng

__all__ = [
    "CLASS_POLICIES",
    "CLASS_SCHEDULERS",
    "ClassGame",
    "ClassRunResult",
    "ClassSimultaneousResult",
    "ClassStep",
    "ClassTrajectory",
    "Profile",
    "run_class_better_response",
    "run_class_simultaneous",
]

#: An immutable count-matrix snapshot: ``profile[class][coin]`` miners.
Profile = Tuple[Tuple[int, ...], ...]

#: Class-symmetric policy names the count-level stepper accepts. They
#: mirror the per-miner policies of the same names; ``"max-rpu"`` is
#: omitted because for a fixed mover RPU order equals payoff order, so
#: it is ``"best-response"`` with the opposite tie-break — not a new
#: class-level behaviour.
CLASS_POLICIES = ("random-improving", "best-response", "minimal-gain", "first-improving")

#: Class-symmetric scheduler names: ``"uniform"`` activates a uniformly
#: random unstable *miner* (counts weight the draw), ``"first-unstable"``
#: the first unstable (class, coin) pair in canonical order.
CLASS_SCHEDULERS = ("uniform", "first-unstable")

#: Step budget default, shared with the per-miner engine's convention.
DEFAULT_MAX_STEPS = 1_000_000

#: Total-population cap: beyond this the count matrix is almost surely a
#: spec typo (and orbit/multinomial bookkeeping stops being meaningful).
MAX_POPULATION = 10**12


def _profile(counts: Sequence[Sequence[int]]) -> Profile:
    return tuple(tuple(row) for row in counts)


def _compositions(total: int, slots: int) -> Iterator[Tuple[int, ...]]:
    """All ways to split *total* miners over *slots* coins, exhaustively."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


class ClassGame:
    """A game over miner *classes*: (power, alphabet, population) triples.

    Construct with :meth:`from_game` (compresses a :class:`Game`, masked
    or not — classes are :attr:`KernelGame.classes`, in first-miner
    order) or
    :meth:`from_spec` (directly from ``[(power, allowed, count), ...]``
    with populations up to 10⁶ and beyond — no per-miner objects are
    ever materialized).

    State is a count matrix ``counts[class][coin]`` (plain nested lists
    of ints) plus an integer ``mass`` vector per coin maintained
    incrementally by the steppers. All predicates are exact integer
    cross-multiplications on the same normalized scale as
    :class:`~repro.kernel.core.KernelGame`, so class-level verdicts are
    bit-for-bit the per-miner kernel's.
    """

    __slots__ = (
        "n_classes",
        "n_coins",
        "total_miners",
        "powers",
        "rewards",
        "populations",
        "alphabets",
        "power_fractions",
        "reward_fractions",
        "coin_names",
        "class_names",
        "game",
        "kernel",
        "members",
        "class_of",
        "_allowed_sets",
        "_rows",
    )

    def __init__(
        self,
        *,
        power_fractions: Sequence[Fraction],
        reward_fractions: Sequence[Fraction],
        populations: Sequence[int],
        alphabets: Sequence[Tuple[int, ...]],
        coin_names: Sequence[str],
        class_names: Optional[Sequence[str]] = None,
        game: Optional[Game] = None,
        kernel: Optional[KernelGame] = None,
        members: Optional[Sequence[Tuple[int, ...]]] = None,
        class_of: Optional[Sequence[int]] = None,
    ):
        self.power_fractions: Tuple[Fraction, ...] = tuple(power_fractions)
        self.reward_fractions: Tuple[Fraction, ...] = tuple(reward_fractions)
        self.populations: Tuple[int, ...] = tuple(populations)
        self.alphabets: Tuple[Tuple[int, ...], ...] = tuple(alphabets)
        self.coin_names: Tuple[str, ...] = tuple(coin_names)
        self.n_classes = len(self.populations)
        self.n_coins = len(self.coin_names)
        self.total_miners = sum(self.populations)
        # The same scaling as KernelGame: gcd over a multiset equals gcd
        # over its distinct values, so the per-class integers match the
        # per-miner kernel's integers member for member.
        self.powers: List[int] = _common_integers(self.power_fractions)
        self.rewards: List[int] = _common_integers(self.reward_fractions)
        self.class_names: Tuple[str, ...] = (
            tuple(class_names)
            if class_names is not None
            else tuple(f"t{k + 1}" for k in range(self.n_classes))
        )
        self.game = game
        self.kernel = kernel
        self.members: Optional[Tuple[Tuple[int, ...], ...]] = (
            tuple(tuple(block) for block in members) if members is not None else None
        )
        self.class_of: Optional[Tuple[int, ...]] = (
            tuple(class_of) if class_of is not None else None
        )
        self._allowed_sets: Tuple[frozenset, ...] = tuple(
            frozenset(alphabet) for alphabet in self.alphabets
        )
        self._rows: List[Optional[Tuple[Tuple[int, ...], ...]]] = [None] * self.n_classes
        recorder = get_recorder()
        if recorder.enabled:
            recorder.count("classes.compressions")
            recorder.event(
                "classes.compress",
                miners=self.total_miners,
                classes=self.n_classes,
                ratio=self.total_miners / self.n_classes,
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_game(cls, game_or_kernel: Union[Game, KernelGame]) -> "ClassGame":
        """Compress a per-miner game into its (power, alphabet) classes.

        Classes are :attr:`KernelGame.classes` — miners grouped on
        (kernel-scaled power, allowed-coin alphabet), ordered by first
        miner. Given a :class:`KernelGame`, the class game reuses it;
        this is how :class:`~repro.kernel.space.ConfigSpace` runs its
        orbit-level scans on count matrices.
        """
        kernel = (
            game_or_kernel
            if isinstance(game_or_kernel, KernelGame)
            else KernelGame(game_or_kernel)
        )
        game = kernel.game
        miner_alphabets = kernel.alphabets
        members = kernel.classes
        miners = game.miners
        return cls(
            power_fractions=[miners[indices[0]].power for indices in members],
            reward_fractions=kernel.reward_fractions,
            populations=[len(indices) for indices in members],
            alphabets=[miner_alphabets[indices[0]] for indices in members],
            coin_names=kernel.coin_names,
            game=game,
            kernel=kernel,
            members=members,
            class_of=kernel.class_of,
        )

    @classmethod
    def from_spec(
        cls,
        spec: Sequence[Tuple[Number, Optional[Iterable[int]], int]],
        rewards: Sequence[Number],
        *,
        coin_names: Optional[Sequence[str]] = None,
    ) -> "ClassGame":
        """Build directly from ``[(power, allowed, count), ...]`` triples.

        ``allowed`` is ``None`` (every coin) or an iterable of coin
        *indices*; ``count`` is the class population. Entries with equal
        (power, allowed) merge into one class, populations summed — the
        class list always matches what :meth:`from_game` would produce
        for the expanded game, so spec-built and game-built dynamics are
        interchangeable. Coin names default to ``c1..cK``, the
        :meth:`Game.create` convention.
        """
        n_coins = len(rewards)
        if n_coins < 1:
            raise InvalidModelError("a class game needs at least one coin")
        reward_fractions = [
            to_positive_fraction(value, name=f"reward of coin {j + 1}")
            for j, value in enumerate(rewards)
        ]
        names = (
            tuple(coin_names)
            if coin_names is not None
            else tuple(f"c{j + 1}" for j in range(n_coins))
        )
        if len(names) != n_coins:
            raise InvalidModelError(
                f"{len(names)} coin names for {n_coins} rewards"
            )
        if not spec:
            raise InvalidModelError("a class game needs at least one class")
        full = tuple(range(n_coins))
        merged: Dict[Tuple[Fraction, Tuple[int, ...]], int] = {}
        for index, (power, allowed, count) in enumerate(spec):
            label = f"class {index + 1}"
            power_frac = to_positive_fraction(power, name=f"{label} power")
            if isinstance(count, bool) or not isinstance(count, int):
                raise InvalidModelError(
                    f"{label} count must be an int, got {count!r}"
                )
            if count < 1:
                raise InvalidModelError(
                    f"{label} is empty: count must be ≥ 1, got {count}"
                )
            if allowed is None:
                alphabet = full
            else:
                indices = sorted(set(allowed))
                if not indices:
                    raise InvalidModelError(f"{label} has an empty allowed set")
                for j in indices:
                    if isinstance(j, bool) or not isinstance(j, int):
                        raise InvalidModelError(
                            f"{label} allowed entries must be coin indices, got {j!r}"
                        )
                    if not 0 <= j < n_coins:
                        raise InvalidModelError(
                            f"{label} allows coin index {j}, outside 0..{n_coins - 1}"
                        )
                alphabet = tuple(indices)
            key = (power_frac, alphabet)
            merged[key] = merged.get(key, 0) + count
        total = sum(merged.values())
        if total > MAX_POPULATION:
            raise InvalidModelError(
                f"total population {total} overflows the {MAX_POPULATION} cap"
            )
        return cls(
            power_fractions=[power for power, _ in merged],
            reward_fractions=reward_fractions,
            populations=list(merged.values()),
            alphabets=[alphabet for _, alphabet in merged],
            coin_names=names,
        )

    def spec(self) -> Tuple[Tuple[Fraction, Tuple[int, ...], int], ...]:
        """The normalized ``(power, alphabet, population)`` triples."""
        return tuple(
            (self.power_fractions[k], self.alphabets[k], self.populations[k])
            for k in range(self.n_classes)
        )

    @property
    def compression(self) -> float:
        """Miners-per-class ratio — the state-size reduction factor."""
        return self.total_miners / self.n_classes

    def __repr__(self) -> str:
        return (
            f"ClassGame({self.total_miners} miners in {self.n_classes} classes, "
            f"{self.n_coins} coins)"
        )

    # ------------------------------------------------------------------
    # State construction and validation
    # ------------------------------------------------------------------

    def validate_counts(self, counts: Sequence[Sequence[int]]) -> None:
        """Exact shape/mask/population check; raises on any violation."""
        if len(counts) != self.n_classes:
            raise InvalidConfigurationError(
                f"count matrix has {len(counts)} rows for {self.n_classes} classes"
            )
        for k, row in enumerate(counts):
            if len(row) != self.n_coins:
                raise InvalidConfigurationError(
                    f"class {self.class_names[k]!r} row has {len(row)} entries "
                    f"for {self.n_coins} coins"
                )
            allowed = self._allowed_sets[k]
            total = 0
            for j, value in enumerate(row):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise InvalidConfigurationError(
                        f"class {self.class_names[k]!r} count on coin "
                        f"{self.coin_names[j]!r} must be an int, got {value!r}"
                    )
                if value < 0:
                    raise InvalidConfigurationError(
                        f"class {self.class_names[k]!r} has negative count on "
                        f"coin {self.coin_names[j]!r}"
                    )
                if value and j not in allowed:
                    raise InvalidConfigurationError(
                        f"class {self.class_names[k]!r} sits on coin "
                        f"{self.coin_names[j]!r} which its mask does not allow"
                    )
                total += value
            if total != self.populations[k]:
                raise InvalidConfigurationError(
                    f"class {self.class_names[k]!r} counts sum to {total}, "
                    f"population is {self.populations[k]}"
                )

    def mass_of(self, counts: Sequence[Sequence[int]]) -> List[int]:
        """Integer ``M_c(s)`` per coin for a count matrix."""
        mass = [0] * self.n_coins
        for k, row in enumerate(counts):
            power = self.powers[k]
            for j, value in enumerate(row):
                if value:
                    mass[j] += value * power
        return mass

    def random_counts(self, seed: RngLike = None) -> List[List[int]]:
        """A uniform random start: each miner picks uniformly from its
        alphabet, aggregated per class as one multinomial draw."""
        rng = make_rng(seed)
        counts = [[0] * self.n_coins for _ in range(self.n_classes)]
        for k, alphabet in enumerate(self.alphabets):
            population = self.populations[k]
            if len(alphabet) == 1:
                counts[k][alphabet[0]] = population
                continue
            draws = rng.multinomial(population, [1.0 / len(alphabet)] * len(alphabet))
            for j, value in zip(alphabet, draws):
                counts[k][j] = int(value)
        return counts

    def counts_of(self, config: Configuration) -> List[List[int]]:
        """The count matrix of a per-miner configuration (game-backed)."""
        kernel = self._require_game()
        return self.counts_of_assignment(kernel.assignment_of(config))

    def counts_of_assignment(self, assign: Sequence[int]) -> List[List[int]]:
        """The count matrix of a per-miner coin-index assignment."""
        self._require_game()
        assert self.class_of is not None
        counts = [[0] * self.n_coins for _ in range(self.n_classes)]
        for i, j in enumerate(assign):
            counts[self.class_of[i]][j] += 1
        return counts

    def assignment_of_counts(self, counts: Sequence[Sequence[int]]) -> List[int]:
        """The canonical per-miner assignment of a count matrix:
        within each class, coin indices ascending over its members —
        the smallest code in the matrix's orbit."""
        self._require_game()
        assert self.members is not None
        assign = [0] * sum(self.populations)
        for k, block in enumerate(self.members):
            slot = 0
            for j in range(self.n_coins):
                for _ in range(counts[k][j]):
                    assign[block[slot]] = j
                    slot += 1
        return assign

    def _require_game(self) -> KernelGame:
        if self.kernel is None:
            raise InvalidModelError(
                "this ClassGame was built from a spec; per-miner "
                "configurations exist only for game-backed class games"
            )
        return self.kernel

    # ------------------------------------------------------------------
    # Index-level better-response structure (the hot path)
    # ------------------------------------------------------------------

    def improving(self, k: int, src: int, dst: int, mass: Sequence[int]) -> bool:
        """Whether one miner of class *k* improves by moving src → dst."""
        rewards = self.rewards
        return rewards[dst] * mass[src] > rewards[src] * (mass[dst] + self.powers[k])

    def better_targets(self, k: int, src: int, mass: Sequence[int]) -> List[int]:
        """Improving destination coins for class *k* from *src*, ascending."""
        rewards = self.rewards
        reward_cur = rewards[src]
        mass_cur = mass[src]
        power = self.powers[k]
        return [
            j
            for j in self.alphabets[k]
            if j != src and rewards[j] * mass_cur > reward_cur * (mass[j] + power)
        ]

    def unstable_pairs(
        self, counts: Sequence[Sequence[int]], mass: Sequence[int]
    ) -> List[Tuple[int, int]]:
        """Occupied (class, coin) pairs with an improving move, in
        canonical order (classes outer, source coins ascending)."""
        rewards = self.rewards
        result: List[Tuple[int, int]] = []
        for k, alphabet in enumerate(self.alphabets):
            row = counts[k]
            power = self.powers[k]
            for src in alphabet:
                if not row[src]:
                    continue
                reward_cur = rewards[src]
                mass_cur = mass[src]
                for j in alphabet:
                    if j != src and rewards[j] * mass_cur > reward_cur * (mass[j] + power):
                        result.append((k, src))
                        break
        return result

    def is_stable_counts(
        self,
        counts: Sequence[Sequence[int]],
        mass: Optional[Sequence[int]] = None,
    ) -> bool:
        """Early-exit stability verdict over the count matrix."""
        if mass is None:
            mass = self.mass_of(counts)
        rewards = self.rewards
        for k, alphabet in enumerate(self.alphabets):
            row = counts[k]
            power = self.powers[k]
            for src in alphabet:
                if not row[src]:
                    continue
                reward_cur = rewards[src]
                mass_cur = mass[src]
                for j in alphabet:
                    if j != src and rewards[j] * mass_cur > reward_cur * (mass[j] + power):
                        return False
        return True

    def best_target(self, k: int, src: int, mass: Sequence[int]) -> Optional[int]:
        """The payoff-maximizing improving coin for class *k* from *src*.

        Same scan/tie-break as :meth:`KernelGame.best_response_idx`:
        strict improvement over best-so-far, earliest coin wins ties.
        """
        rewards = self.rewards
        power = self.powers[k]
        best_reward = rewards[src]
        best_den = mass[src]
        best: Optional[int] = None
        for j in self.alphabets[k]:
            if j == src:
                continue
            den = mass[j] + power
            if rewards[j] * best_den > best_reward * den:
                best_reward = rewards[j]
                best_den = den
                best = j
        return best

    def minimal_gain_target(
        self, k: int, targets: Sequence[int], mass: Sequence[int]
    ) -> int:
        """Of improving *targets*, the smallest post-move payoff (ties:
        smaller coin name) — :class:`MinimalGainPolicy`'s ordering."""
        rewards = self.rewards
        names = self.coin_names
        power = self.powers[k]
        best = targets[0]
        best_reward = rewards[best]
        best_den = mass[best] + power
        for j in targets[1:]:
            den = mass[j] + power
            lhs = rewards[j] * best_den
            rhs = best_reward * den
            if lhs < rhs or (lhs == rhs and names[j] < names[best]):
                best = j
                best_reward = rewards[j]
                best_den = den
        return best

    def max_chunk(
        self, k: int, src: int, dst: int, mass: Sequence[int], available: int
    ) -> int:
        """The largest q ≤ *available* such that moving q miners of
        class *k* from *src* to *dst* one by one is improving at every
        single step.

        After t moves the (t+1)-th is improving iff
        ``R[dst]·(M[src]−t·p) > R[src]·(M[dst]+(t+1)·p)``, i.e.
        ``t·p·(R[dst]+R[src]) < R[dst]·M[src] − R[src]·(M[dst]+p)`` —
        monotone in t, so the bound is one exact ceiling division.
        """
        rewards = self.rewards
        power = self.powers[k]
        num = rewards[dst] * mass[src] - rewards[src] * (mass[dst] + power)
        if num <= 0:
            return 0
        den = power * (rewards[dst] + rewards[src])
        return min(available, -(-num // den))

    # ------------------------------------------------------------------
    # Payoffs (exact, per class)
    # ------------------------------------------------------------------

    def payoff(self, k: int, j: int, mass_j: int) -> Fraction:
        """One class-*k* miner's exact payoff on coin *j* carrying
        integer mass — powers scale out exactly as in
        :meth:`KernelGame.payoff_fraction`."""
        return Fraction(self.powers[k], mass_j) * self.reward_fractions[j]

    def class_payoffs(
        self, counts: Sequence[Sequence[int]]
    ) -> List[Dict[str, Fraction]]:
        """Per class: coin name → exact per-miner payoff, occupied coins."""
        mass = self.mass_of(counts)
        result: List[Dict[str, Fraction]] = []
        for k, row in enumerate(counts):
            payoffs: Dict[str, Fraction] = {}
            for j, value in enumerate(row):
                if value:
                    payoffs[self.coin_names[j]] = self.payoff(k, j, mass[j])
            result.append(payoffs)
        return result

    # ------------------------------------------------------------------
    # Exact enumeration (small populations)
    # ------------------------------------------------------------------

    def profile_count(self) -> int:
        """Number of mask-valid count matrices (= ConfigSpace orbits)."""
        total = 1
        for k, alphabet in enumerate(self.alphabets):
            m = len(alphabet)
            total *= comb(self.populations[k] + m - 1, m - 1)
        return total

    def iter_profiles(self) -> Iterator[Profile]:
        """All mask-valid count matrices, as immutable snapshots, in
        product order over :meth:`class_rows` (class 0 outermost)."""
        return itertools.product(*(self.class_rows(k) for k in range(self.n_classes)))

    def class_rows(self, k: int) -> Tuple[Tuple[int, ...], ...]:
        """Every count row of class *k*: its population split over its
        alphabet, in :func:`_compositions` order."""
        rows = self._rows[k]
        if rows is None:
            alphabet = self.alphabets[k]
            table = []
            for split in _compositions(self.populations[k], len(alphabet)):
                row = [0] * self.n_coins
                for j, value in zip(alphabet, split):
                    row[j] = value
                table.append(tuple(row))
            rows = self._rows[k] = tuple(table)
        return rows

    def stable_profiles(self, *, max_profiles: Optional[int] = None) -> List[Profile]:
        """All equilibrium count matrices, by exhaustive exact scan.

        ``max_profiles`` caps the number of *scanned* profiles (the
        orbit count), turning combinatorial blowups into
        :class:`InvalidModelError` instead of an unbounded walk.
        """
        if max_profiles is not None and self.profile_count() > max_profiles:
            raise InvalidModelError(
                f"{self.profile_count()} class profiles exceed the "
                f"{max_profiles} scan limit"
            )
        return [profile for profile in self.iter_profiles() if self.is_stable_counts(profile)]

    def orbit_size(self, counts: Sequence[Sequence[int]]) -> int:
        """Per-miner configurations represented by one count matrix —
        the product of per-class :func:`~repro._numeric.multinomial`
        coefficients. An invalid matrix raises (:meth:`validate_counts`)."""
        self.validate_counts(counts)
        return prod(multinomial(row) for row in counts)


# ----------------------------------------------------------------------
# Count-level sequential stepper
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClassStep:
    """One macro step: *moved* miners of one class, src → dst."""

    index: int
    class_index: int
    source: int
    target: int
    moved: int


@dataclass
class ClassTrajectory:
    """Outcome of one count-level better-response run."""

    game: ClassGame
    initial: Profile
    final: Profile
    steps: int
    moved: int
    converged: bool
    #: Per-step records when ``record="steps"``.
    records: Optional[List[ClassStep]] = None
    #: Per-step snapshots (including initial) when ``record="profiles"``.
    profiles: Optional[List[Profile]] = None


#: Recording modes for :func:`run_class_better_response`.
CLASS_RECORD_MODES = ("summary", "steps", "profiles")


def run_class_better_response(
    cgame: ClassGame,
    counts: Sequence[Sequence[int]],
    *,
    policy: str = "random-improving",
    scheduler: str = "uniform",
    seed: RngLike = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    chunk: bool = False,
    record: str = "summary",
    raise_on_budget: bool = True,
) -> ClassTrajectory:
    """One better-response path over a count matrix, to convergence.

    The class-symmetric twin of
    :func:`repro.learning.engine.run_better_response`: the scheduler
    picks an unstable (class, source) pair, the policy an improving
    destination, and one miner moves — or, with ``chunk=True``, the
    maximal run of miners for which each successive single move is
    still improving (see :meth:`ClassGame.max_chunk`), which preserves
    the better-response path property while collapsing population-sized
    move tails into ``O(log population)`` macro steps.

    With every class a singleton, ``policy="random-improving"`` /
    ``scheduler="uniform"`` consume the *same RNG draw sequence* as the
    per-miner engine under the standard strategies, so trajectories are
    draw-for-draw identical — the parity suite asserts this.
    """
    if policy not in CLASS_POLICIES:
        raise ValueError(f"policy must be one of {CLASS_POLICIES}, got {policy!r}")
    if scheduler not in CLASS_SCHEDULERS:
        raise ValueError(
            f"scheduler must be one of {CLASS_SCHEDULERS}, got {scheduler!r}"
        )
    if record not in CLASS_RECORD_MODES:
        raise ValueError(
            f"record must be one of {CLASS_RECORD_MODES}, got {record!r}"
        )
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    cgame.validate_counts(counts)
    rng = make_rng(seed)
    recorder = get_recorder()
    run_started = perf_counter() if recorder.enabled else 0.0

    working = [list(row) for row in counts]
    mass = cgame.mass_of(working)
    initial = _profile(working)
    records: Optional[List[ClassStep]] = [] if record == "steps" else None
    profiles: Optional[List[Profile]] = [initial] if record == "profiles" else None
    powers = cgame.powers
    n_steps = 0
    n_moved = 0
    converged = False
    for index in range(max_steps):
        pairs = cgame.unstable_pairs(working, mass)
        if not pairs:
            converged = True
            break
        if scheduler == "first-unstable":
            k, src = pairs[0]
        else:
            # One uniform draw over unstable *miners*: pairs weighted by
            # their counts, in canonical order — the same distribution
            # (and, for singleton classes, the same draw) as the
            # per-miner UniformRandomScheduler.
            total = 0
            for pk, pc in pairs:
                total += working[pk][pc]
            pick = int(rng.integers(0, total))
            for pk, pc in pairs:
                pick -= working[pk][pc]
                if pick < 0:
                    k, src = pk, pc
                    break
        if policy == "best-response":
            dst = cgame.best_target(k, src, mass)
            assert dst is not None  # the pair was unstable
        else:
            targets = cgame.better_targets(k, src, mass)
            if policy == "first-improving":
                dst = targets[0]
            elif policy == "minimal-gain":
                dst = cgame.minimal_gain_target(k, targets, mass)
            else:
                dst = targets[int(rng.integers(0, len(targets)))]
        moved = (
            cgame.max_chunk(k, src, dst, mass, working[k][src]) if chunk else 1
        )
        power = powers[k]
        working[k][src] -= moved
        working[k][dst] += moved
        mass[src] -= moved * power
        mass[dst] += moved * power
        n_steps += 1
        n_moved += moved
        if records is not None:
            records.append(ClassStep(index, k, src, dst, moved))
        if profiles is not None:
            profiles.append(_profile(working))
    else:
        converged = cgame.is_stable_counts(working, mass)
        if not converged and raise_on_budget:
            raise ConvergenceError(
                f"class better-response did not converge within {max_steps} steps"
            )
    if recorder.enabled:
        # Totals only, once per run — the NullRecorder default stays
        # zero-overhead and the RNG stream is identical either way.
        # Every loop iteration scanned the pairs, plus one epilogue
        # stability check on budget exhaustion: scans = steps + 1.
        recorder.add_time("classes.run", perf_counter() - run_started)
        recorder.count("classes.runs")
        recorder.count("classes.steps", n_steps)
        recorder.count("classes.moves", n_moved)
        recorder.count("classes.scans", n_steps + 1)
        if converged:
            recorder.count("classes.converged")
    return ClassTrajectory(
        game=cgame,
        initial=initial,
        final=_profile(working),
        steps=n_steps,
        moved=n_moved,
        converged=converged,
        records=records,
        profiles=profiles,
    )


# ----------------------------------------------------------------------
# Count-level simultaneous rounds
# ----------------------------------------------------------------------


@dataclass
class ClassSimultaneousResult:
    """Outcome of a synchronous count-level run (cf.
    :class:`repro.learning.simultaneous.SimultaneousResult`)."""

    profiles: List[Profile]
    converged: bool
    cycle_start: Optional[int]

    @property
    def rounds(self) -> int:
        return len(self.profiles) - 1

    @property
    def final(self) -> Profile:
        return self.profiles[-1]

    @property
    def cycled(self) -> bool:
        return self.cycle_start is not None


def run_class_simultaneous(
    cgame: ClassGame,
    counts: Sequence[Sequence[int]],
    *,
    inertia: float = 0.0,
    max_rounds: int = 10_000,
    seed: RngLike = None,
) -> ClassSimultaneousResult:
    """Synchronous best-response rounds over a count matrix.

    Each round every unstable (class, source) pair jumps to its best
    response — evaluated against the pre-round masses, all applied
    together. All miners of one pair share one best response, so whole
    counts move; inertia keeps a ``Binomial(count, inertia)`` draw of
    each pair put (one draw per pair instead of one uniform per miner —
    the same distribution as the per-miner dynamic, at class cost).
    Convergence is a round with no unstable pair; a round in which
    inertia holds every unstable pair changes nothing but still counts
    against ``max_rounds``. At ``inertia=0`` the dynamic is
    deterministic, round-for-round identical to
    :func:`repro.learning.simultaneous.run_simultaneous` reduced to
    counts, and a repeated profile proves a permanent cycle.
    """
    if not 0.0 <= inertia < 1.0:
        raise ValueError(f"inertia must be in [0, 1), got {inertia}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be ≥ 1, got {max_rounds}")
    cgame.validate_counts(counts)
    rng = make_rng(seed)
    working = [list(row) for row in counts]
    mass = cgame.mass_of(working)
    powers = cgame.powers
    initial = _profile(working)
    profiles = [initial]
    seen: Dict[Profile, int] = {initial: 0}
    for round_index in range(1, max_rounds + 1):
        movers: List[Tuple[int, int, int, int]] = []
        unstable = False
        for k, alphabet in enumerate(cgame.alphabets):
            row = working[k]
            for src in alphabet:
                count = row[src]
                if not count:
                    continue
                dst = cgame.best_target(k, src, mass)
                if dst is None:
                    continue
                unstable = True
                if inertia > 0.0:
                    moving = count - int(rng.binomial(count, inertia))
                    if not moving:
                        continue
                else:
                    moving = count
                movers.append((k, src, dst, moving))
        if not unstable:
            return ClassSimultaneousResult(
                profiles=profiles, converged=True, cycle_start=None
            )
        for k, src, dst, moving in movers:
            power = powers[k]
            working[k][src] -= moving
            working[k][dst] += moving
            mass[src] -= moving * power
            mass[dst] += moving * power
        key = _profile(working)
        profiles.append(key)
        if inertia == 0.0:
            previous = seen.get(key)
            if previous is not None:
                return ClassSimultaneousResult(
                    profiles=profiles, converged=False, cycle_start=previous
                )
            seen[key] = round_index
    return ClassSimultaneousResult(
        profiles=profiles,
        converged=cgame.is_stable_counts(working, mass),
        cycle_start=None,
    )


# ----------------------------------------------------------------------
# Batch records (the run_many kind="classes" route)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClassRunResult:
    """One seeded compressed run, as :func:`repro.run_many` returns it."""

    run_index: int
    policy: str
    scheduler: str
    steps: int
    moved: int
    converged: bool
    final: Profile
