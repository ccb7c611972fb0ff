"""Index-level exact enumeration over the configuration space ``C^n``.

:class:`ConfigSpace` answers the paper's exact claims — Theorem 1's
acyclic improvement graph, sink/equilibrium agreement, the worst-case
path bound, Proposition 1's 4-cycle refuter — without building a
:class:`~repro.core.configuration.Configuration` or a Fraction per node:

* every configuration is a **base-``|C|`` integer code** (miner 0 is
  the most significant digit, so numeric code order is exactly the
  order of :meth:`repro.core.game.Game.all_configurations`);
* **full-graph scans are numpy-blocked**: the improvement DAG
  (:meth:`ConfigSpace.dag_report` without symmetry) and the equilibrium
  set (:meth:`ConfigSpace.stable_codes` without symmetry) come from one
  move builder that ranks nodes in product order, fills their mass
  vectors and tests every (miner, coin) move on a block of up to
  ``_BLOCK_ROWS`` nodes at a time, with
  :meth:`~repro.kernel.core.KernelGame.stable_index`'s strict integer
  inequality — on int64 in the kernel's ``"int"`` lane, on Python
  integers in object arrays otherwise;
* the **longest path** comes from peeling sinks level by level over a
  reverse CSR of the edges (:func:`_longest_path`); a node that is
  never peeled proves a cycle;
* the **Gray-code walk** (one miner changes coin per step, O(1) mass
  and code updates) and the **product-order odometer** remain for
  per-node work in Python: E4's edge audit, :meth:`iter_equilibria`,
  reachability and the 4-cycle refuter, whose first witness must
  follow the seed's scan order;
* miners with **identical power and identical allowed-coin set are
  interchangeable** (:attr:`~repro.kernel.core.KernelGame.classes`),
  so orbit-level scans (equilibria, acyclicity, longest path, sinks)
  enumerate one *canonical representative* per orbit — coin indices
  sorted within each block — with multiplicities, shrinking ``|C|^n``
  to ``Π_b C(|b|+|A_b|-1, |A_b|-1)`` over blocks with alphabet
  ``A_b``. The quotient graph's canonical successors are built in
  Python and peeled by the same :func:`_longest_path`.

The engine is **mask-aware**: a masked game's per-miner *allowed-coin*
sets (the paper's asymmetric case — hardware that can only mine a
subset of coins) turn each miner's digit into its own **alphabet** of
ascending coin indices. The move builder and both walks visit only
mask-valid assignments, every stability and successor test scans the
kernel's per-miner ``alphabets``, and symmetry blocks key on (power,
alphabet) — permuting two miners is a better-response-graph
automorphism only if both their powers *and* their allowed sets match,
which keeps the orbit-quotient DAG analysis sound under restriction.

``Configuration`` objects are materialized only at API boundaries
(returned equilibria, graph sinks, 4-cycle witnesses).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro._numeric import multinomial
from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.exceptions import InvalidConfigurationError, InvalidModelError
from repro.kernel.core import KernelGame
from repro.kernel.tensor import kernel_lane
from repro.obs.recorder import get_recorder

#: Rows per block of :meth:`ConfigSpace._move_blocks`; bounds the
#: builder's temporaries whatever the size of the space.
_BLOCK_ROWS = 1 << 16


def _distinct_permutations(values: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """All distinct orderings of a (sorted) multiset of coin indices."""
    counts: Dict[int, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    keys = sorted(counts)
    length = len(values)
    prefix: List[int] = []

    def rec() -> Iterator[Tuple[int, ...]]:
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for key in keys:
            if counts[key]:
                counts[key] -= 1
                prefix.append(key)
                yield from rec()
                prefix.pop()
                counts[key] += 1

    yield from rec()


@lru_cache(maxsize=1024)
def _block_choice_table(
    size: int, alphabet: Tuple[int, ...]
) -> Tuple[Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...], int], ...]:
    """Choice table for one symmetry block: every non-decreasing
    coin-index tuple of length *size* drawn from *alphabet*, its
    per-coin counts and its orbit multiplicity (the
    :func:`~repro._numeric.multinomial` coefficient, as in
    :meth:`ClassGame.orbit_size`).

    The table depends only on (block size, alphabet) — not on which
    miners form the block or which game owns it — so it is cached at
    module level and shared across every :class:`ConfigSpace` instance:
    repeated ``dag_report``/``stable_codes`` calls on freshly built
    spaces over same-shape games skip the rebuild entirely.
    """
    block = []
    for combo in itertools.combinations_with_replacement(alphabet, size):
        counts = Counter(combo)
        block.append((combo, tuple(sorted(counts.items())), multinomial(counts.values())))
    return tuple(block)


@dataclass(frozen=True)
class DagReport:
    """Exact facts about a game's improvement DAG (Theorem 1's graph).

    ``longest_path`` is ``None`` when a cycle was found (which Theorem 1
    forbids — it would indicate a payoff-model bug). ``sink_codes`` are
    full-space configuration codes in ascending (= product) order, with
    orbits expanded when symmetry reduction was used, so they always
    denote the complete set of pure (restricted) equilibria.
    ``total_configurations`` counts *mask-valid* configurations when the
    space is restricted.
    """

    acyclic: bool
    longest_path: Optional[int]
    sink_codes: Tuple[int, ...]
    nodes_scanned: int
    total_configurations: int
    symmetry_reduced: bool


class ConfigSpace:
    """An exact, index-level view of a game's configuration space.

    Scans never allocate Configurations or Fractions. Full-graph scans
    work on numpy blocks of nodes; the walks' per-node state is one
    ``assign`` list (coin index per miner) and one integer ``mass``
    list (scaled coin power), both mutated in place by the walk
    generators — callers must copy anything they keep.

    On a masked game codes remain full-space base-``|C|`` codes, but
    the walks visit only mask-valid assignments, ``size`` counts only
    those, and all stability / successor / cycle queries consult the
    mask.
    """

    def __init__(
        self,
        game_or_kernel: Union[Game, KernelGame],
        *,
        symmetry: bool = True,
    ):
        kernel = (
            game_or_kernel
            if isinstance(game_or_kernel, KernelGame)
            else KernelGame(game_or_kernel)
        )
        self.kernel = kernel
        self.game = kernel.game
        self.n_miners = kernel.n_miners
        self.n_coins = kernel.n_coins
        # Miner 0 is the most significant digit: numeric code order is
        # the order of Game.all_configurations (itertools.product).
        self._place: List[int] = [
            self.n_coins ** (self.n_miners - 1 - i) for i in range(self.n_miners)
        ]
        # Per-miner digit alphabets: the ascending coin indices each
        # miner may sit on. An unmasked game has no per-miner sets, so
        # the unrestricted paths below stay byte-for-byte the unmasked
        # code.
        self._allowed_idx = kernel.allowed
        self._alphabets = kernel.alphabets
        self._allowed_sets: Optional[Tuple[FrozenSet[int], ...]] = (
            None
            if self._allowed_idx is None
            else tuple(frozenset(a) for a in self._allowed_idx)
        )
        self.masked: bool = self._allowed_idx is not None
        size = 1
        for alphabet in self._alphabets:
            size *= len(alphabet)
        #: Number of (mask-valid) configurations; ``|C|^n`` unmasked.
        self.size: int = size
        # Symmetry blocks: the kernel's (scaled power, alphabet) classes.
        # Two miners generate a graph automorphism only when both match
        # — equal power makes their payoffs interchangeable, equal
        # alphabets make the *legality* of every move interchangeable.
        # Only blocks of size ≥ 2 generate symmetry.
        self._blocks: List[Tuple[Tuple[int, ...], int, Tuple[int, ...]]] = [
            (indices, kernel.powers[indices[0]], self._alphabets[indices[0]])
            for indices in kernel.classes
        ]
        self._block_of: Tuple[int, ...] = kernel.class_of
        self.has_symmetry: bool = any(len(indices) > 1 for indices, _, _ in self._blocks)
        self.symmetry = symmetry and self.has_symmetry
        self._block_choices: Optional[
            List[Tuple[Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...], int], ...]]
        ] = None

    # ------------------------------------------------------------------
    # Codes ↔ configurations
    # ------------------------------------------------------------------

    def encode(self, assign: Sequence[int]) -> int:
        """The base-``|C|`` code of a coin-index assignment."""
        place = self._place
        return sum(assign[i] * place[i] for i in range(self.n_miners))

    def decode(self, code: int) -> List[int]:
        """Coin index per miner for a configuration code."""
        k = self.n_coins
        assign = [0] * self.n_miners
        for i in range(self.n_miners - 1, -1, -1):
            code, assign[i] = divmod(code, k)
        return assign

    def code_of(self, config: Configuration) -> int:
        """The code of a :class:`Configuration` (game miner order)."""
        return self.encode(self.kernel.assignment_of(config))

    def config_of(self, code: int) -> Configuration:
        """Materialize the :class:`Configuration` behind a code."""
        coins = self.game.coins
        return Configuration(self.game.miners, [coins[j] for j in self.decode(code)])

    def mass_of(self, assign: Sequence[int]) -> List[int]:
        """Integer mass vector for an assignment (one O(n) pass)."""
        return self.kernel.mass_of(assign)

    def is_valid_assign(self, assign: Sequence[int]) -> bool:
        """Whether every miner sits on a coin its mask allows."""
        if self._allowed_sets is None:
            return True
        sets = self._allowed_sets
        return all(assign[i] in sets[i] for i in range(self.n_miners))

    def _require_valid(self, assign: Sequence[int]) -> None:
        # Same exception type as Game.validate_configuration,
        # so space and exact backends fail identically on bad starts.
        if self._allowed_sets is None:
            return
        for i, j in enumerate(assign):
            if j not in self._allowed_sets[i]:
                raise InvalidConfigurationError(
                    f"miner {self.kernel.miner_names[i]!r} sits on coin "
                    f"{self.kernel.coin_names[j]!r} which its mask does not allow"
                )

    # ------------------------------------------------------------------
    # Walks (in-place state; copy before keeping)
    # ------------------------------------------------------------------

    def iter_gray(self) -> Iterator[Tuple[int, List[int], List[int]]]:
        """Walk all (mask-valid) codes in reflected mixed-radix Gray order.

        Exactly one miner changes coin between consecutive nodes, so
        ``mass`` and ``code`` update in O(1) per step. Under a mask each
        miner's digit runs over its own alphabet of allowed coin
        indices (per-miner radices); the Gray walk operates on digit
        *positions*, so one ±1 digit step is still one coin change.
        Yields ``(code, assign, mass)`` with *shared mutable* lists.
        """
        if self._allowed_idx is not None:
            yield from self._iter_gray_masked()
            return
        n, k = self.n_miners, self.n_coins
        powers = self.kernel.powers
        place = self._place
        assign = [0] * n
        mass = [0] * k
        mass[0] = sum(powers)
        code = 0
        if k == 1:
            yield code, assign, mass
            return
        # Knuth TAOCP 7.2.1.1, Algorithm H (loopless reflected mixed-radix
        # Gray code), specialized to a uniform radix k.
        focus = list(range(n + 1))
        direction = [1] * n
        while True:
            yield code, assign, mass
            j = focus[0]
            focus[0] = 0
            if j == n:
                return
            old = assign[j]
            new = old + direction[j]
            assign[j] = new
            power = powers[j]
            mass[old] -= power
            mass[new] += power
            code += (new - old) * place[j]
            if new == 0 or new == k - 1:
                direction[j] = -direction[j]
                focus[j] = focus[j + 1]
                focus[j + 1] = j + 1

    def _iter_gray_masked(self) -> Iterator[Tuple[int, List[int], List[int]]]:
        """Algorithm H over per-miner alphabets (mask-valid codes only).

        Digits with a single-coin alphabet never change, so the walk
        runs over the *active* miners only; digit positions map to coin
        indices through each miner's alphabet, keeping every update
        O(1).
        """
        n = self.n_miners
        powers = self.kernel.powers
        place = self._place
        alphabets = self._alphabets
        assign = [alphabet[0] for alphabet in alphabets]
        mass = [0] * self.n_coins
        for i, j in enumerate(assign):
            mass[j] += powers[i]
        code = sum(assign[i] * place[i] for i in range(n))
        active = [i for i in range(n) if len(alphabets[i]) > 1]
        if not active:
            yield code, assign, mass
            return
        m = len(active)
        digit = [0] * m
        direction = [1] * m
        focus = list(range(m + 1))
        while True:
            yield code, assign, mass
            t = focus[0]
            focus[0] = 0
            if t == m:
                return
            i = active[t]
            alphabet = alphabets[i]
            d = digit[t] + direction[t]
            digit[t] = d
            old = assign[i]
            new = alphabet[d]
            assign[i] = new
            power = powers[i]
            mass[old] -= power
            mass[new] += power
            code += (new - old) * place[i]
            if d == 0 or d == len(alphabet) - 1:
                direction[t] = -direction[t]
                focus[t] = focus[t + 1]
                focus[t + 1] = t + 1

    def iter_product(self) -> Iterator[Tuple[int, List[int], List[int]]]:
        """Walk all (mask-valid) codes in ascending (product) order.

        This is the seed's scan order: ascending code order equals
        lexicographic order on assignments, and — because alphabets are
        ascending coin indices — equals the product order over
        per-miner allowed sets for restricted games. The odometer
        changes amortized O(1) digits per step, so ``mass`` is still
        maintained incrementally. Yields shared mutable lists.
        """
        if self._allowed_idx is not None:
            yield from self._iter_product_masked()
            return
        n, k = self.n_miners, self.n_coins
        powers = self.kernel.powers
        place = self._place
        assign = [0] * n
        mass = [0] * k
        mass[0] = sum(powers)
        code = 0
        last = k - 1
        while True:
            yield code, assign, mass
            i = n - 1
            while i >= 0 and assign[i] == last:
                power = powers[i]
                mass[last] -= power
                mass[0] += power
                code -= last * place[i]
                assign[i] = 0
                i -= 1
            if i < 0:
                return
            old = assign[i]
            assign[i] = old + 1
            power = powers[i]
            mass[old] -= power
            mass[old + 1] += power
            code += place[i]

    def _iter_product_masked(self) -> Iterator[Tuple[int, List[int], List[int]]]:
        """The odometer over per-miner alphabets (digit → alphabet coin)."""
        n = self.n_miners
        powers = self.kernel.powers
        place = self._place
        alphabets = self._alphabets
        digit = [0] * n
        assign = [alphabet[0] for alphabet in alphabets]
        mass = [0] * self.n_coins
        for i, j in enumerate(assign):
            mass[j] += powers[i]
        code = sum(assign[i] * place[i] for i in range(n))
        while True:
            yield code, assign, mass
            i = n - 1
            while i >= 0 and digit[i] == len(alphabets[i]) - 1:
                old = assign[i]
                new = alphabets[i][0]
                power = powers[i]
                mass[old] -= power
                mass[new] += power
                code += (new - old) * place[i]
                assign[i] = new
                digit[i] = 0
                i -= 1
            if i < 0:
                return
            d = digit[i] + 1
            old = assign[i]
            new = alphabets[i][d]
            digit[i] = d
            assign[i] = new
            power = powers[i]
            mass[old] -= power
            mass[new] += power
            code += (new - old) * place[i]

    # ------------------------------------------------------------------
    # Symmetry: canonical orbit representatives
    # ------------------------------------------------------------------

    def orbit_count(self) -> int:
        """Number of canonical representatives under (power, mask) symmetry."""
        total = 1
        for indices, _, alphabet in self._blocks:
            m = len(alphabet)
            total *= comb(len(indices) + m - 1, m - 1)
        return total

    def _choices(
        self,
    ) -> List[Tuple[Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...], int], ...]]:
        """Per block: the :func:`_block_choice_table` for (size, alphabet).

        Tables are keyed on (block size, alphabet) in a module-level
        cache shared across instances; this method only assembles the
        per-block list once per space.
        """
        if self._block_choices is None:
            self._block_choices = [
                _block_choice_table(len(indices), alphabet)
                for indices, _, alphabet in self._blocks
            ]
        return self._block_choices

    def iter_canonical(self) -> Iterator[Tuple[List[int], List[int], int]]:
        """Walk one canonical representative per symmetry orbit.

        Canonical means coin indices are non-decreasing along each
        equal-power-equal-mask block (in miner order); every block
        member shares the block's alphabet, so every orbit member is
        mask-valid. Yields ``(assign, mass, orbit_size)`` with shared
        mutable ``assign``/``mass``; the mass is maintained
        incrementally per block choice.
        """
        blocks = self._blocks
        choices = self._choices()
        n_blocks = len(blocks)
        assign = [0] * self.n_miners
        mass = [0] * self.n_coins

        def rec(b: int, mult: int) -> Iterator[Tuple[List[int], List[int], int]]:
            if b == n_blocks:
                yield assign, mass, mult
                return
            indices, power, _ = blocks[b]
            for combo, counts, m in choices[b]:
                for pos, j in zip(indices, combo):
                    assign[pos] = j
                for j, c in counts:
                    mass[j] += c * power
                yield from rec(b + 1, mult * m)
                for j, c in counts:
                    mass[j] -= c * power

        yield from rec(0, 1)

    def canonical_code(self, assign: Sequence[int]) -> int:
        """The code of the canonical representative of ``assign``'s orbit."""
        place = self._place
        code = 0
        for indices, _, _ in self._blocks:
            values = sorted(assign[i] for i in indices)
            for pos, value in zip(indices, values):
                code += value * place[pos]
        return code

    def orbit_codes(self, assign: Sequence[int]) -> List[int]:
        """All full-space codes in the symmetry orbit of ``assign``."""
        place = self._place
        per_block: List[List[int]] = []
        for indices, _, _ in self._blocks:
            values = sorted(assign[i] for i in indices)
            block_codes = [
                sum(value * place[pos] for pos, value in zip(indices, perm))
                for perm in _distinct_permutations(values)
            ]
            per_block.append(block_codes)
        return [sum(parts) for parts in itertools.product(*per_block)]

    # ------------------------------------------------------------------
    # Stability and successors (index level)
    # ------------------------------------------------------------------

    def is_stable_state(self, assign: Sequence[int], mass: Sequence[int]) -> bool:
        """Early-exit (restricted) stability of an (assign, mass) state.

        Delegates to :meth:`KernelGame.stable_index`, the single home
        of the stability cross-multiplication, passing the mask's
        candidate lists (``None`` when unrestricted).
        """
        return self.kernel.stable_index(assign, mass)

    def successor_codes(
        self, code: int, assign: Sequence[int], mass: Sequence[int]
    ) -> List[int]:
        """Better-response successor codes (miners outer, coins inner —
        the seed's :func:`~repro.analysis.paths.improvement_graph` edge
        order). Under a mask only each miner's allowed coins are
        candidates, so successors of a valid code are always valid."""
        rewards = self.kernel.rewards
        powers = self.kernel.powers
        place = self._place
        alphabets = self._alphabets
        result: List[int] = []
        for i in range(self.n_miners):
            cur = assign[i]
            reward_cur = rewards[cur]
            mass_cur = mass[cur]
            power = powers[i]
            base = code - cur * place[i]
            for j in alphabets[i]:
                if j != cur and rewards[j] * mass_cur > reward_cur * (mass[j] + power):
                    result.append(base + j * place[i])
        return result

    def successors(self, code: int) -> List[int]:
        """Successor codes of an arbitrary code (decodes first; a
        mask-invalid code raises :class:`InvalidModelError`)."""
        assign = self.decode(code)
        self._require_valid(assign)
        return self.successor_codes(code, assign, self.kernel.mass_of(assign))

    # ------------------------------------------------------------------
    # Equilibria
    # ------------------------------------------------------------------

    def stable_codes(self, *, max_codes: Optional[int] = None) -> List[int]:
        """Codes of all pure (restricted) equilibria, ascending.

        With symmetry reduction only canonical representatives are
        stability-checked; stable orbits are then expanded to all their
        member codes, so the result is identical to a full scan.
        ``max_codes`` caps the *expanded* result size — large symmetric
        games can have few orbits but combinatorially many equilibria,
        and the cap turns that into :class:`InvalidModelError` instead
        of an unbounded expansion.
        """
        if self.symmetry:
            codes: List[int] = []
            expanded = 0
            for assign, mass, multiplicity in self.iter_canonical():
                if self.is_stable_state(assign, mass):
                    expanded += multiplicity
                    if max_codes is not None and expanded > max_codes:
                        raise InvalidModelError(
                            f"symmetry orbits expand to more than {max_codes} "
                            "equilibria, above the scan limit"
                        )
                    codes.extend(self.orbit_codes(assign))
            codes.sort()
        else:
            # Stable means no improving move; blocks come out ascending.
            codes = [
                code
                for lo, block_codes, src, _ in self._move_blocks()
                for code in block_codes[
                    np.bincount(src - lo, minlength=len(block_codes)) == 0
                ].tolist()
            ]
        recorder = get_recorder()
        if recorder.enabled:
            # The symmetric path stability-checks one node per orbit.
            visited = self.orbit_count() if self.symmetry else self.size
            recorder.count("space.scans")
            recorder.count("space.codes_visited", visited)
            recorder.count("space.equilibria", len(codes))
            recorder.event(
                "space.scan",
                visited=visited,
                total=self.size,
                equilibria=len(codes),
                symmetry=self.symmetry,
            )
        return codes

    def equilibria(self, *, max_codes: Optional[int] = None) -> List[Configuration]:
        """All pure (restricted) equilibria, in the seed's enumeration order."""
        return [self.config_of(code) for code in self.stable_codes(max_codes=max_codes)]

    def iter_equilibria(self) -> Iterator[Configuration]:
        """Lazily yield equilibria in the seed's product order."""
        for code, assign, mass in self.iter_product():
            if self.is_stable_state(assign, mass):
                yield self.config_of(code)

    # ------------------------------------------------------------------
    # Improvement-DAG analysis (Theorem 1)
    # ------------------------------------------------------------------

    def dag_report(
        self,
        *,
        symmetry: Optional[bool] = None,
        max_sinks: Optional[int] = None,
    ) -> DagReport:
        """Acyclicity, exact longest improving path, and all sinks.

        With symmetry the analysis runs on the orbit quotient graph
        (successors canonicalized), which is acyclic iff the full graph
        is and has the same longest-path length — better-response
        structure is invariant under permuting miners with equal power
        *and* equal allowed set. ``max_sinks`` caps the orbit-expanded
        sink list (see :meth:`stable_codes`).
        """
        use_symmetry = self.symmetry if symmetry is None else (symmetry and self.has_symmetry)
        if use_symmetry:
            result = self._dag_quotient(max_sinks=max_sinks)
        else:
            result = self._dag_full()
        recorder = get_recorder()
        if recorder.enabled:
            recorder.count("space.scans")
            recorder.count("space.codes_visited", result.nodes_scanned)
            recorder.event(
                "space.dag",
                nodes_scanned=result.nodes_scanned,
                total=result.total_configurations,
                sinks=len(result.sink_codes),
                acyclic=result.acyclic,
                symmetry=result.symmetry_reduced,
            )
        return result

    def _move_blocks(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Every improving move of the full graph, a block of nodes at a time.

        Nodes are the (mask-valid) configurations ranked in product
        order, which is ascending code order. Each block of at most
        ``_BLOCK_ROWS`` ranks starting at rank ``lo`` yields ``(lo,
        codes, src, dst)``: the block's codes, and one (source rank,
        target rank) pair per improving move. A move of miner ``i``
        from alphabet position ``d`` to ``d'`` changes the rank by
        ``(d' − d)·stride_i``, so targets need no code lookup. Ranks are
        int32 while the space fits it.

        The move test is :meth:`KernelGame.stable_index`'s strict
        integer inequality. Values are int64 in the ``"int"`` lane
        (when codes fit too) and Python integers in object arrays
        otherwise, so every verdict is exact.
        """
        n = self.n_miners
        kernel = self.kernel
        fits = kernel_lane(kernel) == "int" and self.n_coins**n <= np.iinfo(np.int64).max
        dtype = np.int64 if fits else object
        alphabets = self._alphabets
        radix = [len(alphabet) for alphabet in alphabets]
        stride = [1] * n
        for i in range(n - 2, -1, -1):
            stride[i] = stride[i + 1] * radix[i + 1]
        coin_of = [np.array(alphabet, dtype=np.int64) for alphabet in alphabets]
        powers = np.array(kernel.powers, dtype=dtype)
        rewards = np.array(kernel.rewards, dtype=dtype)
        place = np.array(self._place, dtype=dtype)
        # Ranks stay below the space size; int32 halves the edge arrays.
        rank_type = np.int32 if self.size <= np.iinfo(np.int32).max else np.int64
        for lo in range(0, self.size, _BLOCK_ROWS):
            ranks = np.arange(lo, min(lo + _BLOCK_ROWS, self.size), dtype=rank_type)
            rows = np.arange(len(ranks))
            codes = np.zeros(len(ranks), dtype=dtype)
            mass = np.zeros((len(ranks), self.n_coins), dtype=dtype)
            for i in range(n):
                coins = coin_of[i][ranks // stride[i] % radix[i]]
                codes += coins.astype(dtype) * place[i]
                mass[rows, coins] += powers[i]
            src: List[np.ndarray] = []
            dst: List[np.ndarray] = []
            for i in range(n):
                digit = ranks // stride[i] % radix[i]
                cur = coin_of[i][digit]
                mass_cur = mass[rows, cur]
                reward_cur = rewards[cur]
                for t, j in enumerate(alphabets[i]):
                    # Staying put never passes: R_j·M_j > R_j·(M_j + p_i)
                    # is false for a positive power.
                    hit = np.flatnonzero(
                        rewards[j] * mass_cur > reward_cur * (mass[:, j] + powers[i])
                    )
                    src.append(ranks[hit])
                    dst.append(ranks[hit] + (t - digit[hit]) * stride[i])
            yield lo, codes, np.concatenate(src), np.concatenate(dst)

    def _dag_full(self) -> DagReport:
        _, *parts = zip(*self._move_blocks())
        codes, src, dst = (np.concatenate(part) for part in parts)
        acyclic, longest = _longest_path(self.size, src, dst)
        sinks = codes[np.bincount(src, minlength=self.size) == 0]
        return DagReport(
            acyclic=acyclic,
            longest_path=longest,
            sink_codes=tuple(sinks.tolist()),
            nodes_scanned=self.size,
            total_configurations=self.size,
            symmetry_reduced=False,
        )

    def _dag_quotient(self, *, max_sinks: Optional[int] = None) -> DagReport:
        place = self._place
        block_of = self._block_of
        blocks = self._blocks
        rewards = self.kernel.rewards
        powers = self.kernel.powers
        alphabets = self._alphabets
        index: Dict[int, int] = {}
        for assign, _, _ in self.iter_canonical():
            index[self.encode(assign)] = len(index)
        src: List[int] = []
        dst: List[int] = []
        sink_codes: List[int] = []
        expanded_sinks = 0
        node = 0
        for assign, mass, multiplicity in self.iter_canonical():
            code = self.encode(assign)
            degree = len(dst)
            for i in range(self.n_miners):
                cur = assign[i]
                reward_cur = rewards[cur]
                mass_cur = mass[cur]
                power = powers[i]
                for j in alphabets[i]:
                    if j == cur or rewards[j] * mass_cur <= reward_cur * (mass[j] + power):
                        continue
                    # Canonicalize the successor: only miner i's block
                    # loses its sorted order, so re-sort that block.
                    indices, _, _ = blocks[block_of[i]]
                    child = code
                    values = sorted(j if p == i else assign[p] for p in indices)
                    for pos, value in zip(indices, values):
                        child += (value - assign[pos]) * place[pos]
                    src.append(node)
                    dst.append(index[child])
            if len(dst) == degree:
                expanded_sinks += multiplicity
                if max_sinks is not None and expanded_sinks > max_sinks:
                    raise InvalidModelError(
                        f"symmetry orbits expand to more than {max_sinks} "
                        "sinks, above the scan limit"
                    )
                sink_codes.extend(self.orbit_codes(assign))
            node += 1
        acyclic, longest = _longest_path(
            len(index), np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
        )
        sink_codes.sort()
        return DagReport(
            acyclic=acyclic,
            longest_path=longest,
            sink_codes=tuple(sink_codes),
            nodes_scanned=len(index),
            total_configurations=self.size,
            symmetry_reduced=True,
        )

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------

    def reachable_sink_codes(self, start: int) -> List[int]:
        """Sinks reachable from ``start``, in the seed's discovery order.

        Mirrors the seed's DFS (LIFO frontier, successors pushed in
        miner-then-coin order, sinks appended as popped) so results —
        including list order — are identical to the Fraction path. A
        mask-invalid ``start`` raises :class:`InvalidModelError`.
        """
        kernel = self.kernel
        self._require_valid(self.decode(start))
        frontier = [start]
        seen = {start}
        sinks: List[int] = []
        while frontier:
            code = frontier.pop()
            assign = self.decode(code)
            successors = self.successor_codes(code, assign, kernel.mass_of(assign))
            if not successors:
                sinks.append(code)
                continue
            for child in successors:
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        recorder = get_recorder()
        if recorder.enabled:
            recorder.count("space.scans")
            recorder.count("space.codes_visited", len(seen))
            recorder.event(
                "space.reachable", start=start, visited=len(seen), sinks=len(sinks)
            )
        return sinks

    # ------------------------------------------------------------------
    # Exact-potential refuter (Proposition 1)
    # ------------------------------------------------------------------

    def four_cycle_witness(self) -> Optional[Tuple[int, int, int, int, int]]:
        """The first 4-cycle with nonzero defect, in the seed's scan order.

        Returns ``(start_code, miner_a, coin_a, miner_b, coin_b)`` or
        ``None`` when every 4-cycle of unilateral deviations closes
        (Monderer & Shapley's criterion: an exact potential exists).
        Under a mask only *legal* cycles are scanned — starts are
        mask-valid and each deviation stays within the deviator's
        allowed set. The defect's *zeroness* is scale-invariant, so the
        scan tests the integer-scaled sum ``Σ ± p·R/mass`` accumulated
        over one common denominator — no Fraction per cycle.
        """
        n, k = self.n_miners, self.n_coins
        if n < 2 or k < 2:
            return None
        rewards = self.kernel.rewards
        powers = self.kernel.powers
        alphabets = self._alphabets
        pairs = list(itertools.combinations(range(n), 2))
        recorder = get_recorder()
        observing = recorder.enabled
        scanned = 0
        for code, assign, mass in self.iter_product():
            if observing:
                scanned += 1
            for a, b in pairs:
                ca = assign[a]
                cb = assign[b]
                pa = powers[a]
                pb = powers[b]
                for ja in alphabets[a]:
                    if ja == ca:
                        continue
                    mass1 = list(mass)
                    mass1[ca] -= pa
                    mass1[ja] += pa
                    for jb in alphabets[b]:
                        if jb == cb:
                            continue
                        mass2 = list(mass1)
                        mass2[cb] -= pb
                        mass2[jb] += pb
                        mass3 = list(mass2)
                        mass3[ja] -= pa
                        mass3[ca] += pa
                        num = 0
                        den = 1
                        for value, d in (
                            (pa * rewards[ja], mass[ja] + pa),
                            (-pa * rewards[ca], mass[ca]),
                            (pb * rewards[jb], mass1[jb] + pb),
                            (-pb * rewards[cb], mass1[cb]),
                            (pa * rewards[ca], mass2[ca] + pa),
                            (-pa * rewards[ja], mass2[ja]),
                            (pb * rewards[cb], mass3[cb] + pb),
                            (-pb * rewards[jb], mass3[jb]),
                        ):
                            num = num * d + value * den
                            den *= d
                        if num != 0:
                            if observing:
                                recorder.count("space.scans")
                                recorder.count("space.codes_visited", scanned)
                                recorder.event(
                                    "space.four_cycle",
                                    visited=scanned,
                                    total=self.size,
                                    early_exit=True,
                                    witness_code=code,
                                )
                            return (code, a, ja, b, jb)
        if observing:
            recorder.count("space.scans")
            recorder.count("space.codes_visited", scanned)
            recorder.event(
                "space.four_cycle", visited=scanned, total=self.size, early_exit=False
            )
        return None

    def __repr__(self) -> str:
        return (
            f"ConfigSpace({self.game!r}, size={self.size}, "
            f"symmetry={'on' if self.symmetry else 'off'}, "
            f"mask={'on' if self.masked else 'off'})"
        )


def _longest_path(
    n_nodes: int, src: np.ndarray, dst: np.ndarray
) -> Tuple[bool, Optional[int]]:
    """(acyclic, longest path) of a graph given as integer edge arrays.

    Peels sinks level by level: level 0 is every node without
    successors, and removing a level (out-degree set to -1) lowers its
    predecessors' out-degrees; the nodes that reach 0 form the next
    level. A node's level is the length of the longest path that starts
    at it, so the longest path is the number of levels minus one. On a
    cycle some node never reaches out-degree 0, and the answer is
    ``(False, None)``. Repeated edges are fine: each counts once in its
    source's out-degree and is taken back once when its target is
    removed.
    """
    if n_nodes == 0:
        return True, 0
    out_degree = np.bincount(src, minlength=n_nodes)
    # Reverse CSR: the predecessors of v are preds[starts[v]:starts[v + 1]].
    preds = src[np.argsort(dst, kind="stable")]
    starts = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n_nodes), out=starts[1:])
    level = np.flatnonzero(out_degree == 0)
    removed = 0
    levels = 0
    while level.size:
        removed += level.size
        levels += 1
        out_degree[level] = -1
        first = starts[level]
        counts = starts[level + 1] - first
        # Concatenate the level's predecessor ranges into one index.
        ends = np.cumsum(counts)
        index = np.arange(ends[-1]) + np.repeat(first - (ends - counts), counts)
        out_degree -= np.bincount(preds[index], minlength=n_nodes)
        level = np.flatnonzero(out_degree == 0)
    if removed < n_nodes:
        return False, None
    return True, levels - 1
