"""Index-level exact enumeration over the configuration space ``C^n``.

The seed verifies the paper's exact claims — Theorem 1's acyclic
improvement graph, sink/equilibrium agreement, the worst-case path
bound, Proposition 1's 4-cycle refuter — by brute force over
:class:`~repro.core.configuration.Configuration` objects: each node
costs a fresh tuple + dict, a full Fraction mass recomputation, and
Fraction comparisons. :class:`ConfigSpace` removes all of that:

* every configuration is a **base-``|C|`` integer code** (miner 0 is
  the most significant digit, so numeric code order is exactly the
  order of :meth:`repro.core.game.Game.all_configurations`);
* the space is walked either in **Gray-code order** (one miner changes
  coin per step — the integer ``mass`` vector updates in O(1) per node
  instead of O(n)) or in **product order** (odometer; amortized O(1)
  digit changes) when the seed's scan order must be reproduced
  verbatim;
* every stability / better-move / successor query goes through the
  :class:`~repro.kernel.core.KernelGame` integer cross-multiplication,
  so no Fraction and no Configuration is allocated inside a scan;
* miners with **identical power and identical allowed-coin set are
  interchangeable**, so scans that only need orbit-level answers
  (equilibria, acyclicity, longest path, sinks) enumerate one
  *canonical representative* per orbit — coin indices sorted within
  each equal-power-equal-mask block — with multiplicities, shrinking
  ``|C|^n`` to ``Π_b C(|b|+|A_b|-1, |A_b|-1)`` over blocks with
  alphabet ``A_b``.

The engine is **mask-aware**: a masked game's per-miner *allowed-coin*
sets (the paper's asymmetric case — hardware that can only mine a
subset of coins) turn each miner's digit into its own **alphabet** of
ascending coin indices. The Gray-code walk and the product-order
odometer then iterate only mask-valid assignments (the walk runs over
digit *positions*, so the O(1) incremental mass/code update survives
arbitrary alphabets), stability and successor checks scan the
kernel's per-miner ``alphabets``, and symmetry reduction keys its blocks on
(power, alphabet) — permuting two miners is a better-response-graph
automorphism only if both their powers *and* their allowed sets match,
which keeps the orbit-quotient DAG analysis sound under restriction.
Masks that allow every coin for every miner normalize away entirely,
so the unrestricted hot paths are untouched.

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

from repro._numeric import multinomial
from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.exceptions import InvalidConfigurationError, InvalidModelError
from repro.kernel.core import KernelGame
from repro.obs.recorder import get_recorder


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

    Scans never allocate Configurations or Fractions; the per-node state
    is one ``assign`` list (coin index per miner) and one integer
    ``mass`` list (scaled coin power), both mutated in place by the
    walk generators — callers must copy anything they keep.

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
        # Symmetry blocks: miner indices grouped by (scaled power,
        # alphabet), in miner order. Two miners generate a graph
        # automorphism only when both match — equal power makes their
        # payoffs interchangeable, equal alphabets make the *legality*
        # of every move interchangeable. Only blocks of size ≥ 2
        # generate symmetry.
        by_key: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
        for i, power in enumerate(kernel.powers):
            by_key.setdefault((power, self._alphabets[i]), []).append(i)
        self._blocks: List[Tuple[Tuple[int, ...], int, Tuple[int, ...]]] = [
            (tuple(indices), power, alphabet)
            for (power, alphabet), indices in sorted(
                by_key.items(), key=lambda kv: kv[1][0]
            )
        ]
        self._block_of: List[int] = [0] * self.n_miners
        for b, (indices, _, _) in enumerate(self._blocks):
            for i in indices:
                self._block_of[i] = b
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
            codes = [
                code
                for code, assign, mass in self.iter_gray()
                if self.is_stable_state(assign, mass)
            ]
            codes.sort()
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

    def _dag_full(self) -> DagReport:
        if self._allowed_idx is not None:
            return self._dag_full_masked()
        total = self.size
        succ: List[Sequence[int]] = [()] * total
        for code, assign, mass in self.iter_gray():
            edges = self.successor_codes(code, assign, mass)
            if edges:
                succ[code] = edges
        acyclic, longest = _longest_path_over(succ)
        sinks = tuple(code for code in range(total) if not succ[code])
        return DagReport(
            acyclic=acyclic,
            longest_path=longest,
            sink_codes=sinks,
            nodes_scanned=total,
            total_configurations=total,
            symmetry_reduced=False,
        )

    def _dag_full_masked(self) -> DagReport:
        # Valid codes are sparse in the full code range, so the flat
        # code-indexed successor array of the unmasked path does not
        # apply; rank nodes densely in product (= ascending code) order
        # instead, which also makes sinks come out pre-sorted.
        codes: List[int] = []
        edge_lists: List[List[int]] = []
        for code, assign, mass in self.iter_product():
            codes.append(code)
            edge_lists.append(self.successor_codes(code, assign, mass))
        index = {code: rank for rank, code in enumerate(codes)}
        succ: List[Sequence[int]] = [
            tuple(index[child] for child in edges) if edges else ()
            for edges in edge_lists
        ]
        acyclic, longest = _longest_path_over(succ)
        sinks = tuple(codes[rank] for rank in range(len(codes)) if not succ[rank])
        return DagReport(
            acyclic=acyclic,
            longest_path=longest,
            sink_codes=sinks,
            nodes_scanned=len(codes),
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
        succ: List[Sequence[int]] = [()] * len(index)
        sink_codes: List[int] = []
        expanded_sinks = 0
        node = 0
        for assign, mass, multiplicity in self.iter_canonical():
            code = self.encode(assign)
            edges: List[int] = []
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
                    edges.append(index[child])
            if edges:
                succ[node] = edges
            else:
                expanded_sinks += multiplicity
                if max_sinks is not None and expanded_sinks > max_sinks:
                    raise InvalidModelError(
                        f"symmetry orbits expand to more than {max_sinks} "
                        "sinks, above the scan limit"
                    )
                sink_codes.extend(self.orbit_codes(assign))
            node += 1
        acyclic, longest = _longest_path_over(succ)
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


def _longest_path_over(succ: Sequence[Sequence[int]]) -> Tuple[bool, Optional[int]]:
    """(acyclic, longest path) over a flat successor array, iteratively.

    One DFS pass fills the whole depth array (cycle detection via
    white/gray/black colors); the maximum is taken at the end — no
    per-node re-walk.
    """
    total = len(succ)
    color = bytearray(total)  # 0 white, 1 gray, 2 black
    depth = [0] * total
    for root in range(total):
        if color[root]:
            continue
        color[root] = 1
        stack: List[List[int]] = [[root, 0]]
        while stack:
            frame = stack[-1]
            node = frame[0]
            children = succ[node]
            if frame[1] < len(children):
                child = children[frame[1]]
                frame[1] += 1
                state = color[child]
                if state == 1:
                    return False, None
                if state == 0:
                    color[child] = 1
                    stack.append([child, 0])
            else:
                color[node] = 2
                best = 0
                for child in children:
                    d = depth[child] + 1
                    if d > best:
                        best = d
                depth[node] = best
                stack.pop()
    return True, max(depth) if total else 0
