"""Index-level exact enumeration over the configuration space ``C^n``.

:class:`ConfigSpace` answers the paper's exact claims — Theorem 1's
acyclic improvement graph, sink/equilibrium agreement, the worst-case
path bound, Proposition 1's 4-cycle refuter — without building a
:class:`~repro.core.configuration.Configuration` or a Fraction per node:

* every configuration is a **base-``|C|`` integer code** (miner 0 is
  the most significant digit, so numeric code order is exactly the
  order of :meth:`repro.core.game.Game.all_configurations`);
* miners with **identical power and identical allowed-coin set are
  interchangeable** (:attr:`~repro.kernel.core.KernelGame.classes`).
  When some class has two or more miners, every orbit-level answer
  (equilibria, acyclicity, longest path, sinks) runs on the count
  matrices of a :class:`~repro.kernel.classes.ClassGame` built from the
  space's own kernel: one node per orbit, ``Π_k C(n_k+|A_k|-1,
  |A_k|-1)`` over classes of ``n_k`` miners with alphabet ``A_k``, and
  each stable orbit expanded to its per-miner codes at the end;
* otherwise the **full graph is numpy-blocked**: the improvement DAG
  and the equilibrium set come from one move builder that ranks nodes
  in product order, fills their mass vectors and tests every (miner,
  coin) move on a block of up to ``_BLOCK_ROWS`` nodes at a time, with
  :meth:`~repro.kernel.core.KernelGame.stable_index`'s strict integer
  inequality — on int64 in the kernel's ``"int"`` lane, on Python
  integers in object arrays otherwise. The orbit quotient is built the
  same way over count matrices;
* the **longest path** of either graph comes from peeling sinks level
  by level over a reverse CSR of the edges (:func:`_longest_path`); a
  node that is never peeled proves a cycle;
* the **product-order odometer** remains for per-node work in Python:
  E4's edge audit, :meth:`iter_equilibria`, reachability and the
  4-cycle refuter, whose first witness must follow the seed's scan
  order.

The engine is **mask-aware**: a masked game's per-miner *allowed-coin*
sets (the paper's asymmetric case — hardware that can only mine a
subset of coins) turn each miner's digit into its own **alphabet** of
ascending coin indices. The move builders and the odometer visit only
mask-valid assignments, every stability and successor test scans the
kernel's per-miner ``alphabets``, and classes key on (power, alphabet)
— permuting two miners is a better-response-graph automorphism only if
both their powers *and* their allowed sets match, which keeps the
orbit-quotient DAG analysis sound under restriction.

``Configuration`` objects are materialized only at API boundaries
(returned equilibria, graph sinks, 4-cycle witnesses).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._numeric import multinomial
from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.exceptions import InvalidConfigurationError, InvalidModelError
from repro.kernel.classes import ClassGame, Profile
from repro.kernel.core import KernelGame
from repro.kernel.tensor import kernel_lane
from repro.obs.recorder import get_recorder

#: Rows per block of the move builders; bounds their temporaries
#: whatever the size of the space.
_BLOCK_ROWS = 1 << 16


@dataclass(frozen=True)
class DagReport:
    """Exact facts about a game's improvement DAG (Theorem 1's graph).

    ``longest_path`` is ``None`` when a cycle was found (which Theorem 1
    forbids — it would indicate a payoff-model bug). ``sink_codes`` are
    full-space configuration codes in ascending (= product) order, with
    orbits expanded on the orbit route (``symmetry_reduced``), so they
    always denote the complete set of pure (restricted) equilibria.
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

    Scans never allocate Configurations or Fractions. Graph scans work
    on numpy blocks of nodes; the odometer's per-node state is one
    ``assign`` list (coin index per miner) and one integer ``mass``
    list (scaled coin power), both mutated in place by
    :meth:`iter_product` — callers must copy anything they keep.

    On a masked game codes remain full-space base-``|C|`` codes, but
    the scans visit only mask-valid assignments, ``size`` counts only
    those, and all stability / successor / cycle queries consult the
    mask.
    """

    def __init__(self, game_or_kernel: Union[Game, KernelGame]):
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
        # miner may sit on.
        self._alphabets = kernel.alphabets
        self.masked: bool = kernel.allowed is not None
        self._allowed_sets: Optional[Tuple[FrozenSet[int], ...]] = (
            tuple(frozenset(a) for a in kernel.allowed) if self.masked else None
        )
        #: Number of (mask-valid) configurations; ``|C|^n`` unmasked.
        self.size: int = prod(len(alphabet) for alphabet in self._alphabets)
        #: Whether some (power, alphabet) class has two or more miners,
        #: which routes orbit-level answers through count matrices.
        self.has_symmetry: bool = any(len(indices) > 1 for indices in kernel.classes)
        self._classes: Optional[ClassGame] = None
        self._parts: Dict[Tuple[int, Tuple[int, ...]], np.ndarray] = {}

    @property
    def scan_size(self) -> int:
        """Nodes an equilibrium or DAG scan visits: one per orbit when
        some class repeats, else one per configuration (:attr:`size`)."""
        return self._class_game().profile_count() if self.has_symmetry else self.size

    def _class_game(self) -> ClassGame:
        """The class kernel over this space's own kernel, built on first use."""
        if self._classes is None:
            self._classes = ClassGame.from_game(self.kernel)
        return self._classes

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

    def iter_product(self) -> Iterator[Tuple[int, List[int], List[int]]]:
        """Walk all (mask-valid) codes in ascending (product) order.

        This is the seed's scan order: ascending code order equals
        lexicographic order on assignments, and — because alphabets are
        ascending coin indices — equals the product order over
        per-miner allowed sets for restricted games. The odometer runs
        each miner's digit over its alphabet and changes amortized O(1)
        digits per step, so ``mass`` is maintained incrementally.
        Yields ``(code, assign, mass)`` with *shared mutable* lists.
        """
        n = self.n_miners
        powers = self.kernel.powers
        place = self._place
        alphabets = self._alphabets
        digit = [0] * n
        assign = [alphabet[0] for alphabet in alphabets]
        mass = self.kernel.mass_of(assign)
        code = self.encode(assign)
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
    # Successors (index level)
    # ------------------------------------------------------------------

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

        Stable means no improving move: the sinks of the orbit quotient
        graph, expanded to every code of their orbits, when some class
        repeats; otherwise the sinks of the full graph. ``max_codes``
        caps the result on both routes — a symmetric game can have few
        stable orbits but combinatorially many equilibria — and raises
        :class:`InvalidModelError` beyond it, before any orbit is
        expanded.
        """
        orbits = self.has_symmetry
        sinks = np.concatenate(
            [
                nodes[np.bincount(src - lo, minlength=len(nodes)) == 0]
                for lo, nodes, src, _ in (
                    self._orbit_blocks() if orbits else self._move_blocks()
                )
            ]
        )
        codes = self._codes_of(sinks, orbits, max_codes)
        recorder = get_recorder()
        if recorder.enabled:
            recorder.count("space.scans")
            recorder.count("space.codes_visited", self.scan_size)
            recorder.count("space.equilibria", len(codes))
            recorder.event(
                "space.scan",
                visited=self.scan_size,
                total=self.size,
                equilibria=len(codes),
                symmetry=orbits,
            )
        return codes

    def equilibria(self, *, max_codes: Optional[int] = None) -> List[Configuration]:
        """All pure (restricted) equilibria, in the seed's enumeration order."""
        return [self.config_of(code) for code in self.stable_codes(max_codes=max_codes)]

    def iter_equilibria(self) -> Iterator[Configuration]:
        """Lazily yield equilibria in the seed's product order."""
        for code, assign, mass in self.iter_product():
            if self.kernel.stable_index(assign, mass):
                yield self.config_of(code)

    # ------------------------------------------------------------------
    # Improvement-DAG analysis (Theorem 1)
    # ------------------------------------------------------------------

    def dag_report(self, *, max_sinks: Optional[int] = None) -> DagReport:
        """Acyclicity, exact longest improving path, and all sinks.

        With a repeated class the analysis runs on the orbit quotient
        graph over count matrices, which is acyclic iff the full graph
        is and has the same longest-path length — better-response
        structure is invariant under permuting miners with equal power
        *and* equal allowed set. ``max_sinks`` caps the (orbit-expanded)
        sink list on both routes (see :meth:`stable_codes`).
        """
        result = self._dag(self.has_symmetry, max_sinks)
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

    def _dag(self, orbits: bool, max_sinks: Optional[int] = None) -> DagReport:
        """The report from the orbit quotient graph (*orbits*) or the full graph."""
        n_nodes = self._class_game().profile_count() if orbits else self.size
        _, *parts = zip(*(self._orbit_blocks() if orbits else self._move_blocks()))
        nodes, src, dst = (np.concatenate(part) for part in parts)
        acyclic, longest = _longest_path(n_nodes, src, dst)
        sinks = nodes[np.bincount(src, minlength=n_nodes) == 0]
        return DagReport(
            acyclic=acyclic,
            longest_path=longest,
            sink_codes=tuple(self._codes_of(sinks, orbits, max_sinks)),
            nodes_scanned=n_nodes,
            total_configurations=self.size,
            symmetry_reduced=orbits,
        )

    def _codes_of(self, sinks: np.ndarray, orbits: bool, cap: Optional[int]) -> List[int]:
        """Ascending codes of a graph's sinks, which are codes on the
        full graph and count-matrix ranks, expanded to their orbits, on
        the orbit graph.

        This is the one result cap of :meth:`stable_codes` and
        :meth:`dag_report`: more than *cap* codes raise
        :class:`InvalidModelError` before any orbit is expanded.
        """
        if orbits:
            profiles = self._profiles_at(sinks.tolist())
            count = sum(prod(map(multinomial, profile)) for profile in profiles)
        else:
            count = len(sinks)
        if cap is not None and count > cap:
            raise InvalidModelError(f"{count} equilibria exceed the scan limit {cap}")
        if not orbits:
            return sinks.tolist()
        return np.sort(np.concatenate([self._orbit_codes(p) for p in profiles])).tolist()

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
        _require_int64_ranks(self.size, "configurations")
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

    def _orbit_digits(self) -> Tuple[List[int], List[int]]:
        """(radix, stride) per class of the orbit graph's node ranks:
        class ``k``'s digit indexes :meth:`ClassGame.class_rows`, class
        0 the most significant, so rank order is
        :meth:`ClassGame.iter_profiles` order."""
        cgame = self._class_game()
        radix = [len(cgame.class_rows(k)) for k in range(cgame.n_classes)]
        return radix, [prod(radix[k + 1 :]) for k in range(len(radix))]

    def _profiles_at(self, ranks: Sequence[int]) -> List[Profile]:
        """The count matrices at the given orbit-graph ranks."""
        cgame = self._class_game()
        radix, stride = self._orbit_digits()
        return [
            tuple(cgame.class_rows(k)[rank // stride[k] % radix[k]] for k in range(len(radix)))
            for rank in ranks
        ]

    def _orbit_blocks(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Every improving move of the orbit quotient graph, a block of
        nodes at a time.

        Nodes are the class kernel's count matrices, ranked as in
        :meth:`_orbit_digits`. A successor moves one miner of class
        ``k`` from coin ``c`` to ``c′``: only class ``k``'s digit
        changes, to a row that is again a count matrix, so nothing is
        re-sorted. Yields ``(lo, ranks, src, dst)`` as
        :meth:`_move_blocks` does, with ranks in place of codes, and
        decides each move with the same strict integer inequality.
        """
        cgame = self._class_game()
        radix, stride = self._orbit_digits()
        n_nodes = prod(radix)
        _require_int64_ranks(n_nodes, "count-matrix orbits")
        dtype = np.int64 if kernel_lane(self.kernel) == "int" else object
        rewards = np.array(cgame.rewards, dtype=dtype)
        mass_rows = []
        moves = []
        for k, alphabet in enumerate(cgame.alphabets):
            rows = cgame.class_rows(k)
            index = {row: r for r, row in enumerate(rows)}
            mass_rows.append(np.array(rows, dtype=dtype) * cgame.powers[k])
            # Per move c → c′: each row's index after one miner moves,
            # or -1 where no miner of the class sits on c.
            moves.append(
                [
                    (c, d, np.array([
                        index[tuple(v - (j == c) + (j == d) for j, v in enumerate(row))]
                        if row[c] else -1
                        for row in rows
                    ]))
                    for c in alphabet
                    for d in alphabet
                    if c != d
                ]
            )
        for lo in range(0, n_nodes, _BLOCK_ROWS):
            ranks = np.arange(lo, min(lo + _BLOCK_ROWS, n_nodes))
            digits = [ranks // s % r for s, r in zip(stride, radix)]
            mass = sum(rows[digit] for rows, digit in zip(mass_rows, digits))
            src = [ranks[:0]]
            dst = [ranks[:0]]
            for k, power in enumerate(cgame.powers):
                digit = digits[k]
                for c, d, target in moves[k]:
                    to = target[digit]
                    hit = np.flatnonzero(
                        (to >= 0) & (rewards[d] * mass[:, c] > rewards[c] * (mass[:, d] + power))
                    )
                    src.append(ranks[hit])
                    dst.append(ranks[hit] + (to[hit] - digit[hit]) * stride[k])
            yield lo, ranks, np.concatenate(src), np.concatenate(dst)

    def _orbit_codes(self, profile: Sequence[Sequence[int]]) -> np.ndarray:
        """Every per-miner code in the orbit of one count matrix: the
        sums of one placement of each class's row over its members."""
        rows = [tuple(row) for row in profile]
        codes = self._placements(0, rows[0])
        for k in range(1, len(rows)):
            codes = (codes[:, None] + self._placements(k, rows[k])[None, :]).ravel()
        return codes

    def _placements(self, k: int, row: Tuple[int, ...]) -> np.ndarray:
        """The code contributions of every distinct placement of class
        *k*'s *row* over the class's ``members``, cached per (class, row).

        Placement runs coin by coin: every partial placement chooses the
        coin's miners among its still-free members, so no arrangement
        comes out twice. Codes are int64 when the space's codes fit.
        """
        part = self._parts.get((k, row))
        if part is not None:
            return part
        members = self._class_game().members[k]
        dtype = np.int64 if self.n_coins**self.n_miners <= np.iinfo(np.int64).max else object
        place = np.array([self._place[i] for i in members], dtype=dtype)
        part = np.zeros(1, dtype=dtype)
        free = np.arange(len(members))[None, :]
        for coin, count in enumerate(row):
            if not count:
                continue
            width = free.shape[1]
            picks = np.array(list(itertools.combinations(range(width), count)))
            keep = np.ones((len(picks), width), dtype=bool)
            keep[np.arange(len(picks))[:, None], picks] = False
            rest = np.nonzero(keep)[1].reshape(len(picks), width - count)
            part = (part[:, None] + coin * place[free[:, picks]].sum(axis=2)).ravel()
            free = free[:, rest].reshape(len(part), width - count)
        self._parts[k, row] = part
        return part

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
            f"symmetry={'on' if self.has_symmetry else 'off'}, "
            f"mask={'on' if self.masked else 'off'})"
        )


def _require_int64_ranks(count: int, what: str) -> None:
    """Fail before a graph scan whose int64 node ranks would overflow."""
    if count > np.iinfo(np.int64).max:
        raise InvalidModelError(
            f"{count} {what} exceed the int64 node ranks of the exact scan"
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
