"""Bounded draws of the tensor kernel: ``Generator.integers(0, n)`` per game.

Every lockstep step of a uniform-scheduler or random-improving bucket
draws ``integers(0, n)`` on each game's own generator. numpy's
``Generator.integers(0, n)`` (for ``2 ≤ n < 2**32``) takes a 32-bit
word ``u`` from ``next_uint32`` and applies Lemire's method: ``m = u·n``,
result ``m >> 32``, redrawing while ``m mod 2**32 < (2**32 − n) mod n``.
``next_uint32`` hands out the buffered high half of the last 64-bit
word if ``has_uint32`` is set, else draws a new word, returns its low
half and buffers the high one in ``uinteger`` (which stays, stale,
after the buffer is consumed).

:class:`ReplayDraws` replays exactly that over raw words pre-drawn per
job, for every drawing game in one numpy pass, and commits the
consumed words back so each generator ends where the per-game calls
would have left it, state field for field. Because it mirrors numpy
internals, a lazy once-per-process self-check per bit-generator type
(:func:`replays`) must pass before it is used; other types (``MT19937``
has no ``has_uint32`` buffer), epsilon-greedy buckets (whose
``random()`` calls share the stream) and generators shared between
jobs of a bucket get :class:`LoopDraws`, one ``integers`` call per game.
:func:`draw_source` makes that choice, and nothing else does.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["LoopDraws", "ReplayDraws", "draw_source", "replays"]

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

#: Raw 64-bit words pre-drawn per job and refill. A refill is one
#: ``random_raw`` call (about a microsecond whatever the size); a
#: population trajectory consumes tens of words, so a few refills
#: cover it, and the surplus is never committed.
RAW_BLOCK = 32


class LoopDraws:
    """Bounded draws made one ``Generator.integers`` call per game."""

    counter = "tensor.draws.loop"

    def __init__(self, rngs: Sequence[np.random.Generator]) -> None:
        self.rngs = rngs

    def draw(self, ids: np.ndarray, bounds: np.ndarray) -> List[int]:
        """``rngs[ids[r]].integers(0, bounds[r])`` for every r, in order."""
        rngs = self.rngs
        return [rngs[i].integers(0, b) for i, b in zip(ids.tolist(), bounds.tolist())]

    def close(self) -> None:
        pass


class ReplayDraws:
    """Bounded draws replayed in numpy over each job's pre-drawn raw words.

    Per job this holds the ``next_uint32`` stream (module docstring) as
    halves — a block of raw words from ``bit_generator.random_raw``
    split low, high, low, high — and a cursor into it: an odd cursor
    means a high half is buffered, and the half at ``(cursor − 1) | 1``
    is ``uinteger``. A buffered half the job starts with sits in the
    last slot of an empty block. One :meth:`draw` call takes one half
    per listed game; the rare Lemire redraws are settled per game.

    Each job's ``bit_generator.state`` is read once, at its first draw,
    and written once, by :meth:`close`: the saved state with the final
    ``has_uint32``/``uinteger``, then advanced by exactly the consumed
    words. Ids are bucket job positions, so the arrays never need
    compacting. Only generators whose type passed :func:`replays` may
    be handed in, each at most once.
    """

    counter = "tensor.draws.replayed"

    #: Halves per block, and the cursor of a job not yet opened.
    HALVES = 2 * RAW_BLOCK
    UNOPENED = HALVES + 1

    def __init__(self, rngs: Sequence[np.random.Generator]) -> None:
        total = len(rngs)
        self.bit_generators = [rng.bit_generator for rng in rngs]
        self.states: List[Optional[dict]] = [None] * total
        self.halves = np.zeros((total, self.HALVES), dtype=np.uint32)
        self.cursor = np.full(total, self.UNOPENED, dtype=np.int64)
        self.refills = np.zeros(total, dtype=np.int64)

    def _restock(self, ids: List[int]) -> None:
        """Open unopened jobs, then refill every job whose block is spent."""
        last = self.HALVES - 1
        spent = []
        for i in ids:
            if self.cursor[i] == self.UNOPENED:
                state = self.states[i] = self.bit_generators[i].state
                self.halves[i, last] = state["uinteger"]
                if state["has_uint32"]:
                    self.cursor[i] = last
                    continue
            spent.append(i)
        if spent:
            raw = np.empty((len(spent), RAW_BLOCK), dtype=np.uint64)
            for row, i in enumerate(spent):
                raw[row] = self.bit_generators[i].random_raw(RAW_BLOCK)
            self.halves[spent, 0::2] = raw & _MASK32
            self.halves[spent, 1::2] = raw >> _SHIFT32
            self.cursor[spent] = 0
            self.refills[spent] += 1

    def _next32(self, i: int) -> int:
        """One ``next_uint32`` of job *i*."""
        c = int(self.cursor[i])
        if c >= self.HALVES:
            self._restock([i])
            c = int(self.cursor[i])
        self.cursor[i] = c + 1
        return int(self.halves[i, c])

    def _settle(self, i: int, b: int, m: int) -> int:
        """Finish Lemire's method for job *i* from the product ``m = u·b``."""
        if m & 0xFFFFFFFF < b:
            threshold = (2**32 - b) % b
            while m & 0xFFFFFFFF < threshold:
                m = self._next32(i) * b
        return m >> 32

    def draw(self, ids: np.ndarray, bounds: np.ndarray):
        """``integers(0, bounds[r])`` of job ``ids[r]`` for every r (distinct ids)."""
        c = self.cursor[ids]
        stale = c >= self.HALVES
        if stale.any():
            self._restock(ids[stale].tolist())
            c = self.cursor[ids]
        self.cursor[ids] = c + 1
        n = bounds.astype(np.uint64)
        m = self.halves[ids, c] * n
        out = m >> _SHIFT32
        # Lemire redraws only below (2**32 − n) mod n < n: screen with n.
        screen = (m & _MASK32) < n
        if screen.any():
            for r in np.flatnonzero(screen).tolist():
                out[r] = self._settle(int(ids[r]), int(bounds[r]), int(m[r]))
        return out

    def close(self) -> None:
        """Commit every opened job's consumed words to its generator."""
        for i in np.flatnonzero(self.cursor != self.UNOPENED).tolist():
            c = int(self.cursor[i])
            state = self.states[i]
            state["has_uint32"] = c & 1
            state["uinteger"] = int(self.halves[i, (c - 1) | 1])
            bit_generator = self.bit_generators[i]
            bit_generator.state = state
            refills = int(self.refills[i])
            if refills:
                bit_generator.random_raw((refills - 1) * RAW_BLOCK + (c + 1) // 2, output=False)
        self.cursor[:] = self.UNOPENED


#: Bit-generator type → whether :class:`ReplayDraws` reproduces its
#: ``Generator.integers``; filled lazily by :func:`replays`.
_REPLAY_VERIFIED: Dict[type, bool] = {}

#: Self-check bounds: population-sized counts, then rejection-heavy
#: ones where Lemire's method redraws a quarter to half of the time.
CHECK_BOUNDS = (2, 3, 5, 7, 10, 100, 1000, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1)

#: Generators per self-check; each step draws staggered bounds on all of them.
CHECK_JOBS = 16


def same_state(a, b) -> bool:
    """Deep equality of two ``bit_generator.state`` values."""
    if isinstance(a, dict) or isinstance(b, dict):
        return (
            isinstance(a, dict)
            and isinstance(b, dict)
            and a.keys() == b.keys()
            and all(same_state(a[key], b[key]) for key in a)
        )
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(a, b))
    return a == b


def replay_self_check(kind: type) -> bool:
    """Does :class:`ReplayDraws` reproduce ``Generator.integers`` for *kind*?

    :data:`CHECK_JOBS` fresh generators of the type (every other one
    starting with a buffered half) draw the :data:`CHECK_BOUNDS`
    bounds together, each across a block boundary. Draws and final
    states must equal those of twin generators calling ``integers``
    directly. Any failure — including a type without ``has_uint32`` in
    its state, or one that cannot be seeded with an int — means the
    loop route.
    """
    try:
        if "has_uint32" not in kind(0).state:
            return False
        mine = [np.random.Generator(kind(seed)) for seed in range(CHECK_JOBS)]
        refs = [np.random.Generator(kind(seed)) for seed in range(CHECK_JOBS)]
        for gen in mine[1::2] + refs[1::2]:
            gen.integers(0, 3)
        source = ReplayDraws(mine)
        ids = np.arange(CHECK_JOBS)
        for step in range(3 * RAW_BLOCK):
            bounds = np.array(
                [CHECK_BOUNDS[(step + 3 * i) % len(CHECK_BOUNDS)] for i in range(CHECK_JOBS)],
                dtype=np.int64,
            )
            want = [int(refs[i].integers(0, b)) for i, b in enumerate(bounds.tolist())]
            if [int(x) for x in source.draw(ids, bounds)] != want:
                return False
        source.close()
        return all(
            same_state(a.bit_generator.state, b.bit_generator.state)
            for a, b in zip(mine, refs)
        )
    except Exception:
        return False


def replays(kind: type) -> bool:
    """Whether bit-generator type *kind* passed :func:`replay_self_check`."""
    verdict = _REPLAY_VERIFIED.get(kind)
    if verdict is None:
        verdict = _REPLAY_VERIFIED[kind] = replay_self_check(kind)
    return verdict


def draw_source(rngs: Sequence[np.random.Generator], policy: str, scheduler: str):
    """The bucket's bounded-draw source: replayed where proven, else looped.

    Only uniform-scheduler and random-improving buckets make bounded
    draws; any other bucket gets the no-cost loop source, so it runs no
    self-check and allocates no replay table. Epsilon-greedy buckets
    loop: their explore tests call ``random()`` on the generator between
    bounded draws. A generator shared by two jobs of the bucket loops
    too — its draws must interleave in lockstep order, which per-job
    replay cannot do.
    """
    bit_generators = [rng.bit_generator for rng in rngs]
    if (
        (scheduler == "uniform" or policy == "random")
        and policy != "epsilon"
        and len({id(bg) for bg in bit_generators}) == len(bit_generators)
        and all(replays(kind) for kind in {type(bg) for bg in bit_generators})
    ):
        return ReplayDraws(rngs)
    return LoopDraws(rngs)
