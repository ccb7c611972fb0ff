"""Deterministic random-number-generator helpers.

All stochastic components in the library accept either a seed or a
``numpy.random.Generator``. Centralizing construction here keeps
experiments reproducible: the same seed always yields the same game,
trajectory and simulation output.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    ``None`` gives a fresh nondeterministic generator; an ``int`` seeds a
    PCG64 stream; an existing generator is passed through unchanged so
    callers can share one stream across components.
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(f"seed must be None, int or numpy Generator, got {type(seed).__name__}")


def normalize_seed(
    seed: Union[RngLike, np.random.SeedSequence],
) -> Union[int, np.random.SeedSequence, None]:
    """The root seed a batch entry point spawns its streams from.

    Every seed type is honoured deterministically. An ``int`` (Python or
    numpy) becomes a Python ``int``, so integer seeds keep the streams
    they always had; a ``SeedSequence`` passes through; a ``Generator``
    gives its next spawned child sequence (:meth:`Generator.spawn`), so
    equal generators give equal roots and repeated calls on one
    generator give independent ones. ``None`` stays ``None`` — fresh
    entropy.
    """
    if seed is None or isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        return seed.bit_generator.seed_seq.spawn(1)[0]
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise TypeError(
        "seed must be None, int, numpy SeedSequence or Generator, "
        f"got {type(seed).__name__}"
    )


def seed_sequence(seed: Union[RngLike, np.random.SeedSequence]) -> np.random.SeedSequence:
    """The root ``SeedSequence`` of *seed*, read through :func:`normalize_seed`.

    Integer seeds keep their streams (``SeedSequence(int(seed))``); an
    existing ``SeedSequence`` passes through; ``None`` is fresh entropy.
    """
    root = normalize_seed(seed)
    if isinstance(root, np.random.SeedSequence):
        return root
    return np.random.SeedSequence(root)


def spawn_rngs(
    seed: Union[RngLike, np.random.SeedSequence], count: int
) -> Sequence[np.random.Generator]:
    """Split one seed into *count* independent generators.

    Used by parameter sweeps so each cell of the sweep gets its own
    stream and reordering cells does not change any cell's randomness.
    *seed* is read through :func:`seed_sequence`.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return [np.random.default_rng(child) for child in seed_sequence(seed).spawn(count)]
