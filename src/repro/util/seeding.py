"""Deterministic RNG management.

Every stochastic component in the library (stochastic rounding, random
sampling in CocktailSGD, synthetic data generation, weight init) takes an
explicit ``numpy.random.Generator``.  This module provides helpers to
derive independent child generators from a root seed so experiments are
reproducible end to end, including across simulated ranks.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["spawn_rng", "rng_for_rank", "rng_state_array", "restore_rng_state"]


def spawn_rng(seed: int | np.random.Generator | None, *key: int) -> np.random.Generator:
    """Return an independent generator derived from ``seed`` and ``key``.

    ``seed`` may be an int, ``None`` (fresh entropy), or an existing
    ``Generator`` (returned unchanged when no key is given).  Integer keys
    create statistically independent streams: the same ``(seed, key)``
    always yields the same stream.
    """
    if isinstance(seed, np.random.Generator):
        if not key:
            return seed
        # Derive a child stream from the generator's bit stream.
        child_seed = int(seed.integers(0, 2**63 - 1))
        return np.random.default_rng(np.random.SeedSequence(entropy=child_seed, spawn_key=key))
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def rng_for_rank(seed: int, rank: int) -> np.random.Generator:
    """Generator for a simulated rank; distinct per rank (spawn key
    ``(rank, 0)``)."""
    return spawn_rng(seed, rank, 0)


def rng_state_array(rng: np.random.Generator) -> np.ndarray:
    """A generator's full bit-generator state as a JSON unicode array."""
    return np.array(json.dumps(rng.bit_generator.state))


def restore_rng_state(rng: np.random.Generator, stored: np.ndarray) -> None:
    rng.bit_generator.state = json.loads(str(stored[()]))
