"""Deterministic RNG derivation.

Every stochastic operation takes an explicit integer seed and derives its
stream locally, so results are reproducible and independent of evaluation
order (parallel loops derive one child stream per work item).
"""

from __future__ import annotations

import operator
import zlib

import numpy as np

from .errors import InputError

_MASK32 = 0xFFFFFFFF


def _key(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8")) & _MASK32
    return int(part) & _MASK32


def check_seed(seed) -> int:
    """seed as an int; a seed that is not an integer (Python or numpy) is
    an InputError."""
    try:
        return operator.index(seed)
    except TypeError as exc:
        raise InputError(f"seed must be an integer, got {seed!r}") from exc


def derive_rng(seed: int, *parts) -> np.random.Generator:
    """Child generator for (seed, *parts); same inputs give the same stream.
    The seed must pass ``check_seed``."""
    root = check_seed(seed) & _MASK32
    spawn = tuple(_key(p) for p in parts)
    return np.random.default_rng(np.random.SeedSequence(root, spawn_key=spawn))


def derive_seed(seed: int, *parts) -> int:
    """Stable 32-bit child seed, for APIs that want an integer."""
    return int(derive_rng(seed, *parts).integers(0, 2**32 - 1))
