"""Deterministic random-number plumbing.

Every Monte-Carlo driver derives one generator per path from
``(master seed, path index)``, so results do not depend on how paths are
batched or scheduled.
"""

from __future__ import annotations

import numpy as np


def path_rng(seed, path_index: int = 0) -> np.random.Generator:
    """Generator for one Monte-Carlo path, independent across indices; the
    master seed is taken modulo 2**64."""
    master = int(seed) & (2**64 - 1)
    return np.random.default_rng(np.random.SeedSequence(entropy=master, spawn_key=(path_index,)))
