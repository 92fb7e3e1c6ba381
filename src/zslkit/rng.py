"""Seed plumbing.

Every random component (weight init, over-sampling, batch draws, ...) gets its
own generator derived from the single experiment seed plus a component name,
so changing one component's usage never perturbs the streams of the others.
`numpy.random` loads at a process's first draw, not with zslkit: of the
commands, only `train` and `ablate` load it.
"""

from __future__ import annotations

import zlib

import numpy as np


def component_rng(seed: int, component: str) -> np.random.Generator:
    """Deterministic generator for a named component under one experiment seed."""
    tag = zlib.crc32(component.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))
