"""Seeded random-number streams.

All randomness in the package flows through Philox (counter-based) bit
generators keyed via ``numpy.random.SeedSequence``. One rule holds for
every stream: its owner builds it once and reads it in order, a block at
a time. A run or a sweep point owns its generator and draws a block of
steps' noise at once; point i of a Monte-Carlo sampler owns the stream
of seed + i and draws its trials in blocks of whole rows. Philox gives k
draws in one call the bits of k single draws, so no bit depends on the
block size, and an identical seed reproduces bit-identical draws on any
machine running the same numpy build.

Uniform noise of half-width a has one rule, `uniform_noise`: a draw from
[-1, 1) scaled by a, so it is finite for any finite a.

numpy loads ``numpy.random`` on first use, so importing this module does
not: the first `make_generator` call does. Only a run whose crowd has
uniform or Wiener noise, and a sampler point that draws, build one; a
command that draws nothing never loads it.
"""

from __future__ import annotations

import numpy as np


def make_generator(seed: int) -> np.random.Generator:
    """Return the Philox Generator keyed by ``SeedSequence(seed)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def uniform_noise(rng: np.random.Generator, shape: tuple[int, ...], half_width: float | np.ndarray) -> np.ndarray:
    """Uniform draws of `shape` from [-1, 1), each scaled in place by `half_width` (one value, or one per column)."""
    noise = rng.uniform(-1.0, 1.0, shape)
    noise *= half_width
    return noise
