"""Seeded random-number streams.

All randomness in the package flows through Philox (counter-based) bit
generators keyed via ``numpy.random.SeedSequence``. A run or a sweep point
owns its own generator; a run draws a block of steps' noise at once,
uniform or normal, which gives the bits of one draw per step. Point i of a
Monte-Carlo sampler owns the stream of seed + i, and each block of its
trials draws from a copy of that stream, advanced to the block's first
draw (Philox gives 4 draws per counter step). Nothing is shared, so an
identical seed reproduces bit-identical draws on any machine running the
same numpy build, however the draws are split.

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
