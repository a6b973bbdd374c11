"""Seeded random-number streams.

All randomness in the package flows through Philox (counter-based) bit
generators keyed via ``numpy.random.SeedSequence``. A run, a sweep point,
or a Monte-Carlo sampler owns its own generator; nothing is shared, so
an identical seed reproduces bit-identical draws on any machine running
the same numpy build.
"""

from __future__ import annotations

import numpy as np


def make_generator(seed: int) -> np.random.Generator:
    """Return the Philox Generator keyed by ``SeedSequence(seed)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
