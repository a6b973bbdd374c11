"""Two-state coupling: who is reactive, and what that does to the loop gain.

Each agent couples to the observation with b_low in normal mode and
b_high in reactive mode, and b_high > b_low for every agent. One model
says who is reactive: with N_H agents reactive, they are the first N_H
in switch priority, largest b_high first (`switch_priority`), and each
agent's coupling is given by `reactive_couplings`. The aggregate
coupling B(N_H) is the fixed-order sum of those couplings, and the loop
gain is a*B(N_H). The step loop, the forced-ratio sampler and the
tipping count all read this model, and `round_count` is the one rule
that turns a real count into agents.

The reactive count follows the trailing mean of |dO| (`SwitchRule`):
crowds react to how much the observation has been moving.

Switching one more agent raises its coupling, so B(N_H) and the gain
grow with N_H. The tipping count N_HC (`critical_reactive_count`) is the
smallest N_H at which the gain reaches 1; beyond it the crowd
self-amplifies. Where b_low is one value, the strongest couplers switch
first, so B(N_H) is concave and a spread of b_high tips the crowd
earlier than its population means would. A homogeneous crowd has
B(N_H) = N_H*b_high + (N - N_H)*b_low, and N_HC is the ceiling of the
paper's

    N_HC = (1 - a*N*b_low) / (a * (b_high - b_low))
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .dynamics import CrowdConfig, check_fields, ordered_sum, ruled

#: Band around loop gain 1 classified as marginal.
MARGINAL_TOL = 1e-9


@dataclass(frozen=True)
class SwitchRule:
    """Reactive-count rule: N_H proportional to the trailing mean of |dO|.

    N_H = round_count(n * mean(|dO| over last `window` steps) / saturation_scale, n)

    saturation_scale is the trailing-mean magnitude at which the whole
    population has switched. The count is capped at n and rounded half
    away from zero (counts, not banker's rounding). During warm-up only
    the available history is averaged; an empty history keeps everyone
    normal.
    """

    saturation_scale: float = ruled(
        lambda s: 0 < s < math.inf, "saturation_scale must be finite and > 0, got {}"
    )
    window: int = ruled(lambda w: w >= 1, "window must be >= 1, got {}", default=5)

    def __post_init__(self) -> None:
        check_fields(SwitchRule, vars(self))


class Stability(Enum):
    CONTRACTING = "contracting"
    MARGINAL = "marginal"
    AMPLIFYING = "amplifying"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def update_reactive_count(dO_history: Sequence[float], rule: SwitchRule, n: int) -> int:
    """Apply the switch rule to the trailing observation increments.

    Uses the last ``rule.window`` entries (fewer during warm-up; zero
    history means everyone stays normal).
    """
    mags = [abs(x) for x in dO_history][-rule.window:]
    if not mags:
        return 0
    mean_mag = ordered_sum(mags) / len(mags)
    return round_count(n * mean_mag / rule.saturation_scale, n)


def round_count(real: float, n: int) -> int:
    """A real count of agents (>= 0) as a whole one: capped at n, then rounded half away from zero.

    It is capped before rounding, because a tiny saturation_scale can make it inf.
    """
    return int(math.floor(min(real, n) + 0.5))


def switch_priority(b_high: np.ndarray) -> np.ndarray:
    """Order in which agents switch: largest b_high first, ties by ascending index."""
    return np.argsort(-b_high, kind="stable")


def reactive_couplings(b_low: np.ndarray, b_high: np.ndarray, priority: np.ndarray, n_h: int) -> np.ndarray:
    """Each agent's coupling with `n_h` agents reactive: b_low, with b_high at priority[:n_h]."""
    b = b_low.copy()
    reactive = priority[:n_h]
    b[reactive] = b_high[reactive]
    return b


def critical_reactive_count(config: CrowdConfig) -> int | None:
    """The tipping count N_HC: the fewest reactive agents at which the loop gain is positive and reaches 1.

    The gain at k reactive agents is a run's a*B(k): `config.a` times the
    ordered sum of `reactive_couplings`. It reaches 1 when
    `classify_stability` finds it marginal or amplifying, so a step of a
    run has a positive gain that is not contracting exactly when its N_H
    is at least N_HC. Returns None when the whole crowd stays below: it
    never tips. Every agent's b_high exceeds its b_low and rounding is
    monotone, so B(k) never falls as k grows, and N_HC is found by
    bisection.
    """
    priority = switch_priority(config.b_high)

    def tips(k: int) -> bool:
        gain = config.a * ordered_sum(reactive_couplings(config.b_low, config.b_high, priority, k))
        return gain > 0 and classify_stability(gain) is not Stability.CONTRACTING

    k = bisect.bisect_left(range(config.n + 1), True, key=tips)
    return k if k <= config.n else None


def classify_stability(ab: float) -> Stability:
    """Classify the loop gain: contracting (|ab|<1), marginal (|ab|~1), amplifying.

    Negative gains of magnitude above 1 amplify too (oscillating sign).
    """
    if abs(abs(ab) - 1.0) <= MARGINAL_TOL:
        return Stability.MARGINAL
    if abs(ab) < 1.0:
        return Stability.CONTRACTING
    return Stability.AMPLIFYING
