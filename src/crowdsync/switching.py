"""Two-state coupling: who is reactive, what that does to the loop gain.

Each agent couples to the observation with b_low in normal mode and
b_high in reactive mode, so the aggregate coupling is a linear function
of the reactive count:

    B(N_H) = N_H * B_H + (N - N_H) * B_L

with B_H / B_L the population means of the two value sets. The reactive
count itself follows the trailing mean of |dO|: crowds react to how much
the observation has been moving. The loop gain a*B crosses 1 at the
tipping point

    N_HC = (1 - a*N*B_L) / (a * (B_H - B_L))

beyond which the crowd self-amplifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .dynamics import CrowdError, check_fields, ordered_sum, ruled

#: Band around loop gain 1 classified as marginal.
MARGINAL_TOL = 1e-9


class DegenerateCouplingError(CrowdError):
    """b_high equals b_low; the two states are indistinguishable."""


@dataclass(frozen=True)
class SwitchRule:
    """Reactive-count rule: N_H proportional to the trailing mean of |dO|.

    N_H = clamp(round(n * mean(|dO| over last `window` steps) / saturation_scale), 0, n)

    saturation_scale is the trailing-mean magnitude at which the whole
    population has switched. Rounding is half-away-from-zero (counts,
    not banker's rounding). During warm-up only the available history is
    averaged; an empty history keeps everyone normal.
    """

    saturation_scale: float = ruled(
        lambda s: 0 < s < math.inf, "saturation_scale must be finite and > 0, got {}"
    )
    window: int = ruled(lambda w: w >= 1, "window must be >= 1, got {}", default=5)

    def __post_init__(self) -> None:
        check_fields(SwitchRule, vars(self))


@dataclass(frozen=True)
class TippingPoint:
    """Real-valued critical reactive count; unreachable when count > n."""

    count: float
    ratio: float
    reachable: bool


class Stability(Enum):
    CONTRACTING = "contracting"
    MARGINAL = "marginal"
    AMPLIFYING = "amplifying"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def critical_reactive_count(a: float, n: int, b_high_avg: float, b_low_avg: float) -> TippingPoint:
    """Reactive count at which the loop gain reaches 1.

    Returns the real-valued threshold; ``reachable`` is False when it
    exceeds the population (a*N*B_H < 1: the crowd can never tip).
    """
    if not a > 0:
        raise ValueError(f"observation sensitivity a must be > 0, got {a}")
    if b_high_avg == b_low_avg:
        raise DegenerateCouplingError("b_high equals b_low; no state distinction, no threshold")
    count = (1.0 - a * n * b_low_avg) / (a * (b_high_avg - b_low_avg))
    return TippingPoint(count=count, ratio=count / n, reachable=count <= n)


def update_reactive_count(dO_history: Sequence[float], rule: SwitchRule, n: int) -> int:
    """Apply the switch rule to the trailing observation increments.

    Uses the last ``rule.window`` entries (fewer during warm-up; zero
    history means everyone stays normal).
    """
    mags = [abs(x) for x in dO_history][-rule.window:]
    if not mags:
        return 0
    mean_mag = ordered_sum(mags) / len(mags)
    raw = n * mean_mag / rule.saturation_scale
    # capped before rounding, because a tiny saturation_scale can make raw inf
    return int(math.floor(min(raw, n) + 0.5))  # round half away from zero


def switch_priority(b_high: np.ndarray) -> np.ndarray:
    """Order in which agents switch: largest b_high first, ties by ascending index."""
    return np.argsort(-b_high, kind="stable")


def reactive_couplings(b_low: np.ndarray, b_high: np.ndarray, priority: np.ndarray, n_h: int) -> np.ndarray:
    """Each agent's coupling with `n_h` agents reactive: b_low, with b_high at priority[:n_h]."""
    b = b_low.copy()
    reactive = priority[:n_h]
    b[reactive] = b_high[reactive]
    return b


def classify_stability(ab: float) -> Stability:
    """Classify the loop gain: contracting (|ab|<1), marginal (|ab|~1), amplifying.

    Negative gains of magnitude above 1 amplify too (oscillating sign).
    """
    if abs(abs(ab) - 1.0) <= MARGINAL_TOL:
        return Stability.MARGINAL
    if abs(ab) < 1.0:
        return Stability.CONTRACTING
    return Stability.AMPLIFYING
