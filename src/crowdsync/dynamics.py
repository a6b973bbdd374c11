"""The crowd model's coefficients and its elementary operations.

A crowd of N agents acts on a shared observation. Per step, agent i's
action increment is

    dS_i = c_i * dE + b_i * dO_prev + eps_i

where dE is the external-force increment, dO_prev the previous
observation increment, and eps_i random noise. Actions are additive
(dS = sum dS_i) and feed back into the observation through the
sensitivity ``a``:

    dO = a * dS

Closing the loop with aggregate coefficients B = sum b_i, C = sum c_i
gives the one-step map

    dO(t+1) = (a*C) * dE(t) + (a*B) * dO(t)  [+ noise]

whose gain a*B decides everything: |a*B| < 1 contracts, a*B = 1 is the
singular point, a*B > 1 self-amplifies.

`crowdsync.scenarios.run` is the one implementation of a step; this
module holds what it is built from: agent and crowd parameters, the
noise models, and the fixed-order sum every aggregate uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

#: Half-width of the band around loop gain 1 treated as singular/marginal.
SINGULARITY_TOL = 1e-9


class CrowdError(Exception):
    """Base class for crowd-model errors."""


class SingularFeedbackError(CrowdError):
    """Loop gain a*B is at the singular point (a*B = 1)."""


class EmptyPopulationError(CrowdError):
    """An operation that needs at least one agent got none."""


def require_finite(what: str, value: float) -> None:
    """Raise ValueError unless `value` is a finite number."""
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")


# ---------------------------------------------------------------------------
# Agents and configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgentParams:
    """Per-agent coefficients.

    b_low / b_high are the observation-coupling values taken in the
    normal / reactive mode; c is the sensitivity to external force;
    noise_amp is the half-width of the agent's uniform action noise.
    """

    id: int
    b_low: float
    b_high: float
    c: float
    noise_amp: float = 0.0

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"agent id must be >= 0, got {self.id}")
        # inline, not require_finite per field: this runs for every agent of every crowd
        if not (math.isfinite(self.b_low) and math.isfinite(self.b_high)
                and math.isfinite(self.c) and math.isfinite(self.noise_amp)):
            raise ValueError(f"agent {self.id}: coefficients must be finite, got {self}")
        if not self.b_high > 0:
            raise ValueError(f"agent {self.id}: b_high must be > 0, got {self.b_high}")
        if not self.b_high > self.b_low:
            raise ValueError(
                f"agent {self.id}: b_high must exceed b_low "
                f"(got b_high={self.b_high}, b_low={self.b_low})"
            )
        if self.noise_amp < 0:
            raise ValueError(f"agent {self.id}: noise_amp must be >= 0")


# Noise models. NoNoise keeps runs fully deterministic; UniformNoise is
# per-agent i.i.d. action noise of half-width AgentParams.noise_amp;
# WienerNoise is aggregate drift+diffusion applied at the observation
# level (a*eps_total = mu*dt + sigma*dZ).

@dataclass(frozen=True)
class NoNoise:
    pass


@dataclass(frozen=True)
class UniformNoise:
    pass


@dataclass(frozen=True)
class WienerNoise:
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        require_finite("wiener mu", self.mu)
        require_finite("wiener sigma", self.sigma)
        if self.sigma < 0:
            raise ValueError("wiener sigma must be >= 0")


NoiseModel = Union[NoNoise, UniformNoise, WienerNoise]


@dataclass
class CrowdConfig:
    """Population plus the shared observation sensitivity.

    Agents must be listed in ascending id order 0..n-1; every aggregate
    in the package sums in that order so runs are bit-reproducible.
    """

    n: int
    a: float
    agents: list[AgentParams]
    noise_model: NoiseModel = field(default_factory=NoNoise)
    dt: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"population n must be >= 1, got {self.n}")
        require_finite("observation sensitivity a", self.a)
        if not self.a > 0:
            raise ValueError(f"observation sensitivity a must be > 0, got {self.a}")
        require_finite("time step dt", self.dt)
        if not self.dt > 0:
            raise ValueError(f"time step dt must be > 0, got {self.dt}")
        if len(self.agents) != self.n:
            raise ValueError(f"expected {self.n} agents, got {len(self.agents)}")
        for i, ag in enumerate(self.agents):
            if ag.id != i:
                raise ValueError(f"agents must be ordered by id 0..n-1; slot {i} holds id {ag.id}")


def homogeneous_agents(
    n: int, b_low: float, b_high: float, c: float, noise_amp: float = 0.0
) -> list[AgentParams]:
    """N identical agents with ids 0..n-1."""
    return [AgentParams(id=i, b_low=b_low, b_high=b_high, c=c, noise_amp=noise_amp) for i in range(n)]


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def ordered_sum(values: Sequence[float] | np.ndarray) -> float:
    """Sum in ascending index order (left to right), no reassociation.

    The canonical reduction for every aggregate in the package; fixing
    the order makes runs bit-identical across machines.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise EmptyPopulationError("cannot aggregate an empty vector")
    # add.accumulate applies + sequentially, i.e. strict left-to-right.
    return float(np.add.accumulate(arr)[-1])


def instantaneous_response(a: float, b_total: float, c_total: float, dE: float) -> float:
    """Zero-delay closed form dO = a*C/(1 - a*B) * dE.

    Raises SingularFeedbackError within SINGULARITY_TOL of loop gain 1,
    where the crowd is hypersensitive and the closed form blows up.
    """
    ab = a * b_total
    if abs(1.0 - ab) < SINGULARITY_TOL:
        raise SingularFeedbackError(f"loop gain a*B = {ab!r} is at the singular point 1")
    return (a * c_total / (1.0 - ab)) * dE
