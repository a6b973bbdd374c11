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

A crowd is stored as columns: agent i is index i of `CrowdConfig.b_low`,
`b_high`, `c` and `noise_amp`, and i is also its place in every
fixed-order sum.

`crowdsync.scenarios.run` is the one implementation of a step; this
module holds what it is built from: the crowd's per-agent coefficient
columns and the one check of their rules, the noise models, and the
fixed-order sum every aggregate uses.
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

#: The per-agent coefficient columns of a crowd; agent i is index i of each.
AGENT_COLUMNS = ("b_low", "b_high", "c", "noise_amp")


def agent_column_errors(
    b_low: np.ndarray, b_high: np.ndarray, c: np.ndarray, noise_amp: np.ndarray
) -> list[tuple[str, str]]:
    """(column, message) for the first agent breaking each per-agent rule; [] if none does.

    The rules: every coefficient is finite, b_high > b_low, b_high > 0 and
    noise_amp >= 0. The columns are equal-length float64 arrays.
    """
    columns = dict(zip(AGENT_COLUMNS, (b_low, b_high, c, noise_amp)))
    errors = [(name, f"agent {i}: {name} must be finite, got {col[i]}")
              for name, col in columns.items() for i in _first(~np.isfinite(col))]
    if errors:
        return errors  # the order rules below would only repeat a NaN
    return (
        [("b_high", f"agent {i}: b_high must exceed b_low (got b_high={b_high[i]}, b_low={b_low[i]})")
         for i in _first(~(b_high > b_low))]
        + [("b_high", f"agent {i}: b_high must be > 0, got {b_high[i]}") for i in _first(~(b_high > 0))]
        + [("noise_amp", f"agent {i}: noise_amp must be >= 0, got {noise_amp[i]}")
           for i in _first(noise_amp < 0)]
    )


def _first(mask: np.ndarray) -> list[int]:
    """The index of the first True in `mask` as a one-element list; [] when none is."""
    return np.flatnonzero(mask)[:1].tolist()


# Noise models. NoNoise keeps runs fully deterministic; UniformNoise is
# per-agent i.i.d. action noise of half-width CrowdConfig.noise_amp;
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


@dataclass(eq=False)
class CrowdConfig:
    """A crowd of n agents as four coefficient columns, plus the shared sensitivity a.

    Agent i is index i of each column: b_low / b_high are its coupling to
    the observation in the normal / reactive mode, c its sensitivity to
    external force, noise_amp the half-width of its uniform noise. A
    scalar column is given to every agent. Columns are stored as
    read-only float64 copies, so a config cannot change once built.
    """

    n: int
    a: float
    b_low: np.ndarray
    b_high: np.ndarray
    c: np.ndarray
    noise_amp: np.ndarray = 0.0
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
        for name in AGENT_COLUMNS:
            col = np.array(getattr(self, name), dtype=np.float64)  # always a copy
            if col.ndim == 0:
                col = np.full(self.n, col)
            elif col.shape != (self.n,):
                raise ValueError(f"{name} must be one value or {self.n} values, got shape {col.shape}")
            col.flags.writeable = False
            setattr(self, name, col)
        errors = agent_column_errors(self.b_low, self.b_high, self.c, self.noise_amp)
        if errors:
            raise ValueError(errors[0][1])


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
