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
columns and the one check of their rules, the noise models, and
`ordered_sum`, the fixed-order sum of the step's aggregates (which
outputs it fixes, and which it does not, is said there).

A dataclass field with a value rule declares it once, with `ruled`:
`__post_init__` raises the first field's message (`check_fields`), and
the scenario reader reports every broken rule on its key's line
(`field_errors`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence, Union

import numpy as np


class CrowdError(Exception):
    """Base class for crowd-model errors."""


class EmptyPopulationError(CrowdError):
    """An operation that needs at least one agent got none."""


def ruled(check: Callable[[object], bool], message: str, **kwargs):
    """A dataclass field whose values must pass `check`; `message.format(value)` says why one fails.

    `kwargs` go to `dataclasses.field` (a default, for one).
    """
    return field(metadata={"check": check, "message": message}, **kwargs)


def field_errors(cls, values: dict) -> list[tuple[str, str]]:
    """(field, message) for each field of `cls` given in `values` that breaks its rule, in field order."""
    return [
        (f.name, f.metadata["message"].format(values[f.name]))
        for f in fields(cls)
        if f.name in values and "check" in f.metadata and not f.metadata["check"](values[f.name])
    ]


def check_fields(cls, values: dict) -> None:
    """Raise ValueError with the message of the first field in `values` that breaks its rule."""
    errors = field_errors(cls, values)
    if errors:
        raise ValueError(errors[0][1])


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
    mu: float = ruled(math.isfinite, "wiener mu must be finite, got {}", default=0.0)
    sigma: float = ruled(
        lambda s: 0 <= s < math.inf, "wiener sigma must be finite and >= 0, got {}", default=0.0
    )

    def __post_init__(self) -> None:
        check_fields(WienerNoise, vars(self))


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

    n: int = ruled(lambda n: n >= 1, "population n must be >= 1, got {}")
    a: float = ruled(lambda a: 0 < a < math.inf, "observation sensitivity a must be finite and > 0, got {}")
    b_low: np.ndarray
    b_high: np.ndarray
    c: np.ndarray
    noise_amp: np.ndarray = 0.0
    noise_model: NoiseModel = field(default_factory=NoNoise)
    dt: float = ruled(
        lambda dt: 0 < dt < math.inf, "time step dt must be finite and > 0, got {}", default=1.0
    )

    def __post_init__(self) -> None:
        check_fields(CrowdConfig, vars(self))
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

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writeable (sweep workers receive configs
        # by pickle), so freeze the columns again.
        self.__dict__.update(state)
        for name in AGENT_COLUMNS:
            getattr(self, name).flags.writeable = False


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

_FLOAT64 = np.dtype(np.float64)


def ordered_sum(values: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Sum in ascending index order (left to right), no reassociation.

    The step loop's reduction. A run's dS and sum |dS_i| (and so its
    order parameter R) and the couplings' sum B are taken with it, and O
    is the loop's left-to-right sum of dO; fixing the order makes these
    bit-identical across machines and numpy or BLAS builds, given the
    same force increments. A bubble profile's increments are the
    exception: its tail takes q**j with numpy's SIMD `power` loop, and
    on numpy 2.4.6 the AVX-512 loop differs from libm's pow in about 100
    of 2 000 elements, so its dE, and every column after it, depends on
    the CPU features numpy dispatches to (`bubble_profile`). ROADMAP item
    12 is the mend; it moves bytes that `perfbench/reference.json` pins,
    so it needs a change that may re-pin that reference. The metrics
    use numpy's own reductions: rho_c and sigma_c (`CrowdMoments`: its
    sums along an axis, `einsum` and BLAS `@`), T_d, `summarize`'s
    mean_R and the curve cells (numpy's pairwise sums), and the
    `metrics` command's columns (`np.std`, `np.mean`). These may differ
    in their last bits under another numpy or BLAS build.

    An array is summed along its last axis with `np.add.accumulate`,
    which applies + sequentially: a 1-D array gives a float, a 2-D array
    the array of its row sums, each equal to the 1-D sum of that row.
    Any other sequence (the switch rule's few trailing |dO| values) is
    summed as floats by a plain left-to-right loop, which gives the same
    bits as the array form without building an array. The builtin `sum`
    is not used: from Python 3.12 on it compensates float rounding, so it
    would disagree with the array form.
    """
    if type(values) is np.ndarray and values.ndim == 1 and values.dtype is _FLOAT64 and values.size:
        return np.add.accumulate(values).item(-1)  # the step loop's case, without the checks below
    if not isinstance(values, np.ndarray):
        items = iter(values)
        try:
            total = float(next(items))  # starting from 0.0 would turn a -0.0 sum into 0.0
        except StopIteration:
            raise EmptyPopulationError("cannot aggregate an empty vector") from None
        for x in items:
            total += float(x)
        return total
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise EmptyPopulationError("cannot aggregate an empty vector")
    sums = np.add.accumulate(arr, axis=-1)[..., -1]
    return float(sums) if arr.ndim == 1 else sums

