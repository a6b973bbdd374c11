"""Synchronization, trend, and volatility measures.

Two complementary views of how aligned a crowd is:

* instantaneous order parameter  R = |sum dS_i| / sum |dS_i|  (one step),
* windowed crowd correlation  rho_c = mean_i corr(dS_i, dS)  (a period),

plus the crowd volatility sigma_c (std of the aggregate action), its
observed counterpart sigma_O = a * sigma_c, and trendiness
T_d = |sum dO| / sum |dO| over a window.

`order_ratio` is the one code that forms R from its two sums. A run's
per-step R is `ScenarioResult.r_instant`; window reports carry no copy.

rho_c and sigma_c have two forms. The direct form (`window_sync`) is
the one every report computes: one pass over the centred N x w window,
O(N*w) time and memory. The paper's volatility-weighted matrix form
(`DecisionPanel`, `crowd_correlation`, `crowd_volatility`) builds the
N x N correlation matrix, O(N^2*w); it is kept as the reference the
direct form is tested against.

Conventions for degenerate inputs (documented, tested): R and T_d are 0
when every increment is zero, and when the sum of magnitudes is NaN; a
correlation involving a constant series is 0, and constant agents count
as 0 in the mean that gives rho_c; a window whose aggregate is constant
(all agents constant, or live agents that cancel exactly) has
sigma_c = 0 and rho_c = 0. These keep the metrics total over everything
a simulation emits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import CrowdError, ordered_sum


class InvalidPanelError(CrowdError):
    """A decision panel on which the requested metric is undefined."""


class InvalidCorrelationError(CrowdError):
    """A correlation matrix that is not positive semidefinite."""


class DegenerateMixError(CrowdError):
    """Closed-form order parameter with a non-positive denominator."""


# ---------------------------------------------------------------------------
# Instantaneous order parameter
# ---------------------------------------------------------------------------

def order_ratio(sums, abs_sums) -> np.ndarray:
    """R = |sums| / abs_sums elementwise, and 0 wherever abs_sums is not > 0.

    abs_sums is not > 0 on a quiescent step or when an action is NaN.
    With both sums taken in the same order, |sum x| <= sum |x| holds in
    floating point too, so R lies in [0, 1] unclipped; inf / inf is NaN.
    """
    abs_sums = np.asarray(abs_sums, dtype=np.float64)
    out = np.zeros(abs_sums.shape)
    with np.errstate(invalid="ignore"):  # inf / inf
        np.divide(np.abs(sums), abs_sums, out=out, where=abs_sums > 0.0)
    return out


def order_parameter(agent_actions) -> float:
    """Alignment of one step's actions: |sum dS_i| / sum |dS_i|, in [0, 1].

    1 means every agent moved the same direction; a fully quiescent
    step (all dS_i = 0), or one with a NaN action, returns 0.
    """
    arr = np.asarray(agent_actions, dtype=np.float64)
    return float(order_ratio(ordered_sum(arr), ordered_sum(np.abs(arr))))


def order_parameter_closed_form(
    ratio: float, b_high_avg: float, b_low_avg: float, b_abs_low_avg: float
) -> float:
    """Noise-free order parameter as a function of the reactive fraction.

    With no external force and no noise, dS_i = b_i * dO, so R depends
    only on the coupling mix:

        R = |ratio*(B_H - B_L) + B_L| / (ratio*(B_H - B_0) + B_0)

    where B_H, B_L are the mean high/low couplings and B_0 the mean
    |low| coupling. The absolute value keeps R in [0, 1] when B_L < 0.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"reactive ratio must be in [0, 1], got {ratio}")
    if b_abs_low_avg < abs(b_low_avg):
        raise ValueError("mean |b_low| cannot be smaller than |mean b_low|")
    # mixture form of ratio*(B_H - B_L) + B_L: exact at both endpoints
    num = ratio * b_high_avg + (1.0 - ratio) * b_low_avg
    den = ratio * b_high_avg + (1.0 - ratio) * b_abs_low_avg
    if not den > 0.0:
        raise DegenerateMixError(f"order-parameter denominator {den!r} is not positive")
    return float(np.clip(abs(num) / den, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Windowed panel statistics
# ---------------------------------------------------------------------------

@dataclass
class DecisionPanel:
    """Per-agent action series with their second-moment summary.

    series is N x T; per_agent_sigma the population std of each row;
    corr the N x N correlation matrix (0 rows/columns for constant
    agents, unit diagonal where sigma > 0).
    """

    series: np.ndarray
    per_agent_sigma: np.ndarray
    corr: np.ndarray

    @classmethod
    def from_series(cls, series) -> "DecisionPanel":
        arr = np.asarray(series, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"panel series must be N x T, got shape {arr.shape}")
        n, t = arr.shape
        if n < 1 or t < 1:
            raise ValueError(f"panel needs at least one agent and one step, got {arr.shape}")
        centered = arr - arr.mean(axis=1, keepdims=True)
        cov = (centered @ centered.T) / t
        cov = (cov + cov.T) / 2.0
        sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        live = sigma > 0.0
        denom = np.outer(sigma, sigma)
        corr = np.zeros((n, n))
        mask = np.outer(live, live)
        np.divide(cov, denom, out=corr, where=mask)
        corr = np.clip(corr, -1.0, 1.0)
        np.fill_diagonal(corr, np.where(live, 1.0, 0.0))
        return cls(series=arr, per_agent_sigma=sigma, corr=corr)

    @property
    def n(self) -> int:
        return self.series.shape[0]


def crowd_volatility(per_agent_sigma, corr) -> float:
    """Std of the aggregate action: sqrt(sum sigma_l^2 + 2 sum_{l>m} rho_lm sigma_l sigma_m)."""
    sigma = np.asarray(per_agent_sigma, dtype=np.float64)
    rho = np.asarray(corr, dtype=np.float64)
    if np.any(sigma < 0):
        raise ValueError("per-agent sigma must be >= 0")
    var = float(sigma @ rho @ sigma)
    if var < 0.0:
        scale = float(np.sum(sigma * sigma))
        if var < -1e-12 * max(scale, 1.0):
            raise InvalidCorrelationError(
                f"correlation matrix yields negative aggregate variance {var!r}"
            )
        var = 0.0  # roundoff from a boundary matrix (e.g. perfect anticorrelation)
    return float(np.sqrt(var))


def crowd_correlation(panel: DecisionPanel) -> float:
    """Windowed synchronization rho_c via the volatility-weighted matrix form.

    rho_c = (1 / (N * sigma_c)) * sum_i sum_j rho_ij * sigma_j. Equals
    the direct form `window_sync` (mean correlation of each agent with
    the aggregate) up to roundoff, which is tested. Raises
    InvalidPanelError when the aggregate is constant (sigma_c = 0).
    """
    if not np.any(panel.per_agent_sigma > 0):
        raise InvalidPanelError("all agents are constant; crowd correlation is undefined")
    sigma_c = crowd_volatility(panel.per_agent_sigma, panel.corr)
    if sigma_c == 0.0:
        raise InvalidPanelError("the agents cancel exactly; crowd correlation is undefined")
    weighted = float((panel.corr @ panel.per_agent_sigma).sum())
    return float(np.clip(weighted / (panel.n * sigma_c), -1.0, 1.0))


def window_sync(actions) -> tuple[float, float]:
    """(rho_c, sigma_c) of an N x w window in direct form, O(N*w).

    With x_i the centred rows and dS = sum_i x_i the aggregate,
    sigma_c = std(dS) and rho_c = (1/N) sum_i cov(x_i, dS) / (sigma_i sigma_c),
    where constant agents (sigma_i = 0) count as 0. A constant aggregate
    gives (0, 0). Agrees with the matrix form up to roundoff (tested).
    """
    arr = np.asarray(actions, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"window must be N x w with N, w >= 1, got shape {arr.shape}")
    n, w = arr.shape
    centered = arr - arr.mean(axis=1, keepdims=True)
    agg = centered.sum(axis=0)
    sigma_c = float(np.sqrt(agg @ agg / w))
    if sigma_c == 0.0:
        return 0.0, 0.0
    sigma = np.sqrt(np.einsum("ij,ij->i", centered, centered) / w)
    cov = centered @ agg / w
    rho = np.zeros(n)
    np.divide(cov, sigma * sigma_c, out=rho, where=sigma > 0.0)
    return float(np.clip(rho.sum() / n, -1.0, 1.0)), sigma_c


def trendiness(dO_series) -> float:
    """Directional persistence of a window: |sum dO| / sum |dO|, in [0, 1].

    1 on a monotone window, 0 on exact cancellation, a quiet window or
    a window with a NaN increment.
    """
    arr = np.asarray(dO_series, dtype=np.float64)
    if arr.size < 1:
        raise ValueError("trendiness needs at least one increment")
    return float(order_ratio(arr.sum(), np.abs(arr).sum()))


def observed_volatility(a: float, sigma_c: float) -> float:
    """Volatility seen on the observation: sigma_O = a * sigma_c."""
    if not a > 0:
        raise ValueError(f"observation sensitivity a must be > 0, got {a}")
    if sigma_c < 0:
        raise ValueError(f"sigma_c must be >= 0, got {sigma_c}")
    return a * sigma_c


# ---------------------------------------------------------------------------
# Window report
# ---------------------------------------------------------------------------

@dataclass
class SyncReport:
    """Metrics for one analysis window [start, stop) of a run.

    rho_c and sigma_c come from the direct form (`window_sync`); both
    are 0 when the window's aggregate action is constant. The per-step
    order parameter is not repeated here: it is the run's `r_instant`.
    """

    start: int
    stop: int
    rho_c: float
    sigma_c: float
    sigma_o: float
    t_d: float


def sync_report(
    actions: np.ndarray,
    dO_window: np.ndarray,
    a: float,
    start: int = 0,
) -> SyncReport:
    """Summarize one window of per-agent actions and observation increments.

    Costs O(N*w) time and memory for an N x w window; no N x N matrix is
    built. A window with a constant aggregate (fully quiescent, or live
    agents that cancel exactly) reports rho_c = sigma_c = 0 rather than
    raising, so pipelines stay total; the raw crowd_correlation op still
    refuses such panels.
    """
    actions = np.asarray(actions, dtype=np.float64)
    rho_c, sigma_c = window_sync(actions)
    return SyncReport(
        start=start,
        stop=start + actions.shape[1],
        rho_c=rho_c,
        sigma_c=sigma_c,
        sigma_o=observed_volatility(a, sigma_c),
        t_d=trendiness(dO_window),
    )
