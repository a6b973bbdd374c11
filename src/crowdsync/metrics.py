"""Synchronization, trend, and volatility measures.

Two complementary views of how aligned a crowd is:

* instantaneous order parameter  R = |sum dS_i| / sum |dS_i|  (one step),
* windowed crowd correlation  rho_c = mean_i corr(dS_i, dS)  (a period),

plus the crowd volatility sigma_c (std of the aggregate action), its
observed counterpart sigma_O = a * sigma_c, and trendiness
T_d = |sum dO| / sum |dO| over a window.

`order_ratio` is the one code that forms R from its two sums. A run's
per-step R is `ScenarioResult.r_instant`; window reports carry no copy.

rho_c and sigma_c have two forms. The streaming form (`CrowdMoments`)
is the one kernel: it merges blocks of steps into per-agent means,
second moments and co-moments with the aggregate, O(N) memory for any
run length. The merge is the pairwise update of Chan, Golub & LeVeque
(1979), with the co-moment term of Pebay (SAND 2008-6212). The step
loop merges each block it finishes, and `window_sync` merges a window's
columns in blocks of the same size (`step_block_rows`), so a window of
the whole run gives the bits of the run's moments. The paper's
volatility-weighted matrix form (`DecisionPanel`, `crowd_correlation`,
`crowd_volatility`) builds the N x N correlation matrix, O(N^2*w); it
is kept as the reference the streaming form is tested against.

Conventions for degenerate inputs (documented, tested): R and T_d are 0
when every increment is zero, and when the sum of magnitudes is NaN; a
correlation involving a constant series is 0, and constant agents count
as 0 in the mean that gives rho_c; a window whose aggregate is constant
up to roundoff has sigma_c = 0 and rho_c = 0. These keep the metrics
total over everything a simulation emits. An agent whose actions are
all equal is centred on its first action, not on their rounded mean
(the mean of three equal values can differ from them in the last bit),
so its deviations are exact zeros and it stays constant in both forms;
a block of equal actions does the same in a merge.

Rounding bounds use gamma_k = k*u / (1 - k*u) with u = 2**-53 (Higham,
Accuracy and Stability of Numerical Algorithms, ch. 4); each is first
order in u. An agent's mean over T steps is a sum of T actions divided
by T, so rounding can move it by gamma_T times its mean |action|, which
is at most |mean_i| + sigma_i (`_mean_rounding`). An agent whose spread
is within that, sigma_i <= gamma_T * (|mean_i| + sigma_i), cannot be
told from a constant one, and counts as constant in both forms: the
matrix form zeroes its centred row. (Two actions one ulp apart are such
an agent: centred on their rounded mean, sigma_i is ulp/sqrt(2) in one
form and ulp/2 in the other, and its correlation is set by rounding.)

"Constant up to roundoff" (`_constant_up_to_roundoff`, read by
`CrowdMoments.sync`): an aggregate value is a recursive sum of the N
centred actions x_i(t), each rounded once when it was centred, so its
error is at most gamma_N * sum_i |x_i(t)|; by Cauchy-Schwarz the root
mean square of that error is at most gamma_N * sqrt(N * sum_i sigma_i**2).
Each x_i(t) also carries the rounding of the mean it was centred on,
whose root mean square over the steps is at most the agent's
`_mean_rounding`. So an aggregate with sigma_c at most the sum of these
bounds cannot be told from a constant one.
"""

from __future__ import annotations

import math
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

    The population means are exact only for a homogeneous crowd. Agents
    switch in switch priority, so in a crowd whose couplings differ the
    reactive ones are not an average sample, and R departs from this
    form (`forced_ratio_samples` draws the crowd itself).
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
        # equal values are centred on the first, and a constant agent's row is zeroed (module docstring)
        mean = arr.mean(axis=1, keepdims=True)
        np.copyto(mean, arr[:, :1], where=(arr == arr[:, :1]).all(axis=1, keepdims=True))
        centered = arr - mean
        spread = np.sqrt(np.einsum("it,it->i", centered, centered) / t)
        centered[spread <= _mean_rounding(spread, np.abs(mean[:, 0]), t)] = 0.0
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
    the streaming form `window_sync` (mean correlation of each agent with
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


#: Bytes of a block of time-major action rows (one row per step), and the
#: fewest rows a block holds: eight float64s fill a 64-byte cache line, so
#: copying a block out writes whole lines of each agent's row of an N x T matrix.
_STEP_BLOCK_BYTES = 2**15
_STEP_BLOCK_MIN_ROWS = 8

#: `CrowdMoments` merges a block as it is when its squared means and its m2 sum to at most
#: _SQUARES_BOUND, and else rescales it to hold no action past 2**_RESCALED_EXP.
_SQUARES_BOUND = 2.0**798
_RESCALED_EXP = 336


def step_block_rows(n: int, steps: int) -> int:
    """Steps in one block of N agents' actions: 32 KB, at least 8, at most `steps`."""
    return min(steps, max(_STEP_BLOCK_MIN_ROWS, _STEP_BLOCK_BYTES // (8 * n)))


class CrowdMoments:
    """Streaming (rho_c, sigma_c) of a crowd's actions, merged block by block.

    `add` takes a k x N block of time-major rows, one row per step, and
    merges its moments into the running ones; `add_repeats` merges k
    copies of one row in O(N); `sync` gives (rho_c, sigma_c) of every
    row added so far. It holds the step count and, per agent, the mean,
    the sum of squared deviations `m2` and the co-moment with the
    aggregate, plus the aggregate's `agg_m2`; the aggregate's mean is the
    sum of the agents' means. Memory is O(N) for any number of steps.
    The result rounds with the block edges; it agrees with the matrix
    form up to roundoff (tested).

    The moments hold the actions times `scale`, a power of two that
    stays 1.0 until the squares of the actions near the float64 limit
    of about 2**1024. `add` checks each block in O(N): a block whose
    means m_i and sums of squared deviations m2_i have
    sum_i (m_i**2 + m2_i) <= 2**798 holds no action past 2**400 (each
    is within sqrt(m2_i) of m_i). A block that fails takes one pass for
    its largest action, and if that passes 2**336, the scale, the
    running moments and the block drop by the power of two that brings
    it below 2**336. So no action held passes 2**400, and no sum of up
    to 2**53 steps of up to 2**40 agents overflows. `sync` divides
    sigma_c by the scale. Scaling by a power of two is exact, so the
    moments keep the bits they would have with an unbounded exponent,
    short of the subnormal range: an action below 2**-1022 / scale
    loses bits.
    """

    def __init__(self, n: int) -> None:
        self.count = 0
        self.mean = np.zeros(n)
        self.m2 = np.zeros(n)
        self.comoment = np.zeros(n)
        self.agg_m2 = 0.0
        self.scale = 1.0

    def add(self, rows: np.ndarray) -> None:
        """Merge a k x N block (Chan, Golub & LeVeque's pairwise update), rescaled if it must be.

        A block whose squares overflow is summed once as it is, and numpy
        reports that overflow unless the caller ignores it, as `run()` and
        `window_sync` do: an `np.errstate` per block would cost more than
        the check itself.
        """
        k = rows.shape[0]
        if k == 0:
            return
        if self.scale != 1.0:
            rows = rows * self.scale
        block = _block_sums(rows)
        squares = float(block[0].dot(block[0])) + float(block[2].sum())  # inf or NaN on an overflow
        if not squares <= _SQUARES_BOUND:  # or NaN
            peak = float(np.abs(rows).max())
            exp = _RESCALED_EXP - math.frexp(peak)[1]
            if exp < 0 and peak < math.inf:  # a block with inf or NaN merges as it is
                self._rescale(exp)
                block = _block_sums(np.ldexp(rows, exp))
        self._merge(*block)

    def add_repeats(self, row: np.ndarray, k: int) -> None:
        """Merge k copies of one finite row: the bits of `add(np.tile(row, (k, 1)))`, in O(N).

        In `add`, such a block's mean is the row, so its centred rows, their
        aggregate and every sum of their products are exact +0.0, and only
        the delta terms are left. They are still added to +0.0, so that a
        -0.0 term rounds as it does in `add`. An inf or NaN in the row
        would make its centred rows NaN in `add`, so the row must be finite.
        The row is not checked against the scale's bound: it must be no
        larger than a row `add` has merged (in `run()`, it is the last row
        of the last block merged).
        """
        if k:
            self._merge(row * self.scale if self.scale != 1.0 else row, k, 0.0, 0.0, 0.0)

    def _rescale(self, exp: int) -> None:
        """Multiply the scale and the running moments' actions by 2**exp."""
        self.scale = math.ldexp(self.scale, exp)
        np.ldexp(self.mean, exp, out=self.mean)
        for sums in (self.m2, self.comoment):
            np.ldexp(sums, 2 * exp, out=sums)
        self.agg_m2 = math.ldexp(self.agg_m2, 2 * exp)

    def _merge(self, block_mean, k: int, m2, comoment, agg_m2: float) -> None:
        """Merge a block of k steps with these mean and centred sums into the running moments."""
        total = self.count + k
        delta = block_mean - self.mean
        d_agg = float(delta.sum())
        weight = self.count * k / total
        self.mean += delta * (k / total)
        self.m2 += m2 + delta * delta * weight
        self.comoment += comoment + delta * (d_agg * weight)
        self.agg_m2 += agg_m2 + d_agg * d_agg * weight
        self.count = total

    def sync(self) -> tuple[float, float]:
        """(rho_c, sigma_c) of the rows added so far; (0, 0) before any.

        With x_i the centred actions and dS = sum_i x_i the aggregate,
        sigma_c = std(dS) and rho_c = (1/N) sum_i cov(x_i, dS) / (sigma_i sigma_c),
        where constant agents (sigma_i within the rounding of their mean)
        count as 0. An aggregate that is constant up to roundoff gives (0, 0).
        """
        n, t = self.m2.shape[0], self.count
        if not t:
            return 0.0, 0.0
        sigma_c = float(np.sqrt(self.agg_m2 / t))  # in the units of `scale`
        sigma = np.sqrt(self.m2 / t)
        rounding = _mean_rounding(sigma, np.abs(self.mean), t)
        if _constant_up_to_roundoff(sigma_c, sigma, rounding):
            return 0.0, 0.0
        rho = np.zeros(n)
        np.divide(self.comoment / t, sigma * sigma_c, out=rho, where=sigma > rounding)
        return float(np.clip(rho.sum() / n, -1.0, 1.0)), sigma_c / self.scale


def _block_sums(rows: np.ndarray) -> tuple:
    """(mean, k, m2, comoment, agg_m2) of a k x N block, centred on its mean (constant agents on their first value)."""
    k = rows.shape[0]
    block_mean = rows.sum(axis=0) / k
    np.copyto(block_mean, rows[0], where=(rows == rows[0]).all(axis=0))  # constant agents
    centred = rows - block_mean
    agg = centred.sum(axis=1)
    return block_mean, k, np.einsum("ti,ti->i", centred, centred), agg @ centred, float(agg @ agg)


def window_sync(actions) -> tuple[float, float]:
    """(rho_c, sigma_c) of an N x w window, streamed through `CrowdMoments`.

    The window's columns are merged in blocks of `step_block_rows(N, w)`
    steps, the blocks of a run's step loop, so a window of a whole run
    gives the bits of `ScenarioResult.moments.sync()`. Each block is a
    C-contiguous copy: on a transposed view, numpy's sums round differently.
    """
    arr = np.asarray(actions, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"window must be N x w with N, w >= 1, got shape {arr.shape}")
    n, w = arr.shape
    moments = CrowdMoments(n)
    block_rows = step_block_rows(n, w)
    with np.errstate(over="ignore", invalid="ignore"):  # a block whose squares overflow is rescaled
        for s in range(0, w, block_rows):
            moments.add(np.ascontiguousarray(arr[:, s : s + block_rows].T))
    return moments.sync()


_UNIT_ROUNDOFF = 2.0**-53


def _gamma(k: int) -> float:
    """gamma_k = k*u / (1 - k*u), the relative error bound of a recursive sum of k + 1 terms."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _mean_rounding(sigma: np.ndarray, abs_mean: np.ndarray, steps: int) -> np.ndarray:
    """gamma_T * (|mean_i| + sigma_i): how far rounding moves an agent's mean of T steps (module docstring)."""
    return _gamma(steps) * (abs_mean + sigma)


def _constant_up_to_roundoff(sigma_c: float, sigma: np.ndarray, mean_rounding: np.ndarray) -> bool:
    """Whether sigma_c <= gamma_N * sqrt(N * sum_i sigma_i**2) + sum_i mean_rounding_i (module docstring)."""
    n = sigma.shape[0]
    return sigma_c <= _gamma(n) * float(np.sqrt(n * (sigma @ sigma))) + float(mean_rounding.sum())


def covered_steps(O) -> int:
    """Steps a run's metrics cover, given its O column: every step but a last one at which O is inf or NaN."""
    return len(O) - 1 if len(O) and not math.isfinite(O[-1]) else len(O)


def scaled_to_fit(stat, values: np.ndarray) -> tuple:
    """(stat(values * 2**-e), e), where e = 0 unless a sum inside `stat(values)` overflows.

    `stat` takes an array and gives a tuple of floats, each inf or NaN
    only where a sum of the finite values in it overflowed, such as a sum
    of magnitudes or a standard deviation. Its first try runs with numpy's
    overflow warnings off, so that nothing is printed. Where one of them
    is not finite while every value is, e is the exponent of the largest
    |value|: the scaled values lie within 1, so their sums fit, and `stat`
    is taken on them. Scaling by a power of two is exact short of the
    subnormal range, so a ratio of the sums keeps its value, and a
    statistic of degree 1, such as a standard deviation, is the result
    times 2**e.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = stat(values)
    if all(map(math.isfinite, out)) or not np.isfinite(values).all():
        return out, 0
    e = math.frexp(float(np.abs(values).max()))[1]
    return stat(np.ldexp(values, -e)), e


def trendiness(dO_series) -> float:
    """Directional persistence of a window: |sum dO| / sum |dO|, in [0, 1].

    1 on a monotone window, 0 on exact cancellation, a quiet window or
    a window with a NaN increment. Where the sums of finite increments
    overflow, they are taken on the increments scaled by a power of two
    (`scaled_to_fit`).
    """
    arr = np.asarray(dO_series, dtype=np.float64)
    if arr.size < 1:
        raise ValueError("trendiness needs at least one increment")
    sums, _ = scaled_to_fit(lambda x: (x.sum(), np.abs(x).sum()), arr)
    return float(order_ratio(*sums))


# ---------------------------------------------------------------------------
# Window report
# ---------------------------------------------------------------------------

@dataclass
class SyncReport:
    """Metrics for one analysis window [start, stop) of a run.

    rho_c and sigma_c come from the streaming form (`CrowdMoments`); both
    are 0 when the window's aggregate action is constant. sigma_o is
    a * sigma_c. `sync_report` builds the report of a window of actions,
    and `scenarios.summarize` the whole-run one, from the run's moments.
    The per-step order parameter is not repeated here: it is the run's
    `r_instant`.
    """

    start: int
    stop: int
    rho_c: float
    sigma_c: float
    sigma_o: float
    t_d: float

    @classmethod
    def from_sync(cls, sync: tuple[float, float], dO_window, a: float, start: int = 0) -> "SyncReport":
        """The report of (rho_c, sigma_c) = `sync` on the steps of `dO_window` from `start`.

        T_d of a window without steps is 0.
        """
        rho_c, sigma_c = sync
        t_d = trendiness(dO_window) if len(dO_window) else 0.0
        return cls(start, start + len(dO_window), rho_c, sigma_c, a * sigma_c, t_d)


def sync_report(
    actions: np.ndarray,
    dO_window: np.ndarray,
    a: float,
    start: int = 0,
) -> SyncReport:
    """Summarize one window of per-agent actions and observation increments.

    `actions` is N x w and `dO_window` holds the window's w observation
    increments. Memory is O(N) beyond the window; no N x N matrix is
    built. A window with a constant aggregate (fully quiescent, or live
    agents that cancel exactly) reports rho_c = sigma_c = 0 rather than
    raising, so pipelines stay total; the raw crowd_correlation op still
    refuses such panels.
    """
    sync = window_sync(actions)  # checks that actions is N x w
    w = np.shape(actions)[1]
    if len(dO_window) != w:
        raise ValueError(f"dO_window must hold the window's {w} increments, got {len(dO_window)}")
    return SyncReport.from_sync(sync, dO_window, a, start)
