"""Full simulations: force profiles, the canonical step loop, sweeps.

The step loop composes the other modules in a fixed causal order. For
each step t:

  1. the switch rule sets the reactive count from the trailing |dO|
     window ending at the previous step,
  2. agents respond to this step's force increment dE(t) and the
     previous observation increment (the one-step delayed feedback),
  3. actions aggregate in ascending agent order into dS, and the
     observation updates (dO = a*dS, O += dO).

Actions dS_i = c_i*dE + b_i*dO_prev (+ noise) are built in a block of
consecutive steps, one row per step. The block is a time-major array of
32 KB, but at least 8 rows (for N > 512) and at most the run's length,
as `metrics.step_block_rows` declares; it starts as c_i*dE(t) for all
its steps in one outer product. A step adds b_i*dO_prev and its noise
to its own row in place and takes sum dS_i, which it needs for dO. When
the block is full, and once when the run ends or diverges, its rows are
merged into the run's `CrowdMoments`, copied into the N x T action
matrix if the caller keeps one, and sum |dS_i| is taken for all of them
in one row-wise `ordered_sum`. These are the floating-point operations
of a one-step-at-a-time loop in the same order, so no bit of the
trajectory or of the action matrix depends on the block size. The
moments do: a merge rounds differently from a longer block, so the
whole-run rho_c and sigma_c move in their last bits with it.
`window_sync` merges a window in blocks of the same rule, so on the
kept matrix of the steps in the moments it gives their bits.

The loop records only what a step decides: its dS, N_H and action row.
It keeps dO and O as scalars, for the feedback and the ceiling. When
N_H changes, it sets the couplings b_i of only the agents whose place
in switch priority lies between the old count and the new one. After
the loop, the other columns are derived once with the loop's
floating-point operations: dO = a*dS, O as the left-to-right sum of dO
from +0.0 (so a first dO of -0.0 gives O = +0.0, as in the loop), and
B (the ordered sum of the couplings), a*B and its stability class once
per distinct N_H.

Exact repeats. A step is a function of the trailing |dO| window (which
gives N_H), dO_prev, dE(t) and the noise. So in a crowd without noise,
once the last `rule.window` + 1 steps all have dO with the same bits and
the window is full (the last step's index is at least `rule.window`),
the next step with dE of the same bits as the last one's repeats it bit
for bit: the same action row, dS and N_H, and O grows by the same dO.
This is the crowd that has settled: a contracting crowd at rest
(dO = 0) or a crowd whose loop gain is pinned at 1 carrying a constant
dO. The loop counts such a streak of equal dO (0.0 and -0.0 differ; a
NaN matches nothing). Before each block, if the streak holds, it fills
every whole block before the one that holds the next step whose dE bits
differ (found by a binary search in the run's change points of dE), or
every block to the run's end, with the last computed step: its action
row, dS and N_H. O is taken by `np.add.accumulate`, the same sequential
additions as the loop's O += dO; if it would cross the ceiling, the fill
stops at the edge of the block that holds the crossing, and that block
is computed, so the loop finds the divergence as it would have. So a
block is either computed or filled whole, and the block edges stay where
N and T put them. A filled block costs O(N): it merges through
`CrowdMoments.add_repeats`, which gives the bits of `add` on its rows,
and the fill takes sum |dS_i| of the row once.

Runs are single-threaded and bit-deterministic per (config, rule,
profile, seed). `forced_ratio_samples` draws its trials on threads, with
bits that do not depend on them. Amplifying configurations are expected
to blow up; a run truncates once |O| crosses the divergence ceiling and
is marked diverged rather than failing.

The loop records the trajectory and sum |dS_i|; `order_ratio` turns the
sums into the per-step order parameter after the loop. `summarize`
reads the whole-run rho_c and sigma_c from the moments, and
`window_reports` computes per-window ones from the kept action matrix
for callers that ask for them.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .dynamics import (
    AGENT_COLUMNS,
    CrowdConfig,
    NoNoise,
    UniformNoise,
    WienerNoise,
    check_fields,
    ordered_sum,
    ruled,
)
from .metrics import CrowdMoments, SyncReport, order_ratio, step_block_rows, sync_report
from .rng import make_generator
from .switching import (
    Stability,
    SwitchRule,
    classify_stability,
    switch_priority,
    update_reactive_count,
)

SWEEP_PARAMS = ("a", "b_high", "b_low", "n", "noise_amp", "saturation_scale")

DEFAULT_DIVERGENCE_CEILING = 1e12

#: Uniform draws per block in `forced_ratio_samples`: 512 KB. A block has at least 4
#: rows, so it holds max(_DRAW_BLOCK, 4N) draws, and each of the min(blocks, usable CPUs)
#: drawing threads holds one block: the sampler's peak grows with the CPU count.
_DRAW_BLOCK = 2**16


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one, else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# External-force profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForceProfile:
    """A deterministic series of external-force increments dE(t)."""

    kind: str
    length: int = ruled(lambda n: n >= 1, "profile length must be >= 1, got {}")
    increments: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_length(self.length)
        if self.increments.shape != (self.length,):
            raise ValueError(
                f"profile must emit exactly {self.length} increments, got {self.increments.shape}"
            )


def zero_profile(length: int) -> ForceProfile:
    """No external force at all."""
    _check_length(length)
    return ForceProfile("zero", length, np.zeros(length))


def step_profile(length: int, height: float, onset: int) -> ForceProfile:
    """A single permanent level shift: dE = height at `onset`, 0 elsewhere."""
    _check_length(length)
    if not 0 <= onset < length:
        raise ValueError(f"onset {onset} outside [0, {length})")
    inc = np.zeros(length)
    inc[onset] = height
    return ForceProfile("step", length, inc, {"height": height, "onset": onset})


def ramp_profile(length: int, slope: float, start: int, end: int) -> ForceProfile:
    """Constant increments `slope` for steps in [start, end)."""
    _check_length(length)
    if not 0 <= start < length:
        raise ValueError(f"start {start} outside [0, {length})")
    if not start < end <= length:
        raise ValueError(f"end {end} outside ({start}, {length}]")
    inc = np.zeros(length)
    inc[start:end] = slope
    return ForceProfile("ramp", length, inc, {"slope": slope, "start": start, "end": end})


def bubble_profile(
    length: int,
    build_slope: float,
    peak_step: int,
    crash_slope: float,
    stabilize_step: int,
    confusion_scale: float = 0.0,
    confusion_decay: float = 0.7,
    confusion_wobble: float = 0.35,
) -> ForceProfile:
    """A story that builds, gets invalidated, and noisily settles.

    Positive increments `build_slope` on [0, peak_step), the crash
    `crash_slope` (negative) on [peak_step, stabilize_step), then an
    optional deterministic damped-alternation tail ("confusion") whose
    increments sum to confusion_scale * |crash total|, then zeros. The
    tail is what lets a marginally-coupled crowd (loop gain pinned at 1)
    shed its momentum: with gain exactly 1 the observation increment is
    preserved forever, so only opposing external increments can unlock
    the feedback loop.
    """
    _check_length(length)
    if not 0 < peak_step < length:
        raise ValueError(f"peak_step {peak_step} outside (0, {length})")
    if not peak_step < stabilize_step < length:
        raise ValueError(f"stabilize_step {stabilize_step} outside ({peak_step}, {length})")
    if not build_slope > 0:
        raise ValueError(f"build_slope must be > 0, got {build_slope}")
    if not crash_slope < 0:
        raise ValueError(f"crash_slope must be < 0, got {crash_slope}")
    if not 0.0 <= confusion_scale < 1.0:
        raise ValueError(f"confusion_scale must be in [0, 1), got {confusion_scale}")
    if not 0.0 < confusion_decay < 1.0:
        raise ValueError(f"confusion_decay must be in (0, 1), got {confusion_decay}")
    if not 0.0 <= confusion_wobble < 1.0:
        raise ValueError(f"confusion_wobble must be in [0, 1), got {confusion_wobble}")
    inc = np.zeros(length)
    inc[:peak_step] = build_slope
    inc[peak_step:stabilize_step] = crash_slope
    if confusion_scale > 0.0:
        crash_total = crash_slope * (stabilize_step - peak_step)
        target = confusion_scale * abs(crash_total)
        q, w = confusion_decay, confusion_wobble
        # sum of s*q^j*(1 + w*(-1)^j) over j >= 0 is s*(1/(1-q) + w/(1+q))
        s = target / (1.0 / (1.0 - q) + w / (1.0 + q))
        j = np.arange(length - stabilize_step, dtype=np.float64)
        inc[stabilize_step:] = s * q**j * (1.0 + w * np.where(j % 2 == 0, 1.0, -1.0))
    return ForceProfile(
        "bubble",
        length,
        inc,
        {
            "build_slope": build_slope,
            "peak_step": peak_step,
            "crash_slope": crash_slope,
            "stabilize_step": stabilize_step,
            "confusion_scale": confusion_scale,
            "confusion_decay": confusion_decay,
            "confusion_wobble": confusion_wobble,
        },
    )


def explicit_profile(length: int, series: Sequence[float]) -> ForceProfile:
    """Caller-supplied increments, verbatim."""
    _check_length(length)
    arr = np.asarray(series, dtype=np.float64)
    if arr.shape != (length,):
        raise ValueError(f"explicit series must have {length} entries, got {arr.shape}")
    return ForceProfile("explicit", length, arr, {"series": [float(x) for x in arr]})


#: The builder of each profile kind. A builder's parameters after `length`
#: are the kind's `profile.*` file keys, so renaming one renames a file key.
PROFILE_BUILDERS = {
    "zero": zero_profile,
    "step": step_profile,
    "ramp": ramp_profile,
    "bubble": bubble_profile,
    "explicit": explicit_profile,
}
PROFILE_KINDS = tuple(PROFILE_BUILDERS)


def build_profile(kind: str, params: dict, length: int) -> ForceProfile:
    """Dispatch to the named profile builder."""
    if kind not in PROFILE_BUILDERS:
        raise ValueError(f"unknown profile kind {kind!r}; valid kinds: {', '.join(PROFILE_KINDS)}")
    return PROFILE_BUILDERS[kind](length, **params)


def _check_length(length: int) -> None:
    check_fields(ForceProfile, {"length": length})


# ---------------------------------------------------------------------------
# Scenario spec and result
# ---------------------------------------------------------------------------

_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")
_NAME_CHARS = _NAME_START | frozenset(".-")


def is_safe_name(name: str) -> bool:
    """Whether `name` can prefix output file names: [A-Za-z0-9_][A-Za-z0-9._-]*."""
    return bool(name) and name[0] in _NAME_START and set(name) <= _NAME_CHARS


@dataclass
class ScenarioSpec:
    """Everything needed to reproduce one run.

    `name` prefixes the output files, so it must be a safe file-name
    token (see `is_safe_name`); it can never point outside `--out`.
    It is keyword-only. The run length is `profile.length` (a file's
    `run.steps`). `metric_window` and `overlap` are the arguments of
    `window_reports` for this scenario; no CLI command reads them.
    """

    name: str = ruled(
        is_safe_name,
        "scenario name must be letters, digits, '_', '.' and '-', not starting with '.' or '-'; got {!r}",
        default="scenario",
        kw_only=True,
    )
    config: CrowdConfig
    rule: SwitchRule
    profile: ForceProfile
    seed: int = ruled(lambda s: s >= 0, "seed must be >= 0, got {}", default=0)
    metric_window: int | None = ruled(
        lambda w: w is None or w >= 1, "metric_window must be None or >= 1, got {}", default=None
    )
    overlap: bool = ruled(lambda o: isinstance(o, bool), "overlap must be a bool, got {!r}", default=False)
    divergence_ceiling: float = ruled(
        lambda c: 0 < c < math.inf, "divergence_ceiling must be finite and > 0, got {}",
        default=DEFAULT_DIVERGENCE_CEILING,
    )

    def __post_init__(self) -> None:
        check_fields(ScenarioSpec, vars(self))


@dataclass
class ScenarioResult:
    """Trajectory of one run, as parallel arrays.

    Arrays cover the steps actually executed; a diverged run stops at
    `truncated_at` (inclusive). `agent_actions` is the N x steps matrix
    of per-agent increments, or None when the run was made with
    `keep_actions=False`. `moments` holds the whole-run moments of the
    actions, without the step at which a diverging O became inf or NaN
    (its `count` is the number of steps merged).
    """

    config: CrowdConfig
    rule: SwitchRule
    profile: ForceProfile
    seed: int
    t: np.ndarray
    dE: np.ndarray
    E: np.ndarray
    dS: np.ndarray
    S: np.ndarray
    dO: np.ndarray
    O: np.ndarray
    n_reactive: np.ndarray
    b_total: np.ndarray
    ab: np.ndarray
    r_instant: np.ndarray
    stability_trace: list[Stability]
    agent_actions: np.ndarray | None
    moments: CrowdMoments
    peak_ratio: float
    final_ratio: float
    diverged: bool
    truncated_at: int | None

    @property
    def steps_run(self) -> int:
        return len(self.t)


# ---------------------------------------------------------------------------
# The canonical loop
# ---------------------------------------------------------------------------

def run(
    config: CrowdConfig,
    rule: SwitchRule,
    profile: ForceProfile,
    seed: int = 0,
    *,
    divergence_ceiling: float = DEFAULT_DIVERGENCE_CEILING,
    pinned_reactive: int | None = None,
    initial_dO: float = 0.0,
    keep_actions: bool = True,
) -> ScenarioResult:
    """Execute the canonical step loop for the profile's full length.

    `pinned_reactive` bypasses the switch rule and holds the reactive
    count fixed (threshold experiments); `initial_dO` seeds the
    endogenous feedback with a nonzero observation increment. With
    `keep_actions=False` no N x T action matrix is built; the result's
    moments still give the whole-run metrics.

    `seed` and `divergence_ceiling` must meet the rules of the
    `ScenarioSpec` fields of those names. A run stops, marked diverged,
    at the first step whose |O| exceeds `divergence_ceiling` or is NaN.

    The loop records each step's dS and N_H, and derives the other
    columns from them once it ends. A crowd without noise whose dO has
    repeated bit for bit over a full switch-rule window repeats its last
    step while dE keeps its bits; the whole blocks of such steps are
    filled in bulk, at O(N) a block. Every bit is as a step-by-step loop
    gives it (module docstring).

    Noise models: per-agent uniform noise enters each agent's action;
    aggregate drift+diffusion noise enters the observation update and is
    attributed equally across agents so dS = sum dS_i and dO = a*dS stay
    exact. With no noise the generator is never consumed.
    """
    n, a, dt = config.n, config.a, config.dt
    if pinned_reactive is not None and not 0 <= pinned_reactive <= n:
        raise ValueError(f"pinned_reactive={pinned_reactive} outside [0, {n}]")
    check_fields(ScenarioSpec, {"seed": seed, "divergence_ceiling": divergence_ceiling})
    b_low, b_high, c_vec, amp = config.b_low, config.b_high, config.c, config.noise_amp
    priority = switch_priority(b_high)

    model = config.noise_model
    uniform = isinstance(model, UniformNoise)
    wiener = isinstance(model, WienerNoise)
    rng = make_generator(seed)

    T = profile.length
    dE_arr = profile.increments
    out_dS = np.zeros(T)
    out_nh = np.zeros(T, dtype=np.intp)
    out_abs = np.zeros(T)
    actions = np.zeros((n, T)) if keep_actions else None
    moments = CrowdMoments(n)

    # One row of `block` per step: its actions, built in place (module docstring).
    block_rows = step_block_rows(n, T)
    block = np.empty((block_rows, n))
    fed_back = np.empty(n)

    history: deque[float] = deque(maxlen=rule.window)
    dO_prev = initial_dO
    O = 0.0
    n_h = pinned_reactive
    b_eff = b_low.copy()
    coupled_for = 0  # the N_H that b_eff is built for
    diverged = False
    steps_run = T

    # Exact repeats (module docstring): `streak` counts the steps whose dO has
    # the bits of the step before; dE is compared by its bits, and a fill stops
    # before the block that holds the next step whose dE bits change.
    steady = isinstance(model, NoNoise)
    window = rule.window
    dE_bits = np.ascontiguousarray(dE_arr, dtype=np.float64).view(np.int64)
    dE_changes = np.flatnonzero(dE_bits[1:] != dE_bits[:-1]) + 1
    streak = 0

    # A diverging run overflows on purpose; the ceiling check below reports it.
    # Only the diverging step can hold inf or NaN actions: when O is not finite,
    # the block that ends at the run's last step leaves that step out of the moments.
    with np.errstate(over="ignore", invalid="ignore"):
        t0 = 0
        while t0 < steps_run:
            if streak >= window and t0 > window:
                # the |dO| window is full and constant, so each next step with
                # dE's bits repeats the last one: fill the whole blocks before
                # the block of the next dE change, or to the run's end
                change = np.searchsorted(dE_changes, t0)
                stop = T if change == len(dE_changes) else int(dE_changes[change])
                if stop < T:  # the block that holds the change is computed
                    stop -= (stop - t0) % block_rows
                filled_O = np.add.accumulate(np.r_[O, np.full(stop - t0, dO_prev)])  # O += dO, step by step
                over = np.flatnonzero(~(np.abs(filled_O[1:]) <= divergence_ceiling))
                if over.size:  # the block that crosses the ceiling is computed, and diverges
                    stop = t0 + int(over[0]) // block_rows * block_rows
                if stop > t0:
                    O = float(filled_O[stop - t0])
                    if actions is not None:
                        actions[:, t0:stop] = last_row[:, None]
                    out_dS[t0:stop] = dS
                    out_nh[t0:stop] = n_h
                    out_abs[t0:stop] = ordered_sum(np.abs(last_row))
                    for edge in range(t0, stop, block_rows):  # merged at the loop's block edges
                        moments.add_repeats(last_row, min(edge + block_rows, stop) - edge)
                    t0 = stop
                    continue
            t_end = min(t0 + block_rows, T)
            rows = np.multiply.outer(dE_arr[t0:t_end], c_vec, out=block[: t_end - t0])
            for t, ds_i in enumerate(rows, t0):
                if pinned_reactive is None:
                    n_h = update_reactive_count(history, rule, n)
                if n_h != coupled_for:
                    # only the agents in priority between the two counts switch
                    switched = priority[min(n_h, coupled_for) : max(n_h, coupled_for)]
                    b_eff[switched] = (b_high if n_h > coupled_for else b_low)[switched]
                    coupled_for = n_h
                ds_i += np.multiply(b_eff, dO_prev, out=fed_back)
                if uniform:
                    ds_i += rng.uniform(-1.0, 1.0, n) * amp
                elif wiener:
                    agg_eps = model.mu * dt + model.sigma * math.sqrt(dt) * float(rng.standard_normal())
                    ds_i += agg_eps / (a * n)
                dS = ordered_sum(ds_i)
                dO = a * dS
                O += dO
                out_dS[t] = dS
                out_nh[t] = n_h

                history.append(dO)
                if steady:  # 0.0 and -0.0 differ, and a NaN matches nothing
                    same = dO == dO_prev and math.copysign(1.0, dO) == math.copysign(1.0, dO_prev)
                    streak = streak + 1 if same else 0
                dO_prev = dO
                if not abs(O) <= divergence_ceiling:  # a NaN O diverges too
                    diverged = True
                    steps_run = t + 1
                    break
            t_stop = min(t_end, steps_run)
            done = rows[: t_stop - t0]  # every row of the block, or up to the diverging step
            if actions is not None:
                actions[:, t0:t_stop] = done.T
            moments.add(done[:-1] if t_stop == steps_run and not math.isfinite(O) else done)
            last_row = done[-1].copy()  # the row a fill repeats, before |.| overwrites it
            out_abs[t0:t_stop] = ordered_sum(np.abs(done, out=done))
            t0 = t_end

        # The columns that dS and N_H determine, derived once (module docstring).
        dS, n_reactive = out_dS[:steps_run], out_nh[:steps_run]
        dO = a * dS
        E, S = np.cumsum(dE_arr[:steps_run]), np.cumsum(dS)
        O_from_zero = np.zeros(steps_run + 1)
        O_from_zero[1:] = dO
        np.add.accumulate(O_from_zero, out=O_from_zero)  # the loop's O += dO, from +0.0
        # the first step of each run of steps with one N_H, and the couplings'
        # sum once per distinct N_H
        coupled = np.r_[0, np.flatnonzero(n_reactive[1:] != n_reactive[:-1]) + 1]
        lengths = np.diff(coupled, append=steps_run).tolist()
        run_counts = n_reactive[coupled].tolist()
        rank = _switch_rank(config)
        b_sums = {k: ordered_sum(np.where(rank < k, b_high, b_low)) for k in set(run_counts)}
        b_total = np.repeat([b_sums[k] for k in run_counts], lengths)
        ab = a * b_total
    stability: list[Stability] = []
    for gain, length in zip(ab[coupled].tolist(), lengths):
        stability += [classify_stability(gain)] * length

    return ScenarioResult(
        config=config,
        rule=rule,
        profile=profile,
        seed=seed,
        t=np.arange(steps_run),
        dE=dE_arr[:steps_run].copy(),
        E=E,
        dS=dS,
        S=S,
        dO=dO,
        O=O_from_zero[1:],
        n_reactive=n_reactive,
        b_total=b_total,
        ab=ab,
        r_instant=order_ratio(dS, out_abs[:steps_run]),
        stability_trace=stability,
        agent_actions=None if actions is None else actions[:, :steps_run],
        moments=moments,
        peak_ratio=float(n_reactive.max()) / n,
        final_ratio=float(n_reactive[-1]) / n,
        diverged=diverged,
        truncated_at=steps_run - 1 if diverged else None,
    )


def _switch_rank(config: CrowdConfig) -> np.ndarray:
    """rank[i] is agent i's place in switch priority.

    With n_h agents reactive the couplings are np.where(rank < n_h, b_high, b_low).
    """
    rank = np.empty(config.n, dtype=np.intp)
    rank[switch_priority(config.b_high)] = np.arange(config.n)
    return rank


def window_reports(
    result: ScenarioResult, window: int | None = None, overlap: bool = False
) -> list[SyncReport]:
    """Metric reports of a run's windows of `window` steps (None: the whole run).

    The whole-run report is the one `summarize` gives, read from the
    run's moments. Windows start every step when `overlap`, else every
    `window` steps; a window longer than the run is cut to it. Windows
    need the run's action matrix (`run(..., keep_actions=True)`).
    """
    check_fields(ScenarioSpec, {"metric_window": window})
    T = result.steps_run
    if window is None:
        return [_whole_run_report(result)]
    if result.agent_actions is None:
        raise ValueError("window reports need the action matrix; run with keep_actions=True")
    w = min(window, T)
    starts = range(0, T - w + 1) if overlap else range(0, T - w + 1, w)
    return [
        sync_report(result.agent_actions[:, s : s + w], result.dO[s : s + w], result.config.a, start=s)
        for s in starts
    ]


def _whole_run_report(result: ScenarioResult) -> SyncReport:
    """The report of the steps in the run's moments: all, or all but a non-finite last one."""
    k = result.moments.count
    return SyncReport.from_sync(result.moments.sync(), result.dO[:k], result.config.a)


def run_spec(spec: ScenarioSpec, seed: int | None = None, **overrides) -> ScenarioResult:
    """Run a parsed scenario; keyword overrides win over the spec."""
    kwargs = {"divergence_ceiling": spec.divergence_ceiling, **overrides}
    return run(spec.config, spec.rule, spec.profile, spec.seed if seed is None else seed, **kwargs)


def aggregate_trajectory(
    a: float,
    b_total: float,
    c_total: float,
    dE: Sequence[float] | np.ndarray,
    dO0: float = 0.0,
) -> np.ndarray:
    """Fast aggregate-path recursion dO(t+1) = a*C*dE(t) + a*B*dO(t).

    Fixed coupling, no noise; returns the dO series. Must agree with the
    per-agent loop at matching coupling (tested).
    """
    dE = np.asarray(dE, dtype=np.float64)
    out = np.empty(dE.shape[0])
    dO = dO0
    ac = a * c_total
    ab = a * b_total
    for t in range(dE.shape[0]):
        dO = ac * dE[t] + ab * dO
        out[t] = dO
    return out


# ---------------------------------------------------------------------------
# Forced-ratio experiments (order-parameter curves)
# ---------------------------------------------------------------------------

def forced_ratio_samples(
    config: CrowdConfig,
    ratio: float,
    dO_drive: float = 1.0,
    noise_amp: float | np.ndarray = 0.0,
    trials: int = 1,
    seed: int = 0,
) -> np.ndarray:
    """Order parameter of one driven step at a pinned reactive fraction.

    Bypasses the switch rule: the first round(ratio*N) agents in switch
    priority are reactive, the rest normal. Each trial drives one step
    with observation increment `dO_drive` (finite), zero external force,
    and i.i.d. uniform noise of half-width `noise_amp` (one value, or one
    per agent, under the crowd's noise_amp rule); returns the per-trial
    order parameters. A trial whose sum of |actions| overflows is
    refused with a ValueError. `seed` must meet the rule of the
    `ScenarioSpec` field of that name.

    The trials are drawn as one stream, `make_generator(seed).uniform`
    of shape (trials, N), cut into blocks of whole rows that threads draw
    at the same time. A block starts at a multiple of 4 rows, and Philox
    gives 4 draws per counter step, so the block's copy of the stream is
    advanced to its first draw exactly; each row is summed alone. So no
    bit of the result depends on the blocks or the thread count.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not math.isfinite(dO_drive):
        raise ValueError(f"dO_drive must be finite, got {dO_drive}")
    check_fields(ScenarioSpec, {"seed": seed})
    replace(config, noise_amp=noise_amp)  # raises if noise_amp breaks the crowd's column rule
    n = config.n
    n_h = min(int(math.floor(ratio * n + 0.5)), n)
    with np.errstate(over="ignore"):  # an action that overflows fails the check in `draw`
        base = np.where(_switch_rank(config) < n_h, config.b_high, config.b_low) * dO_drive

    out = np.empty(trials)
    rows = 4 * max(1, _DRAW_BLOCK // (4 * n))

    def draw(start: int) -> None:
        stop = min(start + rows, trials)
        rng = make_generator(seed)
        rng.bit_generator.advance(start * n // 4)
        with np.errstate(over="ignore", invalid="ignore"):  # per thread; the check below reports it
            acts = rng.uniform(-noise_amp, noise_amp, size=(stop - start, n))
            acts += base  # in place: one block-sized array per thread
            sums = acts.sum(axis=1)
            magnitudes = np.abs(acts, out=acts).sum(axis=1)
        if not np.isfinite(magnitudes).all():  # sum |x| bounds |sum x|: both are finite or this is not
            raise ValueError(f"dO_drive={dO_drive:g} overflows the sum of a trial's actions")
        out[start:stop] = order_ratio(sums, magnitudes)

    starts = range(0, trials, rows)
    with ThreadPoolExecutor(min(len(starts), _usable_cpus())) as pool:
        list(pool.map(draw, starts))
    return out


# ---------------------------------------------------------------------------
# Run summaries and parameter sweeps
# ---------------------------------------------------------------------------

@dataclass
class RunSummary:
    """One-row digest of a run, the unit emitted by sweeps and the CLI.

    `name` is a table cell, and table cells are not quoted, so it holds
    no comma, quote or line break.
    """

    name: str = ruled(
        lambda name: not set(name) & set(',"\r\n'), "run name must hold no comma, quote, CR or LF; got {!r}"
    )
    steps_run: int
    diverged: bool
    truncated_at: int | None
    seed: int
    peak_O: float
    final_O: float
    peak_ratio: float
    final_ratio: float
    mean_R: float
    rho_c: float
    sigma_c: float
    sigma_o: float
    t_d: float
    stability_final: Stability

    def __post_init__(self) -> None:
        check_fields(RunSummary, vars(self))


def summarize(result: ScenarioResult, name: str = "") -> RunSummary:
    """Digest a result: whole-run metrics plus divergence bookkeeping.

    rho_c, sigma_c, sigma_o, t_d and mean_R cover the steps the run's
    moments hold: every step, except the step at which a diverging O
    became inf or NaN. So they stay finite for a run that overflows
    (and are 0 when that was its first step). peak_O and final_O still
    report how O ended, inf or NaN included.
    """
    report = _whole_run_report(result)
    k = report.stop
    return RunSummary(
        name=name,
        steps_run=result.steps_run,
        diverged=result.diverged,
        truncated_at=result.truncated_at,
        seed=result.seed,
        peak_O=float(result.O.max()),
        final_O=float(result.O[-1]),
        peak_ratio=result.peak_ratio,
        final_ratio=result.final_ratio,
        mean_R=float(result.r_instant[:k].mean()) if k else 0.0,
        rho_c=report.rho_c,
        sigma_c=report.sigma_c,
        sigma_o=report.sigma_o,
        t_d=report.t_d,
        stability_final=result.stability_trace[-1],
    )


@dataclass
class SweepPoint:
    value: float
    summary: RunSummary


def apply_sweep_value(
    config: CrowdConfig, rule: SwitchRule, param: str, value: float
) -> tuple[CrowdConfig, SwitchRule]:
    """Return (config, rule) with one named parameter overridden.

    Per-agent parameters (b_high, b_low, noise_amp) are set on every
    agent; resizing n gives every agent agent 0's coefficients.
    """
    _check_sweep_param(param)
    if param == "saturation_scale":
        return config, replace(rule, saturation_scale=float(value))
    if param == "n":
        agent_0 = {name: getattr(config, name)[0] for name in AGENT_COLUMNS}
        return replace(config, n=_crowd_size(value), **agent_0), rule
    return replace(config, **{param: float(value)}), rule


def _check_sweep_param(param: str) -> None:
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}; valid: {', '.join(SWEEP_PARAMS)}")


def _crowd_size(value: float) -> int:
    if not float(value).is_integer():
        raise ValueError(f"sweep values of n must be whole numbers, got {value}")
    return int(value)


def _sweep_one(args) -> SweepPoint:
    (config, rule), param, value, profile, seed, ceiling = args
    result = run(config, rule, profile, seed, divergence_ceiling=ceiling, keep_actions=False)
    return SweepPoint(value=float(value), summary=summarize(result, name=f"{param}={value}"))


def sweep(
    config: CrowdConfig,
    rule: SwitchRule,
    param: str,
    values: Sequence[float],
    profile: ForceProfile,
    seed_policy: str = "fixed",
    seed: int = 0,
    jobs: int = 1,
    divergence_ceiling: float = DEFAULT_DIVERGENCE_CEILING,
) -> list[SweepPoint]:
    """One independent run per value; summaries in input order.

    seed_policy "fixed" reuses `seed` for every run; "per-value" uses
    seed + index. The seed actually used is recorded in each point's summary.
    Runs go to min(jobs, len(values), usable CPUs) worker processes when
    that is more than one; a CPU is usable when the process may run on it.
    Every value is applied, and so checked, before the first run. Only
    a crowd with uniform noise draws noise_amp, so sweeping it is
    refused on any other crowd.
    """
    if seed_policy not in ("fixed", "per-value"):
        raise ValueError(f"seed_policy must be 'fixed' or 'per-value', got {seed_policy!r}")
    _check_sweep_param(param)  # the only check of `param` when there are no values
    if param == "noise_amp" and not isinstance(config.noise_model, UniformNoise):
        model = type(config.noise_model).__name__
        raise ValueError(f"cannot sweep noise_amp: the crowd's noise model is {model}, "
                         "and only uniform noise (crowd.noise = uniform) draws it")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seeds = [seed if seed_policy == "fixed" else seed + i for i in range(len(values))]
    tasks = [
        (apply_sweep_value(config, rule, param, v), param, v, profile, s, divergence_ceiling)
        for v, s in zip(values, seeds)
    ]
    workers = min(jobs, len(tasks), _usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_one, tasks))
    return [_sweep_one(t) for t in tasks]
