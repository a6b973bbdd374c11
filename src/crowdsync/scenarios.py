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
its steps in one outer product. A crowd with noise draws the block's
noise at its start, one row per step: uniform noise as one (rows, N)
`uniform_noise` draw of the half-widths, Wiener noise as one (rows, 1)
normal draw z, each agent's share of the step's shock being
(mu*dt + sigma*sqrt(dt)*z) / (a*N). Philox gives either draw the bits
of one draw per step, in order. Only a crowd with noise builds its
generator; a run without noise never does, so it never loads
`numpy.random`. A step adds
b_i*dO_prev and then its noise row to its own row in place and takes
sum dS_i, which it needs for dO. When the block is full, and once when
the run ends or diverges, its rows are merged into the run's
`CrowdMoments`, copied into the N x T action matrix if the caller keeps
one, and sum |dS_i| is taken for all of them in one row-wise
`ordered_sum`. These are the floating-point operations of a
one-step-at-a-time loop in the same order, so no bit of the
trajectory or of the action matrix depends on the block size. The
moments do: a merge rounds differently from a longer block, so the
whole-run rho_c and sigma_c move in their last bits with it.
`window_sync` merges a window in blocks of the same rule, so on the
kept matrix of the steps in the moments it gives their bits.

The loop records only what a step decides: its dS, N_H and action row.
It keeps dO and O as scalars, for the feedback and the ceiling. Who is
reactive is the run's `SwitchState` (`switching`): each step applies
the switch rule to its trailing dO (through this module's name
`update_reactive_count`, once per computed step of a run whose count is
not pinned), takes the couplings b_i of that count, which the state
rebuilds only when N_H changes, and appends its dO to the trailing dO.
After the loop, the other columns are derived once with the loop's
floating-point operations: dO = a*dS, O as the left-to-right sum of dO
from +0.0 (so a first dO of -0.0 gives O = +0.0, as in the loop), and
B (the ordered sum of the couplings) once per distinct N_H, with a*B
and its stability class once per run of equal N_H (`SwitchState.gains`).

Exact repeats. A step is a function of the trailing |dO| window (which
gives N_H), dO_prev, dE(t) and the noise. So in a crowd without noise,
once the last `rule.window` + 1 steps all have dO with the same bits,
the next step with dE of the same bits as the last one's repeats it bit
for bit: the same action row, dS and N_H, and O grows by the same dO.
This is the crowd that has settled: a contracting crowd at rest (dO = 0)
or a crowd whose loop gain is pinned at 1 carrying a constant dO. The
switch state's trailing dO are those `rule.window` + 1, one more than
the rule reads. Before each block, if they are settled
(`SwitchState.settled`: all there, each with the bits of the newest;
0.0 and -0.0 differ, and a NaN dO has already ended the run), the loop
fills every whole block before the one that holds the next step whose
dE bits differ (found by a binary search in the run's change points of
dE), or every block to the run's end, with the last computed step: its
action row, dS and N_H. O is taken by `np.add.accumulate`, the same
sequential additions as the loop's O += dO; if it would cross the
ceiling, the fill stops at the edge of the block that holds the
crossing, and that block is computed, so the loop finds the divergence
as it would have. So a block is either computed or filled whole, and the
block edges stay where N and T put them. A filled block costs O(N): it
merges through `CrowdMoments.add_repeats`, which gives the bits of `add`
on its rows, and the fill takes sum |dS_i| of the row once.

Runs are single-threaded and bit-deterministic per spec, and a result
carries the spec it ran. `forced_ratio_samples` draws the uniform noise
of a point's trials as `run()` draws it, from the point's own stream
read in order, a block of trials at a time. Each point that draws is one
task on one pool of threads, so no bit depends on the pool; a point
without noise draws nothing. Each pool's module is imported where the
pool is made: the sampler's threads when a point draws, and `sweep`'s
processes (and with them `multiprocessing`) only for more than one
worker; a sweep hands each worker the spec of its point. Amplifying
configurations are expected to blow up; a run truncates once |O|
crosses the divergence ceiling and is marked diverged rather than
failing.

The loop records the trajectory and sum |dS_i|; `order_ratio` turns the
sums into the per-step order parameter after the loop. A run's reports
follow from its result and the spec it carries. `summarize` is the one
reader of the moments: it builds the whole-run report, named after the
spec. `window_reports` computes per-window ones from the kept action
matrix, over the spec's `metric_window` and `overlap`.
"""

from __future__ import annotations

import math
import os
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
from .metrics import CrowdMoments, SyncReport, covered_steps, order_ratio, step_block_rows, sync_report
from .rng import make_generator, uniform_noise
from .switching import Stability, SwitchRule, SwitchState, round_count, update_reactive_count

SWEEP_PARAMS = ("a", "b_high", "b_low", "n", "noise_amp", "saturation_scale")

DEFAULT_DIVERGENCE_CEILING = 1e12

#: Uniform draws per block in `forced_ratio_samples`: 512 KB. A block holds max(1, _DRAW_BLOCK // N)
#: rows, so at most max(_DRAW_BLOCK, N) draws. The points that draw share one pool of
#: min(drawing points, usable CPUs) threads, and each thread holds one block at a time: the
#: sampler's peak grows with the CPU count, not with the number of points.
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

    The tail's q**j is numpy's SIMD `power`, so its bits depend on the
    CPU: on numpy 2.4.6 the AVX-512 loop differs from libm's pow in 95 to
    113 of 2 000 elements, and with AVX-512 dispatch disabled three
    tier-1 pins fail. It is the one exception to the machine-independent
    bits of `dynamics.ordered_sum`. ROADMAP item 12 is the mend; it moves
    bytes that `perfbench/reference.json` pins, so it needs a change that
    may re-pin that reference.
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


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one run: `run(spec)` runs it.

    Every field is checked when the spec is built, and a spec is frozen,
    so a checked field cannot change later; `dataclasses.replace` builds
    a new spec and checks it again. `name` prefixes the output files, so
    it must be a safe file-name token (see `is_safe_name`); it can never
    point outside `--out`. It is keyword-only. The run length is
    `profile.length` (a file's `run.steps`). `metric_window` and `overlap`
    set the windows of this scenario's metric reports (a `metric_window`
    of None is one window of every step); `window_reports` reads them.
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
    """Trajectory of one run of `spec`, as parallel arrays.

    Arrays cover the steps actually executed; a diverged run stops at
    `truncated_at` (inclusive). `agent_actions` is the N x steps matrix
    of per-agent increments, or None when the run was made with
    `keep_actions=False`. `moments` holds the whole-run moments of the
    actions, without the step at which a diverging O became inf or NaN
    (its `count` is the number of steps merged); `summarize` reads them.
    """

    spec: ScenarioSpec
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
    diverged: bool
    truncated_at: int | None

    @property
    def config(self) -> CrowdConfig:
        return self.spec.config

    @property
    def steps_run(self) -> int:
        return len(self.t)


# ---------------------------------------------------------------------------
# The canonical loop
# ---------------------------------------------------------------------------

def run(
    spec: ScenarioSpec,
    *,
    pinned_reactive: int | None = None,
    initial_dO: float = 0.0,
    keep_actions: bool = True,
) -> ScenarioResult:
    """Execute the canonical step loop of `spec` for its profile's full length.

    The spec gives the crowd, the switch rule, the force profile, the
    seed and the divergence ceiling; the result carries it.
    `pinned_reactive` bypasses the switch rule and holds the reactive
    count fixed (threshold experiments); `initial_dO` seeds the
    endogenous feedback with a nonzero observation increment. With
    `keep_actions=False` no N x T action matrix is built; `summarize`
    still gives the whole-run metrics, from the result's moments.

    A run stops, marked diverged, at the first step whose |O| exceeds
    the spec's `divergence_ceiling` or is NaN.

    The loop records each step's dS and N_H, and derives the other
    columns from them once it ends. The run's `SwitchState` holds who is
    reactive: it checks `pinned_reactive` against [0, N], gives the
    couplings of each step's N_H, keeps the trailing dO that the switch
    rule reads, and gives B, a*B and the stability class of each N_H. A
    crowd without noise whose dO has repeated bit for bit over a full
    switch-rule window (the state is settled) repeats its last step
    while dE keeps its bits; the whole blocks of such steps are filled
    in bulk, at O(N) a block. Every bit is as a step-by-step loop gives
    it (module docstring).

    Noise models: per-agent uniform noise enters each agent's action.
    Aggregate drift+diffusion noise enters the observation update, one
    normal draw a step, and is attributed equally across agents so
    dS = sum dS_i and dO = a*dS stay exact. Either is drawn once per
    block for all its steps (module docstring); a run that diverges in
    mid-block leaves the rest of the block's draws unread. With no noise
    the generator is never built, and `numpy.random` is not imported.
    """
    config, rule, profile, divergence_ceiling = spec.config, spec.rule, spec.profile, spec.divergence_ceiling
    n, a, dt = config.n, config.a, config.dt
    # the switch rule reads the last `rule.window` dO; one more tells whether they are exact repeats
    switch = SwitchState(config, rule.window, pinned_reactive)
    c_vec, amp = config.c, config.noise_amp

    model = config.noise_model
    rng = None if isinstance(model, NoNoise) else make_generator(spec.seed)  # only noise draws

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

    dO_prev = initial_dO
    O = 0.0
    n_h = switch.pinned
    diverged = False
    steps_run = T

    # dE is compared by its bits, and a fill stops before the block that holds
    # the next step whose dE bits change.
    dE_bits = np.ascontiguousarray(dE_arr, dtype=np.float64).view(np.int64)
    dE_changes = np.flatnonzero(dE_bits[1:] != dE_bits[:-1]) + 1

    # A diverging run overflows on purpose; the ceiling check below reports it.
    # Only the diverging step can hold inf or NaN actions: when O is not finite,
    # the block that ends at the run's last step leaves that step out of the moments.
    with np.errstate(over="ignore", invalid="ignore"):
        t0 = 0
        while t0 < steps_run:
            # A settled window (a NaN dO has ended the run): each next step with dE's bits
            # repeats the last one, so fill the whole blocks before the block of the next
            # dE change, or to the run's end.
            if rng is None and switch.settled():
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
            # one noise row per step, with the bits of one draw per step; rows past a divergence are never read
            if isinstance(model, UniformNoise):
                noise = uniform_noise(rng, rows.shape, amp)
            elif isinstance(model, WienerNoise):  # the aggregate shock, shared equally by the agents
                z = rng.standard_normal((len(rows), 1))
                noise = (model.mu * dt + model.sigma * math.sqrt(dt) * z) / (a * n)
            for t, ds_i in enumerate(rows, t0):
                if switch.pinned is None:
                    n_h = update_reactive_count(switch.trailing, rule, n)
                ds_i += np.multiply(switch.couplings(n_h), dO_prev, out=fed_back)
                if rng is not None:
                    ds_i += noise[t - t0]
                dS = ordered_sum(ds_i)
                dO = a * dS
                O += dO
                out_dS[t] = dS
                out_nh[t] = n_h
                switch.trailing.append(dO)
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
    b_total, ab, stability = switch.gains(n_reactive)

    return ScenarioResult(
        spec=spec,
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
        diverged=diverged,
        truncated_at=steps_run - 1 if diverged else None,
    )


def window_reports(result: ScenarioResult) -> list[SyncReport]:
    """Metric reports of the windows that a run's spec sets with `metric_window` and `overlap`.

    Each window is read from the run's action matrix, so windows need
    `run(..., keep_actions=True)`. The windows cover the steps the
    summary covers: every step but a last one at which a diverging O
    became inf or NaN (`covered_steps`); a run with none has no window.
    A window is `metric_window` steps (None: every step). Windows start
    every step when `overlap`, else every `metric_window` steps; a
    window longer than those steps is cut to them. The whole-run report
    is `summarize`'s. Neither field changes a step of the run, so other
    windows of the same run need no rerun:
    `window_reports(replace(result, spec=replace(result.spec, metric_window=w)))`.
    """
    if result.agent_actions is None:
        raise ValueError("window reports need the action matrix; run with keep_actions=True")
    T = covered_steps(result.O)
    window = result.spec.metric_window
    w = T if window is None else min(window, T)
    if not w:
        return []
    starts = range(0, T - w + 1) if result.spec.overlap else range(0, T - w + 1, w)
    return [
        sync_report(result.agent_actions[:, s : s + w], result.dO[s : s + w], result.config.a, start=s)
        for s in starts
    ]


# ---------------------------------------------------------------------------
# Forced-ratio experiments (order-parameter curves)
# ---------------------------------------------------------------------------

def forced_ratio_samples(
    config: CrowdConfig,
    points: Sequence[tuple[float, float | np.ndarray]],
    dO_drive: float = 1.0,
    trials: int = 1,
    seed: int = 0,
) -> np.ndarray:
    """Order parameters of one driven step at pinned reactive fractions: one row per point.

    A point is (ratio, noise_amp). It bypasses the switch rule: the first
    `round_count(ratio*N, N)` agents in switch priority (half away from
    zero) are reactive, the rest normal. Each of its trials drives one
    step with observation increment `dO_drive` (finite), zero external
    force, and i.i.d. uniform noise of half-width `noise_amp` (one value,
    or one per agent, under the crowd's noise_amp rule), drawn as `run()`
    draws it. Returns the (len(points), trials) order parameters. Every
    point is checked before the first draw. A trial whose sum of |actions| overflows is refused
    with a ValueError that names the drive and the point's largest
    half-width. `seed` must meet the rule of the `ScenarioSpec` field of
    that name.

    Point i builds `make_generator(seed + i)` once and reads it in order:
    its trials are `uniform_noise(rng, (trials, N), noise_amp)` plus the
    point's actions without noise, drawn in blocks of whole rows, and each
    row is summed alone. So no bit of the result depends on the block size
    or the thread count. Each point that draws is one task on one pool of
    threads. A point whose every half-width is 0 draws nothing: each of its
    noise values would be +0.0 or -0.0, which moves no |sum|, so every
    trial has the order parameter of the row `base + 0.0`, summed once.
    """
    for ratio, _ in points:
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not math.isfinite(dO_drive):
        raise ValueError(f"dO_drive must be finite, got {dO_drive}")
    check_fields(ScenarioSpec, {"seed": seed})
    for _, noise_amp in points:
        replace(config, noise_amp=noise_amp)  # raises if noise_amp breaks the crowd's column rule
    n = config.n
    switch = SwitchState(config)
    out = np.empty((len(points), trials))
    rows = max(1, _DRAW_BLOCK // n)
    with np.errstate(over="ignore"):  # an action that overflows fails the check in `fold`
        # each point's actions without noise
        bases = [switch.couplings(round_count(ratio * n, n)) * dO_drive for ratio, _ in points]

    def fold(acts: np.ndarray, i: int, start: int) -> None:
        """Writes point i's order parameters from trial `start` on; `acts` is their noise (trials x N), overwritten."""
        with np.errstate(over="ignore", invalid="ignore"):  # per thread; the check below reports it
            acts += bases[i]
            sums = acts.sum(axis=1)
            magnitudes = np.abs(acts, out=acts).sum(axis=1)
        if not np.isfinite(magnitudes).all():  # sum |x| bounds |sum x|: both are finite or this is not
            raise ValueError(f"the sum of a trial's actions at dO_drive={dO_drive:g} overflows "
                             f"(largest noise half-width {float(np.max(points[i][1])):g})")
        out[i, start : start + len(acts)] = order_ratio(sums, magnitudes)

    def draw(i: int) -> None:
        """Point i's trials from its own stream, in order, one block alive at a time."""
        rng = make_generator(seed + i)
        for start in range(0, trials, rows):
            fold(uniform_noise(rng, (min(rows, trials - start), n), points[i][1]), i, start)

    drawing = []
    for i, (_, noise_amp) in enumerate(points):
        if np.any(noise_amp):
            drawing.append(i)
        else:  # no draw (docstring)
            fold(np.zeros((1, n)), i, 0)
            out[i, 1:] = out[i, 0]
    if drawing:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(min(len(drawing), _usable_cpus())) as pool:
            list(pool.map(draw, drawing))
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


def summarize(result: ScenarioResult) -> RunSummary:
    """Digest a result: the whole-run report plus divergence bookkeeping, named after its spec.

    This is the one reader of the run's moments. rho_c, sigma_c, sigma_o,
    t_d and mean_R cover the steps the moments hold: every step, except
    the step at which a diverging O became inf or NaN (all are 0 when
    that was its first step). So rho_c, sigma_c and mean_R stay finite
    for a run that overflows, and the moments' scale keeps sigma_c
    finite where the squares of the actions overflow; where the sums of
    the finite dO overflow, `trendiness` keeps T_d finite by scaling them
    by a power of two. The name and the seed are the spec's. peak_O and
    final_O report how O ended, inf or NaN included. peak_ratio and
    final_ratio are the largest and the last N_H over N.
    """
    k = result.moments.count
    report = SyncReport.from_sync(result.moments.sync(), result.dO[:k], result.config.a)
    n = result.config.n
    return RunSummary(
        name=result.spec.name,
        steps_run=result.steps_run,
        diverged=result.diverged,
        truncated_at=result.truncated_at,
        seed=result.spec.seed,
        peak_O=float(result.O.max()),
        final_O=float(result.O[-1]),
        peak_ratio=float(result.n_reactive.max()) / n,
        final_ratio=float(result.n_reactive[-1]) / n,
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


def apply_sweep_value(spec: ScenarioSpec, param: str, value: float) -> ScenarioSpec:
    """The spec of one sweep point: `spec` with one named parameter overridden.

    `saturation_scale` is the switch rule's; the others are the crowd's.
    Per-agent parameters (b_high, b_low, noise_amp) are set on every
    agent; resizing n gives every agent agent 0's coefficients.
    """
    _check_sweep_param(param)
    config = spec.config
    if param == "saturation_scale":
        return replace(spec, rule=replace(spec.rule, saturation_scale=float(value)))
    if param == "n":
        agent_0 = {name: getattr(config, name)[0] for name in AGENT_COLUMNS}
        return replace(spec, config=replace(config, n=_crowd_size(value), **agent_0))
    return replace(spec, config=replace(config, **{param: float(value)}))


def _check_sweep_param(param: str) -> None:
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}; valid: {', '.join(SWEEP_PARAMS)}")


def _crowd_size(value: float) -> int:
    if not float(value).is_integer():
        raise ValueError(f"sweep values of n must be whole numbers, got {value}")
    return int(value)


def _sweep_one(args) -> SweepPoint:
    spec, value = args
    return SweepPoint(value=float(value), summary=summarize(run(spec, keep_actions=False)))


def sweep(
    spec: ScenarioSpec, param: str, values: Sequence[float], seed_policy: str = "fixed", jobs: int = 1
) -> list[SweepPoint]:
    """One independent run of `spec` per value of `param`; summaries in input order.

    Point i runs `apply_sweep_value(spec, param, values[i])`. seed_policy
    "fixed" keeps the spec's seed for every run; "per-value" uses seed + i.
    Each point's summary is named after the scenario and records the seed
    actually used.
    Runs go to min(jobs, len(values), usable CPUs) worker processes when
    that is more than one; a CPU is usable when the process may run on it.
    Every value is applied, and so checked, before the first run. Only
    a crowd with uniform noise draws noise_amp, so sweeping it is
    refused on any other crowd.
    """
    if seed_policy not in ("fixed", "per-value"):
        raise ValueError(f"seed_policy must be 'fixed' or 'per-value', got {seed_policy!r}")
    _check_sweep_param(param)  # the only check of `param` when there are no values
    model = spec.config.noise_model
    if param == "noise_amp" and not isinstance(model, UniformNoise):
        raise ValueError(f"cannot sweep noise_amp: the crowd's noise model is {type(model).__name__}, "
                         "and only uniform noise (crowd.noise = uniform) draws it")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seeds = [spec.seed if seed_policy == "fixed" else spec.seed + i for i in range(len(values))]
    tasks = [(replace(apply_sweep_value(spec, param, v), seed=s), v) for v, s in zip(values, seeds)]
    workers = min(jobs, len(tasks), _usable_cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing loads only when a pool starts

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_one, tasks))
    return [_sweep_one(t) for t in tasks]
