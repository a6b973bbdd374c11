"""Full simulations: force profiles, the canonical step loop, sweeps.

The step loop composes the other modules in a fixed causal order. For
each step t:

  1. the switch rule sets the reactive count from the trailing |dO|
     window ending at the previous step,
  2. agents respond to this step's force increment dE(t) and the
     previous observation increment (the one-step delayed feedback),
  3. actions aggregate in ascending agent order, the observation
     updates (dO = a*dS), and the step is recorded.

A step recomputes only what changes every step: the switch rule, the
actions dS_i = c_i*dE + b_i*dO_prev (+ noise) in preallocated buffers,
sum dS_i and sum |dS_i| as one reduction, and the recorded values. The
per-agent couplings b_i, their total B, the loop gain a*B and its
stability class depend on N_H alone, so they are rebuilt only on a step
whose N_H differs from the last one's.

Runs are single-threaded and bit-deterministic per (config, rule,
profile, seed). Amplifying configurations are expected to blow up;
a run truncates once |O| crosses the divergence ceiling and is marked
diverged rather than failing.

The loop records the trajectory and sum |dS_i|; `order_ratio` turns the
sums into the per-step order parameter after the loop. `summarize`
computes the whole-run metric report, and `window_reports` the
per-window ones for callers that ask for them.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .dynamics import (
    AGENT_COLUMNS,
    CrowdConfig,
    UniformNoise,
    WienerNoise,
    ordered_sum,
    require_finite,
)
from .metrics import SyncReport, order_ratio, sync_report
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

#: Uniform draws per block in `forced_ratio_samples`; bounds its memory.
_DRAW_BLOCK = 2_000_000


# ---------------------------------------------------------------------------
# External-force profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForceProfile:
    """A deterministic series of external-force increments dE(t)."""

    kind: str
    length: int
    increments: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
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
    if length < 1:
        raise ValueError(f"profile length must be >= 1, got {length}")


# ---------------------------------------------------------------------------
# Scenario spec and result
# ---------------------------------------------------------------------------

_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")
_NAME_CHARS = _NAME_START | frozenset(".-")
NAME_RULE = "letters, digits, '_', '.' and '-', not starting with '.' or '-'"


def is_safe_name(name: str) -> bool:
    """Whether `name` can prefix output file names: [A-Za-z0-9_][A-Za-z0-9._-]*."""
    return bool(name) and name[0] in _NAME_START and set(name) <= _NAME_CHARS


@dataclass
class ScenarioSpec:
    """Everything needed to reproduce one run.

    `name` prefixes the output files, so it must be a safe file-name
    token (see `is_safe_name`); it can never point outside `--out`.
    The run length is `profile.length` (a file's `run.steps`).
    `metric_window` and `overlap` are the arguments of `window_reports`
    for this scenario; no CLI command reads them.
    """

    name: str
    config: CrowdConfig
    rule: SwitchRule
    profile: ForceProfile
    seed: int = 0
    metric_window: int | None = None
    overlap: bool = False
    divergence_ceiling: float = DEFAULT_DIVERGENCE_CEILING

    def __post_init__(self) -> None:
        if not is_safe_name(self.name):
            raise ValueError(f"scenario name must be {NAME_RULE}; got {self.name!r}")


@dataclass
class ScenarioResult:
    """Trajectory of one run, as parallel arrays.

    Arrays cover the steps actually executed; a diverged run stops at
    `truncated_at` (inclusive). `agent_actions` is the N x steps matrix
    of per-agent increments.
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
    agent_actions: np.ndarray
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
) -> ScenarioResult:
    """Execute the canonical step loop for the profile's full length.

    `pinned_reactive` bypasses the switch rule and holds the reactive
    count fixed (threshold experiments); `initial_dO` seeds the
    endogenous feedback with a nonzero observation increment.

    A run stops, marked diverged, at the first step whose |O| exceeds
    `divergence_ceiling` (finite and > 0) or is NaN.

    Noise models: per-agent uniform noise enters each agent's action;
    aggregate drift+diffusion noise enters the observation update and is
    attributed equally across agents so dS = sum dS_i and dO = a*dS stay
    exact. With no noise the generator is never consumed.
    """
    n, a, dt = config.n, config.a, config.dt
    if pinned_reactive is not None and not 0 <= pinned_reactive <= n:
        raise ValueError(f"pinned_reactive={pinned_reactive} outside [0, {n}]")
    require_finite("divergence_ceiling", divergence_ceiling)
    if not divergence_ceiling > 0:
        raise ValueError(f"divergence_ceiling must be > 0, got {divergence_ceiling}")
    b_low, b_high, c_vec, amp = config.b_low, config.b_high, config.c, config.noise_amp
    rank = _switch_rank(config)

    model = config.noise_model
    uniform = isinstance(model, UniformNoise)
    wiener = isinstance(model, WienerNoise)
    rng = make_generator(seed)

    T = profile.length
    dE_arr = profile.increments
    out_dS = np.zeros(T)
    out_dO = np.zeros(T)
    out_O = np.zeros(T)
    out_nh = np.zeros(T, dtype=np.intp)
    out_b = np.zeros(T)
    out_ab = np.zeros(T)
    out_abs = np.zeros(T)
    actions = np.zeros((n, T))
    stability: list[Stability] = [Stability.CONTRACTING] * T

    pair = np.empty((2, n))
    ds_i, abs_ds = pair  # this step's actions and their magnitudes, summed together
    fed_back = np.empty(n)

    history: deque[float] = deque(maxlen=rule.window)
    dO_prev = initial_dO
    O = 0.0
    n_h = pinned_reactive
    coupled_for = None  # the N_H that b_eff, b_tot, ab and stab were built for
    diverged = False
    truncated_at: int | None = None
    steps_run = T

    for t in range(T):
        if pinned_reactive is None:
            n_h = update_reactive_count(history, rule, n)
        if n_h != coupled_for:
            b_eff = np.where(rank < n_h, b_high, b_low)
            b_tot = ordered_sum(b_eff)
            ab = a * b_tot
            stab = classify_stability(ab)
            coupled_for = n_h
        np.multiply(c_vec, dE_arr.item(t), out=ds_i)
        ds_i += np.multiply(b_eff, dO_prev, out=fed_back)
        if uniform:
            ds_i += rng.uniform(-1.0, 1.0, n) * amp
        elif wiener:
            agg_eps = model.mu * dt + model.sigma * math.sqrt(dt) * float(rng.standard_normal())
            ds_i += agg_eps / (a * n)
        np.abs(ds_i, out=abs_ds)
        dS, abs_sum = ordered_sum(pair).tolist()
        dO = a * dS
        O += dO

        out_dS[t] = dS
        out_dO[t] = dO
        out_O[t] = O
        out_nh[t] = n_h
        out_b[t] = b_tot
        out_ab[t] = ab
        out_abs[t] = abs_sum
        stability[t] = stab
        actions[:, t] = ds_i

        history.append(dO)
        dO_prev = dO
        if not abs(O) <= divergence_ceiling:  # a NaN O diverges too
            diverged = True
            truncated_at = t
            steps_run = t + 1
            break

    sl = slice(0, steps_run)
    del stability[steps_run:]
    return ScenarioResult(
        config=config,
        rule=rule,
        profile=profile,
        seed=seed,
        t=np.arange(steps_run),
        dE=dE_arr[sl].copy(),
        E=np.cumsum(dE_arr[sl]),
        dS=out_dS[sl],
        S=np.cumsum(out_dS[sl]),
        dO=out_dO[sl],
        O=out_O[sl],
        n_reactive=out_nh[sl],
        b_total=out_b[sl],
        ab=out_ab[sl],
        r_instant=order_ratio(out_dS[sl], out_abs[sl]),
        stability_trace=stability,
        agent_actions=actions[:, sl],
        peak_ratio=float(out_nh[sl].max()) / n if steps_run else 0.0,
        final_ratio=float(out_nh[steps_run - 1]) / n if steps_run else 0.0,
        diverged=diverged,
        truncated_at=truncated_at,
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

    Windows start every step when `overlap`, else every `window` steps;
    a window longer than the run is cut to it. A run of no steps has none.
    """
    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    T = result.steps_run
    if T == 0:
        return []
    w = T if window is None else min(window, T)
    starts = range(0, T - w + 1) if overlap else range(0, T - w + 1, w)
    return [
        sync_report(result.agent_actions[:, s : s + w], result.dO[s : s + w], result.config.a, start=s)
        for s in starts
    ]


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
    with observation increment `dO_drive`, zero external force, and
    i.i.d. uniform noise of half-width `noise_amp` (one value, or one
    per agent); returns the per-trial order parameters.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = config.n
    n_h = min(int(math.floor(ratio * n + 0.5)), n)
    base = np.where(_switch_rank(config) < n_h, config.b_high, config.b_low) * dO_drive

    rng = make_generator(seed)
    out = np.empty(trials)
    per_block = max(1, _DRAW_BLOCK // n)
    done = 0
    while done < trials:
        k = min(per_block, trials - done)
        acts = rng.uniform(-noise_amp, noise_amp, size=(k, n))
        acts += base  # in place: one k x n array per block
        sums = acts.sum(axis=1)
        out[done : done + k] = order_ratio(sums, np.abs(acts, out=acts).sum(axis=1))
        done += k
    return out


# ---------------------------------------------------------------------------
# Run summaries and parameter sweeps
# ---------------------------------------------------------------------------

@dataclass
class RunSummary:
    """One-row digest of a run, the unit emitted by sweeps and the CLI."""

    name: str
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


def summarize(result: ScenarioResult, name: str = "") -> RunSummary:
    """Digest a result: whole-run metrics plus divergence bookkeeping."""
    if result.steps_run == 0:
        raise ValueError("cannot summarize an empty run")
    report = sync_report(result.agent_actions, result.dO, result.config.a)
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
        mean_R=float(result.r_instant.mean()),
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
    if param not in SWEEP_PARAMS:
        raise ValueError(
            f"unknown sweep parameter {param!r}; valid: {', '.join(SWEEP_PARAMS)}"
        )
    if param == "saturation_scale":
        return config, replace(rule, saturation_scale=float(value))
    if param == "n":
        agent_0 = {name: getattr(config, name)[0] for name in AGENT_COLUMNS}
        return replace(config, n=_crowd_size(value), **agent_0), rule
    return replace(config, **{param: float(value)}), rule


def _crowd_size(value: float) -> int:
    if not float(value).is_integer():
        raise ValueError(f"sweep values of n must be whole numbers, got {value}")
    return int(value)


def _sweep_one(args) -> SweepPoint:
    config, rule, param, value, profile, seed, ceiling = args
    cfg, rl = apply_sweep_value(config, rule, param, value)
    result = run(cfg, rl, profile, seed, divergence_ceiling=ceiling)
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
    Runs go to min(jobs, len(values), cpu_count) worker processes when
    that is more than one.
    """
    if seed_policy not in ("fixed", "per-value"):
        raise ValueError(f"seed_policy must be 'fixed' or 'per-value', got {seed_policy!r}")
    if param not in SWEEP_PARAMS:
        raise ValueError(
            f"unknown sweep parameter {param!r}; valid: {', '.join(SWEEP_PARAMS)}"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if param == "n":
        for v in values:
            _crowd_size(v)
    seeds = [seed if seed_policy == "fixed" else seed + i for i in range(len(values))]
    tasks = [
        (config, rule, param, v, profile, s, divergence_ceiling)
        for v, s in zip(values, seeds)
    ]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_one, tasks))
    return [_sweep_one(t) for t in tasks]
