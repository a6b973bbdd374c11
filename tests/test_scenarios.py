"""Profiles, the canonical step loop, sweeps, forced-ratio experiments."""

import math
import os
import re
import tracemalloc
from collections import deque
from dataclasses import replace
from itertools import accumulate
from pathlib import Path
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import crowdsync.metrics as metrics_module
import crowdsync.scenarios as scenarios_module
from crowdsync.dynamics import CrowdConfig, NoNoise, UniformNoise, WienerNoise, ordered_sum
from crowdsync.metrics import CrowdMoments, order_parameter_closed_form, step_block_rows
from crowdsync.scenario_io import load_scenario
from crowdsync.scenarios import (
    ForceProfile,
    apply_sweep_value,
    bubble_profile,
    build_profile,
    explicit_profile,
    forced_ratio_samples,
    ramp_profile,
    run,
    step_profile,
    summarize,
    sweep,
    window_reports,
    zero_profile,
)
from crowdsync.switching import (
    Stability,
    SwitchRule,
    classify_stability,
    switch_priority,
    update_reactive_count,
)
from crowdsync.rng import make_generator
from conftest import spec_of


def simple_config(n=100, a=0.01, b_low=0.0, b_high=0.5, c=1.0, **kw):
    return CrowdConfig(n=n, a=a, b_low=b_low, b_high=b_high, c=c, **kw)


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


def forced_ratio_mean(config, ratio, noise_amp=0.0, **kw):
    return float(forced_ratio_samples(config, [(ratio, noise_amp)], **kw).mean())


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_zero_profile():
    assert np.array_equal(zero_profile(10).increments, np.zeros(10))


def test_step_profile():
    assert np.array_equal(step_profile(6, 1.0, 3).increments, [0, 0, 0, 1, 0, 0])


def test_step_profile_onset_bounds():
    with pytest.raises(ValueError):
        step_profile(6, 1.0, 6)
    with pytest.raises(ValueError):
        step_profile(6, 1.0, -1)


def test_ramp_profile():
    inc = ramp_profile(8, 0.5, 2, 5).increments
    assert np.array_equal(inc, [0, 0, 0.5, 0.5, 0.5, 0, 0, 0])
    with pytest.raises(ValueError, match=r"^start 8 outside \[0, 8\)$"):
        ramp_profile(8, 0.5, 8, 8)
    with pytest.raises(ValueError, match=r"^end 2 outside \(2, 8\]$"):
        ramp_profile(8, 0.5, 2, 2)


def test_bubble_profile_shape():
    """Integral checks against the declared slopes."""
    prof = bubble_profile(
        100, build_slope=0.1, peak_step=40, crash_slope=-0.5, stabilize_step=50,
        confusion_scale=0.6,
    )
    inc = prof.increments
    E = np.cumsum(inc)
    assert np.all(inc[:40] > 0)
    assert inc[:40].sum() == pytest.approx(4.0, rel=1e-12)
    assert np.all(inc[40:50] < 0)
    peak_E = E[39]
    assert E.max() == pytest.approx(peak_E)
    assert np.all(E[50:] < peak_E)  # post-crash E stays below the peak
    # confusion tail returns the declared fraction of the crash, minus truncation
    assert inc[50:].sum() == pytest.approx(0.6 * 5.0, rel=1e-6)


def test_bubble_profile_validation():
    with pytest.raises(ValueError):
        bubble_profile(100, 0.1, 0, -0.5, 50)
    with pytest.raises(ValueError):
        bubble_profile(100, 0.1, 40, -0.5, 100)
    with pytest.raises(ValueError):
        bubble_profile(100, -0.1, 40, -0.5, 50)
    with pytest.raises(ValueError):
        bubble_profile(100, 0.1, 40, 0.5, 50)
    with pytest.raises(ValueError):
        bubble_profile(100, 0.1, 40, -0.5, 50, confusion_scale=1.0)
    with pytest.raises(ValueError, match="confusion_decay must be in"):
        bubble_profile(100, 0.1, 40, -0.5, 50, confusion_decay=1.0)
    with pytest.raises(ValueError, match="confusion_wobble must be in"):
        bubble_profile(100, 0.1, 40, -0.5, 50, confusion_wobble=1.0)


def test_explicit_profile_roundtrip():
    series = [0.1, -0.2, 0.3]
    assert np.array_equal(explicit_profile(3, series).increments, series)
    with pytest.raises(ValueError):
        explicit_profile(4, series)


def test_zero_length_profile_rejected():
    with pytest.raises(ValueError, match="length must be >= 1"):
        ForceProfile("zero", 0, np.zeros(0))


def test_build_profile_dispatch():
    prof = build_profile("step", {"height": 2.0, "onset": 1}, 4)
    assert prof.kind == "step"
    with pytest.raises(ValueError):
        build_profile("sawtooth", {}, 4)


# ---------------------------------------------------------------------------
# the canonical loop
# ---------------------------------------------------------------------------

def test_quiescence():
    cfg = simple_config(b_low=0.3, b_high=0.9)
    result = run(spec_of(cfg, SwitchRule(saturation_scale=1.0), zero_profile(50)))
    assert np.all(result.dS == 0.0)
    assert np.all(result.dO == 0.0)
    assert np.all(result.n_reactive == 0)
    assert summarize(result).peak_ratio == 0.0


def test_delayed_response_recursion_holds_in_engine(golden):
    """Each dO equals (a*C)*dE + (a*B)*dO_prev with that step's coupling."""
    spec = golden("fig4-stable")
    result = run(spec)
    a = spec.config.a
    C = sum(spec.config.c.tolist())
    dO_prev = 0.0
    for k in range(result.steps_run):
        expected = a * C * result.dE[k] + a * result.b_total[k] * dO_prev
        assert result.dO[k] == pytest.approx(expected, rel=1e-12, abs=1e-15)
        dO_prev = result.dO[k]


def test_per_agent_loop_agrees_with_aggregate_recursion():
    """Pinned coupling, no noise: the two simulation paths coincide."""
    cfg = simple_config(n=37, b_low=0.0, b_high=0.9, c=1.3)
    prof = step_profile(60, height=2.0, onset=5)
    result = run(spec_of(cfg, SwitchRule(saturation_scale=1.0), prof), pinned_reactive=20)
    b_total = 20 * 0.9
    c_total = 37 * 1.3
    reference = aggregate_trajectory(cfg.a, b_total, c_total, prof.increments)
    assert np.allclose(result.dO, reference, rtol=1e-12, atol=1e-15)


def test_run_is_bit_deterministic():
    cfg = simple_config(noise_amp=0.05, noise_model=UniformNoise())
    rule = SwitchRule(saturation_scale=0.5)
    prof = step_profile(40, 1.0, 5)
    r1 = run(spec_of(cfg, rule, prof, seed=123))
    r2 = run(spec_of(cfg, rule, prof, seed=123))
    assert np.array_equal(r1.dO, r2.dO)
    assert np.array_equal(r1.dS, r2.dS)
    assert np.array_equal(r1.n_reactive, r2.n_reactive)
    assert np.array_equal(r1.agent_actions, r2.agent_actions)
    r3 = run(spec_of(cfg, rule, prof, seed=124))
    assert not np.array_equal(r1.dO, r3.dO)


def test_noiseless_run_builds_no_generator():
    """Only noise draws: a run without it never calls `make_generator`."""
    spec = spec_of(simple_config(), SwitchRule(saturation_scale=0.5), step_profile(40, 1.0, 5), seed=3)
    expected = run(spec)
    with mock.patch.object(scenarios_module, "make_generator", side_effect=AssertionError("built")):
        result = run(spec)
    assert result.dO.tobytes() == expected.dO.tobytes()
    assert np.array_equal(result.agent_actions, expected.agent_actions)


def test_wiener_noise_preserves_record_invariants():
    cfg = simple_config(n=10, noise_model=WienerNoise(mu=0.01, sigma=0.1))
    result = run(spec_of(cfg, SwitchRule(saturation_scale=1.0), zero_profile(50), seed=7))
    assert np.array_equal(result.dO, cfg.a * result.dS)
    assert np.allclose(result.dS, result.agent_actions.sum(axis=0), rtol=1e-12, atol=1e-15)
    assert np.any(result.dO != 0.0)


def test_divergence_truncates_and_marks():
    cfg = simple_config(b_high=1.5)  # peak gain 1.5
    rule = SwitchRule(saturation_scale=0.2)
    result = run(spec_of(cfg, rule, step_profile(500, 1.0, 0), divergence_ceiling=1e6))
    assert result.diverged
    assert result.truncated_at == result.steps_run - 1
    assert abs(result.O[-1]) > 1e6
    assert abs(result.O[-2]) <= 1e6
    assert result.stability_trace[-1] is Stability.AMPLIFYING


def test_nan_observation_counts_as_divergence():
    """Opposite overflowing agents make dS = inf - inf; the run stops there."""
    cfg = CrowdConfig(n=2, a=1.0, b_low=0.0, b_high=1.0, c=[1e308, -1e308])
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the point
        result = run(spec_of(cfg, SwitchRule(saturation_scale=1.0), explicit_profile(3, [10.0, 0.0, 0.0])))
    assert math.isnan(result.O[0])
    assert result.diverged and result.truncated_at == 0 and result.steps_run == 1
    # no finite step to summarize: the metrics take their quiescent values
    summary = summarize(result)
    assert (summary.mean_R, summary.rho_c, summary.sigma_c, summary.sigma_o, summary.t_d) == (0,) * 5


@pytest.mark.parametrize("c", [1e308, [1e308, -1e308]], ids=["inf-O", "nan-O"])
def test_diverging_run_raises_no_numpy_warning(c):
    # no errstate here: tier-1 turns any numpy RuntimeWarning into an error
    cfg = CrowdConfig(n=2, a=1.0, b_low=0.0, b_high=0.5, c=c)
    result = run(spec_of(cfg, SwitchRule(1.0), step_profile(100, 10.0, 5)))
    assert result.diverged and result.truncated_at == 5 and result.steps_run == 6
    assert not math.isfinite(result.O[-1])
    # the summary leaves out the overflowed step: its metrics cover steps 0-4
    summary = summarize(result)
    metrics = (summary.mean_R, summary.rho_c, summary.sigma_c, summary.sigma_o, summary.t_d)
    assert all(math.isfinite(x) for x in metrics)
    assert result.moments.count == 5
    assert not math.isfinite(summary.peak_O) and not math.isfinite(summary.final_O)  # how O ended


@pytest.mark.parametrize("ceiling", [math.inf, math.nan, 0.0, -1.0])
def test_non_finite_divergence_ceiling_rejected(ceiling):
    with pytest.raises(ValueError, match="divergence_ceiling"):
        spec_of(simple_config(), SwitchRule(saturation_scale=1.0), zero_profile(5),
                divergence_ceiling=ceiling)


def test_negative_seed_rejected_by_name():
    calls = [
        lambda: spec_of(simple_config(), SwitchRule(saturation_scale=1.0), zero_profile(5), seed=-1),
        lambda: forced_ratio_samples(simple_config(), [(0.5, 0.0)], seed=-1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            call()


def test_pinned_reactive_bypasses_rule():
    cfg = simple_config(b_high=1.0)
    result = run(spec_of(cfg, SwitchRule(saturation_scale=1e9), zero_profile(20)),
                 pinned_reactive=30, initial_dO=1.0)
    assert np.all(result.n_reactive == 30)
    # gain 0.3: geometric decay from the seeded increment
    assert result.dO[0] == pytest.approx(0.3, rel=1e-12)
    assert result.dO[5] == pytest.approx(0.3 ** 6, rel=1e-9)


def test_long_run_memory_stays_near_the_action_matrix(golden):
    # The N x T action matrix is the one allocation that must scale with the
    # run; per-step records in Python lists would push the peak past 1.2x it.
    spec = golden("fig6-bubble")
    n, steps = spec.config.n, 20_000
    profile = bubble_profile(steps, **spec.profile.params)
    tracemalloc.start()
    try:
        result = run(replace(spec, profile=profile))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (n, result.steps_run) == (100, steps)
    assert peak <= 1.2 * n * steps * 8, f"peak {peak / 1e6:.1f} MB"


def _windows_of(result, **fields):
    """`window_reports` of `result` under its spec with `fields` replaced: the same run, other windows."""
    return window_reports(replace(result, spec=replace(result.spec, **fields)))


def test_metric_windows_nonoverlapping_and_overlapping(golden):
    spec = golden("fig4-stable")
    result = run(spec)
    reports = window_reports(result)
    assert [(w.start, w.stop) for w in reports] == [(0, 20), (20, 40), (40, 60), (60, 80)]
    assert len(_windows_of(result, overlap=True)) == 80 - 20 + 1
    (whole,) = _windows_of(result, metric_window=None)
    summary = summarize(result)
    assert (whole.rho_c, whole.sigma_c, whole.sigma_o) == (
        summary.rho_c, summary.sigma_c, summary.sigma_o)
    assert [(w.start, w.stop) for w in _windows_of(result, metric_window=500)] == [(0, 80)]
    with pytest.raises(ValueError, match="window"):
        replace(spec, metric_window=0)


@pytest.mark.parametrize("name, bounds", [
    ("fig4-stable", [(0, 20), (20, 40), (40, 60), (60, 80)]),
    ("fig5-unstable", [(0, 25), (25, 50), (50, 75), (75, 100)]),
    ("fig6-bubble", [(s, s + 30) for s in range(0, 240, 30)]),
])
def test_window_reports_read_the_golden_spec_window(golden, name, bounds):
    """A run's windows are those of its own spec's `metric_window` and `overlap`."""
    spec = golden(name)
    assert (spec.metric_window, spec.overlap) == (bounds[0][1], False)
    assert [(w.start, w.stop) for w in window_reports(run(spec))] == bounds


_NAMED = spec_of(simple_config(), SwitchRule(saturation_scale=0.5), step_profile(20, 1.0, 5), name="crowd-7.b")


def test_summary_is_named_after_the_spec():
    assert summarize(run(_NAMED)).name == "crowd-7.b"


def test_each_sweep_point_is_named_after_the_scenario():
    points = sweep(_NAMED, "b_high", [0.2, 0.8], seed_policy="per-value")
    assert [p.summary.name for p in points] == ["crowd-7.b", "crowd-7.b"]


def test_run_without_actions_keeps_the_whole_run_report(golden):
    spec = golden("fig4-stable")
    kept, streamed = run(spec), run(spec, keep_actions=False)
    assert streamed.agent_actions is None
    assert summarize(streamed) == summarize(kept)
    with pytest.raises(ValueError, match="keep_actions=True"):
        window_reports(streamed)


_COEF = st.floats(-2.0, 2.0)


@st.composite
def small_runs(draw):
    """A small random crowd, rule and force profile, a seed and window_reports() arguments."""
    n = draw(st.integers(1, 6))
    steps = draw(st.integers(1, 30))
    b_low = draw(st.lists(_COEF, min_size=n, max_size=n))
    b_high = [max(lo, 0.0) + draw(st.floats(0.01, 2.0)) for lo in b_low]
    c = draw(st.lists(_COEF, min_size=n, max_size=n))
    noise_amp = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    # dt != 1 and drawn mu, sigma, so the per-step oracle pins the order of the Wiener shock's operations
    wiener = st.builds(WienerNoise, mu=st.floats(-0.5, 0.5), sigma=st.floats(0.0, 1.0))
    noise = draw(st.sampled_from([NoNoise(), UniformNoise()]) | wiener)
    cfg = CrowdConfig(n=n, a=draw(st.floats(0.01, 1.0)), b_low=b_low, b_high=b_high, c=c,
                      noise_amp=noise_amp, noise_model=noise, dt=draw(st.floats(0.01, 4.0)))
    rule = SwitchRule(saturation_scale=draw(st.floats(0.01, 10.0)), window=draw(st.integers(1, 6)))
    profile = explicit_profile(steps, draw(st.lists(_COEF, min_size=steps, max_size=steps)))
    seed = draw(st.integers(0, 2**32))
    window = draw(st.none() | st.integers(1, steps))
    return cfg, rule, profile, seed, window, draw(st.booleans())


# Small pools, so that runs settle and signed zeros and exact gains of 1 turn up.
_STEADY_FORCE = st.sampled_from([0.0, -0.0, 0.25, 1.0, -0.5])
_STEADY_COEF = st.sampled_from([0.0, -0.0, 0.5, 1.0, -0.5])


@st.composite
def steady_runs(draw):
    """A noiseless crowd driven by constant stretches of force: runs that repeat steps exactly."""
    n = draw(st.integers(1, 6))
    steps = draw(st.integers(1, 80))
    b_low = draw(st.lists(_STEADY_COEF, min_size=n, max_size=n))
    b_high = [max(lo, 0.0) + draw(st.sampled_from([0.25, 0.5, 1.0])) for lo in b_low]
    c = draw(st.lists(_STEADY_COEF | _COEF, min_size=n, max_size=n))
    cfg = CrowdConfig(n=n, a=draw(st.sampled_from([1.0 / n, 0.25, 0.5]) | st.floats(0.01, 1.0)),
                      b_low=b_low, b_high=b_high, c=c, noise_model=NoNoise())
    rule = SwitchRule(saturation_scale=draw(st.sampled_from([0.01, 0.5, 1.0, 10.0])),
                      window=draw(st.integers(1, 6)))
    stretches = draw(st.lists(st.tuples(_STEADY_FORCE, st.integers(1, steps)), min_size=1, max_size=steps))
    series = [value for value, length in stretches for _ in range(length)]
    series += [0.0] * (steps - len(series))
    return cfg, rule, explicit_profile(steps, series[:steps]), 0, None, False


@settings(max_examples=60, deadline=None)
@given(small_runs())
def test_metrics_stay_in_range_on_generated_crowds(case):
    cfg, rule, profile, seed, window, overlap = case
    result = run(spec_of(cfg, rule, profile, seed=seed, metric_window=window, overlap=overlap))
    assert np.all((result.r_instant >= 0.0) & (result.r_instant <= 1.0))
    reports = window_reports(result)
    assert reports
    for report in reports:
        assert 0.0 <= report.t_d <= 1.0
        assert abs(report.rho_c) <= 1.0
        assert report.sigma_c >= 0.0
        assert report.sigma_o == cfg.a * report.sigma_c
    summary = summarize(result)
    assert 0.0 <= summary.t_d <= 1.0 and 0.0 <= summary.mean_R <= 1.0


# Grows threefold a step (gain a*B = 3) and crosses the ceiling 1e3 at step 5.
_TRIPLING = (CrowdConfig(n=3, a=1.0, b_low=0.0, b_high=1.0, c=1.0), SwitchRule(1.0),
             step_profile(12, 1.0, 0), 0, None, False)
_TRIPLING_OPTIONS = {"pinned_reactive": 3, "initial_dO": 0.0, "divergence_ceiling": 1e3}

# N > 512: the default blocks hold the minimum 8 rows, so this run fills 8, 8 and 4.
_WIDE_NOISY = (CrowdConfig(n=600, a=1 / 600, b_low=0.0, b_high=0.5, c=1.0, noise_amp=0.1,
                           noise_model=UniformNoise()), SwitchRule(0.3), step_profile(20, 1.0, 2), 5, None, False)

# Gain exactly 1 (4 agents pinned reactive, a*B = 0.25*4): dO stays about 37.76
# and O crosses 1e3 at step 26, inside a stretch of filled repeats.
_MARGINAL = (CrowdConfig(n=4, a=0.25, b_low=0.0, b_high=1.0, c=[1.0, 0.5, -0.25, 0.25]), SwitchRule(1.0),
             step_profile(40, 100.7, 0), 0, None, False)
_MARGINAL_OPTIONS = {"pinned_reactive": 4, "initial_dO": 0.0, "divergence_ceiling": 1e3}

# Quiet, so steps repeat from the start, until a kick at step 13, in mid-block.
_KICKED = (CrowdConfig(n=3, a=0.3, b_low=0.0, b_high=0.8, c=[1.0, -0.5, 0.25]), SwitchRule(0.5, window=2),
           explicit_profile(30, [0.0] * 13 + [1.0] + [0.0] * 16), 0, None, False)

# Step 0 repeats initial_dO = 1 (normal gain a*N*b_low = 1), but the window is
# not full: the step after it switches both agents to b_high and doubles dO.
_WARMING = (CrowdConfig(n=2, a=1.0, b_low=0.5, b_high=1.0, c=1.0), SwitchRule(1.0, window=1),
            zero_profile(6), 0, None, False)

# N > 512, so 8-row blocks. Quiet, so steps 6-20 repeat step 5, across the block
# edges at 8 and 16; kicked at step 21, in mid-block; at rest again (N_H = 0,
# dO = +0.0) from step 33, so steps 39-59 repeat step 38, across three edges.
_WIDE_SETTLED = (CrowdConfig(n=600, a=1 / 600, b_low=0.0, b_high=0.5, c=1.0), SwitchRule(0.3),
                 step_profile(60, 1.0, 21), 0, None, False)

# Uniform noise, so each block draws its noise at its start; a ramp, so a step
# adds c_i*dE, b_i*dO_prev and the noise, all nonzero, in that order. All 3
# agents tip at step 1 (gain 3), and O crosses 1e5 at step 11, in mid-block:
# the rows drawn for steps 12-15 are never read.
_NOISY_TIPPING = (CrowdConfig(n=3, a=1.0, b_low=0.0, b_high=1.0, c=[1.0, -0.3, 0.6], noise_amp=[0.1, 0.5, 0.2],
                              noise_model=UniformNoise()), SwitchRule(0.5, window=2),
                  ramp_profile(16, 0.7, 0, 16), 0, None, False)

# The same crowd under Wiener noise, whose normal draws a block also takes at its start;
# dt != 1, so the shock's operations round as they are ordered. O crosses 1e5 at step 10,
# in mid-block, and the draws for steps 11-15 are never read.
_WIENER_TIPPING = (CrowdConfig(n=3, a=1.0, b_low=0.0, b_high=1.0, c=[1.0, -0.3, 0.6], dt=0.3,
                               noise_model=WienerNoise(mu=0.2, sigma=0.7)), *_NOISY_TIPPING[1:])

# A contrarian crowd (b_low < 0) under dE = -0.0: each action is -0.0 + b*dO_prev, so
# dO alternates -0.0, 0.0, -0.0, ... Every window holds zeros that are equal but differ
# in sign, so no block may be filled with the step before it.
_FLIPPING_ZERO = (CrowdConfig(n=1, a=1.0, b_low=-0.5, b_high=0.5, c=1.0), SwitchRule(1.0, window=2),
                  explicit_profile(20, [-0.0] * 20), 0, None, False)

_RUN_OPTIONS = st.fixed_dictionaries({
    "pinned_reactive": st.none() | st.integers(0, 6),  # capped at the drawn n
    "initial_dO": st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-2.0, 2.0),
    "divergence_ceiling": st.sampled_from([1.0, 10.0, 1e3, 1e12]),
})


def _golden_case(name):
    """A golden scenario as a drawn case, with its own run options."""
    spec = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.scenario")
    case = (spec.config, spec.rule, spec.profile, spec.seed, None, False)
    return case, {"pinned_reactive": None, "initial_dO": 0.0, "divergence_ceiling": spec.divergence_ceiling}


_FIG4_CASE, _FIG4_OPTIONS = _golden_case("fig4-stable")
_FIG5_CASE, _FIG5_OPTIONS = _golden_case("fig5-unstable")
_FIG6_CASE, _FIG6_OPTIONS = _golden_case("fig6-bubble")


def _capped(options, n):
    """`_RUN_OPTIONS` with the drawn pinned count cut to the crowd's size."""
    if options["pinned_reactive"] is None:
        return options
    return {**options, "pinned_reactive": min(options["pinned_reactive"], n)}


def _run(cfg, rule, profile, seed, divergence_ceiling, **options):
    """run() of a drawn case's spec with the drawn ceiling; `options` are run()'s keywords."""
    return run(spec_of(cfg, rule, profile, seed=seed, divergence_ceiling=divergence_ceiling), **options)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _couplings(cfg, n_h):
    """Each agent's b_i with the first `n_h` agents in switch priority reactive."""
    b = cfg.b_low.copy()
    reactive = switch_priority(cfg.b_high)[:n_h]
    b[reactive] = cfg.b_high[reactive]
    return b


@settings(max_examples=100, deadline=None)
@given(case=small_runs() | steady_runs(), options=_RUN_OPTIONS)
@example(case=_FIG4_CASE, options=_FIG4_OPTIONS)
@example(case=_TRIPLING, options=_TRIPLING_OPTIONS)
@example(case=_MARGINAL, options=_MARGINAL_OPTIONS)
@example(case=_KICKED, options={"pinned_reactive": None, "initial_dO": -0.0, "divergence_ceiling": 1e12})
def test_step_records_are_internally_consistent(case, options):
    """Every column against a step-by-step form of its definition, bit for bit (signed zeros too)."""
    cfg, rule, profile, seed, _, _ = case
    options = _capped(options, cfg.n)
    result = _run(cfg, rule, profile, seed, **options)
    a, T, ceiling = cfg.a, result.steps_run, options["divergence_ceiling"]
    assert np.array_equal(result.t, np.arange(T))
    assert np.all((0 <= result.n_reactive) & (result.n_reactive <= cfg.n))
    assert _bits(result.dS) == _bits([ordered_sum(step.tolist()) for step in result.agent_actions.T])
    assert _bits(result.S) == _bits(np.cumsum(result.dS))
    assert _bits(result.dO) == _bits([a * dS for dS in result.dS.tolist()])
    # O sums left to right from +0.0, so a first dO of -0.0 gives O = +0.0
    assert _bits(result.O) == _bits(list(accumulate(result.dO.tolist(), initial=0.0))[1:])
    couplings = [ordered_sum(_couplings(cfg, n_h).tolist()) for n_h in result.n_reactive.tolist()]
    assert _bits(result.b_total) == _bits(couplings)
    assert _bits(result.ab) == _bits([a * b for b in couplings])
    assert len(result.stability_trace) == T
    assert all(s is classify_stability(ab) for s, ab in zip(result.stability_trace, result.ab.tolist()))
    # a run goes on while |O| is within the ceiling, and stops at the first step that is not
    assert np.all(np.abs(result.O[:-1]) <= ceiling)
    assert result.diverged == (not abs(result.O[-1]) <= ceiling)
    assert T == profile.length or result.diverged
    assert result.truncated_at == (T - 1 if result.diverged else None)


def _per_step_run(cfg, rule, profile, seed, pinned_reactive, initial_dO, divergence_ceiling):
    """The step loop one step at a time: no blocks, no filled repeats, no derived columns.

    Returns each step's (dS, N_H, O, action row) and whether the run diverged.
    """
    rng, model, n = make_generator(seed), cfg.noise_model, cfg.n
    history = deque(maxlen=rule.window)
    dO_prev, O = initial_dO, 0.0
    steps = []
    for dE in profile.increments.tolist():
        n_h = update_reactive_count(history, rule, n) if pinned_reactive is None else pinned_reactive
        ds_i = dE * cfg.c + _couplings(cfg, n_h) * dO_prev
        if isinstance(model, UniformNoise):
            ds_i += rng.uniform(-1.0, 1.0, n) * cfg.noise_amp
        elif isinstance(model, WienerNoise):
            agg_eps = model.mu * cfg.dt + model.sigma * math.sqrt(cfg.dt) * float(rng.standard_normal())
            ds_i += agg_eps / (cfg.a * n)
        dS = ordered_sum(ds_i.tolist())
        dO = cfg.a * dS
        O += dO
        steps.append((dS, n_h, O, ds_i))
        history.append(dO)
        dO_prev = dO
        if not abs(O) <= divergence_ceiling:
            return steps, True
    return steps, False


_SETTLED_OPTIONS = {"pinned_reactive": None, "initial_dO": 0.0, "divergence_ceiling": 1e12}

# Gain 1 and dO = 0.5e308 from step 0: steps 2-3 repeat step 1, and O overflows to inf at step 3.
_OVERFLOWING_FILL = (CrowdConfig(n=1, a=1.0, b_low=0.0, b_high=1.0, c=1.0), SwitchRule(1.0, window=1),
                     explicit_profile(6, [0.5e308] + [0.0] * 5), 0, None, False)


@settings(max_examples=100, deadline=None)
@given(case=small_runs() | steady_runs(), options=_RUN_OPTIONS, block_rows=st.integers(1, 8))
@example(case=_TRIPLING, options=_TRIPLING_OPTIONS, block_rows=4)
@example(case=_MARGINAL, options=_MARGINAL_OPTIONS, block_rows=1)
@example(case=_MARGINAL, options=_MARGINAL_OPTIONS, block_rows=8)  # step 26: 3rd row of steps 24-31
@example(case=_KICKED, options={**_SETTLED_OPTIONS, "initial_dO": -0.0}, block_rows=1)
@example(case=_KICKED, options={**_SETTLED_OPTIONS, "initial_dO": -0.0}, block_rows=8)  # kick at 13: steps 8-15
@example(case=_WARMING, options={**_SETTLED_OPTIONS, "initial_dO": 1.0, "divergence_ceiling": 1e3}, block_rows=4)
@example(case=_WIDE_NOISY, options=_SETTLED_OPTIONS, block_rows=3)
@example(case=_WIDE_SETTLED, options=_SETTLED_OPTIONS, block_rows=1)
@example(case=_WIDE_SETTLED, options=_SETTLED_OPTIONS, block_rows=5)
@example(case=_NOISY_TIPPING, options={**_SETTLED_OPTIONS, "divergence_ceiling": 1e5}, block_rows=1)
@example(case=_NOISY_TIPPING, options={**_SETTLED_OPTIONS, "divergence_ceiling": 1e5}, block_rows=8)  # steps 8-15
@example(case=_OVERFLOWING_FILL, options={**_SETTLED_OPTIONS, "pinned_reactive": 1, "divergence_ceiling": 1.7e308},
         block_rows=1)
@example(case=_WIENER_TIPPING, options={**_SETTLED_OPTIONS, "divergence_ceiling": 1e5}, block_rows=1)
@example(case=_WIENER_TIPPING, options={**_SETTLED_OPTIONS, "divergence_ceiling": 1e5}, block_rows=8)  # steps 8-15
@example(case=_FLIPPING_ZERO, options=_SETTLED_OPTIONS, block_rows=1)
@example(case=_FLIPPING_ZERO, options=_SETTLED_OPTIONS, block_rows=8)
def test_run_equals_a_per_step_loop(case, options, block_rows):
    """run(), in its default blocks and in blocks of `block_rows` rows, against `_per_step_run`, bit for bit.

    The moments are held against the oracle's rows merged with `CrowdMoments.add`
    in the run's blocks, whose edges a fill must keep.
    """
    cfg, rule, profile, seed, _, _ = case
    options = _capped(options, cfg.n)
    with np.errstate(over="ignore", invalid="ignore"):  # diverging crowds overflow on purpose
        steps, diverged = _per_step_run(cfg, rule, profile, seed, **options)
    dS, n_h, O, rows = zip(*steps)
    results = [(_run(cfg, rule, profile, seed, **options), step_block_rows(cfg.n, profile.length))]
    with mock.patch.multiple(metrics_module, _STEP_BLOCK_BYTES=8 * cfg.n * block_rows, _STEP_BLOCK_MIN_ROWS=1):
        results.append((_run(cfg, rule, profile, seed, **options), step_block_rows(cfg.n, profile.length)))
    # the moments hold every step but one at which O became inf or NaN
    merged = rows[: len(steps) - (not math.isfinite(O[-1]))]
    for result, rows_per_block in results:
        assert _bits(result.dS) == _bits(dS)
        assert result.n_reactive.tolist() == list(n_h)
        assert _bits(result.O) == _bits(O)
        assert _bits(result.agent_actions) == _bits(np.array(rows).T)
        assert (result.diverged, result.steps_run) == (diverged, len(steps))
        reference = CrowdMoments(cfg.n)
        with np.errstate(over="ignore", invalid="ignore"):  # as in run(): huge finite actions overflow m2
            for start in range(0, len(merged), rows_per_block):
                reference.add(np.array(merged[start : start + rows_per_block]))
        assert _moment_bits(result.moments) == _moment_bits(reference)


def _moment_bits(moments) -> tuple:
    return (moments.count, _bits(moments.mean), _bits(moments.m2), _bits(moments.comoment), _bits(moments.agg_m2))


def _direct_sync(window):
    """(rho_c, sigma_c) of an N x w window in one pass over its centred rows, not merged.

    An agent whose actions are all equal is centred on its first action,
    as in the merge; there is no roundoff threshold on the aggregate.
    """
    constant = np.all(window == window[:, :1], axis=1, keepdims=True)
    centred = window - np.where(constant, window[:, :1], window.mean(axis=1, keepdims=True))
    agg = centred.sum(axis=0)
    sigma_c = np.sqrt(agg @ agg / window.shape[1])
    sigma = np.sqrt(np.einsum("ij,ij->i", centred, centred) / window.shape[1])
    rho = np.zeros(window.shape[0])
    np.divide(centred @ agg / window.shape[1], sigma * sigma_c, out=rho, where=sigma * sigma_c > 0.0)
    return float(rho.mean()), float(sigma_c)


def _assert_moments_match_the_direct_form(result):
    """The run's streamed (rho_c, sigma_c) against `_direct_sync` on the steps they cover.

    Each form centres every action once, so each is off by rounding of the
    actions' magnitudes, not of their spread. With Q = sum_i mean_t x_i(t)**2
    over those steps: sigma_c**2 agrees within 1e-12 * N * Q (N * Q bounds
    sigma_c**2 by Cauchy-Schwarz), plus the smallest normal float for
    squares that underflow. rho_c agrees within 1e-12 absolute where
    sigma_c**2 >= 1e-4 * N * Q and every agent is constant or has
    sigma_i**2 >= 1e-4 * mean_t x_i(t)**2 >= 1e-4 * 1e-290; elsewhere the
    aggregate or an agent varies by too little for its magnitude, or its
    squares underflow, and rounding sets rho_c.
    """
    k = result.moments.count
    rho_c, sigma_c = result.moments.sync()
    if k == 0:
        assert (rho_c, sigma_c) == (0.0, 0.0)
        return
    window = result.agent_actions[:, :k]
    rho_ref, sigma_ref = _direct_sync(window)
    square = np.mean(window**2, axis=1)
    bound = window.shape[0] * float(square.sum())
    assert abs(sigma_c**2 - sigma_ref**2) <= 1e-12 * bound + np.finfo(float).tiny
    resolved = (np.var(window, axis=1) >= 1e-4 * square) & (square >= 1e-290)
    if sigma_ref**2 >= 1e-4 * bound and np.all(resolved | (np.ptp(window, axis=1) == 0.0)):
        assert abs(rho_c - rho_ref) <= 1e-12


def _result_bytes(result) -> dict:
    arrays = {name: (value.dtype, value.shape, value.tobytes())
              for name, value in vars(result).items() if isinstance(value, np.ndarray)}
    return {**arrays, "stability_trace": result.stability_trace, "diverged": result.diverged,
            "truncated_at": result.truncated_at}


@settings(max_examples=160, deadline=None)
@given(case=small_runs() | steady_runs(), options=_RUN_OPTIONS, block_rows=st.integers(1, 8))
@example(case=_TRIPLING, options=_TRIPLING_OPTIONS, block_rows=4)  # step 5: 2nd row of steps 4-7
@example(case=_TRIPLING, options=_TRIPLING_OPTIONS, block_rows=3)  # step 5: last row of steps 3-5
@example(case=_TRIPLING, options=_TRIPLING_OPTIONS, block_rows=20)  # 12 steps: shorter than a block
@example(case=_WIDE_NOISY, options={"pinned_reactive": None, "initial_dO": 0.0, "divergence_ceiling": 1e12},
         block_rows=3)
@example(case=_MARGINAL, options=_MARGINAL_OPTIONS, block_rows=8)  # step 26: 3rd row of steps 24-31
@example(case=_MARGINAL, options=_MARGINAL_OPTIONS, block_rows=40)  # steps 6-26 repeat step 5
@example(case=_KICKED, options={"pinned_reactive": None, "initial_dO": -0.0, "divergence_ceiling": 1e12},
         block_rows=8)  # steps 3-12 repeat step 2, across the block edge at 8; step 13 is computed
@example(case=_WARMING, options={"pinned_reactive": None, "initial_dO": 1.0, "divergence_ceiling": 1e3},
         block_rows=4)
def test_step_block_size_leaves_every_result_bit_unchanged(case, options, block_rows):
    cfg, rule, profile, seed, _, _ = case
    options = _capped(options, cfg.n)
    runs = [_run(cfg, rule, profile, seed, **options)]  # default block size
    # one-row blocks, whose every edge a fill crosses; then blocks of `block_rows` rows
    for budget in (1, 8 * cfg.n * block_rows):
        with mock.patch.multiple(metrics_module, _STEP_BLOCK_BYTES=budget, _STEP_BLOCK_MIN_ROWS=1):
            runs.append(_run(cfg, rule, profile, seed, **options))
    results = [_result_bytes(r) for r in runs]
    assert results[1] == results[0]
    assert results[2] == results[0]
    # the streamed moments round with the block size, so they are held to a tolerance
    for r in runs:
        _assert_moments_match_the_direct_form(r)


# Finite actions until step 4, whose aggregate overflows: the moments hold steps 0-3.
_OVERFLOWING = (CrowdConfig(n=2, a=1.0, b_low=0.0, b_high=0.5, c=[1.0, 0.5]), SwitchRule(1.0),
                explicit_profile(6, [1.0, -1.0, 2.0, 0.5, 1.5e308, 0.0]), 0, None, False)

# Opposite overflowing actions make O NaN at step 0: the moments hold no step.
_NAN_AT_ONCE = (CrowdConfig(n=2, a=1.0, b_low=0.0, b_high=1.0, c=[1e308, -1e308]), SwitchRule(1.0),
                explicit_profile(3, [10.0, 0.0, 0.0]), 0, None, False)


def _assert_window_sync_gives_the_moments(result):
    """The whole-run window over the kept matrix has the bits of the run's moments, and of its summary.

    Both cover the steps the moments hold: every step but one at which O became inf or NaN.
    """
    k = result.moments.count
    if k:
        (whole,) = _windows_of(result, metric_window=None)
        summary = summarize(result)
        assert (whole.start, whole.stop) == (0, k)
        assert (whole.rho_c, whole.sigma_c, whole.sigma_o, whole.t_d) == (
            summary.rho_c, summary.sigma_c, summary.sigma_o, summary.t_d)
    else:
        assert _windows_of(result, metric_window=None) == []


@pytest.mark.parametrize("name", ["fig4-stable", "fig5-unstable", "fig6-bubble"])
def test_whole_run_window_equals_the_moments_on_goldens(golden, name):
    _assert_window_sync_gives_the_moments(run(golden(name)))


@settings(max_examples=100, deadline=None)
@given(case=small_runs() | steady_runs(), options=_RUN_OPTIONS, block_rows=st.integers(1, 8))
@example(case=_OVERFLOWING, options={"pinned_reactive": None, "initial_dO": 0.0, "divergence_ceiling": 1e12},
         block_rows=3)
@example(case=_NAN_AT_ONCE, options={"pinned_reactive": None, "initial_dO": 0.0, "divergence_ceiling": 1e12},
         block_rows=3)
@example(case=_WIDE_NOISY, options={"pinned_reactive": None, "initial_dO": 0.0, "divergence_ceiling": 1e12},
         block_rows=3)
def test_whole_run_window_equals_the_moments(case, options, block_rows):
    cfg, rule, profile, seed, _, _ = case
    options = _capped(options, cfg.n)
    with mock.patch.multiple(metrics_module, _STEP_BLOCK_BYTES=8 * cfg.n * block_rows, _STEP_BLOCK_MIN_ROWS=1):
        _assert_window_sync_gives_the_moments(_run(cfg, rule, profile, seed, **options))


def _ramped_trio(k):
    """The summary of three agents with c = 1, -0.5, 0.2 times 2**k on a ramp of 10 of 20 steps.

    a = 1e-300 keeps every agent normal, so each action is c_i * dE: rho_c is 1/3 and sigma_c 0.35 * 2**k.
    """
    cfg = CrowdConfig(n=3, a=1e-300, b_low=0.0, b_high=1.0, c=[math.ldexp(c, k) for c in (1.0, -0.5, 0.2)])
    return summarize(run(spec_of(cfg, SwitchRule(saturation_scale=1.0), ramp_profile(20, 1.0, 0, 10))))


def test_summary_scales_exactly_past_the_range_of_squares():
    """Scaling every c by 2**k leaves rho_c's bits and scales sigma_c by 2**k, though from k = 512 on
    the squares of the actions pass the float64 range."""
    base = _ramped_trio(0)
    assert base.rho_c == pytest.approx(1 / 3, abs=1e-15) and base.sigma_c == pytest.approx(0.35, rel=1e-15)
    for k in (100, 300, 500, 660, 800, 900):
        scaled = _ramped_trio(k)
        assert (scaled.rho_c, scaled.sigma_c) == (base.rho_c, math.ldexp(base.sigma_c, k)), k


def test_summary_of_a_run_diverging_past_the_range_of_squares_is_finite():
    cfg = CrowdConfig(n=4, a=1.0, b_low=0.0, b_high=1e100, c=1.0)
    result = run(spec_of(cfg, SwitchRule(saturation_scale=1e-300), step_profile(50, 1.0, 0), divergence_ceiling=1.7e308))
    summary = summarize(result)
    assert result.diverged and result.moments.count == 4
    assert summary.sigma_c > 1e300
    assert all(map(math.isfinite, (summary.rho_c, summary.sigma_c, summary.sigma_o, summary.t_d, summary.mean_R)))


def _computed_steps(n):
    """A quiet-tailed step crowd of `n` agents, the steps its run computed (calls to the
    switch rule), and the first block edge at or after the step whose window first repeats one dO.
    """
    rule_fn = scenarios_module.update_reactive_count
    with mock.patch.object(scenarios_module, "update_reactive_count", wraps=rule_fn) as counted:
        result = run(spec_of(simple_config(n=n, a=1 / n), SwitchRule(0.3), step_profile(2000, 1.0, 5)))
    settle = int(np.flatnonzero(result.dO)[-1]) + 1
    rows = step_block_rows(n, 2000)
    return result, counted.call_count, settle, -(-(settle + SwitchRule(0.3).window + 1) // rows) * rows


def test_quiet_steps_are_filled_not_stepped():
    # dO is exactly 0 from step 16 on, so its window repeats it at step 16 + window, and
    # every block after the one that holds that step is filled; in 40-row blocks,
    # the steps before 40 are computed, where a loop that computed each step
    # would call the switch rule 2000 times
    result, computed, settle, edge = _computed_steps(100)
    assert settle == 16 and not np.any(result.dO[16:])
    assert computed == edge == 40


def test_wide_quiet_steps_are_filled_across_block_edges():
    # N > 512 runs in 8-row blocks; no block after the one where the window repeats is computed
    result, computed, settle, edge = _computed_steps(600)
    assert settle < 40 and not np.any(result.dO[settle:])
    assert computed == edge == 24


def test_tripling_example_diverges_at_step_5():
    cfg, rule, profile, seed, _, _ = _TRIPLING
    assert _run(cfg, rule, profile, seed, **_TRIPLING_OPTIONS).truncated_at == 5


# ---------------------------------------------------------------------------
# exact relations of a whole run
# ---------------------------------------------------------------------------

def _in_units_of_dO(cfg, rule, profile, options, k):
    """The case with every input in the units of dO times 2**k: the force, the noise's
    half-widths, the Wiener mu and sigma, the saturation scale, the ceiling and the initial dO."""
    model = cfg.noise_model
    if isinstance(model, WienerNoise):
        model = WienerNoise(mu=math.ldexp(model.mu, k), sigma=math.ldexp(model.sigma, k))
    options = {**options, "initial_dO": math.ldexp(options["initial_dO"], k),
               "divergence_ceiling": math.ldexp(options["divergence_ceiling"], k)}
    return (replace(cfg, noise_amp=np.ldexp(cfg.noise_amp, k), noise_model=model),
            replace(rule, saturation_scale=math.ldexp(rule.saturation_scale, k)),
            explicit_profile(profile.length, np.ldexp(profile.increments, k)), options)


def _magnitudes(*values):
    """The nonzero finite magnitudes among `values` (numbers and arrays)."""
    flat = np.abs(np.concatenate([np.ravel(np.asarray(v, dtype=np.float64)) for v in values]))
    return flat[np.isfinite(flat) & (flat > 0.0)]


def _stays_normal(cfg, rule, profile, options, result, k):
    """Whether the run and its copy at 2**k stay far inside the normal range.

    Scaling by 2**k is exact while no value is subnormal or overflows. So the
    case is kept only where every nonzero magnitude in the units of dO (the
    inputs above and the run's actions, dS, dO and O) lies in [2**-400, 2**300]
    at both scales, and every nonzero coefficient (a, b, c, dt) is at least
    2**-100. Then each product of a coefficient and such a value is above
    2**-500, each squared deviation of the moments above 2**-906 (a deviation
    is at least an ulp, 2**-52 of its action), both above 2**-1022, and no
    square nears the moments' rescaling bound of 2**798.
    """
    model = cfg.noise_model
    wiener = (model.mu, model.sigma) if isinstance(model, WienerNoise) else ()
    values = _magnitudes(profile.increments, cfg.noise_amp, *wiener, rule.saturation_scale,
                         options["initial_dO"], options["divergence_ceiling"],
                         result.agent_actions, result.dS, result.dO, result.O)
    coefficients = _magnitudes(cfg.a, cfg.b_low, cfg.b_high, cfg.c, cfg.dt)
    return (values.min() >= 2.0 ** (-400 - min(k, 0)) and values.max() <= 2.0 ** (300 - max(k, 0))
            and coefficients.min() >= 2.0**-100)


@settings(max_examples=60, deadline=None)
@given(case=small_runs() | steady_runs(), options=_RUN_OPTIONS, k=st.integers(-200, 200))
@example(case=_FIG4_CASE, options=_FIG4_OPTIONS, k=-40)
@example(case=_FIG5_CASE, options=_FIG5_OPTIONS, k=-40)
@example(case=_FIG6_CASE, options=_FIG6_OPTIONS, k=-40)
@example(case=_FIG6_CASE, options=_FIG6_OPTIONS, k=200)
def test_a_run_scales_exactly_with_the_units_of_dO(case, options, k):
    """Every input in the units of dO times 2**k scales each action, dS, dO, O, sigma_c and sigma_O by
    2**k, and leaves the bits of N_H, R, a*B, the stability trace, rho_c, T_d and mean_R, and where the
    run stops."""
    cfg, rule, profile, seed, _, _ = case
    options = _capped(options, cfg.n)
    base = _run(cfg, rule, profile, seed, **options)
    assume(_stays_normal(cfg, rule, profile, options, base, k))
    *scaled_case, scaled_options = _in_units_of_dO(cfg, rule, profile, options, k)
    scaled = _run(*scaled_case, seed, **scaled_options)
    for column in ("agent_actions", "dS", "dO", "O"):
        assert _bits(getattr(scaled, column)) == _bits(np.ldexp(getattr(base, column), k)), column
    assert scaled.n_reactive.tolist() == base.n_reactive.tolist()
    assert _bits(scaled.r_instant) == _bits(base.r_instant)
    assert _bits(scaled.ab) == _bits(base.ab)
    assert scaled.stability_trace == base.stability_trace
    assert (scaled.steps_run, scaled.diverged) == (base.steps_run, base.diverged)
    got, want = summarize(scaled), summarize(base)
    assert _bits([got.rho_c, got.t_d, got.mean_R]) == _bits([want.rho_c, want.t_d, want.mean_R])
    assert _bits([got.sigma_c, got.sigma_o]) == _bits(np.ldexp([want.sigma_c, want.sigma_o], k))


@settings(max_examples=60, deadline=None)
@given(case=small_runs() | steady_runs(), options=_RUN_OPTIONS)
@example(case=_FIG4_CASE, options=_FIG4_OPTIONS)
@example(case=_FIG5_CASE, options=_FIG5_OPTIONS)
@example(case=_FIG6_CASE, options=_FIG6_OPTIONS)
def test_a_noiseless_run_is_odd_in_the_force(case, options):
    """Negating the force and the initial dO of a crowd without noise negates each action, dS, dO and O
    (by value: a sum of opposite terms is +0.0 either way), and leaves the bits of N_H, R, rho_c, sigma_c
    and T_d."""
    cfg, rule, profile, seed, _, _ = case
    cfg, options = replace(cfg, noise_model=NoNoise()), _capped(options, cfg.n)
    base = _run(cfg, rule, profile, seed, **options)
    negated = _run(cfg, rule, explicit_profile(profile.length, -profile.increments), seed,
                   **{**options, "initial_dO": -options["initial_dO"]})
    for column in ("agent_actions", "dS", "dO", "O"):
        assert np.array_equal(getattr(negated, column), -getattr(base, column), equal_nan=True), column
    assert negated.n_reactive.tolist() == base.n_reactive.tolist()
    assert _bits(negated.r_instant) == _bits(base.r_instant)
    got, want = summarize(negated), summarize(base)
    assert _bits([got.rho_c, got.sigma_c, got.t_d]) == _bits([want.rho_c, want.sigma_c, want.t_d])


# ---------------------------------------------------------------------------
# golden regimes (full assertions live in the acceptance suite)
# ---------------------------------------------------------------------------

def test_golden_regimes_qualitative(golden):
    stable = run(golden("fig4-stable"))
    assert not stable.diverged and summarize(stable).final_ratio == 0.0

    unstable = run(golden("fig5-unstable"))
    assert unstable.diverged and summarize(unstable).peak_ratio == 1.0

    bubble = run(golden("fig6-bubble"))
    assert not bubble.diverged
    assert bubble.O.max() > bubble.O[-1] > 0.0


# ---------------------------------------------------------------------------
# forced-ratio experiments
# ---------------------------------------------------------------------------

def test_forced_ratio_fully_reactive_noiseless():
    cfg = simple_config(n=50, b_high=1.0)
    assert forced_ratio_mean(cfg, 1.0) == 1.0


def test_forced_ratio_rounds_half_way_counts_away_from_zero():
    """ratio*N = 2.5 makes 3 agents reactive, as the switch rule rounds (not banker's 2).

    Each reactive agent acts +1 and each normal one -1, so R = |2k - 10| / 10.
    """
    cfg = simple_config(n=10, b_low=-1.0, b_high=1.0)
    assert forced_ratio_mean(cfg, 0.25) == 0.4  # k = 3; k = 2 gives 0.6
    assert forced_ratio_mean(cfg, 0.2) == 0.6


def test_forced_ratio_zero_with_symmetric_normals_decays_with_n():
    n = 10_000
    signs = make_generator(8).choice([-1.0, 1.0], n)
    cfg = CrowdConfig(n=n, a=0.001, b_low=0.2 * signs, b_high=1.0, c=1.0)
    assert forced_ratio_mean(cfg, 0.0, seed=3) < 0.05


def test_forced_ratio_half_matches_closed_form():
    n = 10_000
    signs = make_generator(9).choice([-1.0, 1.0], n)
    cfg = CrowdConfig(n=n, a=0.001, b_low=0.2 * signs, b_high=1.0, c=1.0)
    simulated = forced_ratio_mean(cfg, 0.5, seed=4)
    b_low_avg = float(np.mean(cfg.b_low))
    assert simulated == pytest.approx(
        order_parameter_closed_form(0.5, 1.0, b_low_avg, 0.2), abs=0.02
    )
    assert simulated == pytest.approx(0.8333, abs=0.02)


def test_forced_ratio_per_agent_noise_amplitudes():
    cfg = simple_config(n=7)
    scalar = forced_ratio_samples(cfg, [(0.5, 0.3)], trials=500, seed=2)
    per_agent = forced_ratio_samples(cfg, [(0.5, np.full(7, 0.3))], trials=500, seed=2)
    assert np.array_equal(per_agent, scalar)
    assert np.all(forced_ratio_samples(cfg, [(1.0, np.zeros(7))], trials=50) == 1.0)
    last_noisy = np.array([0.0] * 6 + [5.0])  # only the last agent's draws can break the sync
    assert forced_ratio_samples(cfg, [(1.0, last_noisy)], trials=50).mean() < 1.0


def test_forced_ratio_validation():
    cfg = simple_config(n=10)
    with pytest.raises(ValueError):
        forced_ratio_samples(cfg, [(1.5, 0.0)])
    with pytest.raises(ValueError):
        forced_ratio_samples(cfg, [(0.5, 0.0)], trials=0)
    for drive in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^dO_drive must be finite"):
            forced_ratio_samples(cfg, [(0.5, 0.0)], dO_drive=drive)
    # finite drives whose sum of actions overflows; an action that overflows; actions +-1e308 whose sum is 0
    for crowd, ratio, drive in ((cfg, 1.0, 1e308), (simple_config(n=10, b_high=1e300), 1.0, 1e10),
                                (simple_config(n=2, b_low=-1.0, b_high=1.0), 0.5, 1e308)):
        with pytest.raises(ValueError, match=re.escape(f"dO_drive={drive:g} overflows")):
            forced_ratio_samples(crowd, [(ratio, 0.0)], dO_drive=drive)
    for noise_amp in (math.nan, math.inf, -0.5, np.r_[np.zeros(9), math.nan], np.zeros(3)):
        with pytest.raises(ValueError, match="noise_amp"):
            forced_ratio_samples(cfg, [(0.5, noise_amp)])


def sequential_forced_ratio(config, ratio, dO_drive, noise_amp, trials, seed):
    """The sampler's trials as one draw of the stream, as `run()` draws uniform noise, summed row by row."""
    n_h = min(int(math.floor(ratio * config.n + 0.5)), config.n)
    rank = np.empty(config.n, dtype=np.intp)
    rank[switch_priority(config.b_high)] = np.arange(config.n)
    base = np.where(rank < n_h, config.b_high, config.b_low) * dO_drive
    acts = make_generator(seed).uniform(-1.0, 1.0, (trials, config.n)) * noise_amp + base
    return metrics_module.order_ratio(acts.sum(axis=1), np.abs(acts).sum(axis=1))


_NOISE_KINDS = ("scalar", "per-agent", "zero", "zeros")


def _half_width(kind, n):
    """A point's noise half-width: 0.7, per-agent widths in [0, 2], or 0 as a scalar or per agent."""
    return {"scalar": 0.7, "per-agent": np.linspace(0.0, 2.0, n), "zero": 0.0, "zeros": np.zeros(n)}[kind]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    trials=st.integers(1, 300),
    cpus=st.integers(1, 5),
    block_rows=st.floats(0.0, 4.0),
    points=st.lists(st.tuples(st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from(_NOISE_KINDS)),
                    min_size=1, max_size=4),
    drive=st.sampled_from([1.3, -1.3]),
    seed=st.integers(0, 2**32),
)
@example(n=5, trials=299, cpus=2, block_rows=0.0, points=[(0.3, "scalar")], drive=1.3, seed=0)
@example(n=39, trials=300, cpus=5, block_rows=4.0, points=[(1.0, "per-agent")], drive=1.3, seed=7)
@example(n=6, trials=9, cpus=2, block_rows=1.0,  # -1.3 times b_low's 0.0 is a -0.0 action
         points=[(0.0, "zero"), (0.3, "scalar"), (0.0, "zeros"), (1.0, "per-agent")], drive=-1.3, seed=3)
def test_forced_ratio_bits_do_not_depend_on_the_split(n, trials, cpus, block_rows, points, drive, seed):
    """Any block size and thread count give each point i the bits of one sequential draw from seed + i."""
    cfg = CrowdConfig(n=n, a=0.01, b_low=np.r_[0.0, np.linspace(-0.5, 0.4, n - 1)], b_high=1.0, c=1.0)
    draw_block = max(1, round(block_rows * n))  # 1 to 4n draws
    widths = [(ratio, _half_width(kind, n)) for ratio, kind in points]
    with mock.patch.multiple(scenarios_module, _DRAW_BLOCK=draw_block, _usable_cpus=lambda: cpus):
        got = forced_ratio_samples(cfg, widths, drive, trials, seed)
    assert got.shape == (len(points), trials)
    for i, (ratio, noise_amp) in enumerate(widths):
        want = sequential_forced_ratio(cfg, ratio, drive, noise_amp, trials, seed + i)
        assert got[i].tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 40),
    trials=st.integers(1, 50),
    points=st.lists(st.tuples(st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from(_NOISE_KINDS)),
                    min_size=1, max_size=3),
    drive=st.sampled_from([1.3, -1.3]),
    k=st.integers(-150, 150),
    seed=st.integers(0, 2**32),
)
@example(n=7, trials=20, points=[(0.3, "scalar"), (1.0, "per-agent")], drive=1.3, k=-30, seed=0)
@example(n=7, trials=20, points=[(0.3, "scalar"), (1.0, "per-agent")], drive=-1.3, k=150, seed=1)
def test_forced_ratio_bits_do_not_depend_on_the_units_of_dO(n, trials, points, drive, k, seed):
    """The drive and every noise half-width times 2**k scale each action by 2**k, which leaves the
    bits of each order parameter: every action and sum stays inside the normal range for |k| <= 150."""
    cfg = CrowdConfig(n=n, a=0.01, b_low=np.r_[0.0, np.linspace(-0.5, 0.4, n - 1)], b_high=1.0, c=1.0)
    widths = [(ratio, _half_width(kind, n)) for ratio, kind in points]
    want = forced_ratio_samples(cfg, widths, drive, trials, seed)
    scaled = [(ratio, np.ldexp(noise_amp, k)) for ratio, noise_amp in widths]
    assert forced_ratio_samples(cfg, scaled, math.ldexp(drive, k), trials, seed).tobytes() == want.tobytes()


def test_forced_ratio_refusal_names_the_noise_that_overflows_a_trial_sum():
    """A finite drive with noise whose trial sums overflow: the one-line refusal names both."""
    cfg = CrowdConfig(n=3, a=0.1, b_low=0.0, b_high=1.0, c=1.0)
    message = "the sum of a trial's actions at dO_drive=1 overflows (largest noise half-width 8.9e+307)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        forced_ratio_samples(cfg, [(0.5, 8.9e307)], dO_drive=1.0, trials=50)


class _InOrderPhilox(np.random.Philox):
    """Philox whose stream may only be read in order."""

    def advance(self, delta):
        raise AssertionError(f"stream skipped ahead by {delta}")


def test_forced_ratio_builds_one_generator_per_drawing_point():
    """Each noisy point builds its stream once and reads it in order; a zero-width point builds none."""
    cfg = CrowdConfig(n=500, a=0.01, b_low=0.0, b_high=1.0, c=1.0)
    points = [(1.0, float(amp)) for amp in np.linspace(0.0, 0.5, 11)]  # as the `tipping-sweep` curve
    want = forced_ratio_samples(cfg, points, trials=2000, seed=5)
    with mock.patch.object(np.random, "Philox", _InOrderPhilox), \
            mock.patch.object(scenarios_module, "make_generator", wraps=scenarios_module.make_generator) as built:
        got = forced_ratio_samples(cfg, points, trials=2000, seed=5)
    assert sorted(call.args[0] for call in built.call_args_list) == list(range(6, 16))  # seed + i, i = 1..10
    assert got.tobytes() == want.tobytes()


def test_forced_ratio_checks_every_point_before_drawing():
    """A bad last point is refused before the first point draws."""
    cfg = simple_config(n=10)
    with mock.patch.object(scenarios_module, "make_generator", side_effect=AssertionError("drew")):
        with pytest.raises(ValueError, match="ratio must be in"):
            forced_ratio_samples(cfg, [(0.5, 0.3), (1.5, 0.3)])
        with pytest.raises(ValueError, match="noise_amp"):
            forced_ratio_samples(cfg, [(0.5, 0.3), (0.5, -0.5)])
        assert np.all(forced_ratio_samples(cfg, [(1.0, 0.0), (1.0, np.zeros(10))], trials=3) == 1.0)
    # noise of half-width a is drawn within [-a, a]: finite for any finite a, and so are these trials' sums
    per_agent = np.full(10, 0.3)
    per_agent[7] = 1e308
    assert np.isfinite(forced_ratio_samples(cfg, [(0.5, 0.3), (0.5, per_agent)], trials=4)).all()
    assert np.isfinite(forced_ratio_samples(simple_config(n=1), [(0.5, 1e308)], trials=4)).all()


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_empty_values():
    cfg = simple_config()
    assert sweep(spec_of(cfg, SwitchRule(saturation_scale=1.0), zero_profile(10)), "a", []) == []


def test_sweep_unknown_param_lists_valid_names():
    cfg = simple_config()
    with pytest.raises(ValueError, match="saturation_scale"):
        sweep(spec_of(cfg, SwitchRule(saturation_scale=1.0), zero_profile(10)), "bogus", [1.0])


def test_sweep_orders_results_and_records_seeds():
    cfg = simple_config()
    rule = SwitchRule(saturation_scale=0.5)
    prof = step_profile(40, 1.0, 5)
    points = sweep(spec_of(cfg, rule, prof, seed=10), "b_high", [0.2, 0.5, 0.8], seed_policy="per-value")
    assert [p.value for p in points] == [0.2, 0.5, 0.8]
    assert [p.summary.seed for p in points] == [10, 11, 12]
    # stronger coupling holds the reactive phase longer
    assert points[0].summary.peak_ratio <= points[-1].summary.peak_ratio


def test_sweep_refuses_an_unknown_seed_policy():
    spec = spec_of(simple_config(), SwitchRule(saturation_scale=1.0), zero_profile(5))
    with pytest.raises(ValueError, match="^seed_policy must be 'fixed' or 'per-value', got 'random'$"):
        sweep(spec, "a", [0.01], seed_policy="random")


@pytest.mark.parametrize("param, values", [("saturation_scale", [0.1, 0.3, 2.0]), ("n", [50, 120]),
                                           ("b_high", [0.3, 0.9])])
def test_each_sweep_point_is_the_run_of_its_own_spec(param, values):
    """A point's summary is `summarize(run(spec))` of its spec: the value applied, and seed + i under "per-value"."""
    cfg = simple_config(noise_amp=0.05, noise_model=UniformNoise())
    spec = spec_of(cfg, SwitchRule(saturation_scale=0.5), step_profile(40, 1.0, 5), seed=7)
    points = sweep(spec, param, values, seed_policy="per-value")
    for i, (value, point) in enumerate(zip(values, points)):
        own = replace(apply_sweep_value(spec, param, value), seed=7 + i)
        assert point.summary == summarize(run(own))
    rules = [apply_sweep_value(spec, param, v).rule.saturation_scale for v in values]
    assert rules == (values if param == "saturation_scale" else [0.5] * len(values))


def test_sweep_over_population_size_rebuilds_agents():
    cfg = simple_config(n=10)
    new_cfg = apply_sweep_value(spec_of(cfg, SwitchRule(saturation_scale=1.0), zero_profile(5)), "n", 25).config
    assert new_cfg.n == 25 and new_cfg.b_high.shape == (25,)
    assert new_cfg.b_high[24] == cfg.b_high[0]


def test_sweep_parallel_matches_serial():
    cfg = simple_config()
    rule = SwitchRule(saturation_scale=0.5)
    prof = step_profile(30, 1.0, 5)
    serial = sweep(spec_of(cfg, rule, prof), "a", [0.005, 0.01])
    parallel = sweep(spec_of(cfg, rule, prof), "a", [0.005, 0.01], jobs=2)
    for s, p in zip(serial, parallel):
        assert s.summary == p.summary


def test_sweep_rejects_fractional_population_size(monkeypatch):
    spec = spec_of(simple_config(n=10), SwitchRule(saturation_scale=1.0), zero_profile(5))
    with monkeypatch.context() as m:
        m.setattr(scenarios_module, "run", lambda *a, **kw: pytest.fail("ran before validating"))
        with pytest.raises(ValueError, match="whole numbers"):
            sweep(spec, "n", [10, 10.7])
    with pytest.raises(ValueError, match="whole numbers"):
        apply_sweep_value(spec, "n", 10.7)
    assert apply_sweep_value(spec, "n", 12.0).config.n == 12


def test_sweep_checks_every_value_before_any_run(monkeypatch):
    spec = spec_of(simple_config(n=10), SwitchRule(saturation_scale=1.0), zero_profile(5))
    with monkeypatch.context() as m:
        m.setattr(scenarios_module, "run", lambda *a, **kw: pytest.fail("ran before validating"))
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="b_high"):
                sweep(spec, "b_high", [0.5, 0.8, -1.0], jobs=jobs)


def test_sweep_rejects_jobs_below_one():
    with pytest.raises(ValueError, match="jobs"):
        sweep(spec_of(simple_config(), SwitchRule(saturation_scale=1.0), zero_profile(5)), "a", [0.01], jobs=0)


def test_sweep_caps_worker_count(monkeypatch):
    """Workers are min(jobs, runs, CPUs); the pool is a stand-in, so no process starts."""
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)  # imported where the pool is made
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # CPUs outside the affinity set do not count
    spec = spec_of(simple_config(n=5), SwitchRule(saturation_scale=1.0), zero_profile(5))
    serial = sweep(spec, "a", [0.01] * 5)
    assert seen == []
    assert sweep(spec, "a", [0.01] * 5, jobs=64) == serial
    sweep(spec, "a", [0.01] * 2, jobs=64)
    sweep(spec, "a", [0.01] * 5, jobs=2)
    assert seen == [3, 2, 2]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # as on macOS and Windows
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    sweep(spec, "a", [0.01] * 5, jobs=64)
    assert seen == [3, 2, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    sweep(spec, "a", [0.01] * 5, jobs=64)
    assert seen == [3, 2, 2, 4]
