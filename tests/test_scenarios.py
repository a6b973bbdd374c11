"""Profiles, the canonical step loop, sweeps, forced-ratio experiments."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crowdsync.scenarios as scenarios_module
from crowdsync.dynamics import CrowdConfig, NoNoise, UniformNoise, WienerNoise
from crowdsync.metrics import order_parameter_closed_form
from crowdsync.scenarios import (
    aggregate_trajectory,
    apply_sweep_value,
    bubble_profile,
    build_profile,
    explicit_profile,
    forced_ratio_samples,
    ramp_profile,
    run,
    run_spec,
    step_profile,
    summarize,
    sweep,
    window_reports,
    zero_profile,
)
from crowdsync.switching import Stability, SwitchRule
from crowdsync.rng import make_generator


def simple_config(n=100, a=0.01, b_low=0.0, b_high=0.5, c=1.0, **kw):
    return CrowdConfig(n=n, a=a, b_low=b_low, b_high=b_high, c=c, **kw)


def forced_ratio_mean(config, ratio, **kw):
    return float(forced_ratio_samples(config, ratio, **kw).mean())


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


def test_explicit_profile_roundtrip():
    series = [0.1, -0.2, 0.3]
    assert np.array_equal(explicit_profile(3, series).increments, series)
    with pytest.raises(ValueError):
        explicit_profile(4, series)


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
    result = run(cfg, SwitchRule(saturation_scale=1.0), zero_profile(50))
    assert np.all(result.dS == 0.0)
    assert np.all(result.dO == 0.0)
    assert np.all(result.n_reactive == 0)
    assert result.peak_ratio == 0.0


def test_step_records_are_internally_consistent(golden):
    spec = golden("fig4-stable")
    result = run_spec(spec)
    sums = result.agent_actions.sum(axis=0)
    assert np.allclose(result.dS, sums, rtol=1e-12, atol=1e-15)
    assert np.array_equal(result.dO, spec.config.a * result.dS)
    assert np.all((0 <= result.n_reactive) & (result.n_reactive <= spec.config.n))
    assert np.array_equal(result.O, np.cumsum(result.dO))
    assert np.array_equal(result.S, np.cumsum(result.dS))
    assert np.array_equal(result.t, np.arange(result.steps_run))


def test_delayed_response_recursion_holds_in_engine(golden):
    """Each dO equals (a*C)*dE + (a*B)*dO_prev with that step's coupling."""
    spec = golden("fig4-stable")
    result = run_spec(spec)
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
    result = run(cfg, SwitchRule(saturation_scale=1.0), prof, pinned_reactive=20)
    b_total = 20 * 0.9
    c_total = 37 * 1.3
    reference = aggregate_trajectory(cfg.a, b_total, c_total, prof.increments)
    assert np.allclose(result.dO, reference, rtol=1e-12, atol=1e-15)


def test_run_is_bit_deterministic():
    cfg = simple_config(noise_amp=0.05, noise_model=UniformNoise())
    rule = SwitchRule(saturation_scale=0.5)
    prof = step_profile(40, 1.0, 5)
    r1 = run(cfg, rule, prof, seed=123)
    r2 = run(cfg, rule, prof, seed=123)
    assert np.array_equal(r1.dO, r2.dO)
    assert np.array_equal(r1.dS, r2.dS)
    assert np.array_equal(r1.n_reactive, r2.n_reactive)
    assert np.array_equal(r1.agent_actions, r2.agent_actions)
    r3 = run(cfg, rule, prof, seed=124)
    assert not np.array_equal(r1.dO, r3.dO)


def test_wiener_noise_preserves_record_invariants():
    cfg = simple_config(n=10, noise_model=WienerNoise(mu=0.01, sigma=0.1))
    result = run(cfg, SwitchRule(saturation_scale=1.0), zero_profile(50), seed=7)
    assert np.array_equal(result.dO, cfg.a * result.dS)
    assert np.allclose(result.dS, result.agent_actions.sum(axis=0), rtol=1e-12, atol=1e-15)
    assert np.any(result.dO != 0.0)


def test_divergence_truncates_and_marks():
    cfg = simple_config(b_high=1.5)  # peak gain 1.5
    rule = SwitchRule(saturation_scale=0.2)
    result = run(cfg, rule, step_profile(500, 1.0, 0), divergence_ceiling=1e6)
    assert result.diverged
    assert result.truncated_at == result.steps_run - 1
    assert abs(result.O[-1]) > 1e6
    assert abs(result.O[-2]) <= 1e6
    assert result.stability_trace[-1] is Stability.AMPLIFYING


def test_nan_observation_counts_as_divergence():
    """Opposite overflowing agents make dS = inf - inf; the run stops there."""
    cfg = CrowdConfig(n=2, a=1.0, b_low=0.0, b_high=1.0, c=[1e308, -1e308])
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the point
        result = run(cfg, SwitchRule(saturation_scale=1.0), explicit_profile(3, [10.0, 0.0, 0.0]))
    assert math.isnan(result.O[0])
    assert result.diverged and result.truncated_at == 0 and result.steps_run == 1


@pytest.mark.parametrize("ceiling", [math.inf, math.nan, 0.0, -1.0])
def test_non_finite_divergence_ceiling_rejected(ceiling):
    with pytest.raises(ValueError, match="divergence_ceiling"):
        run(simple_config(), SwitchRule(saturation_scale=1.0), zero_profile(5),
            divergence_ceiling=ceiling)


def test_pinned_reactive_bypasses_rule():
    cfg = simple_config(b_high=1.0)
    result = run(cfg, SwitchRule(saturation_scale=1e9), zero_profile(20),
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
        result = run(spec.config, spec.rule, profile)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (n, result.steps_run) == (100, steps)
    assert peak <= 1.2 * n * steps * 8, f"peak {peak / 1e6:.1f} MB"


def test_metric_windows_nonoverlapping_and_overlapping(golden):
    spec = golden("fig4-stable")
    result = run_spec(spec)
    reports = window_reports(result, spec.metric_window, spec.overlap)
    assert [(w.start, w.stop) for w in reports] == [(0, 20), (20, 40), (40, 60), (60, 80)]
    assert len(window_reports(result, spec.metric_window, overlap=True)) == 80 - 20 + 1
    (whole,) = window_reports(result)
    summary = summarize(result)
    assert (whole.rho_c, whole.sigma_c, whole.sigma_o) == (
        summary.rho_c, summary.sigma_c, summary.sigma_o)
    assert [(w.start, w.stop) for w in window_reports(result, 500)] == [(0, 80)]
    with pytest.raises(ValueError, match="window"):
        window_reports(result, 0)


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
    noise = draw(st.sampled_from([NoNoise(), UniformNoise(), WienerNoise(mu=0.01, sigma=0.1)]))
    cfg = CrowdConfig(n=n, a=draw(st.floats(0.01, 1.0)), b_low=b_low, b_high=b_high, c=c,
                      noise_amp=noise_amp, noise_model=noise)
    rule = SwitchRule(saturation_scale=draw(st.floats(0.01, 10.0)), window=draw(st.integers(1, 6)))
    profile = explicit_profile(steps, draw(st.lists(_COEF, min_size=steps, max_size=steps)))
    seed = draw(st.integers(0, 2**32))
    window = draw(st.none() | st.integers(1, steps))
    return cfg, rule, profile, seed, window, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(small_runs())
def test_metrics_stay_in_range_on_generated_crowds(case):
    cfg, rule, profile, seed, window, overlap = case
    result = run(cfg, rule, profile, seed)
    assert np.all((result.r_instant >= 0.0) & (result.r_instant <= 1.0))
    reports = window_reports(result, window, overlap)
    assert reports
    for report in reports:
        assert 0.0 <= report.t_d <= 1.0
        assert abs(report.rho_c) <= 1.0
        assert report.sigma_c >= 0.0
        assert report.sigma_o == cfg.a * report.sigma_c
    summary = summarize(result)
    assert 0.0 <= summary.t_d <= 1.0 and 0.0 <= summary.mean_R <= 1.0


# ---------------------------------------------------------------------------
# golden regimes (full assertions live in the acceptance suite)
# ---------------------------------------------------------------------------

def test_golden_regimes_qualitative(golden):
    stable = run_spec(golden("fig4-stable"))
    assert not stable.diverged and stable.final_ratio == 0.0

    unstable = run_spec(golden("fig5-unstable"))
    assert unstable.diverged and unstable.peak_ratio == 1.0

    bubble = run_spec(golden("fig6-bubble"))
    assert not bubble.diverged
    assert bubble.O.max() > bubble.O[-1] > 0.0


# ---------------------------------------------------------------------------
# forced-ratio experiments
# ---------------------------------------------------------------------------

def test_forced_ratio_fully_reactive_noiseless():
    cfg = simple_config(n=50, b_high=1.0)
    assert forced_ratio_mean(cfg, 1.0) == 1.0


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
    scalar = forced_ratio_samples(cfg, 0.5, noise_amp=0.3, trials=500, seed=2)
    per_agent = forced_ratio_samples(cfg, 0.5, noise_amp=np.full(7, 0.3), trials=500, seed=2)
    assert np.array_equal(per_agent, scalar)
    assert np.all(forced_ratio_samples(cfg, 1.0, noise_amp=np.zeros(7), trials=50) == 1.0)
    last_noisy = np.array([0.0] * 6 + [5.0])  # only the last agent's draws can break the sync
    assert forced_ratio_samples(cfg, 1.0, noise_amp=last_noisy, trials=50).mean() < 1.0


def test_forced_ratio_validation():
    cfg = simple_config(n=10)
    with pytest.raises(ValueError):
        forced_ratio_samples(cfg, 1.5)
    with pytest.raises(ValueError):
        forced_ratio_samples(cfg, 0.5, trials=0)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_empty_values():
    cfg = simple_config()
    assert sweep(cfg, SwitchRule(saturation_scale=1.0), "a", [], zero_profile(10)) == []


def test_sweep_unknown_param_lists_valid_names():
    cfg = simple_config()
    with pytest.raises(ValueError, match="saturation_scale"):
        sweep(cfg, SwitchRule(saturation_scale=1.0), "bogus", [1.0], zero_profile(10))


def test_sweep_orders_results_and_records_seeds():
    cfg = simple_config()
    rule = SwitchRule(saturation_scale=0.5)
    prof = step_profile(40, 1.0, 5)
    points = sweep(cfg, rule, "b_high", [0.2, 0.5, 0.8], prof, seed_policy="per-value", seed=10)
    assert [p.value for p in points] == [0.2, 0.5, 0.8]
    assert [p.summary.seed for p in points] == [10, 11, 12]
    # stronger coupling holds the reactive phase longer
    assert points[0].summary.peak_ratio <= points[-1].summary.peak_ratio


def test_sweep_over_population_size_rebuilds_agents():
    cfg = simple_config(n=10)
    new_cfg, _ = apply_sweep_value(cfg, SwitchRule(saturation_scale=1.0), "n", 25)
    assert new_cfg.n == 25 and new_cfg.b_high.shape == (25,)
    assert new_cfg.b_high[24] == cfg.b_high[0]


def test_sweep_parallel_matches_serial():
    cfg = simple_config()
    rule = SwitchRule(saturation_scale=0.5)
    prof = step_profile(30, 1.0, 5)
    serial = sweep(cfg, rule, "a", [0.005, 0.01], prof)
    parallel = sweep(cfg, rule, "a", [0.005, 0.01], prof, jobs=2)
    for s, p in zip(serial, parallel):
        assert s.summary == p.summary


def test_sweep_rejects_fractional_population_size(monkeypatch):
    cfg = simple_config(n=10)
    rule = SwitchRule(saturation_scale=1.0)
    with monkeypatch.context() as m:
        m.setattr(scenarios_module, "run", lambda *a, **kw: pytest.fail("ran before validating"))
        with pytest.raises(ValueError, match="whole numbers"):
            sweep(cfg, rule, "n", [10, 10.7], zero_profile(5))
    with pytest.raises(ValueError, match="whole numbers"):
        apply_sweep_value(cfg, rule, "n", 10.7)
    assert apply_sweep_value(cfg, rule, "n", 12.0)[0].n == 12


def test_sweep_rejects_jobs_below_one():
    with pytest.raises(ValueError, match="jobs"):
        sweep(simple_config(), SwitchRule(saturation_scale=1.0), "a", [0.01], zero_profile(5), jobs=0)


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

    monkeypatch.setattr(scenarios_module, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = simple_config(n=5)
    rule = SwitchRule(saturation_scale=1.0)
    prof = zero_profile(5)
    serial = sweep(cfg, rule, "a", [0.01] * 5, prof)
    assert seen == []
    assert sweep(cfg, rule, "a", [0.01] * 5, prof, jobs=64) == serial
    sweep(cfg, rule, "a", [0.01] * 2, prof, jobs=64)
    sweep(cfg, rule, "a", [0.01] * 5, prof, jobs=2)
    assert seen == [3, 2, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    sweep(cfg, rule, "a", [0.01] * 5, prof, jobs=64)
    assert seen == [3, 2, 2]
