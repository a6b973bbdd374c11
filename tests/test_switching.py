"""Two-state coupling: aggregation, switch rule, tipping count, stability.

The coupling a run uses at a given reactive count is read from
`run(..., pinned_reactive=k)`, which bypasses the switch rule.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from crowdsync.dynamics import CrowdConfig
from crowdsync.rng import make_generator
from crowdsync.scenarios import run, zero_profile
from crowdsync.switching import (
    Stability,
    SwitchRule,
    classify_stability,
    critical_reactive_count,
    switch_priority,
    update_reactive_count,
)
from conftest import spec_of


def crowd(n, b_low, b_high, a=1.0):
    """n agents with c = 1; b_low and b_high are one value or one per agent."""
    return CrowdConfig(n=n, a=a, b_low=b_low, b_high=b_high, c=1.0)


def pinned(cfg, n_reactive, dO_prev=0.0):
    """One step of a run with `n_reactive` agents held reactive."""
    return run(spec_of(cfg, SwitchRule(saturation_scale=1.0), zero_profile(1)),
               pinned_reactive=n_reactive, initial_dO=dO_prev)


def priority_oracle(b_high):
    """Per-agent oracle of switch priority: largest b_high first, ties by ascending index."""
    return sorted(range(len(b_high)), key=lambda i: (-b_high[i], i))


def brute_force_b_total(cfg, n_reactive):
    """Per-agent oracle: b_high for the first n_reactive by priority, b_low for the rest."""
    reactive = set(priority_oracle(cfg.b_high)[:n_reactive])
    return sum(cfg.b_high[i] if i in reactive else cfg.b_low[i] for i in range(cfg.n))


def first_pinned_count_that_tips(cfg):
    """Oracle: the smallest reactive count whose one pinned step has a positive gain that is not contracting."""
    for nh in range(cfg.n + 1):
        result = pinned(cfg, nh)
        if result.ab[0] > 0 and result.stability_trace[0] is not Stability.CONTRACTING:
            return nh
    return None


def paper_tipping_count(a, n, b_high, b_low):
    """The paper's N_HC = (1 - a*N*B_L) / (a*(B_H - B_L)), from population means."""
    return (1.0 - a * n * b_low) / (a * (b_high - b_low))


# ---------------------------------------------------------------------------
# aggregate coupling B(N_H) = N_H * B_H + (N - N_H) * B_L
# ---------------------------------------------------------------------------

def test_all_normal_coupling():
    result = pinned(crowd(100, 0.01, 1.0, a=0.01), 0)
    assert result.b_total[0] == pytest.approx(1.0, rel=1e-12)
    assert result.n_reactive[0] == 0


def test_all_reactive_reaches_max_coupling():
    result = pinned(crowd(100, 0.0, 1.0, a=0.01), 100)
    assert result.b_total[0] == 100.0
    assert result.ab[0] == pytest.approx(1.0)


def test_half_reactive_matches_brute_force_oracle():
    cfg = crowd(100, 0.0, 0.02, a=0.01)
    b_total = pinned(cfg, 50).b_total[0]
    assert b_total == pytest.approx(brute_force_b_total(cfg, 50), rel=1e-12)
    assert b_total == pytest.approx(1.0, rel=1e-12)


def test_linear_form_equals_brute_force_exactly_for_dyadic_values():
    cfg = crowd(100, 0.25, 0.5, a=0.5)
    for nh in range(101):
        assert pinned(cfg, nh).b_total[0] == nh * 0.5 + (100 - nh) * 0.25


def test_b_total_monotone_in_reactive_count():
    rng = np.random.default_rng(17)
    b_low = rng.uniform(-0.2, 0.2, 40)
    cfg = crowd(40, b_low, rng.uniform(0.5, 1.5, 40))
    prev = -math.inf
    for nh in range(41):
        b_total = pinned(cfg, nh).b_total[0]
        assert b_total == pytest.approx(brute_force_b_total(cfg, nh), rel=1e-12)
        assert b_total >= prev
        prev = b_total


def test_summary_population_invariants():
    result = pinned(crowd(10, -0.1, 0.9, a=2.0), 4)
    assert result.n_reactive[0] == 4
    assert 2.0 * 10 * -0.1 <= result.ab[0] <= 2.0 * 10 * 0.9
    assert result.ab[0] == 2.0 * result.b_total[0]


def test_aggregate_coupling_empty_population():
    with pytest.raises(ValueError, match="population"):
        crowd(0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# critical_reactive_count
# ---------------------------------------------------------------------------

def test_marginal_case_threshold_is_full_population():
    assert paper_tipping_count(0.01, 100, 1.0, 0.0) == 100.0
    assert critical_reactive_count(crowd(100, 0.0, 1.0, a=0.01)) == 100


def test_threshold_for_supercritical_crowd():
    count = critical_reactive_count(crowd(100, 0.0, 1.0, a=0.0135))
    assert count == math.ceil(paper_tipping_count(0.0135, 100, 1.0, 0.0)) == 75


def test_subcritical_crowd_is_unreachable():
    assert paper_tipping_count(0.005, 100, 1.0, 0.0) > 100
    assert critical_reactive_count(crowd(100, 0.0, 1.0, a=0.005)) is None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 24).flatmap(lambda n: st.tuples(
        hnp.arrays(np.float64, n, elements=st.floats(-2.0, 1.0)),
        hnp.arrays(np.float64, n, elements=st.floats(0.01, 3.0)),
    )),
    st.floats(0.001, 1.0),
)
@example((np.full(4, -1.0), np.full(4, 3.0)), 1.0)  # gains -4, -1 (marginal), 2: tips at 2
def test_threshold_consistency_with_aggregate_coupling(columns, a):
    """The tipping count is the first pinned step whose gain is positive and not contracting."""
    b_low, spread = columns
    b_high = np.maximum(b_low + spread, 0.01)
    cfg = crowd(b_low.size, b_low, b_high, a)
    assert critical_reactive_count(cfg) == first_pinned_count_that_tips(cfg)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tipping_count_of_a_lognormal_crowd_is_not_the_population_means_one(seed):
    """The strongest couplers switch first, so a spread of b_high tips the crowd early.

    b_high is lognormal with log-sd 1, scaled to mean 1.35 (fig5's crowd
    otherwise). The population means put the count at ceil(74.07) = 75.
    """
    b_high = make_generator(seed).lognormal(0.0, 1.0, 100)
    cfg = crowd(100, 0.0, 1.35 * b_high / b_high.mean(), a=0.01)
    count = critical_reactive_count(cfg)
    assert count == first_pinned_count_that_tips(cfg)
    assert count < math.ceil(paper_tipping_count(0.01, 100, float(np.mean(cfg.b_high)), 0.0)) - 5


@pytest.mark.parametrize("name, count, tips_at, diverges_at", [
    ("fig4-stable", None, None, None),
    ("fig5-unstable", 75, 11, 99),
    ("fig6-bubble", 100, 153, None),
])
def test_golden_tips_where_its_reactive_count_reaches_the_tipping_count(golden, name, count, tips_at, diverges_at):
    """The first step whose N_H reaches N_HC is the first step that is not contracting."""
    result = run(golden(name), keep_actions=False)
    assert critical_reactive_count(result.config) == count
    not_contracting = [t for t, s in enumerate(result.stability_trace) if s is not Stability.CONTRACTING]
    assert not_contracting[:1] == ([] if tips_at is None else [tips_at])
    if count is not None:
        assert int(np.argmax(result.n_reactive >= count)) == tips_at
    assert result.truncated_at == diverges_at


# ---------------------------------------------------------------------------
# update_reactive_count
# ---------------------------------------------------------------------------

def test_quiescent_window_keeps_everyone_normal():
    rule = SwitchRule(saturation_scale=1.0, window=5)
    assert update_reactive_count([0, 0, 0, 0, 0], rule, 100) == 0
    assert update_reactive_count([], rule, 100) == 0


def test_saturated_window_switches_everyone():
    rule = SwitchRule(saturation_scale=1.0, window=5)
    assert update_reactive_count([2.0, 1.5, -3.0, 1.0, 2.5], rule, 100) == 100


def test_half_saturation_with_hand_rolled_mean():
    rule = SwitchRule(saturation_scale=2.0, window=5)
    window = [1.0, -1.0, 1.0, -1.0, 1.0]
    by_hand = round(100 * (sum(abs(x) for x in window) / 5) / 2.0)
    assert by_hand == 50
    assert update_reactive_count(window, rule, 100) == 50


def test_warmup_uses_available_history_only():
    rule = SwitchRule(saturation_scale=1.0, window=5)
    # a single large increment is not diluted by zero-padding
    assert update_reactive_count([1.0], rule, 100) == 100
    assert update_reactive_count([0.0, 0.0, 0.0, 0.0, 1.0], rule, 100) == 20


def test_rounding_is_half_away_from_zero():
    rule = SwitchRule(saturation_scale=1.0, window=1)
    assert update_reactive_count([0.005], rule, 1000) == 5
    assert update_reactive_count([0.0055], rule, 1000) == 6
    # exact half goes up, not to the nearest even count
    assert update_reactive_count([0.0045], rule, 1000) == 5
    assert update_reactive_count([0.0044], rule, 1000) == 4


def test_scale_consistency():
    rule = SwitchRule(saturation_scale=0.37, window=5)
    doubled = SwitchRule(saturation_scale=0.74, window=5)
    rng = np.random.default_rng(3)
    for _ in range(200):
        window = rng.uniform(-1, 1, 5)
        assert update_reactive_count(window, rule, 100) == update_reactive_count(
            2 * window, doubled, 100
        )


def test_switch_rule_validation():
    with pytest.raises(ValueError):
        SwitchRule(saturation_scale=0.0)
    with pytest.raises(ValueError):
        SwitchRule(saturation_scale=1.0, window=0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            SwitchRule(saturation_scale=bad)


def test_tiny_saturation_scale_saturates_instead_of_overflowing():
    rule = SwitchRule(saturation_scale=1e-320)
    assert update_reactive_count([0.01], rule, 100) == 100


# ---------------------------------------------------------------------------
# who is reactive: switch priority
# ---------------------------------------------------------------------------

def test_assign_states_extremes():
    cfg = crowd(5, 0.0, 1.0)
    assert np.all(pinned(cfg, 0, dO_prev=1.0).agent_actions == 0.0)
    assert np.all(pinned(cfg, 5, dO_prev=1.0).agent_actions == 1.0)


def test_assign_states_picks_strongest_couplers_first():
    cfg = crowd(3, 0.0, [0.5, 1.0, 0.7])
    assert switch_priority(cfg.b_high).tolist() == [1, 2, 0]
    actions = pinned(cfg, 2, dO_prev=1.0).agent_actions[:, 0]
    assert list(actions) == [0.0, 1.0, 0.7]


def test_assign_states_tie_break_ascending_id():
    cfg = crowd(4, 0.0, 1.0)
    assert switch_priority(cfg.b_high).tolist() == [0, 1, 2, 3]
    assert switch_priority(np.array([0.5, 1.0, 0.5, 1.0])).tolist() == [1, 3, 0, 2]
    actions = pinned(cfg, 2, dO_prev=1.0).agent_actions[:, 0]
    assert list(actions) == [1.0, 1.0, 0.0, 0.0]


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(np.float64, st.integers(1, 40), elements=st.sampled_from([0.1, 0.5, 1.0, 2.0])),
    st.integers(0, 40),
)
def test_assign_states_deterministic_and_idempotent(b_high, n_reactive):
    """Few distinct values, so ties are common; the per-agent sort is the oracle."""
    order = switch_priority(b_high)
    assert order.tolist() == priority_oracle(b_high.tolist())
    assert np.array_equal(order, switch_priority(b_high))
    cfg = crowd(b_high.size, 0.0, b_high, a=0.01)
    k = min(n_reactive, cfg.n)
    first = pinned(cfg, k, dO_prev=1.0).agent_actions
    assert np.array_equal(first, pinned(cfg, k, dO_prev=1.0).agent_actions)
    assert set(np.flatnonzero(first[:, 0])) == set(order[:k].tolist())


def test_assign_states_bounds():
    cfg = crowd(3, 0.0, 1.0)
    for bad in (4, -1):
        with pytest.raises(ValueError, match="pinned_reactive"):
            pinned(cfg, bad)


# ---------------------------------------------------------------------------
# classify_stability
# ---------------------------------------------------------------------------

def test_classify_stability_regimes():
    assert classify_stability(0.5) is Stability.CONTRACTING
    assert classify_stability(0.0) is Stability.CONTRACTING
    assert classify_stability(1.35) is Stability.AMPLIFYING
    assert classify_stability(1.0) is Stability.MARGINAL
    assert classify_stability(1.0 + 5e-10) is Stability.MARGINAL
    assert classify_stability(-0.8) is Stability.CONTRACTING
    assert classify_stability(-1.5) is Stability.AMPLIFYING
    assert classify_stability(-1.0) is Stability.MARGINAL
