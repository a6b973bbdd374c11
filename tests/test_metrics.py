"""Order parameter, crowd correlation, volatility, trendiness."""

import math
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import crowdsync.metrics as metrics_module
import crowdsync.scenarios as scenarios_module
from crowdsync.dynamics import CrowdConfig, ordered_sum
from crowdsync.metrics import (
    CrowdMoments,
    DecisionPanel,
    DegenerateMixError,
    InvalidCorrelationError,
    InvalidPanelError,
    crowd_correlation,
    crowd_volatility,
    order_parameter,
    order_parameter_closed_form,
    order_ratio,
    sync_report,
    trendiness,
    window_sync,
)
from crowdsync.rng import make_generator
from crowdsync.scenario_io import load_scenario
from crowdsync.scenarios import forced_ratio_samples, run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import generate  # noqa: E402


def random_panel(rng, n=None, t=None):
    n = n or int(rng.integers(2, 51))
    t = t or int(rng.integers(10, 1001))
    # mix a common factor into independent noise so correlations vary
    common = rng.standard_normal(t)
    weights = rng.uniform(-1.0, 2.0, size=(n, 1))
    series = weights * common + rng.standard_normal((n, t))
    return DecisionPanel.from_series(series)


# ---------------------------------------------------------------------------
# order parameter
# ---------------------------------------------------------------------------

def test_order_parameter_examples():
    assert order_parameter([1.0, 1.0, 1.0]) == 1.0
    assert order_parameter([1.0, -1.0]) == 0.0
    assert order_parameter([2.0, -1.0, 1.0]) == 0.5


def test_order_parameter_quiescent_convention():
    assert order_parameter([0.0, 0.0, 0.0]) == 0.0


def test_order_parameter_bounds_and_scale_invariance():
    rng = make_generator(31)
    for _ in range(300):
        x = rng.standard_normal(int(rng.integers(1, 50)))
        r = order_parameter(x)
        assert 0.0 <= r <= 1.0
        assert order_parameter(3.7 * x) == pytest.approx(r, abs=1e-12)


def test_order_parameter_permutation_invariance():
    rng = make_generator(32)
    x = rng.standard_normal(40)
    perm = rng.permutation(40)
    assert order_parameter(x[perm]) == pytest.approx(order_parameter(x), abs=1e-12)


def test_order_parameter_nan_action_is_zero():
    assert order_parameter([np.nan, 1.0]) == 0.0


def test_order_ratio_of_overflowed_sums_is_nan_without_a_warning():
    """Agents whose actions all overflow to +inf give inf / inf, as a diverging run can."""
    assert np.isnan(order_ratio(np.inf, np.inf))


# Up to 8 rows of up to 300 finite entries below 1e300 in magnitude: no row
# sum can overflow, and rows longer than numpy's 128-element pairwise block
# are drawn. Signed zeros and subnormals are among the entries.
_ROWS = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 8), st.integers(1, 300)),
    elements=st.floats(-1e300, 1e300),
)
_ZERO_ROWS = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [1.0, -1.0, 0.0]])


@settings(max_examples=200, deadline=None)
@given(_ROWS)
@example(_ZERO_ROWS)
def test_order_ratio_of_ordered_sums_is_in_unit_interval(x):
    r = order_ratio(ordered_sum(x), ordered_sum(np.abs(x)))
    assert np.all((r >= 0.0) & (r <= 1.0))


@settings(max_examples=200, deadline=None)
@given(_ROWS)
@example(_ZERO_ROWS)
def test_order_ratio_of_pairwise_sums_is_in_unit_interval(x):
    """The forced-ratio sampler's sums: numpy row sums of x and |x|."""
    r = order_ratio(x.sum(axis=1), np.abs(x).sum(axis=1))
    assert np.all((r >= 0.0) & (r <= 1.0))


@settings(max_examples=200, deadline=None)
@given(_ROWS)
@example(_ZERO_ROWS)
def test_order_parameter_equals_the_unclipped_quotient(x):
    for row in x:
        denom = ordered_sum(np.abs(row))
        expected = abs(ordered_sum(row)) / denom if denom > 0.0 else 0.0
        assert order_parameter(row) == expected


def test_closed_form_everyone_reactive_is_fully_synchronized():
    for bh, bl, b0 in [(1.0, 0.0, 0.1), (2.0, -0.3, 0.4), (0.5, 0.2, 0.2)]:
        assert order_parameter_closed_form(1.0, bh, bl, b0) == 1.0


def test_closed_form_symmetric_normals_cancel():
    assert order_parameter_closed_form(0.0, 1.0, 0.0, 0.1) == 0.0


def test_closed_form_half_reactive():
    assert order_parameter_closed_form(0.5, 1.0, 0.0, 0.2) == pytest.approx(5 / 6, rel=1e-12)


def test_closed_form_against_monte_carlo_crowd():
    """Simulated one-step order parameter matches the coupling-mix formula."""
    n = 10_000
    rng = make_generator(77)
    b_low = 0.2 * rng.choice([-1.0, 1.0], n)
    b = np.concatenate([np.full(n // 2, 1.0), b_low[n // 2 :]])
    actions = b * 1.0  # dO = 1, no force, no noise
    simulated = order_parameter(actions)
    b_low_avg = float(np.mean(b_low))
    closed = order_parameter_closed_form(0.5, 1.0, b_low_avg, 0.2)
    assert simulated == pytest.approx(closed, abs=0.02)


def test_closed_form_monotone_in_ratio():
    for ratios in [np.linspace(0, 1, 21)]:
        values = [order_parameter_closed_form(r, 1.2, 0.05, 0.15) for r in ratios]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_closed_form_degenerate_denominator():
    with pytest.raises(DegenerateMixError):
        order_parameter_closed_form(0.0, 1.0, 0.0, 0.0)


def test_closed_form_rejects_inconsistent_low_stats():
    with pytest.raises(ValueError):
        order_parameter_closed_form(0.5, 1.0, 0.3, 0.2)
    for ratio in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"reactive ratio must be in \[0, 1\]"):
            order_parameter_closed_form(ratio, 1.0, 0.0, 0.0)


def noisy_order_parameter(n, noise_amp, trials, seed):
    """Mean R of one step of a fully reactive crowd (b_high = 1) driven by dO = 1."""
    cfg = CrowdConfig(n=n, a=0.01, b_low=0.0, b_high=1.0, c=1.0)
    return float(forced_ratio_samples(cfg, [(1.0, noise_amp)], 1.0, trials, seed).mean())


def test_noisy_order_parameter_reduces_to_exact_at_zero_noise():
    assert noisy_order_parameter(100, 0.0, 10, seed=1) == 1.0


def test_noisy_order_parameter_single_agent_is_always_one():
    assert noisy_order_parameter(1, 5.0, 200, seed=2) == 1.0


def test_noisy_order_parameter_degrades_with_noise():
    means = [noisy_order_parameter(500, e, 400, seed=5) for e in (0.0, 2.0, 5.0, 10.0)]
    assert means[0] == 1.0
    assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))
    assert means[-1] < 0.3


# ---------------------------------------------------------------------------
# correlations and volatility
# ---------------------------------------------------------------------------

def test_crowd_volatility_extremes():
    ones = np.ones(2)
    assert crowd_volatility(ones, np.array([[1.0, 1.0], [1.0, 1.0]])) == 2.0
    assert crowd_volatility(ones, np.eye(2)) == pytest.approx(np.sqrt(2), rel=1e-12)
    assert crowd_volatility(ones, np.array([[1.0, -1.0], [-1.0, 1.0]])) == 0.0


def test_crowd_volatility_rejects_impossible_matrix():
    # three mutually anticorrelated agents cannot exist
    corr = np.full((3, 3), -0.9)
    np.fill_diagonal(corr, 1.0)
    with pytest.raises(InvalidCorrelationError):
        crowd_volatility(np.ones(3), corr)
    with pytest.raises(ValueError, match="sigma must be >= 0"):
        crowd_volatility(np.array([1.0, -1.0]), np.eye(2))


def test_crowd_volatility_upper_bound_and_equality_condition():
    rng = make_generator(43)
    for _ in range(50):
        panel = random_panel(rng, n=int(rng.integers(2, 10)), t=200)
        sc = crowd_volatility(panel.per_agent_sigma, panel.corr)
        assert sc <= panel.per_agent_sigma.sum() + 1e-9
    # equality exactly when all off-diagonal correlations are 1
    scale = rng.uniform(0.5, 2.0, 5)
    base = rng.standard_normal(300)
    panel = DecisionPanel.from_series(np.outer(scale, base))
    sc = crowd_volatility(panel.per_agent_sigma, panel.corr)
    assert sc == pytest.approx(panel.per_agent_sigma.sum(), rel=1e-9)


def test_perfectly_correlated_crowd():
    weights = np.array([0.5, 1.0, 2.5])
    base = make_generator(44).standard_normal(1000)
    panel = DecisionPanel.from_series(np.outer(weights, base))
    assert np.all(np.abs(panel.corr - 1.0) < 1e-9)
    assert crowd_correlation(panel) == pytest.approx(1.0, abs=1e-9)


def test_single_agent_is_perfectly_synchronized():
    series = make_generator(45).standard_normal((1, 100))
    panel = DecisionPanel.from_series(series)
    assert crowd_correlation(panel) == pytest.approx(1.0, abs=1e-12)
    assert window_sync(series)[0] == pytest.approx(1.0, abs=1e-12)


def test_two_independent_agents_sync_level():
    """Equal-sigma independent agents: rho_i = sigma / (sqrt(2)*sigma)."""
    rng = make_generator(46)
    series = rng.standard_normal((2, 100_000))
    panel = DecisionPanel.from_series(series)
    assert crowd_correlation(panel) == pytest.approx(1 / np.sqrt(2), rel=0.01)


# Entries are 0 or of magnitude 1e-6..1e3: squares of much smaller values
# underflow, and then neither form has the digits to compare.
_ENTRY = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))


@st.composite
def windows(draw):
    """Bounded N x w windows with some constant rows and zeroed tails."""
    n = draw(st.integers(1, 12))
    w = draw(st.integers(1, 40))
    arr = draw(hnp.arrays(np.float64, (n, w), elements=_ENTRY))
    frozen = draw(hnp.arrays(np.bool_, n))
    arr[frozen] = arr[frozen, :1]
    if draw(st.booleans()):
        arr[:, draw(st.integers(0, w - 1)) :] = 0.0
    return arr


@settings(max_examples=300, deadline=None)
@given(windows(), st.integers(1, 12))
@example(np.array([[0.1, 0.7, 0.3], [0.3, 0.1, 0.9], [-0.4, -0.8, -1.2]]), 2)
# an agent whose two actions are one ulp apart: its spread is within rounding of its values
@example(np.array([[1e-6, np.nextafter(1e-6, 1)]]), 1)
@example(np.array([[1e-6, np.nextafter(1e-6, 1)], [0.0, 1e-6]]), 1)
def test_weighted_and_direct_paths_agree(arr, block_rows):
    """The streamed kernel, merged in blocks of `block_rows` steps, against the matrix form.

    sigma_c^2 agrees to rounding of sum_i sigma_i^2. When the agents
    cancel the aggregate (sigma_c^2 below 1e-3 of that sum) the matrix
    form's sigma_c is the square root of a cancelling sum and rho_c of
    either form is set by rounding, so only the variances are compared
    there.
    """
    panel = DecisionPanel.from_series(arr)
    budget = 8 * arr.shape[0] * block_rows
    with mock.patch.multiple(metrics_module, _STEP_BLOCK_BYTES=budget, _STEP_BLOCK_MIN_ROWS=1):
        rho_c, sigma_c = window_sync(arr)
    sigma_ref = crowd_volatility(panel.per_agent_sigma, panel.corr)
    scale = float(np.sum(panel.per_agent_sigma**2))
    assert abs(sigma_c**2 - sigma_ref**2) <= 1e-12 * scale
    if sigma_ref**2 >= 1e-3 * scale and sigma_ref > 0.0:
        assert abs(sigma_c - sigma_ref) <= 1e-12 * np.sqrt(scale)
        assert abs(rho_c - crowd_correlation(panel)) <= 1e-12
    if scale == 0.0:
        assert (rho_c, sigma_c) == (0.0, 0.0)


def _two_pass_sync(actions):
    """(rho_c, sigma_c) of an N x w window in two passes, in np.longdouble."""
    x = actions.astype(np.longdouble)
    centred = x - x.mean(axis=1, keepdims=True)
    agg = centred.sum(axis=0)
    sigma_c = np.sqrt(agg @ agg / x.shape[1])
    sigma = np.sqrt((centred * centred).sum(axis=1) / x.shape[1])
    live = sigma > 0
    rho = (centred[live] @ agg) / x.shape[1] / (sigma[live] * sigma_c)
    return rho.sum() / x.shape[0], sigma_c


@pytest.mark.parametrize("seed", [0, 17])
def test_window_sync_keeps_its_digits_on_a_long_window(seed, tmp_path):
    """The benchmark's long-horizon crowd (N = 100, w = 2e4) against a long-double two-pass form.

    Sums over all 2e4 steps of the centred window at once lose about two
    digits here (rho_c off by 4e-14 to 1e-13); merged in blocks of 40
    steps, rho_c and sigma_c stay within 1e-15.
    """
    workload = generate("long-horizon", seed, tmp_path / "in", tmp_path / "out")
    actions = run(load_scenario(workload.scenario_files[0])).agent_actions
    assert actions.shape == (100, 20_000)
    rho_c, sigma_c = window_sync(actions)
    rho_ref, sigma_ref = _two_pass_sync(actions)
    assert abs(rho_c - rho_ref) <= 1e-15
    assert abs(sigma_c - sigma_ref) <= 1e-15 * sigma_ref


def test_crowd_correlation_with_constant_agents_present():
    rng = make_generator(48)
    series = rng.standard_normal((4, 500))
    series[2, :] = 3.14  # one frozen agent
    panel = DecisionPanel.from_series(series)
    assert abs(crowd_correlation(panel) - window_sync(series)[0]) <= 1e-9


def test_crowd_correlation_cancelling_agents_is_error():
    series = np.array([[1.0, -1, 1, -1], [-1, 1, -1, 1]])
    with pytest.raises(InvalidPanelError, match="cancel"):
        crowd_correlation(DecisionPanel.from_series(series))
    assert window_sync(series) == (0.0, 0.0)


# Three agents whose actions cancel in every step, though not exactly in floating point.
_CANCELLING_ROWS = np.array([[0.1, 0.7, 0.3], [0.3, 0.1, 0.9], [-0.4, -0.8, -1.2]])


def _streamed(rows, *splits):
    """CrowdMoments.sync() of an N x w window added in blocks split at the given steps."""
    moments = CrowdMoments(rows.shape[0])
    for block in np.split(rows.T, splits):
        moments.add(block)
    return moments.sync()


def test_aggregate_constant_up_to_roundoff_is_degenerate():
    # the aggregate's sigma_c is about 1.6e-16 here, inside the summation-error bound
    assert window_sync(_CANCELLING_ROWS) == (0.0, 0.0)
    for splits in ((), (1,), (2,), (1, 2)):
        assert _streamed(_CANCELLING_ROWS, *splits) == (0.0, 0.0)
    # moving one action by 1e-14 gives sigma_c 4.6e-15, fifteen times the bound: resolved
    moved = _CANCELLING_ROWS.copy()
    moved[0, 1] += 1e-14
    assert window_sync(moved)[1] > 0.0 and _streamed(moved, 1)[1] > 0.0


def test_a_block_past_the_range_of_squares_rescales_the_moments_before_it_exactly():
    """Steps 12 on are 2**700 times larger: their squares overflow, so the moments of steps 0-11 are
    rescaled by a power of two when they merge, and every bit is that of the rows times 2**-400."""
    rows = make_generator(54).standard_normal((4, 30))
    rows[:, 12:] = np.ldexp(rows[:, 12:], 700)
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow `add` catches, ignored as `run()` does
        rho_c, sigma_c = _streamed(rows, 12)
    reference = _streamed(np.ldexp(rows, -400), 12)
    assert (rho_c, sigma_c) == (reference[0], math.ldexp(reference[1], 400))
    assert math.isfinite(sigma_c) and sigma_c > 2.0**690


def test_agent_of_equal_actions_is_constant_in_every_form():
    # equal actions whose rounded mean over three steps is not their value:
    # centred on it, the agent varies by roundoff and takes a correlation of its
    # own (a rho_c of 0.37 or 0.43, not 0.5, when merged as 1 + 3 or 3 + 1 steps)
    x = 0.2353783432143119
    assert (x + x + x) / 3 != x
    rows = np.array([[x, x, x, x], [0.1, 0.7, 0.3, 0.2]])
    sigma = float(np.std(rows[1]))
    forms = {"window_sync": window_sync(rows)}
    forms.update({f"streamed{splits}": _streamed(rows, *splits) for splits in ((), (1,), (3,), (1, 2))})
    for form, (rho_c, sigma_c) in forms.items():
        assert rho_c == pytest.approx(0.5, abs=1e-15), form
        assert sigma_c == pytest.approx(sigma, rel=1e-15), form
    assert DecisionPanel.from_series(rows).per_agent_sigma[0] == 0.0


# Finite actions, signed zeros among them, small enough that no square or sum overflows.
_ACTION = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1e100, 1e100)


@st.composite
def repeat_merges(draw):
    """A row, a repeat count and a prior block (None, or a finite k x N block added first)."""
    n = draw(st.integers(1, 6))
    row = draw(hnp.arrays(np.float64, n, elements=_ACTION))
    prior = draw(st.none() | hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.just(n)), elements=_ACTION))
    return row, draw(st.integers(1, 20)), prior


def _moment_bits(moments):
    return (moments.count, moments.mean.tobytes(), moments.m2.tobytes(), moments.comoment.tobytes(),
            np.float64(moments.agg_m2).tobytes())


@settings(max_examples=300, deadline=None)
@given(repeat_merges())
@example((np.array([-0.0, 0.0]), 3, np.array([[-0.0, -0.0]])))  # signed zeros in the row and the prior block
def test_merging_repeats_of_a_row_gives_the_bits_of_adding_them(case):
    row, k, prior = case
    closed, tiled = CrowdMoments(len(row)), CrowdMoments(len(row))
    if prior is not None:
        closed.add(prior)
        tiled.add(prior)
    closed.add_repeats(row, k)
    tiled.add(np.tile(row, (k, 1)))
    assert _moment_bits(closed) == _moment_bits(tiled)


def test_crowd_correlation_all_zero_panel_is_error():
    panel = DecisionPanel.from_series(np.zeros((3, 50)))
    with pytest.raises(InvalidPanelError):
        crowd_correlation(panel)
    assert window_sync(np.zeros((3, 50))) == (0.0, 0.0)
    with pytest.raises(ValueError, match="must be N x T"):
        DecisionPanel.from_series(np.zeros(50))
    for shape in ((0, 50), (3, 0)):
        with pytest.raises(ValueError, match="at least one agent and one step"):
            DecisionPanel.from_series(np.zeros(shape))


def test_panel_matrix_invariants():
    rng = make_generator(49)
    panel = random_panel(rng, n=20, t=300)
    assert np.array_equal(panel.corr, panel.corr.T)
    assert np.all(panel.corr >= -1.0) and np.all(panel.corr <= 1.0)
    assert np.all(np.diag(panel.corr) == 1.0)
    assert np.all(panel.per_agent_sigma >= 0)


def test_crowd_correlation_permutation_invariance():
    rng = make_generator(50)
    series = rng.standard_normal((8, 400))
    perm = rng.permutation(8)
    a = crowd_correlation(DecisionPanel.from_series(series))
    b = crowd_correlation(DecisionPanel.from_series(series[perm]))
    assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# trendiness and observed volatility
# ---------------------------------------------------------------------------

def test_trendiness_examples():
    assert trendiness([1.0, 1.0, 1.0]) == 1.0
    assert trendiness([1.0, -1.0, 1.0, -1.0]) == 0.0
    assert trendiness([2.0, -1.0]) == pytest.approx(1 / 3, rel=1e-12)
    with pytest.raises(ValueError, match="at least one increment"):
        trendiness([])


def test_trendiness_of_finite_increments_whose_sums_overflow():
    """The sums are taken on the increments scaled by a power of two, with no numpy warning
    (tier-1 makes a warning an error). numpy's pairwise sum of 16 alternating values gathers
    the same sign in each of its 8 accumulators, so the signed sum is inf - inf at the parent."""
    assert trendiness([1.5e308, -1.5e308] * 8) == 0.0
    assert trendiness([1e308, -1e308, 1e308]) == pytest.approx(1 / 3, rel=1e-15)
    assert trendiness([1e308, 1e308]) == 1.0


def test_trendiness_quiet_window_convention():
    assert trendiness([0.0, 0.0]) == 0.0


def test_trendiness_nan_window_convention():
    """A NaN increment makes the sum of magnitudes NaN, which R also reads as 0."""
    assert trendiness([np.nan, 1.0]) == 0.0


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 300), elements=st.floats(-1e300, 1e300)))
@example(np.array([0.0, -0.0]))
def test_trendiness_is_the_quotient_of_numpy_sums(x):
    """On finite windows T_d is |x.sum()| / |x|.sum() (0 on a quiet window), bit for bit."""
    denom = np.abs(x).sum()
    expected = float(abs(x.sum()) / denom) if denom > 0.0 else 0.0
    assert trendiness(x).hex() == expected.hex()


def test_trendiness_bounds_and_scale_invariance():
    rng = make_generator(51)
    for _ in range(500):
        w = rng.standard_normal(int(rng.integers(1, 30)))
        td = trendiness(w)
        assert 0.0 <= td <= 1.0
        assert trendiness(2.5 * w) == pytest.approx(td, abs=1e-12)


def test_observed_volatility_expansion_path():
    """sigma_O expanded from per-agent volatilities and correlations matches the report."""
    assert 2.0 * crowd_volatility(np.ones(2), np.ones((2, 2))) == 4.0
    panel = random_panel(make_generator(52), n=6, t=200)
    expanded = 0.7 * crowd_volatility(panel.per_agent_sigma, panel.corr)
    report = sync_report(panel.series, 0.7 * panel.series.sum(axis=0), a=0.7)
    assert report.sigma_o == pytest.approx(expanded, rel=1e-12)


def test_sync_report_quiescent_window_is_total():
    report = sync_report(np.zeros((3, 10)), np.zeros(10), a=0.5)
    assert report.rho_c == 0.0
    assert report.sigma_c == 0.0
    assert report.sigma_o == 0.0
    assert report.t_d == 0.0


def test_sync_report_consistency():
    rng = make_generator(53)
    actions = rng.standard_normal((5, 64))
    dO = 0.3 * actions.sum(axis=0)
    report = sync_report(actions, dO, a=0.3, start=16)
    assert report.start == 16 and report.stop == 80
    assert report.sigma_o == pytest.approx(0.3 * report.sigma_c, rel=1e-12)
    assert -1.0 <= report.rho_c <= 1.0


def test_sync_report_cancelling_agents_is_total():
    report = sync_report(np.array([[1.0, -1, 1, -1], [-1, 1, -1, 1]]), np.zeros(4), a=0.5)
    assert report.rho_c == 0.0
    assert report.sigma_c == 0.0
    assert report.sigma_o == 0.0


def test_sync_report_refuses_a_dO_window_of_another_length():
    with pytest.raises(ValueError, match=r"^dO_window must hold the window's 4 increments, got 3$"):
        sync_report(np.ones((2, 4)), np.zeros(3), a=0.5)


def test_sync_report_allocates_no_n_by_n_matrix():
    n, w = 3000, 30
    actions = make_generator(54).standard_normal((n, w))
    dO = 0.01 * actions.sum(axis=0)
    tracemalloc.start()
    try:
        sync_report(actions, dO, a=0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * w * 8  # an N x N float64 matrix alone is 72 MB


def test_forced_ratio_samples_holds_one_draw_block():
    """One point is one task, even with 2 threads: it shifts and folds each block in place, one block at a time."""
    n, trials = 500, 2000
    cfg = CrowdConfig(n=n, a=0.01, b_low=0.0, b_high=1.0, c=1.0)
    tracemalloc.start()  # it traces numpy's allocations on every thread
    try:
        with mock.patch.object(scenarios_module, "_usable_cpus", return_value=2):
            forced_ratio_samples(cfg, [(0.5, 0.5)], trials=trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = 2 * scenarios_module._DRAW_BLOCK * 8  # about 1 MB; the 8 MB of draws take 16 blocks
    assert peak < 1.5 * blocks


def test_forced_ratio_samples_of_a_curve_hold_one_draw_block_per_thread():
    """11 points on one pool of 2 threads: still one block per thread, plus the result."""
    n, trials = 500, 2000
    cfg = CrowdConfig(n=n, a=0.01, b_low=0.0, b_high=1.0, c=1.0)
    points = [(1.0, float(amp)) for amp in np.linspace(0.0, 0.5, 11)]  # as `curve --kind order-vs-noise`
    tracemalloc.start()
    try:
        with mock.patch.object(scenarios_module, "_usable_cpus", return_value=2):
            forced_ratio_samples(cfg, points, trials=trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = 2 * scenarios_module._DRAW_BLOCK * 8  # the 10 noisy points draw 80 MB, in 160 blocks
    assert peak < 1.5 * blocks + len(points) * trials * 8


def test_window_sync_rejects_empty_window():
    with pytest.raises(ValueError):
        window_sync(np.zeros((3, 0)))
