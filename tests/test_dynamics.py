"""Core feedback dynamics: the per-agent response, aggregation, the one-step map.

Every step is taken by `scenarios.run`, so these tests drive it directly:
`pinned_reactive` fixes who is reactive, `initial_dO` sets the previous
observation increment of the first step, and an explicit profile supplies
the force increments.
"""

import ast
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from crowdsync.dynamics import (
    AGENT_COLUMNS,
    CrowdConfig,
    EmptyPopulationError,
    NoNoise,
    UniformNoise,
    WienerNoise,
    agent_column_errors,
    ordered_sum,
)
from crowdsync.rng import make_generator
from crowdsync.scenarios import explicit_profile, run
from crowdsync.switching import SwitchRule
from conftest import spec_of

RULE = SwitchRule(saturation_scale=1.0)
SRC = Path(__file__).resolve().parents[1] / "src"


def kahan_sum(values):
    """Independent compensated-summation oracle."""
    total = 0.0
    comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def crowd(b_low, b_high, c, a=1.0, noise_amp=0.0, noise_model=None, dt=1.0):
    """A crowd from per-agent coefficient lists (scalars mean one agent)."""
    b_low, b_high, c, amp = (col.ravel() for col in np.broadcast_arrays(b_low, b_high, c, noise_amp))
    return CrowdConfig(n=b_low.size, a=a, b_low=b_low, b_high=b_high, c=c, noise_amp=amp,
                       noise_model=noise_model or NoNoise(), dt=dt)


def drive(cfg, dE, dO_prev=0.0, reactive=0, seed=0, ceiling=1e300):
    """run() with the switch rule bypassed: `reactive` agents pinned, dE as the profile."""
    return run(spec_of(cfg, RULE, explicit_profile(len(dE), dE), seed=seed, divergence_ceiling=ceiling),
               pinned_reactive=reactive, initial_dO=dO_prev)


def gains(cfg, steps, dO_prev, reactive):
    """dO series of a crowd with no force, seeded with dO_prev."""
    return drive(cfg, np.zeros(steps), dO_prev, reactive).dO


# ---------------------------------------------------------------------------
# one agent's response dS_i = c*dE + b*dO_prev (+ noise)
# ---------------------------------------------------------------------------

def test_agent_step_pure_exogenous():
    result = drive(crowd(0.0, 1.0, 1.0), [2.0], dO_prev=5.0)
    assert result.agent_actions[0, 0] == 2.0


def test_agent_step_with_coupling():
    result = drive(crowd(0.2, 1.0, 0.5), [2.0], dO_prev=5.0)
    assert result.agent_actions[0, 0] == 2.0


def test_agent_step_additive_noise():
    """Uniform noise adds a draw of half-width noise_amp to the noise-free action."""
    quiet = drive(crowd(0.2, 1.0, 0.5), [2.0] * 50, dO_prev=5.0)
    noisy_cfg = crowd(0.2, 1.0, 0.5, noise_amp=0.3, noise_model=UniformNoise())
    noisy = drive(noisy_cfg, [2.0] * 50, dO_prev=5.0, seed=4)
    assert quiet.agent_actions[0, 0] == 2.0
    eps = noisy.agent_actions[0, 0] - 2.0
    assert eps != 0.0 and abs(eps) <= 0.3
    # later steps feed the noisy dO back; the action still equals c*dE + b*dO_prev + eps
    expected = 0.5 * 2.0 + 0.2 * noisy.dO[:-1]
    assert np.all(np.abs(noisy.agent_actions[0, 1:] - expected) <= 0.3 + 1e-12)


def test_agent_step_linearity_in_inputs():
    cfg = crowd([0.3, -0.2], [0.9, 1.4], [0.7, -1.1])
    rng = make_generator(11)
    for _ in range(50):
        dE, dO, alpha = rng.uniform(-5, 5, 3)
        scaled = drive(cfg, [alpha * dE], alpha * dO, reactive=1).agent_actions[:, 0]
        base = drive(cfg, [dE], dO, reactive=1).agent_actions[:, 0]
        assert scaled == pytest.approx(alpha * base, rel=1e-12, abs=1e-12)


def test_agent_state_tracks_mode():
    """A normal agent couples with b_low, a reactive one with b_high."""
    cfg = crowd(-0.1, 0.8, 1.0)
    assert drive(cfg, [0.0], 1.0, reactive=0).b_total[0] == -0.1
    assert drive(cfg, [0.0], 1.0, reactive=1).b_total[0] == 0.8
    assert drive(cfg, [0.0], 1.0, reactive=1).agent_actions[0, 0] == 0.8


def test_agent_params_invariants():
    """CrowdConfig checks each per-agent rule and names the first agent that breaks it."""
    valid = {"b_low": [0.0] * 3, "b_high": [1.0] * 3, "c": [1.0] * 3, "noise_amp": [0.0] * 3}
    cases = [
        ({"b_low": [0.0, 0.5, 0.5], "b_high": [1.0, 0.5, 0.5]}, "agent 1: b_high must exceed b_low"),
        ({"b_low": [0.0, 0.0, -1.0], "b_high": [1.0, 1.0, -0.5]}, "agent 2: b_high must be > 0"),
        ({"noise_amp": [0.0, -0.1, -0.2]}, "agent 1: noise_amp must be >= 0"),
    ]
    for bad in (math.inf, -math.inf, math.nan):
        for column in AGENT_COLUMNS:
            cases.append(({column: valid[column][:2] + [bad]}, f"agent 2: {column} must be finite"))
    for changed, message in cases:
        with pytest.raises(ValueError, match=message):
            CrowdConfig(n=3, a=1.0, **{**valid, **changed})
    with pytest.raises(ValueError, match="c must be one value or 3 values"):
        CrowdConfig(n=3, a=1.0, **{**valid, "c": [1.0, 2.0]})
    # the one check reports the first bad agent of every rule it finds broken
    columns = [np.array(valid[k]) for k in AGENT_COLUMNS]
    columns[0][1] = 2.0  # agent 1: b_low above b_high
    columns[3][0] = -1.0  # agent 0: negative noise
    assert agent_column_errors(*columns) == [
        ("b_high", "agent 1: b_high must exceed b_low (got b_high=1.0, b_low=2.0)"),
        ("noise_amp", "agent 0: noise_amp must be >= 0, got -1.0"),
    ]


def test_crowd_config_columns_are_read_only_copies():
    source = np.array([0.5, 1.0, 1.5])
    cfg = CrowdConfig(n=3, a=1.0, b_low=0, b_high=source, c=[1, 2, 3])
    source[0] = 9.0
    assert np.array_equal(cfg.b_high, [0.5, 1.0, 1.5])
    with pytest.raises(ValueError, match="read-only"):
        cfg.b_high[0] = 9.0
    # a scalar column is given to every agent; every column is float64
    assert np.array_equal(cfg.b_low, np.zeros(3)) and np.array_equal(cfg.noise_amp, np.zeros(3))
    assert all(getattr(cfg, k).dtype == np.float64 for k in AGENT_COLUMNS)


def test_unpickled_crowd_config_columns_are_read_only():
    cfg = CrowdConfig(n=3, a=1.0, b_low=0, b_high=[0.5, 1.0, 1.5], c=[1, 2, 3], noise_amp=0.1)
    copy = pickle.loads(pickle.dumps(cfg))
    for name in AGENT_COLUMNS:
        column = getattr(copy, name)
        assert np.array_equal(column, getattr(cfg, name))
        assert column.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 9.0


# ---------------------------------------------------------------------------
# aggregation dS = sum dS_i and observation dO = a*dS
# ---------------------------------------------------------------------------

def test_aggregate_examples():
    assert drive(crowd(0.0, 1.0, [1.0, 2.0, 3.0]), [1.0]).dS[0] == 6.0
    assert drive(crowd(0.0, 1.0, [1.0, -1.0]), [1.0]).dS[0] == 0.0


def test_aggregate_thousand_small_actions_vs_compensated_oracle():
    result = drive(crowd(0.0, 1.0, np.full(1000, 0.001)), [1.0])
    values = list(result.agent_actions[:, 0])
    assert result.dS[0] == pytest.approx(kahan_sum(values), abs=1e-12)
    assert result.dS[0] == pytest.approx(1.0, abs=1e-12)


def test_aggregate_empty_is_error():
    with pytest.raises(EmptyPopulationError):
        ordered_sum([])
    with pytest.raises(EmptyPopulationError):
        ordered_sum(np.zeros(0))


def test_ordered_sum_is_left_to_right():
    # one rounding order, always the same one
    rng = make_generator(5)
    x = rng.uniform(-1, 1, 1000)
    acc = 0.0
    for v in x:
        acc += v
    assert ordered_sum(x) == acc


def test_source_never_sums_with_the_builtin_sum_or_fsum():
    """`ordered_sum` is the one reduction of floats in `src/`.

    The builtin `sum` compensates float rounding from Python 3.12 on, and
    `math.fsum` always does, so either would give other bits than the
    left-to-right sum. A name `sum` or `fsum`, an attribute `fsum`, or an
    import of `fsum` fails here.
    """
    uses = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id in ("sum", "fsum")
        or isinstance(node, ast.Attribute) and node.attr == "fsum"
        or isinstance(node, ast.alias) and node.name == "fsum"
    ]
    assert uses == []


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@given(st.lists(_FLOATS, min_size=1, max_size=12))
@example([1e16, 1.0, -1e16])  # a plain loop gives 0.0, compensated summation 1.0
@example([-0.0])
@example([-0.0, -0.0])
@example([float("inf"), float("-inf"), 1.0])
def test_ordered_sum_of_a_list_is_the_array_sum(values):
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is a NaN sum
        want = float(np.add.accumulate(np.asarray(values, dtype=np.float64))[-1])
    got = ordered_sum(values)
    assert type(got) is float
    assert _bits(got) == _bits(want)


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
                  elements=_FLOATS))
def test_ordered_sum_of_rows_is_each_row_sum(matrix):
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is a NaN sum
        got = ordered_sum(matrix)
        want = [ordered_sum(row) for row in matrix]
    assert got.shape == (matrix.shape[0],)
    assert got.tobytes() == np.array(want).tobytes()


def test_observe_examples():
    """dO = a*dS on every step, sign preserved, and O is the running sum of dO."""
    assert drive(crowd(0.0, 1.0, 5.0), [1.0]).dO[0] == 5.0
    assert drive(crowd(0.0, 1.0, 100.0, a=0.01), [1.0]).dO[0] == 1.0
    assert drive(crowd(0.0, 1.0, -3.0, a=2.0), [1.0]).dO[0] == -6.0
    rng = make_generator(6)
    cfg = crowd(rng.uniform(-0.2, 0.2, 20), 1.0, rng.uniform(-1, 1, 20), a=0.04)
    result = drive(cfg, rng.uniform(-1, 1, 60), reactive=7)
    assert np.array_equal(result.dO, cfg.a * result.dS)
    assert np.array_equal(result.O, np.cumsum(result.dO))


def test_observe_requires_positive_sensitivity():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="sensitivity a"):
            CrowdConfig(n=1, a=bad, b_low=0.0, b_high=1.0, c=1.0)


def test_superposition_of_agent_steps():
    """Summed per-agent responses equal the aggregate-coefficient response."""
    rng = make_generator(7)
    for n in (1, 10, 1000, 10_000):
        b = rng.uniform(-0.5, 1.5, n)
        c = rng.uniform(-1.0, 2.0, n)
        dE, dO = rng.uniform(-3, 3, 2)
        per_agent = drive(crowd(b, b + 1.0, c), [dE], dO).dS[0]
        combined = ordered_sum(c) * dE + ordered_sum(b) * dO
        scale = max(1.0, abs(per_agent))
        assert abs(per_agent - combined) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# delayed-response recursion dO(t+1) = (a*C)*dE(t) + (a*B)*dO(t)
# ---------------------------------------------------------------------------

def test_recurse_observation_examples():
    assert drive(crowd(0.0, 1.0, 1.0), [3.0], 5.0).dO[0] == 3.0  # no endogenous reaction
    assert drive(crowd(0.0, 0.5, 1.0), [0.0], 2.0, reactive=1).dO[0] == 1.0  # pure decay


def test_recursion_doubles_per_step_at_gain_two():
    assert gains(crowd(0.0, 2.0, 1.0), 2, 1.0, reactive=1)[-1] == 4.0


@pytest.mark.parametrize("a,b", [(0.5, 4.0), (1.0, 0.5), (0.25, 8.0), (1.0, 2.0)])
def test_geometric_regime_bit_exact_for_dyadic_gain(a, b):
    dO = gains(crowd(0.0, b, 1.0, a=a), 49, 1.0, reactive=1)
    assert np.array_equal(dO, (a * b) ** np.arange(1.0, 50.0))


def test_geometric_regime_decays_below_threshold():
    dO = gains(crowd(0.0, 0.5, 1.0), 200, 1.0, reactive=1)
    assert np.all(np.diff(np.abs(dO)) < 0)
    assert abs(dO[-1]) < 1e-10


def test_geometric_regime_grows_monotonically_when_super_unit():
    dO = gains(crowd(0.0, 1.2, 1.0), 40, 0.1, reactive=1)
    assert np.all(np.diff(np.abs(np.concatenate([[0.1], dO]))) > 0)


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def test_no_noise_is_zero_always():
    """Without noise every action is exactly c*dE + b*dO_prev, whatever the seed."""
    cfg = crowd([0.1, -0.3], [0.9, 0.5], [1.0, 2.0], a=0.2)
    dE = make_generator(0).uniform(-1, 1, 100)
    first = drive(cfg, dE, 0.5, reactive=1, seed=1)
    second = drive(cfg, dE, 0.5, reactive=1, seed=2)
    assert np.array_equal(first.agent_actions, second.agent_actions)
    dO_prev = np.concatenate([[0.5], first.dO[:-1]])
    b = np.array([[0.9], [-0.3]])  # agent 0 is reactive (largest b_high)
    c = np.array([[1.0], [2.0]])
    assert np.array_equal(first.agent_actions, c * dE + b * dO_prev)


def _wiener_increments(mu, sigma, steps, seed, dt=1.0):
    """dO of one agent with no coupling and no force: the Wiener noise alone.

    a = 0.5, so the noise must be attributed to the agent as eps/a for dO to be eps.
    """
    cfg = crowd(0.0, 1.0, 0.0, a=0.5, noise_model=WienerNoise(mu=mu, sigma=sigma), dt=dt)
    return drive(cfg, np.zeros(steps), seed=seed)


@pytest.fixture(scope="module")
def wiener_path():
    """One run of 2*10^4 Wiener increments: mu = 0.05, sigma = 0.2, dt = 0.25."""
    return _wiener_increments(0.05, 0.2, 20_000, seed=1234, dt=0.25).dO


def test_wiener_pure_drift_is_exact():
    assert np.all(_wiener_increments(0.1, 0.0, 10, seed=0).dO == 0.1)


def test_wiener_mean_statistics(wiener_path):
    # increments are mu*dt + sigma*sqrt(dt)*z
    assert abs(wiener_path.mean() - 0.05 * 0.25) <= 4.0 * 0.2 * 0.5 / math.sqrt(wiener_path.size)


def test_uniform_noise_bounds_and_moments():
    e = 0.7
    cfg = crowd(np.zeros(100), 1.0, 0.0, noise_amp=e, noise_model=UniformNoise())
    draws = drive(cfg, np.zeros(1000), seed=21).agent_actions.ravel()
    assert np.all(draws >= -e) and np.all(draws <= e)
    n = draws.size
    se_mean = (e / math.sqrt(3)) / math.sqrt(n)
    assert abs(draws.mean()) <= 4 * se_mean
    var_target = e**2 / 3
    se_var = e**2 * math.sqrt(4.0 / 45.0 / n)
    assert abs(draws.var() - var_target) <= 4 * se_var
    with pytest.raises(TypeError):
        UniformNoise(e)  # the half-width is each agent's noise_amp, not the model's


def test_step_with_noise_reduces_to_recursion_without_noise():
    cfg = crowd([0.1, -0.3], [0.9, 0.5], [1.0, 2.0], a=0.2)
    silent = crowd([0.1, -0.3], [0.9, 0.5], [1.0, 2.0], a=0.2,
                   noise_model=WienerNoise(mu=0.0, sigma=0.0))
    dE = make_generator(3).uniform(-1, 1, 50)
    assert np.array_equal(drive(cfg, dE, 0.5, reactive=1).dO, drive(silent, dE, 0.5, reactive=1).dO)


def test_step_with_noise_pure_drift_accumulation():
    result = _wiener_increments(0.05, 0.0, 100, seed=0)
    assert result.O[-1] == pytest.approx(5.0, rel=1e-12)


def test_step_with_noise_brownian_variance(wiener_path):
    """Increments are i.i.d. with variance sigma^2*dt, so Var[O] = sigma^2 * elapsed time."""
    var = 0.2**2 * 0.25
    assert abs(wiener_path.var() - var) <= 4 * var * math.sqrt(2.0 / wiener_path.size)
    # no feedback: successive increments are uncorrelated
    lag1 = np.corrcoef(wiener_path[:-1], wiener_path[1:])[0, 1]
    assert abs(lag1) <= 4.0 / math.sqrt(wiener_path.size)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_crowd_config_validation():
    columns = {"b_low": np.zeros(3), "b_high": np.ones(3), "c": np.ones(3)}
    with pytest.raises(ValueError):
        CrowdConfig(n=3, a=0.0, **columns)
    with pytest.raises(ValueError, match="4 values"):
        CrowdConfig(n=4, a=1.0, **columns)
    with pytest.raises(ValueError):
        CrowdConfig(n=3, a=1.0, **columns, dt=0.0)
    with pytest.raises(ValueError):
        CrowdConfig(n=0, a=1.0, b_low=0.0, b_high=1.0, c=1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            CrowdConfig(n=3, a=1.0, **columns, dt=bad)
        with pytest.raises(ValueError, match="finite"):
            WienerNoise(mu=bad, sigma=0.1)
        with pytest.raises(ValueError, match="finite"):
            WienerNoise(mu=0.0, sigma=bad)


def test_crowd_config_ab_max():
    """Loop gain with every agent reactive is a * sum(b_high)."""
    cfg = CrowdConfig(n=100, a=0.01, b_low=0.0, b_high=1.35, c=1.0)
    assert drive(cfg, [0.0], reactive=100).ab[0] == pytest.approx(1.35, rel=1e-12)
