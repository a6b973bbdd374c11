"""Scenario parsing/emission and result tables."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crowdsync.dynamics import AGENT_COLUMNS, CrowdConfig, NoNoise, UniformNoise, WienerNoise
from crowdsync.scenario_io import (
    ScenarioFormatError,
    TABLE_COLUMNS,
    TableFormatError,
    _PROFILE_PARAMS,
    emit_table,
    format_scenario,
    format_summary,
    format_table,
    load_scenario,
    parse_scenario,
    read_table,
)
from crowdsync.scenarios import (
    PROFILE_KINDS,
    ScenarioSpec,
    build_profile,
    run_spec,
    summarize,
    run,
    zero_profile,
)
from crowdsync.switching import SwitchRule

MINIMAL = """
name = minimal
crowd.n = 10
crowd.a = 0.5
crowd.b_low = 0.0
crowd.b_high = 1.0
crowd.c = 1.0
rule.saturation_scale = 1.0
profile.kind = zero
run.steps = 5
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_minimal_scenario_parses_with_defaults():
    spec = parse_scenario(MINIMAL)
    assert spec.name == "minimal"
    assert spec.config.n == 10
    assert spec.config.dt == 1.0
    assert isinstance(spec.config.noise_model, NoNoise)
    assert spec.rule.window == 5
    assert spec.seed == 0
    assert spec.metric_window is None
    assert not spec.overlap
    assert spec.profile.kind == "zero"
    assert np.array_equal(spec.config.noise_amp, np.zeros(10))


def test_equal_couplings_rejected_with_constraint_message():
    text = MINIMAL.replace("crowd.b_high = 1.0", "crowd.b_high = 0.0")
    with pytest.raises(ScenarioFormatError, match="b_high must exceed b_low"):
        parse_scenario(text)


def test_per_agent_rule_errors_keep_line_numbers():
    """The first agent breaking each rule is reported on its column's line."""
    text = (
        MINIMAL.replace("crowd.b_low = 0.0", "crowd.b_low = 0.0, 0.5, 0.0, -2.0" + ", 0.0" * 6)
        .replace("crowd.b_high = 1.0", "crowd.b_high = 1.0, 0.5, 1.0, -1.0" + ", 1.0" * 6)
        + "crowd.noise_amp = " + ", ".join(["0.0"] * 9 + ["-0.5"]) + "\n"
    )
    with pytest.raises(ScenarioFormatError) as exc_info:
        parse_scenario(text)
    assert exc_info.value.errors == [
        "line 6: crowd.b_high: agent 1: b_high must exceed b_low (got b_high=0.5, b_low=0.5)",
        "line 6: crowd.b_high: agent 3: b_high must be > 0, got -1.0",
        "line 11: crowd.noise_amp: agent 9: noise_amp must be >= 0, got -0.5",
    ]


def test_unknown_key_suggests_nearest():
    text = MINIMAL + "crowd.saturation = 2\n"
    with pytest.raises(ScenarioFormatError, match="did you mean"):
        parse_scenario(text)


def test_all_errors_reported_at_once():
    text = """
name = broken
crowd.n = 0
crowd.a = -1
crowd.b_low = 0.0
crowd.b_high = zebra
crowd.c = 1.0
rule.saturation_scale = 0.0
profile.kind = step
profile.height = 1.0
profile.onset = 99
run.steps = 5
"""
    with pytest.raises(ScenarioFormatError) as exc_info:
        parse_scenario(text)
    errors = exc_info.value.errors
    assert len(errors) >= 4
    joined = "\n".join(errors)
    assert "crowd.n" in joined
    assert "crowd.a" in joined
    assert "crowd.b_high" in joined
    assert "rule.saturation_scale" in joined


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioFormatError, match="duplicate"):
        parse_scenario(MINIMAL + "crowd.n = 11\n")


def test_missing_required_keys_reported():
    with pytest.raises(ScenarioFormatError) as exc_info:
        parse_scenario("name = empty\n")
    joined = "\n".join(exc_info.value.errors)
    for key in ("crowd.n", "crowd.a", "crowd.b_low", "rule.saturation_scale", "run.steps"):
        assert key in joined


def test_missing_profile_key_reported_once():
    text = MINIMAL.replace("profile.kind = zero", "profile.kind = step\nprofile.height = 1.0")
    with pytest.raises(ScenarioFormatError) as exc_info:
        parse_scenario(text)
    assert exc_info.value.errors == ["missing required key 'profile.onset'"]


def test_profile_keys_checked_without_run_steps():
    text = MINIMAL.replace(
        "profile.kind = zero", "profile.kind = step\nprofile.height = abc\nprofile.slope = 1.0"
    ).replace("run.steps = 5\n", "")
    with pytest.raises(ScenarioFormatError) as exc_info:
        parse_scenario(text)
    assert exc_info.value.errors == [
        "missing required key 'run.steps'",
        "line 10: profile.height: expected a number, got 'abc'",
        "missing required key 'profile.onset'",
        "line 11: profile.slope: not a parameter of profile kind 'step'",
    ]


def test_profile_key_tables_follow_builder_signatures():
    """Each kind's (key, type, optional) triples, by key; a renamed builder parameter fails here."""
    assert _PROFILE_PARAMS == {
        "zero": (),
        "step": (("height", float, False), ("onset", int, False)),
        "ramp": (("end", int, False), ("slope", float, False), ("start", int, False)),
        "bubble": (
            ("build_slope", float, False),
            ("confusion_decay", float, True),
            ("confusion_scale", float, True),
            ("confusion_wobble", float, True),
            ("crash_slope", float, False),
            ("peak_step", int, False),
            ("stabilize_step", int, False),
        ),
        "explicit": (("series", list, False),),
    }


def test_per_agent_lists_expand():
    text = """
name = hetero
crowd.n = 3
crowd.a = 0.5
crowd.b_low = -0.1, 0.0, 0.1
crowd.b_high = 1.0
crowd.c = 1.0, 2.0, 3.0
rule.saturation_scale = 1.0
profile.kind = zero
run.steps = 5
"""
    spec = parse_scenario(text)
    assert spec.config.b_low.tolist() == [-0.1, 0.0, 0.1]
    assert spec.config.c.tolist() == [1.0, 2.0, 3.0]
    assert spec.config.b_high.tolist() == [1.0, 1.0, 1.0]


NON_FINITE = [
    ("crowd.a", "inf", 4),
    ("crowd.b_low", "-inf", 5),
    ("crowd.c", "nan", 7),
    ("rule.saturation_scale", "nan", 8),
    ("crowd.noise_amp", ", ".join(["0.1"] * 9 + ["nan"]), 11),
    ("crowd.dt", "-inf", 11),
    ("run.divergence_ceiling", "inf", 11),
]


@pytest.mark.parametrize("key,value,line", NON_FINITE, ids=[case[0] for case in NON_FINITE])
def test_non_finite_numbers_rejected_with_line_number(key, value, line):
    lines = MINIMAL.split("\n")
    for i, text in enumerate(lines):
        if text.startswith(f"{key} ="):
            lines[i] = f"{key} = {value}"
            break
    else:
        lines.insert(line - 1, f"{key} = {value}")
    with pytest.raises(ScenarioFormatError) as exc_info:
        parse_scenario("\n".join(lines))
    [error] = exc_info.value.errors
    assert error.startswith(f"line {line}: {key}: must be finite")


def test_wrong_list_length_rejected():
    text = MINIMAL.replace("crowd.c = 1.0", "crowd.c = 1.0, 2.0")
    with pytest.raises(ScenarioFormatError, match="expected 1 or 10 values"):
        parse_scenario(text)


def test_wiener_noise_parses():
    text = MINIMAL.replace(
        "rule.saturation_scale = 1.0",
        "crowd.noise = wiener\ncrowd.mu = 0.01\ncrowd.sigma = 0.2\nrule.saturation_scale = 1.0",
    )
    spec = parse_scenario(text)
    assert spec.config.noise_model == WienerNoise(mu=0.01, sigma=0.2)


def test_wiener_params_without_wiener_noise_rejected():
    text = MINIMAL + "crowd.mu = 0.1\n"
    with pytest.raises(ScenarioFormatError, match="only meaningful"):
        parse_scenario(text)


def test_uniform_noise_sets_agent_amplitudes():
    text = MINIMAL.replace(
        "rule.saturation_scale = 1.0",
        "crowd.noise = uniform\ncrowd.noise_amp = 0.3\nrule.saturation_scale = 1.0",
    )
    spec = parse_scenario(text)
    assert isinstance(spec.config.noise_model, UniformNoise)
    assert np.array_equal(spec.config.noise_amp, np.full(10, 0.3))


def test_golden_fig5_arithmetic(golden):
    cfg = golden("fig5-unstable").config
    peak_gain = cfg.a * cfg.n * cfg.b_high[0]
    assert peak_gain == pytest.approx(1.35, rel=1e-12)


# ---------------------------------------------------------------------------
# canonical form and round-trips
# ---------------------------------------------------------------------------

def test_canonical_form_is_parse_stable():
    first = format_scenario(parse_scenario(MINIMAL))
    second = format_scenario(parse_scenario(first))
    assert first == second


def test_canonical_form_stable_for_golden_specs(scenario_dir):
    paths = sorted(scenario_dir.glob("*.scenario"))
    assert [p.stem for p in paths] == ["fig4-stable", "fig5-unstable", "fig6-bubble"]
    for path in paths:
        text = format_scenario(load_scenario(path))
        assert format_scenario(parse_scenario(text)) == text
        # the files are the canonical form under their comment header
        body = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
        assert body == text.splitlines()


def test_comments_and_blank_lines_ignored():
    spec = parse_scenario("# header\n\n" + MINIMAL + "\n# trailing\n")
    assert spec.config.n == 10


@pytest.mark.parametrize("bad", ["../escaped", "sub/run", ".hidden", "-flag", "two words"])
def test_unsafe_name_rejected_with_line_number(bad):
    with pytest.raises(ScenarioFormatError) as exc:
        parse_scenario(MINIMAL.replace("name = minimal", f"name = {bad}"))
    assert any(e.startswith("line 2: name:") for e in exc.value.errors)


def test_name_survives_format_parse_or_is_refused():
    spec = parse_scenario(MINIMAL)
    with pytest.raises(ValueError, match="name"):
        replace(spec, name="a#b")
    safe = replace(spec, name="run_1.v-2")
    assert parse_scenario(format_scenario(safe)).name == "run_1.v-2"


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def quiescent_result(steps=3):
    cfg = CrowdConfig(n=4, a=1.0, b_low=0.0, b_high=1.0, c=1.0)
    return run(cfg, SwitchRule(saturation_scale=1.0), zero_profile(steps))


def test_quiescent_table_layout():
    text = format_table(quiescent_result())
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == ",".join(TABLE_COLUMNS)
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == len(TABLE_COLUMNS)
        assert set(fields[1:-1]) == {"0"}
        assert fields[-1] == "contracting"


def test_table_emission_is_deterministic(tmp_path, golden):
    result = run_spec(golden("fig4-stable"))
    p1 = emit_table(result, tmp_path / "a.csv")
    p2 = emit_table(result, tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_table_round_trips_floats_exactly(tmp_path, golden):
    result = run_spec(golden("fig6-bubble"))
    path = emit_table(result, tmp_path / "t.csv")
    table = read_table(path)
    assert np.array_equal(table["O"], result.O)
    assert np.array_equal(table["dO"], result.dO)
    assert np.array_equal(table["AB"], result.ab)
    assert np.array_equal(table["N_H"], result.n_reactive)


def test_bubble_table_peak_exceeds_final(tmp_path, golden):
    result = run_spec(golden("fig6-bubble"))
    table = read_table(emit_table(result, tmp_path / "bubble.csv"))
    assert table["O"].max() > table["O"][-1]


def test_summary_row_shape(golden):
    result = run_spec(golden("fig5-unstable"))
    text = format_summary(summarize(result, name="fig5-unstable"))
    lines = text.strip().split("\n")
    assert len(lines) == 2
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert row["diverged"] == "true"
    assert row["peak_ratio"] == "1"
    assert row["name"] == "fig5-unstable"
    assert row["stability_final"] == "amplifying"


def test_read_table_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(TableFormatError, match="^invalid table: .*line 1: expected the header"):
        read_table(path)


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(0.0)
@example(-0.0)
@example(float("inf"))
@example(float("-inf"))
@example(float("nan"))
@example(5e-324)
@example(-2.2250738585072e-308)
def test_percent_g17_is_format_g17(x):
    # format_table prints a row with one % operation; the cells must stay format()'s
    assert "%.17g" % x == format(x, ".17g")


# ---------------------------------------------------------------------------
# parse . format on generated specs
# ---------------------------------------------------------------------------

_ANY = st.floats(-1e6, 1e6)
_POSITIVE = st.floats(1e-6, 1e3)
_UNIT_OPEN = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_NAME_START = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"


def _per_agent(draw, n, values):
    """One value for the whole crowd, or one per agent."""
    if draw(st.booleans()):
        return [draw(values)] * n
    return draw(st.lists(values, min_size=n, max_size=n))


def _profile_params(draw, kind, steps):
    if kind == "step":
        return {"height": draw(_ANY), "onset": draw(st.integers(0, steps - 1))}
    if kind == "ramp":
        start = draw(st.integers(0, steps - 1))
        return {"slope": draw(_ANY), "start": start, "end": draw(st.integers(start + 1, steps))}
    if kind == "bubble":
        peak = draw(st.integers(1, steps - 2))
        return {
            "build_slope": draw(_POSITIVE),
            "peak_step": peak,
            "crash_slope": -draw(_POSITIVE),
            "stabilize_step": draw(st.integers(peak + 1, steps - 1)),
            "confusion_scale": draw(st.floats(0.0, 1.0, exclude_max=True)),
            "confusion_decay": draw(_UNIT_OPEN),
            "confusion_wobble": draw(st.floats(0.0, 1.0, exclude_max=True)),
        }
    if kind == "explicit":
        return {"series": draw(st.lists(_ANY, min_size=steps, max_size=steps))}
    return {}


@st.composite
def specs(draw):
    """Valid specs over every profile kind, noise kind and per-agent list shape."""
    n = draw(st.integers(1, 5))
    steps = draw(st.integers(3, 30))
    b_low = _per_agent(draw, n, st.floats(-10.0, 10.0))
    floor = [max(lo, 0.0) for lo in b_low]
    if draw(st.booleans()):
        b_high = [max(floor) + draw(st.floats(1e-3, 10.0))] * n
    else:
        b_high = [f + draw(st.floats(1e-3, 10.0)) for f in floor]
    c = _per_agent(draw, n, _ANY)
    amp = _per_agent(draw, n, st.floats(0.0, 10.0))
    noise = draw(st.sampled_from([NoNoise(), UniformNoise(), None]))
    if noise is None:
        noise = WienerNoise(mu=draw(_ANY), sigma=draw(st.floats(0.0, 1e3)))
    config = CrowdConfig(n=n, a=draw(_POSITIVE), b_low=b_low, b_high=b_high, c=c, noise_amp=amp,
                         noise_model=noise, dt=draw(_POSITIVE))
    rule = SwitchRule(saturation_scale=draw(_POSITIVE), window=draw(st.integers(1, 50)))
    kind = draw(st.sampled_from(PROFILE_KINDS))
    return ScenarioSpec(
        name=draw(st.sampled_from(_NAME_START)) + draw(st.text(_NAME_START + ".-", max_size=12)),
        config=config,
        rule=rule,
        profile=build_profile(kind, _profile_params(draw, kind, steps), steps),
        seed=draw(st.integers(0, 2**63)),
        metric_window=draw(st.none() | st.integers(1, 100)),
        overlap=draw(st.booleans()),
        divergence_ceiling=draw(st.floats(1e-6, 1e300)),
    )


@settings(max_examples=100, deadline=None)
@given(specs())
def test_parse_format_round_trip(spec):
    text = format_scenario(spec)
    parsed = parse_scenario(text)
    assert format_scenario(parsed) == text
    for field in ("n", "a", "noise_model", "dt"):
        assert getattr(parsed.config, field) == getattr(spec.config, field)
    for column in AGENT_COLUMNS:
        assert np.array_equal(getattr(parsed.config, column), getattr(spec.config, column))
    assert parsed.rule == spec.rule
    fields = ("name", "seed", "metric_window", "overlap", "divergence_ceiling")
    assert [getattr(parsed, f) for f in fields] == [getattr(spec, f) for f in fields]
    assert parsed.profile.kind == spec.profile.kind
    assert np.array_equal(parsed.profile.increments, spec.profile.increments)
