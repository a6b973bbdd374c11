"""Scenario parsing/emission and result tables."""

from dataclasses import replace

import numpy as np
import pytest

from crowdsync.dynamics import NoNoise, UniformNoise, WienerNoise
from crowdsync.scenario_io import (
    ScenarioFormatError,
    TABLE_COLUMNS,
    emit_table,
    format_scenario,
    format_summary,
    format_table,
    load_scenario,
    parse_scenario,
    read_table,
)
from crowdsync.scenarios import GOLDEN_NAMES, golden_scenario, run_spec, summarize, run, zero_profile
from crowdsync.switching import SwitchRule
from crowdsync.dynamics import CrowdConfig, homogeneous_agents

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
    assert all(ag.noise_amp == 0.0 for ag in spec.config.agents)


def test_equal_couplings_rejected_with_constraint_message():
    text = MINIMAL.replace("crowd.b_high = 1.0", "crowd.b_high = 0.0")
    with pytest.raises(ScenarioFormatError, match="b_high must exceed b_low"):
        parse_scenario(text)


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
    assert [ag.b_low for ag in spec.config.agents] == [-0.1, 0.0, 0.1]
    assert [ag.c for ag in spec.config.agents] == [1.0, 2.0, 3.0]
    assert all(ag.b_high == 1.0 for ag in spec.config.agents)


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
    assert all(ag.noise_amp == 0.3 for ag in spec.config.agents)


def test_golden_file_matches_registry(scenario_dir):
    for name in GOLDEN_NAMES:
        spec = load_scenario(scenario_dir / f"{name}.scenario")
        reference = golden_scenario(name)
        assert spec.name == reference.name
        assert spec.config == reference.config
        assert spec.rule == reference.rule
        assert spec.steps == reference.steps
        assert spec.seed == reference.seed
        assert spec.profile.kind == reference.profile.kind
        assert np.array_equal(spec.profile.increments, reference.profile.increments)


def test_golden_fig5_arithmetic(scenario_dir):
    spec = load_scenario(scenario_dir / "fig5-unstable.scenario")
    cfg = spec.config
    ab_max = cfg.a * cfg.n * cfg.agents[0].b_high
    assert ab_max == pytest.approx(1.35, rel=1e-12)


# ---------------------------------------------------------------------------
# canonical form and round-trips
# ---------------------------------------------------------------------------

def test_canonical_form_is_parse_stable():
    first = format_scenario(parse_scenario(MINIMAL))
    second = format_scenario(parse_scenario(first))
    assert first == second


def test_canonical_form_stable_for_golden_specs():
    for name in GOLDEN_NAMES:
        text = format_scenario(golden_scenario(name))
        assert format_scenario(parse_scenario(text)) == text


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
    cfg = CrowdConfig(n=4, a=1.0, agents=homogeneous_agents(4, 0.0, 1.0, 1.0))
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


def test_table_emission_is_deterministic(tmp_path):
    result = run_spec(golden_scenario("fig4-stable"))
    p1 = emit_table(result, tmp_path / "a.csv")
    p2 = emit_table(result, tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_table_round_trips_floats_exactly(tmp_path):
    result = run_spec(golden_scenario("fig6-bubble"))
    path = emit_table(result, tmp_path / "t.csv")
    table = read_table(path)
    assert np.array_equal(table["O"], result.O)
    assert np.array_equal(table["dO"], result.dO)
    assert np.array_equal(table["AB"], result.ab)
    assert np.array_equal(table["N_H"], result.n_reactive)


def test_bubble_table_peak_exceeds_final(tmp_path):
    result = run_spec(golden_scenario("fig6-bubble"))
    table = read_table(emit_table(result, tmp_path / "bubble.csv"))
    assert table["O"].max() > table["O"][-1]


def test_summary_row_shape():
    result = run_spec(golden_scenario("fig5-unstable"))
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
    with pytest.raises(ScenarioFormatError):
        read_table(path)
