"""Scenario parsing/emission and result tables."""

import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import crowdsync.scenario_io as scenario_io
from crowdsync.dynamics import AGENT_COLUMNS, CrowdConfig, NoNoise, UniformNoise, WienerNoise
from crowdsync.scenario_io import (
    SUMMARY_COLUMNS,
    ScenarioFormatError,
    TABLE_CHUNK_ROWS,
    TABLE_COLUMNS,
    TableFormatError,
    _PROFILE_PARAMS,
    _summary_row,
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
    ForceProfile,
    ScenarioSpec,
    build_profile,
    explicit_profile,
    summarize,
    run,
    zero_profile,
)
from crowdsync.switching import Stability, SwitchRule
from conftest import spec_of

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


def _with(text, key, value):
    """`text` with `key` set to `value`, and the line number of that key."""
    lines = text.rstrip("\n").split("\n")
    at = next((i for i, line in enumerate(lines) if line.startswith(f"{key} =")), len(lines))
    lines[at : at + 1] = [f"{key} = {value}"]
    return "\n".join(lines) + "\n", at + 1


_WIENER = MINIMAL.replace("profile.kind", "crowd.noise = wiener\nprofile.kind")
_COLUMNS = {"b_low": 0.0, "b_high": 1.0, "c": 1.0}

#: (file, key, value, the constructor call that sets the same field, its message)
RULES = [
    (MINIMAL, "crowd.n", "0", lambda: CrowdConfig(n=0, a=1.0, **_COLUMNS),
     "population n must be >= 1, got 0"),
    (MINIMAL, "crowd.a", "0", lambda: CrowdConfig(n=1, a=0.0, **_COLUMNS),
     "observation sensitivity a must be finite and > 0, got 0.0"),
    (MINIMAL, "crowd.dt", "0", lambda: CrowdConfig(n=1, a=1.0, **_COLUMNS, dt=0.0),
     "time step dt must be finite and > 0, got 0.0"),
    (_WIENER, "crowd.sigma", "-1", lambda: WienerNoise(sigma=-1.0),
     "wiener sigma must be finite and >= 0, got -1.0"),
    (MINIMAL, "rule.window", "0", lambda: SwitchRule(saturation_scale=1.0, window=0),
     "window must be >= 1, got 0"),
    (MINIMAL, "rule.saturation_scale", "0", lambda: SwitchRule(saturation_scale=0.0),
     "saturation_scale must be finite and > 0, got 0.0"),
    (MINIMAL, "run.steps", "0", lambda: ForceProfile("zero", 0, np.zeros(0)),
     "profile length must be >= 1, got 0"),
    (MINIMAL, "run.seed", "-1", lambda: replace(parse_scenario(MINIMAL), seed=-1),
     "seed must be >= 0, got -1"),
    (MINIMAL, "run.metric_window", "0", lambda: replace(parse_scenario(MINIMAL), metric_window=0),
     "metric_window must be None or >= 1, got 0"),
    (MINIMAL, "run.divergence_ceiling", "0", lambda: replace(parse_scenario(MINIMAL), divergence_ceiling=0.0),
     "divergence_ceiling must be finite and > 0, got 0.0"),
    (MINIMAL, "name", "-x", lambda: replace(parse_scenario(MINIMAL), name="-x"),
     "scenario name must be letters, digits, '_', '.' and '-', not starting with '.' or '-'; got '-x'"),
]


@pytest.mark.parametrize("base,key,value,construct,message", RULES, ids=[case[1] for case in RULES])
def test_each_field_rule_is_coded_once(base, key, value, construct, message):
    """A file value breaking a field's rule gets, on its line, the message its constructor raises."""
    text, line = _with(base, key, value)
    with pytest.raises(ScenarioFormatError) as exc_info:
        parse_scenario(text)
    assert exc_info.value.errors == [f"line {line}: {key}: {message}"]
    with pytest.raises(ValueError) as exc_info:
        construct()
    assert str(exc_info.value) == message


@pytest.mark.parametrize("field,bad", [
    ("seed", -1), ("metric_window", 0), ("overlap", 2), ("overlap", "yes"),
    ("divergence_ceiling", 0.0), ("divergence_ceiling", -1.0),
    ("divergence_ceiling", math.inf), ("divergence_ceiling", math.nan),
])
def test_spec_refuses_what_its_canonical_form_cannot_hold(field, bad):
    """parse(format(spec)) holds for every spec: a value the reader would refuse is refused here."""
    with pytest.raises(ValueError, match=field):
        replace(parse_scenario(MINIMAL), **{field: bad})


def test_absent_optional_keys_take_the_field_defaults():
    spec = parse_scenario(MINIMAL.replace("name = minimal\n", "") + "crowd.noise = wiener\n")
    assert spec.name == "scenario"
    assert spec.config.noise_model == WienerNoise()
    assert spec.divergence_ceiling == ScenarioSpec.divergence_ceiling


def test_profile_builder_error_is_reported_on_the_kind_line():
    step = "profile.kind = step\nprofile.height = 1.0\nprofile.onset = 99"
    text = MINIMAL.replace("profile.kind = zero", step)
    with pytest.raises(ScenarioFormatError) as exc_info:
        parse_scenario(text)
    assert exc_info.value.errors == ["line 9: profile.kind: onset 99 outside [0, 5)"]


#: (file, its full error list) for each form a value can break
BAD_FORMS = {
    "integer": (MINIMAL.replace("crowd.n = 10", "crowd.n = ten"),
                ["line 3: crowd.n: expected an integer, got 'ten'"]),
    "bool": (MINIMAL + "run.overlap = maybe\n", ["line 11: run.overlap: expected true/false, got 'maybe'"]),
    "number list": (MINIMAL.replace("crowd.c = 1.0", "crowd.c = 1.0, x"),
                    ["line 7: crowd.c: expected a number or comma-separated numbers, got '1.0, x'"]),
    "noise kind": (MINIMAL + "crowd.noise = pink\n",
                   ["line 11: crowd.noise: must be one of none, uniform, wiener; got 'pink'"]),
    "profile kind": (MINIMAL.replace("profile.kind = zero", "profile.kind = square"),
                     ["line 9: profile.kind: must be one of zero, step, ramp, bubble, explicit; got 'square'"]),
    "key = value": (MINIMAL.replace("crowd.n = 10", "crowd.n 10"),
                    ["line 3: expected 'key = value', got 'crowd.n 10'", "missing required key 'crowd.n'"]),
    "negative profile integer": (
        MINIMAL.replace("profile.kind = zero", "profile.kind = step\nprofile.height = 1.0\nprofile.onset = -1"),
        ["line 11: profile.onset: must be >= 0, got -1"],
    ),
}


@pytest.mark.parametrize("case", BAD_FORMS)
def test_each_bad_form_has_its_message(case):
    text, errors = BAD_FORMS[case]
    with pytest.raises(ScenarioFormatError) as exc_info:
        parse_scenario(text)
    assert exc_info.value.errors == errors


_FOREIGN_PARAMS = MINIMAL.replace(
    "profile.kind = zero", "profile.kind = zero\nprofile.height = 1.0\nprofile.onset = 2\nprofile.slope = 1.0"
)
_PRINT_ERRORS = """
import sys
from crowdsync.scenario_io import ScenarioFormatError, parse_scenario
try:
    parse_scenario(sys.stdin.read())
except ScenarioFormatError as exc:
    print(exc.errors)
"""


def test_keys_foreign_to_the_profile_kind_are_reported_in_line_order():
    """The report does not follow the hash seed of the process that parses."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    outputs = [
        subprocess.run([sys.executable, "-c", _PRINT_ERRORS], input=_FOREIGN_PARAMS, capture_output=True,
                       text=True, check=True, env={**env, "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "3")
    ]
    want = [f"line {line}: profile.{key}: not a parameter of profile kind 'zero'"
            for line, key in ((10, "height"), (11, "onset"), (12, "slope"))]
    assert outputs == [f"{want}\n"] * 2


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def quiescent_result(steps=3):
    cfg = CrowdConfig(n=4, a=1.0, b_low=0.0, b_high=1.0, c=1.0)
    return run(spec_of(cfg, SwitchRule(saturation_scale=1.0), zero_profile(steps)))


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
    result = run(golden("fig4-stable"))
    p1 = emit_table(result, tmp_path / "a.csv")
    p2 = emit_table(result, tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_table_round_trips_floats_exactly(tmp_path, golden):
    result = run(golden("fig6-bubble"))
    path = emit_table(result, tmp_path / "t.csv")
    table = read_table(path)
    assert np.array_equal(table["O"], result.O)
    assert np.array_equal(table["dO"], result.dO)
    assert np.array_equal(table["AB"], result.ab)
    assert np.array_equal(table["N_H"], result.n_reactive)


def test_bubble_table_peak_exceeds_final(tmp_path, golden):
    result = run(golden("fig6-bubble"))
    table = read_table(emit_table(result, tmp_path / "bubble.csv"))
    assert table["O"].max() > table["O"][-1]


def test_summary_row_shape(golden):
    result = run(golden("fig5-unstable"))
    text = format_summary(summarize(result))
    lines = text.strip().split("\n")
    assert len(lines) == 2
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert row["diverged"] == "true"
    assert row["peak_ratio"] == "1"
    assert row["name"] == "fig5-unstable"
    assert row["stability_final"] == "amplifying"


@pytest.mark.parametrize("bad", ["a,b", 'say "hi"', "cr\rcr", "lf\nlf"])
def test_summary_name_holds_no_comma_quote_or_line_break(bad):
    with pytest.raises(ValueError) as exc_info:
        replace(summarize(quiescent_result()), name=bad)
    assert str(exc_info.value) == f"run name must hold no comma, quote, CR or LF; got {bad!r}"


_QUIET_SUMMARY = summarize(quiescent_result())


@settings(max_examples=200, deadline=None)
@given(st.text(st.characters(exclude_characters=',"\r\n')))
@example("x\x00\t y")
def test_summary_bytes_are_those_of_csv_writer(name):
    """Every name the rule allows is a cell that `csv.writer` would not quote."""
    summary = replace(_QUIET_SUMMARY, name=name)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([SUMMARY_COLUMNS, _summary_row(summary)])
    assert format_summary(summary) == buf.getvalue()


def test_read_table_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(TableFormatError, match="^invalid table: .*line 1: expected the header"):
        read_table(path)


def test_read_table_converts_only_the_named_columns(tmp_path):
    path = tmp_path / "t.csv"
    head = ",".join(TABLE_COLUMNS) + "\n"
    path.write_text(head + "0,x,0,0,0,0,0.5,0,0,0,0,1,contracting\n")  # a bad cell in E
    with pytest.raises(TableFormatError, match="^invalid table: .*line 2: E: could not convert"):
        read_table(path)
    table = read_table(path, columns=("t", "dO", "R"))
    assert list(table) == ["t", "dO", "R"]
    assert (table["t"].tolist(), table["dO"].tolist(), table["R"].tolist()) == ([0], [0.5], [1.0])
    # the header and every row's width are still checked
    path.write_text(head + "0,0,0,0,0,0,0.5,0,0,0,0,1,contracting\n1,0,0\n")
    with pytest.raises(TableFormatError, match="line 3: expected 13 fields, got 3"):
        read_table(path, columns=("dO",))
    with pytest.raises(ValueError, match="^unknown table column 'dQ'; valid: t, E, dE,"):
        read_table(path, columns=("dO", "dQ"))


def _same_arrays(a: dict, b: dict) -> bool:
    """Equal keys, dtypes and bytes: NaN cells compare equal, and 0.0 and -0.0 differ."""
    return list(a) == list(b) and all(a[k].dtype == b[k].dtype and a[k].tobytes() == b[k].tobytes() for k in a)


def test_read_table_reads_crlf_and_a_missing_final_newline(tmp_path, golden):
    lf = emit_table(run(golden("fig6-bubble")), tmp_path / "lf.csv")
    text = lf.read_text(encoding="utf-8")
    (tmp_path / "crlf.csv").write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    (tmp_path / "open.csv").write_text(text.removesuffix("\n"), encoding="utf-8")
    table = read_table(lf)
    assert _same_arrays(read_table(tmp_path / "crlf.csv"), table)
    assert _same_arrays(read_table(tmp_path / "open.csv"), table)


_GOOD_ROW = "0,0,0,0,0,0,0.5,0,0,0,0,1,contracting"
_BAD_DO = "0,0,0,0,0,x,0,0,0,0,1,contracting"  # a row's rest, after its t cell: dO is "x"

#: body lines after the header, and the error they give; each line's number is its index + 2
_MALFORMED_BODIES = {
    "blank line": ([_GOOD_ROW, "", _GOOD_ROW], "line 3: expected 13 fields, got 0"),
    "blank last line": ([_GOOD_ROW, _GOOD_ROW, ""], "line 4: expected 13 fields, got 0"),
    "one cell": ([_GOOD_ROW, "7"], "line 3: expected 13 fields, got 1"),
    "14 cells": ([_GOOD_ROW, _GOOD_ROW + ",0"], "line 3: expected 13 fields, got 14"),
    "the earlier of two widths": ([_GOOD_ROW, _GOOD_ROW + ",0", "2", _GOOD_ROW + ",0"],
                                  "line 3: expected 13 fields, got 14"),
    "a repeated bad dO cell": ([_GOOD_ROW, "1," + _BAD_DO, "2," + _BAD_DO.replace("x", "y"), "3," + _BAD_DO],
                               "line 3: dO: could not convert string to float: 'x'"),
    "a bad t cell": ([_GOOD_ROW, "1.5" + _GOOD_ROW[1:]], "line 3: t: invalid literal for int() with base 10: '1.5'"),
    "a quoted cell": ([_GOOD_ROW, _GOOD_ROW.replace(",0.5,", ',"0.5",'), '"x"'],
                      "line 3: a quote; table cells are never quoted"),
    "a quote below a bad width": ([_GOOD_ROW, "7", _GOOD_ROW.replace(",0.5,", ',"0.5",')],
                                  "line 4: a quote; table cells are never quoted"),
    "a bad t cell above a bad width": (["x" + _GOOD_ROW[1:], _GOOD_ROW + ",0"], "line 3: expected 13 fields, got 14"),
    "a bad t cell below a bad dO cell": ([_GOOD_ROW, "1," + _BAD_DO, "x" + _GOOD_ROW[1:]],
                                         "line 4: t: invalid literal for int() with base 10: 'x'"),
    "a t cell beyond int64": (["18446744073709551616" + _GOOD_ROW[1:], "1" + _GOOD_ROW[1:]],
                              "line 2: t: expected row index 0, got '18446744073709551616'"),
    "t cells out of order": (["5" + _GOOD_ROW[1:], "3" + _GOOD_ROW[1:]], "line 2: t: expected row index 0, got '5'"),
    "a t cell that is not its row index below one that is": ([_GOOD_ROW, "2" + _GOOD_ROW[1:]],
                                                             "line 3: t: expected row index 1, got '2'"),
}


@pytest.mark.parametrize("case", _MALFORMED_BODIES)
def test_read_table_reports_the_first_bad_line(case, tmp_path):
    body, message = _MALFORMED_BODIES[case]
    path = tmp_path / "t.csv"
    path.write_text("\n".join([",".join(TABLE_COLUMNS), *body]) + "\n", encoding="utf-8")
    with pytest.raises(TableFormatError) as exc_info:
        read_table(path, columns=("t", "dO"))
    assert str(exc_info.value) == f"invalid table: {path}: {message}"


def test_read_table_reports_a_bad_byte_below_a_quote_first(tmp_path):
    path = tmp_path / "t.csv"
    head = ",".join(TABLE_COLUMNS) + "\n"
    path.write_bytes((head + _GOOD_ROW.replace(",0.5,", ',"0.5",') + "\n").encode("utf-8") + b"1,\xff\n")
    with pytest.raises(TableFormatError) as exc_info:
        read_table(path)
    assert str(exc_info.value) == f"invalid table: {path}: line 3: not UTF-8 (byte 0xff: invalid start byte)"


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(0.0)
@example(-0.0)
@example(float("inf"))
@example(float("-inf"))
@example(float("nan"))
@example(5e-324)
@example(-2.2250738585072e-308)
def test_percent_g17_is_format_g17(x):
    # format_table prints each cell with a % operation; the cells must stay format()'s
    assert "%.17g" % x == format(x, ".17g")


#: The per-row formatter `format_table` replaced; the reference for its bytes.
_TABLE_ROW = "%d," + "%.17g," * 6 + "%d," + "%.17g," * 4 + "%s\n"


def row_formatted_table(result) -> str:
    columns = [
        result.t.tolist(),
        result.E.tolist(),
        result.dE.tolist(),
        result.S.tolist(),
        result.dS.tolist(),
        result.O.tolist(),
        result.dO.tolist(),
        result.n_reactive.tolist(),
        (result.n_reactive / result.config.n).tolist(),
        result.b_total.tolist(),
        result.ab.tolist(),
        result.r_instant.tolist(),
        [s.value for s in result.stability_trace],
    ]
    return ",".join(TABLE_COLUMNS) + "\n" + "".join([_TABLE_ROW % row for row in zip(*columns)])


_NAN_PAYLOADS = [np.array(bits, dtype=np.uint64).view(np.float64).item()
                 for bits in (0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001)]
_CELL_FLOATS = (
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, -2.5e-310,
                     2.2250738585072014e-308, *_NAN_PAYLOADS])
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
)


def _table_result(steps, n, columns, n_reactive, stability):
    """A quiet run's result with its table columns replaced."""
    cfg = CrowdConfig(n=n, a=1.0, b_low=0.0, b_high=1.0, c=1.0)
    base = run(spec_of(cfg, SwitchRule(saturation_scale=1.0), zero_profile(steps)))
    floats = dict(zip(("E", "dE", "S", "dS", "O", "dO", "b_total", "ab", "r_instant"), columns))
    return replace(base, n_reactive=np.array(n_reactive, dtype=np.intp), stability_trace=stability, **floats)


@st.composite
def table_results(draw):
    """Results whose table columns pick from a few drawn values, so most values repeat."""
    steps = draw(st.integers(1, 40))
    n = draw(st.integers(1, 5))
    pool = np.array(draw(st.lists(_CELL_FLOATS, min_size=1, max_size=12)))
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=steps, max_size=steps)
    columns = [pool[draw(picks)] for _ in range(9)]
    n_reactive = draw(st.lists(st.integers(0, n), min_size=steps, max_size=steps))
    stability = draw(st.lists(st.sampled_from(list(Stability)), min_size=steps, max_size=steps))
    return _table_result(steps, n, columns, n_reactive, stability)


_ONE_ROW = _table_result(1, 3, [np.array([x]) for x in (0.0, -0.0, 1.5, float("nan"), float("inf"),
                                                        5e-324, -1.0, 0.5, 1.0)], [2], [Stability.MARGINAL])
# 0.0 == -0.0, yet they print "0" and "-0": a writer keyed on float equality merges them.
_SIGNED_ZEROS = _table_result(3, 2, [np.array([0.0, -0.0, 0.0])] * 9, [0, 1, 0], [Stability.CONTRACTING] * 3)


# A long settled stretch that a -0.0 in dO (step 30) and a stability change alone (step 45) split.
_SETTLED = _table_result(
    60, 3,
    [np.r_[np.linspace(-1.0, 1.0, 5), np.full(55, x)] for x in (2.5, 0.0, 1e-300, 0.0, 7.0, 0.0, 1.5, 1.5, 1.0)],
    [0, 1, 2, 3, 3] + [3] * 55,
    [Stability.CONTRACTING] * 5 + [Stability.MARGINAL] * 40 + [Stability.AMPLIFYING] * 15,
)
_SETTLED.dO[30:40] = -0.0


@settings(max_examples=100, deadline=None)
@given(table_results())
@example(_ONE_ROW)
@example(_SIGNED_ZEROS)
@example(_SETTLED)
def test_format_table_matches_the_row_formatter(result):
    assert format_table(result) == row_formatted_table(result)


_EDGE = TABLE_CHUNK_ROWS + 50
# Rows 10 to 4100 repeat but for t: a run of rows across the first chunk edge, between rows that differ.
_ACROSS_A_CHUNK_EDGE = _table_result(
    _EDGE, 2, [np.r_[np.arange(10.0), np.full(_EDGE - 55, 0.5), np.arange(45.0) + x] for x in range(9)],
    [1] * _EDGE, [Stability.MARGINAL] * _EDGE,
)


@settings(max_examples=100, deadline=None)
@given(table_results(), st.integers(1, 8))
@example(_SETTLED, 7)
@example(_ACROSS_A_CHUNK_EDGE, TABLE_CHUNK_ROWS)
def test_emit_table_writes_the_bytes_of_format_table(tmp_path_factory, result, chunk_rows):
    """The file holds `format_table`'s text, written in chunks of at most `chunk_rows` rows."""
    with mock.patch.object(scenario_io, "TABLE_CHUNK_ROWS", chunk_rows):
        path = emit_table(result, tmp_path_factory.mktemp("table") / "t.csv")
        text = format_table(result)
        chunks = list(scenario_io._table_chunks(result))
    assert path.read_bytes() == text.encode("utf-8")
    assert text == row_formatted_table(result)
    assert all(chunk.count("\n") <= chunk_rows for chunk in chunks)


def test_the_table_is_streamed_through_its_file(tmp_path, golden):
    """A 20 000-row settled table is never held whole: writing it, and reading back the columns
    `crowdsync metrics` reads, each peak below twice its size."""
    spec = golden("fig6-bubble")
    result = run(replace(spec, profile=build_profile("bubble", spec.profile.params, 20_000)), keep_actions=False)
    path = tmp_path / "t.csv"
    peaks = []
    for call in (lambda: emit_table(result, path), lambda: read_table(path, columns=("t", "dO", "R", "O"))):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert size > 1.9e6  # about 100 bytes a row
    assert max(peaks) < 2 * size, f"peaks {[round(p / size, 2) for p in peaks]} times the table's size"


def _assert_table_reads_back(result, path):
    """read_table(emit_table(result)) gives every column back: t and N_H as int64, stability as its strings."""
    table = read_table(emit_table(result, path))
    assert list(table) == TABLE_COLUMNS
    assert table["t"].dtype == table["N_H"].dtype == np.int64
    assert table["t"].tolist() == result.t.tolist()
    assert table["N_H"].tolist() == result.n_reactive.tolist()
    assert table["stability"].tolist() == [s.value for s in result.stability_trace]
    floats = (result.E, result.dE, result.S, result.dS, result.O, result.dO, result.n_reactive / result.config.n,
              result.b_total, result.ab, result.r_instant)
    for name, want in zip(["E", "dE", "S", "dS", "O", "dO", "ratio", "B", "AB", "R"], floats):
        got = table[name]
        nan = np.isnan(want)  # "%.17g" prints every NaN payload as "nan"
        assert got.dtype == np.float64 and np.array_equal(np.isnan(got), nan), name
        assert got[~nan].tobytes() == want[~nan].tobytes(), name


@settings(max_examples=100, deadline=None)
@given(table_results())
@example(_ONE_ROW)
@example(_SIGNED_ZEROS)
@example(_SETTLED)
def test_read_table_inverts_emit_table(tmp_path_factory, result):
    _assert_table_reads_back(result, tmp_path_factory.mktemp("table") / "t.csv")


@pytest.mark.parametrize("name", ["fig4-stable", "fig5-unstable", "fig6-bubble"])
def test_golden_tables_read_back(name, tmp_path, golden):
    _assert_table_reads_back(run(golden(name)), tmp_path / "t.csv")


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


def test_explicit_profile_of_equal_values_round_trips():
    """An explicit series is written value by value, even when every value is equal (unlike an agent column)."""
    spec = replace(parse_scenario(MINIMAL), profile=explicit_profile(80, [0.5] * 80))
    text = format_scenario(spec)
    assert "\nprofile.series = " + ", ".join(["0.5"] * 80) + "\n" in text
    parsed = parse_scenario(text)
    assert format_scenario(parsed) == text
    assert parsed.profile.length == 80
    assert np.array_equal(parsed.profile.increments, spec.profile.increments)
