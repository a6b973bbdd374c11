"""The command-line entry point: exit codes, error lines, output locations."""

import csv

import pytest

import crowdsync.scenarios as scenarios_module
from crowdsync.cli import main
from crowdsync.scenario_io import TABLE_COLUMNS

SCENARIO = """
name = {name}
crowd.n = 10
crowd.a = 0.05
crowd.b_low = 0.0
crowd.b_high = 1.0
crowd.c = 1.0
rule.saturation_scale = 1.0
profile.kind = step
profile.height = 1.0
profile.onset = 2
run.steps = 12
"""


def write_scenario(tmp_path, name="cli"):
    path = tmp_path / "in.scenario"
    path.write_text(SCENARIO.format(name=name), encoding="utf-8")
    return str(path)


def test_run_writes_inside_out(tmp_path):
    out = tmp_path / "a" / "out"
    assert main(["run", "--scenario", write_scenario(tmp_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["cli_summary.csv", "cli_timeseries.csv"]


def test_run_computes_the_whole_run_report_once(tmp_path, monkeypatch, scenario_dir):
    calls = []
    original = scenarios_module.sync_report
    monkeypatch.setattr(
        scenarios_module, "sync_report", lambda *a, **kw: calls.append(1) or original(*a, **kw)
    )
    scenario = str(scenario_dir / "fig4-stable.scenario")
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_order_vs_ratio_curve_uses_each_agents_noise(tmp_path):
    path = tmp_path / "noisy.scenario"
    path.write_text(
        SCENARIO.format(name="noisy").replace("crowd.n = 10", "crowd.n = 4")
        + "crowd.noise = uniform\ncrowd.noise_amp = 0.0, 5.0, 5.0, 5.0\n",
        encoding="utf-8",
    )
    argv = ["curve", "--scenario", str(path), "--kind", "order-vs-ratio",
            "--points", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    with open(tmp_path / "noisy_curve_order-vs-ratio.csv", newline="", encoding="utf-8") as fh:
        rows = {float(r["x"]): r for r in csv.DictReader(fh)}
    assert float(rows[0.5]["mean_R"]) < 1.0 and float(rows[0.5]["stderr_R"]) > 0.0


def test_run_refuses_name_that_leaves_out(tmp_path, capsys):
    out = tmp_path / "a" / "out"
    scenario = write_scenario(tmp_path, name="../escaped")
    assert main(["run", "--scenario", scenario, "--out", str(out)]) == 1
    assert "line 2: name:" in capsys.readouterr().err
    assert not list((tmp_path / "a").glob("*escaped*"))
    assert not out.exists()


def test_sweep_rejects_jobs_below_one(tmp_path, capsys):
    argv = ["sweep", "--scenario", write_scenario(tmp_path), "--param", "a",
            "--values", "0.01,0.02", "--out", str(tmp_path / "out"), "--jobs", "0"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "jobs must be >= 1" in err
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_fractional_n(tmp_path, capsys):
    argv = ["sweep", "--scenario", write_scenario(tmp_path), "--param", "n",
            "--values", "10.7", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "whole numbers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


def test_validate_rejects_infinite_sensitivity(tmp_path, capsys):
    path = tmp_path / "inf.scenario"
    path.write_text(SCENARIO.format(name="cli").replace("crowd.a = 0.05", "crowd.a = inf"))
    assert main(["validate", "--scenario", str(path)]) == 1
    assert_one_line_error(capsys, "line 4: crowd.a:", "finite")


def test_run_rejects_nan_coefficient(tmp_path, capsys):
    path = tmp_path / "nan.scenario"
    path.write_text(SCENARIO.format(name="cli").replace("crowd.c = 1.0", "crowd.c = nan"))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert_one_line_error(capsys, "line 7: crowd.c:", "finite")
    assert not (tmp_path / "out").exists()


def test_run_rejects_infinite_divergence_ceiling(tmp_path, capsys, scenario_dir):
    text = (scenario_dir / "fig5-unstable.scenario").read_text(encoding="utf-8")
    text = text.replace("run.steps = 150", "run.steps = 3000")
    text = text.replace("run.divergence_ceiling = 1000000000000.0", "run.divergence_ceiling = inf")
    path = tmp_path / "fig5-inf.scenario"
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert_one_line_error(capsys, "run.divergence_ceiling:", "finite")


def test_metrics_checks_window_before_reading_table(tmp_path, capsys):
    argv = ["metrics", "--table", str(tmp_path / "missing.csv"), "--window", "0"]
    assert main(argv) == 1
    assert "--window must be >= 1" in capsys.readouterr().err


TABLE_HEAD = ",".join(TABLE_COLUMNS) + "\n0,0,0,0,0,0,0,0,0,0,0,0,contracting\n"
MALFORMED_TABLES = {
    "empty": ("", "empty file"),
    "short-row": (TABLE_HEAD + "1,0,0\n", "line 3: expected 13 fields, got 3"),
    "non-numeric": (TABLE_HEAD + "1,0,0,0,0,0,x,0,0,0,0,0,contracting\n",
                    "line 3: dO: could not convert string to float: 'x'"),
}


@pytest.mark.parametrize("case", MALFORMED_TABLES)
def test_metrics_refuses_malformed_table(case, tmp_path, capsys):
    text, fragment = MALFORMED_TABLES[case]
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["metrics", "--table", str(path), "--window", "1"]) == 1
    assert_one_line_error(capsys, f"{path}: ", fragment)
