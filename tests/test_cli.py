"""The command-line entry point: exit codes, error lines, output locations."""

from crowdsync.cli import main

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
