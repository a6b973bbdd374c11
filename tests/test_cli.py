"""The command-line entry point: exit codes, error lines, output locations."""

import csv
import tracemalloc

import pytest

import crowdsync.scenarios as scenarios_module
from crowdsync.cli import main
from crowdsync.metrics import CrowdMoments
from crowdsync.scenario_io import TABLE_COLUMNS, WINDOW_COLUMNS

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
    """The summary reads the run's streamed moments once and builds no window report."""
    calls = []
    monkeypatch.setattr(scenarios_module, "sync_report", lambda *a, **kw: calls.append("sync_report"))
    original = CrowdMoments.sync
    monkeypatch.setattr(CrowdMoments, "sync", lambda self: calls.append("moments") or original(self))
    scenario = str(scenario_dir / "fig4-stable.scenario")
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    assert calls == ["moments"]


def test_run_holds_no_action_matrix(tmp_path, capsys):
    """A 500-agent, 4000-step run's 16 MB action matrix is never built."""
    n, steps = 500, 4000
    path = tmp_path / "in.scenario"
    path.write_text(
        SCENARIO.format(name="long")
        .replace("crowd.n = 10", f"crowd.n = {n}")
        .replace("crowd.a = 0.05", f"crowd.a = {1 / n}")
        .replace("crowd.b_high = 1.0", "crowd.b_high = 0.5")
        .replace("run.steps = 12", f"run.steps = {steps}"),
        encoding="utf-8",
    )
    tracemalloc.start()
    try:
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.startswith(f"long: completed after {steps} steps")
    assert peak < 8 * n * steps / 4, f"peak {peak / 1e6:.1f} MB"


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


@pytest.mark.parametrize("drive", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", ["order-vs-ratio", "order-vs-noise"])
def test_curve_refuses_non_finite_drive(kind, drive, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["curve", "--scenario", write_scenario(tmp_path), "--kind", kind,
            "--points", "3", f"--drive={drive}", "--out", str(out)]
    assert main(argv) == 1
    assert_one_line_error(capsys, "dO_drive must be finite")
    assert not out.exists()


@pytest.mark.parametrize("kind, drive", [("order-vs-ratio", "1e308"), ("order-vs-noise", "1e307")])
def test_curve_refuses_drive_whose_sums_overflow(kind, drive, tmp_path, capsys, scenario_dir):
    # finite actions b*dO_drive (and noise up to 10*b_high*dO_drive) whose sum over fig4's 100 agents overflows
    out = tmp_path / "out"
    argv = ["curve", "--scenario", str(scenario_dir / "fig4-stable.scenario"), "--kind", kind,
            "--trials", "10", f"--drive={drive}", "--out", str(out)]
    assert main(argv) == 1
    assert_one_line_error(capsys, f"dO_drive={float(drive):g} overflows")
    assert not out.exists()


def test_curve_refuses_drive_whose_noise_range_overflows(tmp_path, capsys, scenario_dir):
    # 10 * mean(b_high) * 1e308 is inf, and linspace(0, inf) would give NaN noise half-widths
    out = tmp_path / "out"
    argv = ["curve", "--scenario", str(scenario_dir / "fig4-stable.scenario"), "--kind", "order-vs-noise",
            "--drive", "1e308", "--points", "3", "--out", str(out)]
    assert main(argv) == 1
    assert_one_line_error(capsys, "error: --drive 1e+308 makes the largest noise half-width", "overflow to inf")
    assert not out.exists()


@pytest.mark.parametrize("points", ["0", "-1"])
@pytest.mark.parametrize("kind", ["order-vs-ratio", "order-vs-noise"])
def test_curve_refuses_points_below_one(kind, points, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["curve", "--scenario", write_scenario(tmp_path), "--kind", kind,
            "--points", points, "--out", str(out)]
    assert main(argv) == 1
    assert_one_line_error(capsys, f"error: --points must be >= 1, got {points}")
    assert not out.exists()


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


SEEDED_COMMANDS = {
    "run": [],
    "sweep": ["--param", "a", "--values", "0.01"],
    "curve": ["--kind", "order-vs-ratio", "--points", "2"],
}


@pytest.mark.parametrize("command", SEEDED_COMMANDS)
def test_seed_option_meets_the_seed_rule(command, tmp_path, capsys):
    argv = [command, "--scenario", write_scenario(tmp_path), "--out", str(tmp_path / "out"), "--seed", "-1"]
    assert main(argv + SEEDED_COMMANDS[command]) == 1
    assert_one_line_error(capsys, "seed must be >= 0, got -1")
    assert not (tmp_path / "out").exists()


def test_validate_rejects_negative_seed_on_its_line(tmp_path, capsys):
    path = tmp_path / "seed.scenario"
    path.write_text(SCENARIO.format(name="cli") + "run.seed = -1\n")
    assert main(["validate", "--scenario", str(path)]) == 1
    assert_one_line_error(capsys, "line 13: run.seed: seed must be >= 0, got -1")


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


# The overflowing crowd of the scenario tests: O is inf at step 4, so the run stops there.
OVERFLOWING = """
name = overflowing
crowd.n = 2
crowd.a = 1.0
crowd.b_low = 0.0
crowd.b_high = 0.5
crowd.c = 1.0, 0.5
rule.saturation_scale = 1.0
profile.kind = explicit
profile.series = 1.0, -1.0, 2.0, 0.5, 1.5e308, 0.0
run.steps = 6
"""


def test_metrics_leaves_out_the_step_at_which_o_overflowed(tmp_path, capsys):
    """As in the summary: no NaN cell and no numpy warning (tier-1 makes a warning an error)."""
    path = tmp_path / "overflowing.scenario"
    path.write_text(OVERFLOWING, encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    assert "diverged after 5 steps" in capsys.readouterr().out
    table = str(tmp_path / "overflowing_timeseries.csv")
    tables = {}
    for window in ("2", "4", "5"):
        assert main(["metrics", "--table", table, "--window", window]) == 0
        tables[window] = capsys.readouterr().out
    head = ",".join(WINDOW_COLUMNS) + "\n"
    assert tables["2"] == head + "0,2,1,0.75,0.5\n2,4,1,0.375,1\n"  # windows before step 4, as before
    assert tables["4"] == head + "0,4,1,1.4402148277253641,0.75\n"
    assert tables["5"] == head  # steps 0-3 fill no window of 5


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
    assert_one_line_error(capsys, f"error: invalid table: {path}: ", fragment)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_validate_names_the_file_and_line_of_a_byte_that_is_not_utf8(newline, tmp_path, capsys):
    path = tmp_path / "latin.scenario"
    text = SCENARIO.format(name="cli").replace("crowd.n = 10", "crowd.n = 1\xff0")
    path.write_bytes(text.replace("\n", newline).encode("latin-1"))
    assert main(["validate", "--scenario", str(path)]) == 1
    assert_one_line_error(capsys, f"error: invalid scenario: {path}: line 3: "
                          "not UTF-8 (byte 0xff: invalid start byte)")


def test_metrics_names_the_file_and_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "table.csv"
    path.write_bytes((TABLE_HEAD + "1,0,0,0,0,0,0,0,0,0,0,0,contracting\n").encode("utf-8") + b"2,\xe2\x82,0\n")
    assert main(["metrics", "--table", str(path), "--window", "1"]) == 1
    assert_one_line_error(capsys, f"error: invalid table: {path}: line 4: "
                          "not UTF-8 (byte 0xe2: invalid continuation byte)")


def _fig4_with(tmp_path, scenario_dir, noise_amp: str) -> str:
    """fig4-stable, whose noise is none, with its crowd.noise_amp set: `run` ignores it."""
    text = (scenario_dir / "fig4-stable.scenario").read_text(encoding="utf-8")
    path = tmp_path / f"amp{noise_amp}.scenario"
    path.write_text(text.replace("crowd.noise_amp = 0.0", f"crowd.noise_amp = {noise_amp}"), encoding="utf-8")
    return str(path)


def test_order_vs_ratio_curve_follows_the_noise_model(tmp_path, scenario_dir, capsys):
    """A crowd without uniform noise draws no per-agent noise, in `curve` as in `run`."""
    curves = []
    for amp in ("0.0", "0.3"):
        out = tmp_path / f"out{amp}"
        argv = ["curve", "--scenario", _fig4_with(tmp_path, scenario_dir, amp), "--kind", "order-vs-ratio",
                "--points", "3", "--out", str(out)]
        assert main(argv) == 0
        curves.append((out / "fig4-stable_curve_order-vs-ratio.csv").read_text(encoding="utf-8"))
    assert curves[1] == curves[0]
    assert curves[0].splitlines()[1] == "0,0,0"  # one trial (stderr 0) of an all-normal crowd with b_low = 0
    capsys.readouterr()


def test_sweep_refuses_noise_amp_without_uniform_noise(tmp_path, scenario_dir, capsys):
    out = tmp_path / "out"
    argv = ["sweep", "--scenario", _fig4_with(tmp_path, scenario_dir, "0.3"), "--param", "noise_amp",
            "--values", "0.1,0.2", "--out", str(out)]
    assert main(argv) == 1
    assert_one_line_error(capsys, "cannot sweep noise_amp: the crowd's noise model is NoNoise")
    assert not out.exists()
