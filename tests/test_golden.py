"""Pinned outputs of `crowdsync run` for the three golden scenarios,
and of `crowdsync metrics` on one of them.

`golden/golden.json` holds, per scenario, the sha256 of the time-series
CSV and the cells of the summary row, with the numpy and Python versions
that produced them. The time-series bytes must match exactly. Summary
float cells may move by 1e-12 relative, because rho_c and sigma_c pass
through BLAS dot products whose rounding can differ between builds.
A mismatch on another numpy build is a finding to report; the pins are
only changed on purpose, never to make this test pass.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from crowdsync.cli import main

FLOAT_CELLS = {
    "peak_O", "final_O", "peak_ratio", "final_ratio",
    "mean_R", "rho_c", "sigma_c", "sigma_o", "t_d",
}
REL_TOL = 1e-12


@pytest.fixture
def pins(golden_dir):
    return json.loads((golden_dir / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["fig4-stable", "fig5-unstable", "fig6-bubble"])
def test_golden_run_outputs_are_pinned(name, pins, scenario_dir, tmp_path, capsys):
    assert main(["run", "--scenario", str(scenario_dir / f"{name}.scenario"),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    pinned = pins["scenarios"][name]
    built_with = f"pinned with numpy {pins['numpy']} / Python {pins['python']}"

    digest = hashlib.sha256((tmp_path / f"{name}_timeseries.csv").read_bytes()).hexdigest()
    assert digest == pinned["timeseries_sha256"], f"{name} time series changed ({built_with})"

    header, row = (tmp_path / f"{name}_summary.csv").read_text(encoding="utf-8").splitlines()
    got = dict(zip(header.split(","), row.split(",")))
    assert list(got) == list(pinned["summary"]), f"{name} summary columns changed"
    for column, want in pinned["summary"].items():
        if column in FLOAT_CELLS:
            ok = math.isclose(float(got[column]), float(want), rel_tol=REL_TOL, abs_tol=0.0)
        else:
            ok = got[column] == want
        assert ok, f"{name} summary {column}: {got[column]} != pinned {want} ({built_with})"


# sha256 of `crowdsync metrics --window 30` on the fig6-bubble time series
# (numpy 2.4.6 / Python 3.11.7); no BLAS call feeds these cells.
FIG6_METRICS_W30_SHA256 = "2e1315eca57490b71f7d264a772afe5f7adea4cac4f6d5d017f62ea50b4995a5"


def test_metrics_table_is_pinned(scenario_dir, tmp_path, capsys):
    assert main(["run", "--scenario", str(scenario_dir / "fig6-bubble.scenario"),
                 "--out", str(tmp_path)]) == 0
    table = str(tmp_path / "fig6-bubble_timeseries.csv")
    out = tmp_path / "metrics.csv"
    assert main(["metrics", "--table", table, "--window", "30", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG6_METRICS_W30_SHA256
    capsys.readouterr()
    assert main(["metrics", "--table", table, "--window", "30"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


# sha256 of the time series of a run that diverges through a NaN O: two
# agents whose actions overflow to +inf and -inf on a step of 10 (numpy
# 2.4.6 / Python 3.11.7). Its cells are `nan`, which no golden run has.
NAN_RUN_TIMESERIES_SHA256 = "e998b3f3db7cce661da2605a3bc2fe1ca67657ee3d47987087740604c0d73212"

NAN_RUN = """
name = nan-run
crowd.n = 2
crowd.a = 1.0
crowd.b_low = 0.0
crowd.b_high = 1.0
crowd.c = 1e308, -1e308
rule.saturation_scale = 1.0
profile.kind = step
profile.height = 10.0
profile.onset = 0
run.steps = 3
"""


def test_nan_run_table_is_pinned(tmp_path, capsys):
    path = tmp_path / "nan-run.scenario"
    path.write_text(NAN_RUN, encoding="utf-8")
    with np.errstate(all="ignore"):  # the overflow, and the NaN cells of the summary
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    table = (tmp_path / "nan-run_timeseries.csv").read_bytes()
    assert hashlib.sha256(table).hexdigest() == NAN_RUN_TIMESERIES_SHA256
    assert table.decode("utf-8").splitlines()[1] == "0,10,10,nan,nan,nan,nan,0,0,0,0,nan,contracting"
