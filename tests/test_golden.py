"""Pinned outputs of `crowdsync run` for the three golden scenarios.

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
