"""The benchmark's workloads at full size write the pinned reference outputs.

`perfbench/reference.json` pins what one full-size pass of each workload
writes at the reference seed: time-series and metrics tables by sha256,
the other tables cell by cell. The benchmark's smoke test runs the
workloads only at tiny sizes, where no reference applies; here a changed
byte in a full-size output fails instead.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import crowdsync.cli  # noqa: E402
from outputs import REFERENCE_SEED, OutputCheck, clear, load_reference, run_pass  # noqa: E402
from workloads import WHY, generate  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WHY))
def test_full_size_pass_matches_the_reference(workload, tmp_path):
    out_dir = tmp_path / "out"
    commands = generate(workload, REFERENCE_SEED, tmp_path / "inputs", out_dir).commands
    check = OutputCheck(reference=load_reference(workload, REFERENCE_SEED))
    clear(out_dir)
    _, errors = run_pass(crowdsync.cli.main, [c.argv for c in commands])
    check.record(commands, errors, out_dir)
    assert check.attempted == len(commands)
    assert check.failed == 0, dict(check.errors)
