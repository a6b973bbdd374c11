"""Smoke test of the benchmark at tiny sizes; runs in seconds.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import crowdsync.cli  # noqa: E402
import run as bench  # noqa: E402
from outputs import OutputCheck, clear, compare_to_reference, pin, run_pass  # noqa: E402
from workloads import WHY, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_and_reasons_match_the_spec():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == WHY


@pytest.mark.parametrize("workload", sorted(WHY))
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_reported_with_its_unit(workload, trace, section, tmp_path):
    result = bench.run_benchmark(workload, 3, 0.01, trace, tmp_path, tiny=True)
    assert result["attempted"] > 0 and result["failed"] == 0, result["errors"]
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: unit for k, (_, unit) in result["metrics"].items()} == expected
    assert all(math.isfinite(value) for value, _ in result["metrics"].values())


def test_a_corrupted_output_byte_is_a_failed_op(tmp_path):
    out_dir = tmp_path / "out"
    workload = generate("long-horizon", 3, tmp_path / "in", out_dir, tiny=True)
    argvs = [c.argv for c in workload.commands]
    check = OutputCheck()
    for corrupt in (False, True):
        clear(out_dir)
        _, errors = run_pass(crowdsync.cli.main, argvs)
        if corrupt:
            path = out_dir / workload.commands[0].outputs[0]
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x01
            path.write_bytes(bytes(data))
        check.record(workload.commands, errors, out_dir)
    assert check.attempted == 2 * len(workload.commands)
    assert check.failed == 1, check.errors
    assert "differs from the first pass" in next(iter(check.errors))


def test_reference_tolerates_only_last_digit_changes(tmp_path):
    out_dir = tmp_path / "out"
    workload = generate("wide-crowd", 0, tmp_path / "in", out_dir, tiny=True)
    clear(out_dir)
    run_pass(crowdsync.cli.main, [c.argv for c in workload.commands])
    table, summary = workload.commands[0].outputs
    reference = {name: pin(name, (out_dir / name).read_bytes()) for name in (table, summary)}
    text = (out_dir / summary).read_text(encoding="utf-8")
    header, row = text.splitlines()
    cells = row.split(",")
    idx = header.split(",").index("rho_c")
    rho = float(cells[idx])

    def with_rho(value: float) -> bytes:
        cells[idx] = format(value, ".17g")
        return (header + "\n" + ",".join(cells) + "\n").encode()

    assert compare_to_reference(summary, with_rho(rho * (1 + 1e-15)), reference) is None
    assert compare_to_reference(summary, with_rho(rho * (1 + 1e-9)), reference) is not None
    flipped = bytearray((out_dir / table).read_bytes())
    flipped[-3] ^= 0x01
    assert compare_to_reference(table, bytes(flipped), reference) is not None


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [*SPEC["command"], "--workload", "wide-crowd", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
