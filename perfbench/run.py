"""Benchmark of the crowdsync CLI: end-to-end and per-layer figures.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's scenario files are generated from the seed (see
workloads.py) into a temporary directory under ``.perfbench/``, and its
commands are driven through ``crowdsync.cli.main(argv)`` in this process,
``sweep --jobs 1``. One untimed pass comes first; it fills caches and
fixes the bytes every later pass must repeat.

``--trace 0`` measures with tracing off and reports the end-to-end metrics:

    wall_s             median wall seconds of one pass over the commands
    agent_steps_per_s  sum of N * steps_run over the pass's simulated runs
                       (Monte-Carlo draws excluded) / pass seconds, median
    peak_rss_mb        peak RSS of a fresh process that runs one pass
    setup_s            median over fresh interpreters, one after each pass,
                       of `import crowdsync.cli` plus `load_scenario` of
                       the workload's files

``--trace 1`` times untraced passes for half the seconds and traced
passes (see tracing.py) for the other half. It reports the per-layer
figures of the traced passes (times as medians, counts from one pass,
which must repeat exactly) and trace.overhead_frac, traced wall over
untraced wall minus one. Spans and counts of the last traced pass are
written to ``.perfbench/trace-<workload>.json``.

Every command's outputs are checked (see outputs.py); a failure counts
in ``failed`` and ops_failed_frac. The environment (Python and numpy
versions, CPU count, commit, BLAS thread settings as found) is printed
first. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

from outputs import OutputCheck, clear, load_reference, run_pass  # noqa: E402
from workloads import WHY, generate  # noqa: E402

MIN_PASSES = 3
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "agent_steps_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

# A fresh interpreter: import the CLI and parse the workload's scenario files.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import crowdsync.cli
from crowdsync.scenario_io import load_scenario
for path in sys.argv[2:]:
    load_scenario(path)
print(time.perf_counter() - start)
"""

# A fresh interpreter: one pass, then its own peak RSS.
RSS_CHILD = """
import json, resource, sys
sys.path[:0] = sys.argv[1:3]
import crowdsync.cli
from outputs import run_pass
_, errors = run_pass(crowdsync.cli.main, json.loads(sys.argv[3]))
print(json.dumps({"errors": errors, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def environment() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "crowdsync").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "blas_threads_env": {name: os.environ.get(name) for name in blas_vars},
    }


def per_layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("bytes", "bytes_computed")):
        return "bytes"
    return "count"


def timed_passes(main, workload, out_dir: Path, check: OutputCheck, seconds: float,
                 after_pass) -> list[float]:
    """Passes for `seconds` (at least MIN_PASSES); the wall seconds of each.

    `after_pass` runs after each pass, outside its timing but inside `seconds`.
    """
    argvs = [c.argv for c in workload.commands]
    walls: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        clear(out_dir)
        wall, errors = run_pass(main, argvs)
        check.record(workload.commands, errors, out_dir)
        walls.append(wall)
        after_pass()
    return walls


def agent_steps(workload, out_dir: Path) -> int:
    """Sum of N * steps_run over the simulated runs of a pass, read from its summaries."""
    total = 0
    for command in workload.commands:
        for name in command.outputs:
            path = out_dir / name
            if name.endswith("_summary.csv") or "_sweep_" in name:
                if path.is_file():
                    with open(path, newline="", encoding="utf-8") as fh:
                        total += sum(workload.n * int(row["steps_run"]) for row in csv.DictReader(fh))
    return total


def measure_setup(workload, check: OutputCheck) -> float | None:
    """One setup_s sample from a fresh interpreter, or None if it failed."""
    files = [str(p) for p in workload.scenario_files]
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), *files],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        check.record_op("setup", f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return None
    check.record_op("setup", None)
    return float(proc.stdout.split()[-1])


def measure_rss(name: str, seed: int, work: Path, check: OutputCheck, tiny: bool) -> float:
    """Peak RSS (MB) of a fresh process running one pass; its outputs are checked too."""
    out_dir = work / "rss-out"
    workload = generate(name, seed, work / "inputs", out_dir, tiny)
    clear(out_dir)
    argvs = [c.argv for c in workload.commands]
    proc = subprocess.run(
        [sys.executable, "-c", RSS_CHILD, str(HERE), str(SRC), json.dumps(argvs)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        for c in workload.commands:
            check.record_op(c.argv[0], f"child exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return float("nan")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    check.record(workload.commands, report["errors"], out_dir)
    return report["maxrss_kb"] / 1024.0


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, work: Path, *,
                  tiny: bool = False) -> dict:
    """Run one workload; return its metrics, op counts and notes."""
    out_dir = work / "out"
    workload = generate(name, seed, work / "inputs", out_dir, tiny)
    check = OutputCheck(reference=None if tiny else load_reference(name, seed))
    metrics: dict[str, tuple[float, str]] = {}
    notes: list[str] = []

    if not trace:
        rss_mb = measure_rss(name, seed, work, check, tiny)

    import crowdsync.cli as cli

    clear(out_dir)
    _, errors = run_pass(cli.main, [c.argv for c in workload.commands])
    check.record(workload.commands, errors, out_dir)
    steps = agent_steps(workload, out_dir)

    if not trace:
        # Setup samples alternate with the passes, so both see the same machine load.
        samples = []
        walls = timed_passes(cli.main, workload, out_dir, check, seconds,
                             after_pass=lambda: samples.append(measure_setup(workload, check)))
        setup = [x for x in samples if x is not None]
        values = {
            "wall_s": statistics.median(walls),
            "agent_steps_per_s": statistics.median(steps / w for w in walls),
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setup) if setup else float("nan"),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        q = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
        notes.append(f"wall_s over {len(walls)} passes: p25={q[0]:.4f} median={values['wall_s']:.4f} "
                     f"p75={q[2]:.4f}; {steps} agent-steps per pass; setup_s over {len(setup)} interpreters")
    else:
        from tracing import COUNTED, Tracer

        untraced = timed_passes(cli.main, workload, out_dir, check, seconds / 2, after_pass=lambda: None)
        tracer = Tracer()
        per_pass, spans = [], []

        def end_pass():
            per_pass.append(tracer.pass_metrics())
            spans[:] = tracer.spans
            tracer.reset()

        with tracer.installed():
            walls = timed_passes(tracer.wrap(cli.main, "cli.main"), workload, out_dir, check,
                                 seconds / 2, after_pass=end_pass)
        counted = (*COUNTED, "metrics.panel.useful_frac")
        for key in counted:
            if len({p[key] for p in per_pass}) != 1:
                raise RuntimeError(f"trace count {key} differs between passes: {[p[key] for p in per_pass]}")
        for key in per_pass[0]:
            value = per_pass[0][key] if key in counted else statistics.median(p[key] for p in per_pass)
            metrics[key] = (value, per_layer_unit(key))
        overhead = statistics.median(walls) / statistics.median(untraced) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        if tracer.missing:
            notes.append(f"not traced (name not found): {', '.join(tracer.missing)}")
        WORK.mkdir(exist_ok=True)
        (WORK / f"trace-{name}.json").write_text(json.dumps({
            "workload": name, "seed": seed, "environment": environment(),
            "passes": per_pass, "spans": spans,
        }))
        notes.append(f"{len(walls)} traced and {len(untraced)} untraced passes; "
                     f"spans written to {WORK.name}/trace-{name}.json")

    return {
        "metrics": metrics, "attempted": check.attempted, "failed": check.failed,
        "errors": check.errors, "notes": notes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="crowdsync end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crowdsync" / "cli.py").is_file():
        print(f"error: crowdsync sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print(f"error: --seconds must be > 0, got {args.seconds}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} (seed {args.seed}): {WHY[args.workload]}")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    for note in result["notes"]:
        print(note)
    for error, times in result["errors"].items():
        print(f"FAILED ({times}x) {error}")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:42s} {value:.6g} {unit}")
    print(f"  {'ops_failed_frac':42s} {failed / attempted:.6g} ratio ({failed}/{attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a metric that could not be measured (its op failed) is null, keeping the line strict JSON
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
