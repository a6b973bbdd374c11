"""Pin the outputs the benchmark checks its reference seed against.

Run from the repository root:

    python3 perfbench/pin_reference.py

Runs every workload once at full size with seed REFERENCE_SEED and
writes perfbench/reference.json: sha256 of the time-series and metrics
tables, the full text of the summary, sweep and curve tables, and the
Python and numpy versions that produced them. Re-pinning is a
deliberate, reviewed act; a mismatch on another build is a finding to
report, not a reason to re-pin.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

import numpy  # noqa: E402

import crowdsync.cli  # noqa: E402
from outputs import REFERENCE_PATH, REFERENCE_SEED, pin, run_pass  # noqa: E402
from workloads import WHY, generate  # noqa: E402


def main() -> int:
    pinned = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in WHY:
            out_dir = Path(tmp) / name / "out"
            out_dir.mkdir(parents=True)
            workload = generate(name, REFERENCE_SEED, Path(tmp) / name, out_dir)
            _, errors = run_pass(crowdsync.cli.main, [c.argv for c in workload.commands])
            if any(errors):
                print(f"error: {name}: {[e for e in errors if e]}", file=sys.stderr)
                return 1
            pinned[name] = {
                output: pin(output, (out_dir / output).read_bytes())
                for command in workload.commands
                for output in command.outputs
            }
    old = json.loads(REFERENCE_PATH.read_text(encoding="utf-8")) if REFERENCE_PATH.is_file() else None
    doc = {
        "seed": REFERENCE_SEED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workloads": pinned,
    }
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, outputs in pinned.items():
        for output, value in outputs.items():
            before = old["workloads"].get(name, {}).get(output) if old else None
            print(f"{output}: {'unchanged' if before == value else 'PINNED ANEW'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
