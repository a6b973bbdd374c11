"""Driving the CLI for one pass, and checking what it wrote.

A pass calls ``crowdsync.cli.main(argv)`` once per command of a
workload, in one process. A command fails when it exits non-zero,
raises, or writes outputs that fail the check. A ``diverged`` run is a
normal outcome, not a failure.

The check compares outputs against the pinned reference when one
applies (same seed, full sizes): time-series and ``metrics`` tables by
sha256, summary, sweep and curve tables cell by cell with floats within
1e-12 relative and text fields exact. Otherwise it checks invariants:
every R, mean_R and t_d value lies in [0, 1]. Either way every pass must
write the same bytes as the first one.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
REL_TOL = 1e-12
UNIT_INTERVAL_COLUMNS = ("R", "mean_R", "t_d")


def run_pass(main, argvs: list[list[str]]) -> tuple[float, list[str | None]]:
    """Run every argv once; return the pass's wall seconds and one error (or None) per command."""
    errors: list[str | None] = []
    start = time.perf_counter()
    for argv in argvs:
        errors.append(_call(main, argv))
    return time.perf_counter() - start, errors


def _call(main, argv: list[str]) -> str | None:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a raising command is a failed op, not a benchmark crash
        return f"raised {type(exc).__name__}: {exc}"
    if code != 0:
        last = err.getvalue().strip().splitlines()[-1:] or [""]
        return f"exit code {code}: {last[0]}"
    return None


def clear(directory: Path) -> None:
    """Remove the files a previous pass wrote, so a missing output shows."""
    directory.mkdir(parents=True, exist_ok=True)
    for path in directory.iterdir():
        path.unlink()


def load_reference(workload: str, seed: int) -> dict | None:
    """The pinned outputs of `workload`, when `seed` is the pinned seed."""
    if seed != REFERENCE_SEED:
        return None
    pinned = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    if pinned["seed"] != seed:
        raise ValueError(f"{REFERENCE_PATH.name} pins seed {pinned['seed']}, expected {seed}")
    return {**pinned["workloads"][workload], "_versions": (pinned["python"], pinned["numpy"])}


def pin(name: str, data: bytes) -> dict:
    """What the reference keeps of one output: tables by sha256, the rest by their cells."""
    if name.endswith(("_timeseries.csv", "_metrics.csv")):
        return {"sha256": hashlib.sha256(data).hexdigest()}
    return {"csv": data.decode("utf-8")}


@dataclass
class OutputCheck:
    """Counts attempted and failed ops over every pass of one benchmark run."""

    reference: dict | None = None
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)  # message -> times seen
    first: dict[str, str] = field(default_factory=dict)  # output name -> sha256 of the first pass
    verdicts: dict[str, str | None] = field(default_factory=dict)  # sha256 -> error or None

    def record(self, commands, errors, out_dir: Path) -> None:
        for command, error in zip(commands, errors):
            self.record_op(command.argv[0], error or self._check(command.outputs, out_dir))

    def record_op(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors[f"{what}: {error}"] += 1

    def _check(self, outputs: list[str], out_dir: Path) -> str | None:
        for name in outputs:
            path = out_dir / name
            if not path.is_file():
                return f"{name} was not written"
            data = path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if self.first.setdefault(name, digest) != digest:
                return f"{name} differs from the first pass's bytes"
            if digest not in self.verdicts:
                self.verdicts[digest] = self._validate(name, data)
            if self.verdicts[digest] is not None:
                return self.verdicts[digest]
        return None

    def _validate(self, name: str, data: bytes) -> str | None:
        error = check_invariants(name, data)
        if error is None and self.reference is not None:
            error = compare_to_reference(name, data, self.reference)
        return error


def check_invariants(name: str, data: bytes) -> str | None:
    """R, mean_R and t_d must be numbers in [0, 1]."""
    try:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    except (UnicodeDecodeError, csv.Error) as exc:
        return f"{name} is not CSV: {exc}"
    if not rows:
        return f"{name} is empty"
    header = rows[0]
    for column in UNIT_INTERVAL_COLUMNS:
        if column not in header:
            continue
        idx = header.index(column)
        for lineno, row in enumerate(rows[1:], start=2):
            try:
                value = float(row[idx])
            except (IndexError, ValueError):
                return f"{name} line {lineno}: {column} is not a number"
            if not 0.0 <= value <= 1.0:
                return f"{name} line {lineno}: {column}={value!r} outside [0, 1]"
    return None


def compare_to_reference(name: str, data: bytes, reference: dict) -> str | None:
    python, numpy = reference.get("_versions", ("?", "?"))
    pinned_on = f"(pinned with Python {python}, numpy {numpy})"
    expected = reference.get(name)
    if expected is None:
        return f"{name} has no pinned reference"
    if "sha256" in expected:
        if hashlib.sha256(data).hexdigest() != expected["sha256"]:
            return f"{name} sha256 differs from the reference {pinned_on}"
        return None
    got = list(csv.reader(io.StringIO(data.decode("utf-8", errors="replace"))))
    want = list(csv.reader(io.StringIO(expected["csv"])))
    if len(got) != len(want):
        return f"{name} has {len(got)} rows, reference {len(want)} {pinned_on}"
    for lineno, (row, ref_row) in enumerate(zip(got, want), start=1):
        if len(row) != len(ref_row):
            return f"{name} line {lineno}: {len(row)} fields, reference {len(ref_row)} {pinned_on}"
        for cell, ref_cell in zip(row, ref_row):
            if not _same_cell(cell, ref_cell):
                return f"{name} line {lineno}: {cell!r} != reference {ref_cell!r} {pinned_on}"
    return None


def _same_cell(cell: str, ref_cell: str) -> bool:
    if cell == ref_cell:
        return True
    try:
        x, y = float(cell), float(ref_cell)
    except ValueError:
        return False  # text fields match exactly
    if math.isnan(x) or math.isnan(y):
        return False
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))
