"""Per-layer tracing of crowdsync from outside the program.

`Tracer.installed()` replaces the public functions of crowdsync's
modules at the names their callers look them up by, records one span
(name, parent, start, end) per call and counts at the same boundary,
and restores every original name when the block ends. Nothing under
``src/`` is edited. A layer is a module; a span is named
``<module>.<function>``.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


def _count_run(tracer, args, kwargs, result):
    tracer.counts["scenarios.run.agent_steps"] += result.config.n * result.steps_run
    tracer.counts["scenarios.run.diverged"] += int(result.diverged)


def _count_sweep(tracer, args, kwargs, result):
    tracer.counts["scenarios.sweep.points"] += len(result)


def _count_draws(tracer, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    tracer.counts["scenarios.forced_ratio_samples.draws"] += int(np.size(result)) * config.n


def _count_elements(tracer, args, kwargs, result):
    tracer.counts["dynamics.ordered_sum.elements"] += len(args[0])


def _count_window(tracer, args, kwargs, result):
    # A window is identified by the run it belongs to and its bounds, so the
    # same window reported twice (per-window pass and whole-run summary) shows.
    start = kwargs.get("start", args[3] if len(args) > 3 else 0)
    stop = start + np.shape(args[0])[1]
    tracer.windows.add((tracer.counts["scenarios.run.calls"], start, stop))


def _count_panel(tracer, args, kwargs, result):
    n, t = np.shape(args[1])  # args[0] is the class
    tracer.counts["metrics.panel.cells"] += n * n
    # computed from array sizes: the N x T input plus the N sigmas and N x N correlations
    tracer.counts["metrics.panel.bytes_computed"] += 8 * (n * t + n + n * n)


def _count_bytes(tracer, args, kwargs, result):
    tracer.counts["scenario_io.emit.bytes"] += os.path.getsize(result)


def _count_rows(tracer, args, kwargs, result):
    tracer.counts["scenario_io.read_table.rows"] += len(result["t"])


# (module, class or None, attribute, span name, counter)
SITES = [
    ("crowdsync.cli", None, "load_scenario", "scenario_io.load_scenario", None),
    ("crowdsync.scenario_io", None, "build_profile", "scenarios.build_profile", None),
    ("crowdsync.cli", None, "run_scenario", "scenarios.run", _count_run),
    ("crowdsync.scenarios", None, "run", "scenarios.run", _count_run),
    ("crowdsync.cli", None, "summarize", "scenarios.summarize", None),
    ("crowdsync.scenarios", None, "summarize", "scenarios.summarize", None),
    ("crowdsync.cli", None, "run_sweep", "scenarios.sweep", _count_sweep),
    ("crowdsync.cli", None, "forced_ratio_samples", "scenarios.forced_ratio_samples", _count_draws),
    ("crowdsync.scenarios", None, "update_reactive_count", "switching.update_reactive_count", None),
    ("crowdsync.scenarios", None, "ordered_sum", "dynamics.ordered_sum", _count_elements),
    ("crowdsync.switching", None, "ordered_sum", "dynamics.ordered_sum", _count_elements),
    ("crowdsync.metrics", None, "ordered_sum", "dynamics.ordered_sum", _count_elements),
    ("crowdsync.scenarios", None, "sync_report", "metrics.sync_report", _count_window),
    ("crowdsync.metrics", "DecisionPanel", "from_series", "metrics.panel", _count_panel),
    ("crowdsync.cli", None, "emit_table", "scenario_io.emit", _count_bytes),
    ("crowdsync.cli", None, "emit_summary", "scenario_io.emit", _count_bytes),
    ("crowdsync.cli", None, "emit_sweep_table", "scenario_io.emit", _count_bytes),
    ("crowdsync.cli", None, "emit_curve_table", "scenario_io.emit", _count_bytes),
    ("crowdsync.cli", None, "read_table", "scenario_io.read_table", _count_rows),
]

LAYERS = ("cli", "scenario_io", "scenarios", "switching", "dynamics", "metrics")

TIMED = (
    "scenario_io.load_scenario",
    "scenarios.build_profile",
    "scenarios.run",
    "switching.update_reactive_count",
    "dynamics.ordered_sum",
    "metrics.sync_report",
    "metrics.panel",
    "scenarios.summarize",
    "scenarios.sweep",
    "scenarios.forced_ratio_samples",
    "scenario_io.emit",
    "scenario_io.read_table",
)

COUNTED = (
    "scenarios.run.calls",
    "scenarios.run.agent_steps",
    "scenarios.run.diverged",
    "switching.update_reactive_count.calls",
    "dynamics.ordered_sum.calls",
    "dynamics.ordered_sum.elements",
    "metrics.panel.calls",
    "metrics.panel.cells",
    "metrics.panel.bytes_computed",
    "scenarios.sweep.points",
    "scenarios.forced_ratio_samples.draws",
    "scenario_io.emit.bytes",
    "scenario_io.read_table.rows",
)


class Tracer:
    """Spans and counts of one traced pass; `reset` starts the next pass."""

    def __init__(self) -> None:
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self.windows: set = set()
        self._open: list[int] = []

    def wrap(self, fn, name: str, count=None):
        """`fn` with a span and a `<name>.calls` count around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._open[-1] if self._open else -1, time.perf_counter(), 0.0]
            self.spans.append(span)
            self._open.append(index)
            self.counts[f"{name}.calls"] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every site in SITES for the duration of the block."""
        patched = []
        try:
            for module_name, class_name, attr, name, count in SITES:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    site = f"{module_name}.{class_name + '.' if class_name else ''}{attr}"
                    if site not in self.missing:
                        self.missing.append(site)
                    continue
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(original.__func__, name, count))
                else:
                    replacement = self.wrap(original, name, count)
                setattr(owner, attr, replacement)
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer figures of the pass recorded since the last reset.

        `<span>.s` is the inclusive time of every call of that span;
        `<layer>.self_s` is the time spent in a layer's own code, a
        span's duration minus the part its child spans cover.
        """
        child = [0.0] * len(self.spans)
        sync_child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
                if name == "metrics.sync_report":
                    sync_child[parent] += end - start
        out = {f"{name}.s": 0.0 for name in TIMED}
        out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
        out["scenarios.run.loop_s"] = 0.0
        for i, (name, _parent, start, end) in enumerate(self.spans):
            duration = end - start
            if f"{name}.s" in out:
                out[f"{name}.s"] += duration
            out[f"{name.split('.')[0]}.self_s"] += duration - child[i]
            if name == "scenarios.run":
                out["scenarios.run.loop_s"] += duration - sync_child[i]
        for key in COUNTED:
            out[key] = self.counts[key]
        panels = self.counts["metrics.panel.calls"]
        out["metrics.panel.useful_frac"] = len(self.windows) / panels if panels else 1.0
        return out
