"""Seeded workload generator for the crowdsync benchmark.

A workload is a set of ``.scenario`` files plus the CLI argv lists that
use them. The seed moves only inputs that leave the amount of work in a
pass nearly unchanged (force timing and height, bubble shape, the noise
stream), so figures taken with different seeds are comparable.

Each workload loads a different layer:

* ``wide-crowd``: N=2000 makes the N x N decision panel of the metrics
  layer dominate while the step loop stays trivial.
* ``long-horizon``: T=2e4 at N=100 makes the step loop (switch rule and
  ordered reductions) and the time-series write and read-back dominate.
* ``tipping-sweep``: a b_high sweep across the tipping point plus a
  Monte-Carlo order-vs-noise curve; some runs diverge, and uniform
  per-agent noise keeps every run on the per-agent path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WHY = {
    "wide-crowd": "N=2000 run whose N x N panel makes window metrics nearly all the work; "
    "the step loop is trivial",
    "long-horizon": "T=2e4 run plus metrics re-read: the step loop and the time-series "
    "emit/read dominate, window metrics are cheap",
    "tipping-sweep": "b_high sweep across the tipping point (some runs diverge) plus a "
    "Monte-Carlo noise curve, under per-agent uniform noise",
}

# Full sizes are the benchmark; tiny sizes let the smoke test run in seconds.
FULL = {
    "wide-crowd": {"n": 2000, "steps": 240, "metric_window": 30},
    "long-horizon": {"n": 100, "steps": 20000, "metric_window": 200},
    "tipping-sweep": {"n": 500, "steps": 400, "points": 11, "trials": 2000},
}
TINY = {
    "wide-crowd": {"n": 40, "steps": 60, "metric_window": 15},
    "long-horizon": {"n": 20, "steps": 200, "metric_window": 50},
    "tipping-sweep": {"n": 30, "steps": 80, "points": 3, "trials": 20},
}

SWEEP_VALUES = "0.3,0.45,0.6,0.75,0.9,1.05,1.2,1.5"


@dataclass(frozen=True)
class Command:
    """One CLI call: its argv and the files it must write under the output directory."""

    argv: list[str]
    outputs: list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    scenario_files: list[Path]
    commands: list[Command]
    n: int  # population of every simulated run, for agent-step counts


def generate(name: str, seed: int, directory: Path, out_dir: Path, tiny: bool = False) -> Workload:
    """Write the workload's scenario files for `seed` into `directory`.

    The returned commands write their outputs into `out_dir`.
    """
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WHY)}")
    size = (TINY if tiny else FULL)[name]
    rng = random.Random(f"{name}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    out = str(out_dir)
    if name == "wide-crowd":
        text = _step_scenario(name, size, seed, rng, sat=0.54, noise_amp=0.0)
        path = _write(directory, name, text)
        commands = [
            Command(["run", "--scenario", str(path), "--out", out],
                    [f"{name}_timeseries.csv", f"{name}_summary.csv"]),
        ]
    elif name == "long-horizon":
        text = _bubble_scenario(name, size, seed, rng)
        path = _write(directory, name, text)
        table = str(out_dir / f"{name}_timeseries.csv")
        commands = [
            Command(["run", "--scenario", str(path), "--out", out],
                    [f"{name}_timeseries.csv", f"{name}_summary.csv"]),
            Command(["metrics", "--table", table, "--window", str(size["metric_window"]),
                     "--out", str(out_dir / f"{name}_metrics.csv")],
                    [f"{name}_metrics.csv"]),
        ]
    else:
        text = _step_scenario(name, size, seed, rng, sat=0.26, noise_amp=0.2)
        path = _write(directory, name, text)
        commands = [
            Command(["sweep", "--scenario", str(path), "--param", "b_high",
                     "--values", SWEEP_VALUES, "--out", out, "--jobs", "1"],
                    [f"{name}_sweep_b_high.csv"]),
            Command(["curve", "--scenario", str(path), "--kind", "order-vs-noise",
                     "--points", str(size["points"]), "--trials", str(size["trials"]),
                     "--out", out],
                    [f"{name}_curve_order-vs-noise.csv"]),
        ]
    return Workload(name=name, scenario_files=[path], commands=commands, n=size["n"])


def _write(directory: Path, name: str, text: str) -> Path:
    path = directory / f"{name}.scenario"
    path.write_text(text, encoding="utf-8")
    return path


def _step_scenario(name, size, seed, rng, *, sat, noise_amp) -> str:
    """A homogeneous crowd with a*N = 1 and b_high = 0.5, hit by one step of news."""
    n, steps = size["n"], size["steps"]
    lines = [
        f"name = {name}",
        f"crowd.n = {n}",
        f"crowd.a = {1.0 / n!r}",
        "crowd.b_low = 0.0",
        "crowd.b_high = 0.5",
        "crowd.c = 1.0",
        f"crowd.noise_amp = {noise_amp!r}",
        f"crowd.noise = {'uniform' if noise_amp > 0 else 'none'}",
        "rule.window = 5",
        f"rule.saturation_scale = {sat!r}",
        "profile.kind = step",
        f"profile.height = {rng.uniform(0.9, 1.1)!r}",
        f"profile.onset = {rng.randrange(5, 15)}",
        f"run.steps = {steps}",
        f"run.seed = {seed}",
    ]
    if "metric_window" in size:
        lines.append(f"run.metric_window = {size['metric_window']}")
    return "\n".join(lines) + "\n"


def _bubble_scenario(name, size, seed, rng) -> str:
    """The fig6 bubble crowd (loop gain pinned at 1) run for a long horizon."""
    n, steps = size["n"], size["steps"]
    peak = rng.randrange(140, 160)
    lines = [
        f"name = {name}",
        f"crowd.n = {n}",
        f"crowd.a = {1.0 / n!r}",
        "crowd.b_low = 0.0",
        "crowd.b_high = 1.0",
        "crowd.c = 1.0",
        "crowd.noise = none",
        "rule.window = 5",
        "rule.saturation_scale = 0.25",
        "profile.kind = bubble",
        f"profile.build_slope = {rng.uniform(0.045, 0.055)!r}",
        f"profile.peak_step = {peak}",
        "profile.crash_slope = -0.4",
        f"profile.stabilize_step = {peak + 5}",
        "profile.confusion_scale = 0.85",
        "profile.confusion_decay = 0.7",
        "profile.confusion_wobble = 0.35",
        f"run.steps = {steps}",
        f"run.seed = {seed}",
        f"run.metric_window = {size['metric_window']}",
    ]
    return "\n".join(lines) + "\n"
