"""Command-line interface.

Subcommands: run, sweep, metrics, curve, validate. All outputs are
plain CSV tables meant for plotting tools; identical inputs produce
byte-identical files. A diverged run is a normal outcome (exit 0, the
summary says so); validation and runtime errors exit nonzero with a
message on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dynamics import CrowdError, UniformNoise
from .metrics import covered_steps, scaled_to_fit, trendiness
from .scenario_io import (
    emit_curve_table,
    emit_summary,
    emit_sweep_table,
    emit_table,
    emit_window_table,
    format_window_table,
    load_scenario,
    read_table,
)
from .scenarios import (
    SWEEP_PARAMS,
    forced_ratio_samples,
    run as run_scenario,
    summarize,
    sweep as run_sweep,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdsync",
        description="Simulate feedback-coupled crowd dynamics and measure synchronization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario, write time-series and summary tables")
    p_run.add_argument("--scenario", required=True, help="scenario file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p_sweep = sub.add_parser("sweep", help="run a scenario once per parameter value")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--seed-policy", choices=("fixed", "per-value"), default="fixed")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel workers")

    p_metrics = sub.add_parser("metrics", help="recompute windowed metrics from a time-series table")
    p_metrics.add_argument("--table", required=True)
    p_metrics.add_argument("--window", type=int, required=True)
    p_metrics.add_argument("--out", default=None, help="output file (default: stdout)")

    p_curve = sub.add_parser("curve", help="order-parameter curve data (reactive fraction or noise)")
    p_curve.add_argument("--scenario", required=True)
    p_curve.add_argument("--kind", required=True, choices=("order-vs-ratio", "order-vs-noise"))
    p_curve.add_argument("--out", required=True, help="output directory")
    p_curve.add_argument("--points", type=int, default=11)
    p_curve.add_argument("--trials", type=int, default=None)
    p_curve.add_argument("--drive", type=float, default=1.0, help="observation increment driving the step")
    p_curve.add_argument("--seed", type=int, default=None)

    p_val = sub.add_parser("validate", help="parse a scenario file, report all problems")
    p_val.add_argument("--scenario", required=True)
    return parser


def _load(args):
    """The scenario of `args`, with its seed replaced by --seed when given (and so checked)."""
    spec = load_scenario(args.scenario)
    return spec if args.seed is None else replace(spec, seed=args.seed)


def _output(args, spec, what: str) -> Path:
    """The path of the output file `what` (its extension included) of `spec`: `<--out>/<name>_<what>`.

    It creates `--out`, so a command calls it only once its computation succeeded.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{spec.name}_{what}"


def _cmd_run(args) -> int:
    spec = _load(args)
    result = run_scenario(spec, keep_actions=False)
    summary = summarize(result)
    table_path = emit_table(result, _output(args, spec, "timeseries.csv"))
    summary_path = emit_summary(summary, _output(args, spec, "summary.csv"))
    status = "diverged" if result.diverged else "completed"
    print(f"{spec.name}: {status} after {result.steps_run} steps")
    print(f"wrote {table_path}")
    print(f"wrote {summary_path}")
    return 0


def _cmd_sweep(args) -> int:
    spec = _load(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        values = []
    if not values:
        print(f"error: --values must be one or more comma-separated numbers, got {args.values!r}", file=sys.stderr)
        return 1
    points = run_sweep(spec, args.param, values, seed_policy=args.seed_policy, jobs=args.jobs)
    path = emit_sweep_table(args.param, points, _output(args, spec, f"sweep_{args.param}.csv"))
    print(f"wrote {path} ({len(points)} runs)")
    return 0


def _cmd_metrics(args) -> int:
    w = args.window
    if w < 1:
        print(f"error: --window must be >= 1, got {w}", file=sys.stderr)
        return 1
    table = read_table(args.table, columns=("t", "dO", "R", "O"))  # perfbench traces count rows by "t"
    # a run that overflowed ends at a step whose O is inf or NaN; as in `summarize`, it is left out
    steps = covered_steps(table["O"])
    dO = table["dO"][:steps]
    r_col = table["R"][:steps]
    rows = []
    for start in range(0, len(dO) - w + 1, w):
        seg = slice(start, start + w)
        (sigma_o,), e = scaled_to_fit(lambda x: (np.std(x),), dO[seg])  # 2**-e times the window's std
        rows.append((start, start + w, trendiness(dO[seg]), math.ldexp(sigma_o, e), float(np.mean(r_col[seg]))))
    if args.out is None:
        sys.stdout.write(format_window_table(rows))
    else:
        print(f"wrote {emit_window_table(rows, args.out)}")
    return 0


def _cmd_curve(args) -> int:
    if args.points < 1:
        print(f"error: --points must be >= 1, got {args.points}", file=sys.stderr)
        return 1
    spec = _load(args)
    cfg = spec.config
    # (x, reactive ratio, noise half-width) of each curve point
    if args.kind == "order-vs-ratio":
        amp = cfg.noise_amp if isinstance(cfg.noise_model, UniformNoise) else 0.0  # as in `run`
        default_trials = 200 if np.any(amp) else 1
        points = [(float(r), float(r), amp) for r in np.linspace(0.0, 1.0, args.points)]
    else:
        default_trials = 1000
        # e_max may overflow, or be NaN with the drive; each is refused below or by forced_ratio_samples
        with np.errstate(over="ignore", invalid="ignore"):
            e_max = 10.0 * float(np.mean(cfg.b_high)) * abs(args.drive)
            points = [(float(e), 1.0, float(e)) for e in np.linspace(0.0, e_max, args.points)]
        if math.isfinite(args.drive) and not math.isfinite(e_max):
            print(f"error: --drive {args.drive:g} makes the largest noise half-width "
                  f"10*mean(b_high)*|drive| overflow to {e_max}", file=sys.stderr)
            return 1
    trials = args.trials if args.trials is not None else default_trials
    # point i draws from seed + i
    samples = forced_ratio_samples(
        cfg, [(ratio, noise_amp) for _, ratio, noise_amp in points],
        dO_drive=args.drive, trials=trials, seed=spec.seed,
    )
    xs = [x for x, _, _ in points]
    means = [float(row.mean()) for row in samples]
    stderrs = [_stderr(row) for row in samples]
    path = emit_curve_table(xs, means, stderrs, _output(args, spec, f"curve_{args.kind}.csv"))
    print(f"wrote {path}")
    return 0


def _stderr(samples: np.ndarray) -> float:
    if samples.size < 2:
        return 0.0
    return float(samples.std(ddof=1) / np.sqrt(samples.size))


def _cmd_validate(args) -> int:
    load_scenario(args.scenario)
    print(f"{args.scenario}: valid")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "metrics": _cmd_metrics,
    "curve": _cmd_curve,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CrowdError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the array it could not allocate; Python's is often empty
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
