"""Scenario files and result tables.

Scenario files are flat UTF-8 key-value text (``key = value``, ``#``
comments) with section prefixes crowd.*, rule.*, profile.*, run.*.
The profile.* keys of each kind are the parameters of its builder in
`PROFILE_BUILDERS`, read from the builder's signature.
Parsing validates everything and reports every problem at once with
line numbers; emission produces a canonical form that is stable under
re-parsing. Result tables are comma-separated with fixed headers and
floats printed to 17 significant digits so every value round-trips.
"""

from __future__ import annotations

import csv
import difflib
import inspect
import io
import math
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .dynamics import (
    AGENT_COLUMNS,
    CrowdConfig,
    CrowdError,
    NoNoise,
    UniformNoise,
    WienerNoise,
    agent_column_errors,
)
from .scenarios import (
    DEFAULT_DIVERGENCE_CEILING,
    NAME_RULE,
    PROFILE_BUILDERS,
    RunSummary,
    ScenarioResult,
    ScenarioSpec,
    SweepPoint,
    build_profile,
    is_safe_name,
)
from .switching import SwitchRule

TABLE_COLUMNS = ["t", "E", "dE", "S", "dS", "O", "dO", "N_H", "ratio", "B", "AB", "R", "stability"]

SUMMARY_COLUMNS = [
    "name", "steps_run", "diverged", "truncated_at", "seed",
    "peak_O", "final_O", "peak_ratio", "final_ratio",
    "mean_R", "rho_c", "sigma_c", "sigma_o", "t_d", "stability_final",
]

CURVE_COLUMNS = ["x", "mean_R", "stderr_R"]

WINDOW_COLUMNS = ["window_start", "window_stop", "t_d", "sigma_o", "mean_R"]

#: How a profile parameter's file value is read, by the parameter's type.
_PARAM_READERS = {
    int: lambda r, key: r.int_(key, minimum=0),
    float: lambda r, key: r.float_(key, required=True),
    list: lambda r, key: r.float_list(key, None, required=True),
}


def _profile_params(builder) -> tuple[tuple[str, type, bool], ...]:
    """(key, int/float/list, optional) of each builder parameter after `length`, by key."""
    hints = get_type_hints(builder)
    params = list(inspect.signature(builder).parameters.values())[1:]
    return tuple(
        (p.name, hints[p.name] if hints[p.name] in (int, float) else list, p.default is not p.empty)
        for p in sorted(params, key=lambda p: p.name)
    )


_PROFILE_PARAMS = {kind: _profile_params(builder) for kind, builder in PROFILE_BUILDERS.items()}

_CROWD_KEYS = {"n", "a", *AGENT_COLUMNS, "noise", "mu", "sigma", "dt"}
_RULE_KEYS = {"window", "saturation_scale"}
_PROFILE_KEYS = {"kind"} | {key for params in _PROFILE_PARAMS.values() for key, _, _ in params}
_RUN_KEYS = {"steps", "seed", "metric_window", "overlap", "divergence_ceiling"}

_ALL_KEYS = (
    {"name"}
    | {f"crowd.{k}" for k in _CROWD_KEYS}
    | {f"rule.{k}" for k in _RULE_KEYS}
    | {f"profile.{k}" for k in _PROFILE_KEYS}
    | {f"run.{k}" for k in _RUN_KEYS}
)


class ScenarioFormatError(CrowdError):
    """All validation problems found in one scenario file."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("invalid scenario: " + "; ".join(errors))


class TableFormatError(CrowdError):
    """A time-series table that cannot be read back."""

    def __init__(self, message: str):
        super().__init__("invalid table: " + message)


def _tokenize(text: str) -> tuple[dict[str, tuple[int, str]], list[str]]:
    """Key -> (line number, raw value text), plus the problems found."""
    entries: dict[str, tuple[int, str]] = {}
    errors: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            errors.append(f"line {lineno}: duplicate key {key!r} (first set at line {entries[key][0]})")
            continue
        if key not in _ALL_KEYS:
            hint = difflib.get_close_matches(key, sorted(_ALL_KEYS), n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            errors.append(f"line {lineno}: unknown key {key!r}{suffix}")
            continue
        entries[key] = (lineno, value)
    return entries, errors


class _Reader:
    """Typed access to raw entries, accumulating errors instead of raising."""

    def __init__(self, entries: dict[str, tuple[int, str]], errors: list[str]):
        self.entries = entries
        self.errors = errors

    def has(self, key: str) -> bool:
        return key in self.entries

    def fail(self, key: str, msg: str) -> None:
        entry = self.entries.get(key)
        where = f"line {entry[0]}: " if entry else ""
        self.errors.append(f"{where}{key}: {msg}")

    def str_(self, key: str, default: str | None = None, choices: Iterable[str] | None = None):
        entry = self.entries.get(key)
        if entry is None:
            if default is None:
                self.errors.append(f"missing required key {key!r}")
            return default
        value = entry[1]
        if choices is not None and value not in choices:
            self.fail(key, f"must be one of {', '.join(choices)}; got {value!r}")
            return default
        return value

    def int_(self, key: str, default: int | None = None, minimum: int | None = None):
        entry = self.entries.get(key)
        if entry is None:
            if default is None and minimum is not None:
                self.errors.append(f"missing required key {key!r}")
            return default
        try:
            value = int(entry[1])
        except ValueError:
            self.fail(key, f"expected an integer, got {entry[1]!r}")
            return default
        if minimum is not None and value < minimum:
            self.fail(key, f"must be >= {minimum}, got {value}")
            return default
        return value

    def float_(self, key: str, default: float | None = None, required: bool = False):
        entry = self.entries.get(key)
        if entry is None:
            if required:
                self.errors.append(f"missing required key {key!r}")
            return default
        try:
            value = float(entry[1])
        except ValueError:
            self.fail(key, f"expected a number, got {entry[1]!r}")
            return default
        if not math.isfinite(value):
            self.fail(key, f"must be finite, got {entry[1]!r}")
            return default
        return value

    def bool_(self, key: str, default: bool) -> bool:
        entry = self.entries.get(key)
        if entry is None:
            return default
        text = entry[1].lower()
        if text in ("true", "yes", "1"):
            return True
        if text in ("false", "no", "0"):
            return False
        self.fail(key, f"expected true/false, got {entry[1]!r}")
        return default

    def float_list(self, key: str, n: int | None, default: float | None = None, required: bool = False):
        """A float64 array: a scalar expanded to n copies, or a comma list of exactly n values."""
        entry = self.entries.get(key)
        if entry is None:
            if required:
                self.errors.append(f"missing required key {key!r}")
                return None
            return None if default is None else np.full(n or 0, default)
        parts = [p.strip() for p in entry[1].split(",")]
        try:
            values = [float(p) for p in parts]
        except ValueError:
            self.fail(key, f"expected a number or comma-separated numbers, got {entry[1]!r}")
            return None
        if not all(math.isfinite(v) for v in values):
            self.fail(key, f"must be finite, got {entry[1]!r}")
            return None
        if len(values) == 1 and n is not None:
            return np.full(n, values[0])
        if n is not None and len(values) != n:
            self.fail(key, f"expected 1 or {n} values, got {len(values)}")
            return None
        return np.array(values)


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse and fully validate a scenario file.

    Raises ScenarioFormatError carrying every problem found, each with
    its line number where one applies.
    """
    entries, errors = _tokenize(text)
    r = _Reader(entries, errors)

    name = r.str_("name", default="scenario")
    if not is_safe_name(name):
        r.fail("name", f"must be {NAME_RULE}; got {name!r}")
    n = r.int_("crowd.n", minimum=1)
    a = r.float_("crowd.a", required=True)
    if a is not None and not a > 0:
        r.fail("crowd.a", f"observation sensitivity must be > 0, got {a}")
        a = None
    dt = r.float_("crowd.dt", default=1.0)
    if dt is not None and not dt > 0:
        r.fail("crowd.dt", f"must be > 0, got {dt}")
        dt = None

    b_low = r.float_list("crowd.b_low", n, required=True)
    b_high = r.float_list("crowd.b_high", n, required=True)
    c = r.float_list("crowd.c", n, required=True)
    noise_amp = r.float_list("crowd.noise_amp", n, default=0.0)

    noise_kind = r.str_("crowd.noise", default="none", choices=("none", "uniform", "wiener"))
    mu = r.float_("crowd.mu", default=0.0)
    sigma = r.float_("crowd.sigma", default=0.0)

    columns = (b_low, b_high, c, noise_amp)
    if n is not None and all(col is not None for col in columns):
        for column, message in agent_column_errors(*columns):
            r.fail(f"crowd.{column}", message)

    noise_model = None
    if noise_kind == "none":
        noise_model = NoNoise()
    elif noise_kind == "uniform":
        noise_model = UniformNoise()
    elif noise_kind == "wiener":
        if sigma is not None and sigma < 0:
            r.fail("crowd.sigma", f"must be >= 0, got {sigma}")
        elif mu is not None and sigma is not None:
            noise_model = WienerNoise(mu=mu, sigma=sigma)

    window = r.int_("rule.window", default=5, minimum=1)
    sat = r.float_("rule.saturation_scale", required=True)
    if sat is not None and not sat > 0:
        r.fail("rule.saturation_scale", f"must be > 0, got {sat}")
        sat = None

    steps = r.int_("run.steps", minimum=1)
    seed = r.int_("run.seed", default=0)
    metric_window = None
    if r.has("run.metric_window") and entries["run.metric_window"][1].lower() != "none":
        metric_window = r.int_("run.metric_window", minimum=1)
    overlap = r.bool_("run.overlap", default=False)
    ceiling = r.float_("run.divergence_ceiling", default=DEFAULT_DIVERGENCE_CEILING)
    if ceiling is not None and not ceiling > 0:
        r.fail("run.divergence_ceiling", f"must be > 0, got {ceiling}")

    kind = r.str_("profile.kind", default=None, choices=tuple(_PROFILE_PARAMS))
    profile = None
    if kind is not None:
        errors_before = len(errors)
        params = {
            key: _PARAM_READERS[typ](r, f"profile.{key}")
            for key, typ, optional in _PROFILE_PARAMS[kind]
            if not optional or r.has(f"profile.{key}")
        }
        params_ok = len(errors) == errors_before
        for key in _PROFILE_KEYS - params.keys() - {"kind"}:
            if r.has(f"profile.{key}"):
                r.fail(f"profile.{key}", f"not a parameter of profile kind {kind!r}")
        if params_ok and steps is not None:
            try:
                profile = build_profile(kind, params, steps)
            except ValueError as exc:
                r.errors.append(f"profile: {exc}")

    if noise_kind != "wiener" and (r.has("crowd.mu") or r.has("crowd.sigma")):
        r.fail("crowd.noise", "crowd.mu/crowd.sigma are only meaningful with noise = wiener")

    if errors:
        raise ScenarioFormatError(errors)

    config = CrowdConfig(n, a, b_low, b_high, c, noise_amp, noise_model, dt)
    rule = SwitchRule(saturation_scale=sat, window=window)
    return ScenarioSpec(
        name=name,
        config=config,
        rule=rule,
        profile=profile,
        seed=seed,
        metric_window=metric_window,
        overlap=overlap,
        divergence_ceiling=ceiling,
    )


def load_scenario(path: str | Path) -> ScenarioSpec:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Canonical emission
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ", ".join(map(repr, value))
    return str(value)


def _collapse(values: np.ndarray) -> str:
    if np.all(values == values[0]):
        return repr(float(values[0]))
    return ", ".join(map(repr, values.tolist()))


def format_scenario(spec: ScenarioSpec) -> str:
    """Canonical text form; parse(format(spec)) reproduces the spec."""
    cfg = spec.config
    lines = [f"name = {spec.name}"]
    lines.append(f"crowd.n = {cfg.n}")
    lines.append(f"crowd.a = {_fmt(cfg.a)}")
    for column in AGENT_COLUMNS:
        lines.append(f"crowd.{column} = {_collapse(getattr(cfg, column))}")
    if isinstance(cfg.noise_model, WienerNoise):
        lines.append("crowd.noise = wiener")
        lines.append(f"crowd.mu = {_fmt(cfg.noise_model.mu)}")
        lines.append(f"crowd.sigma = {_fmt(cfg.noise_model.sigma)}")
    elif isinstance(cfg.noise_model, UniformNoise):
        lines.append("crowd.noise = uniform")
    else:
        lines.append("crowd.noise = none")
    lines.append(f"crowd.dt = {_fmt(cfg.dt)}")
    lines.append(f"rule.window = {spec.rule.window}")
    lines.append(f"rule.saturation_scale = {_fmt(spec.rule.saturation_scale)}")
    lines.append(f"profile.kind = {spec.profile.kind}")
    for key, _, _ in _PROFILE_PARAMS[spec.profile.kind]:
        lines.append(f"profile.{key} = {_fmt(spec.profile.params[key])}")
    lines.append(f"run.steps = {spec.profile.length}")
    lines.append(f"run.seed = {spec.seed}")
    lines.append(
        f"run.metric_window = {spec.metric_window if spec.metric_window is not None else 'none'}"
    )
    lines.append(f"run.overlap = {_fmt(spec.overlap)}")
    lines.append(f"run.divergence_ceiling = {_fmt(spec.divergence_ceiling)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------

def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _csv(header: list[str], rows: Iterable[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _write(text: str, destination: str | Path) -> Path:
    path = Path(destination)
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def format_table(result: ScenarioResult) -> str:
    """TimeSeriesTable as CSV text: one row per executed step.

    Cells are made a column at a time, "%d" for the integer columns
    t and N_H and "%.17g" for the floats, formatting each distinct value
    of a column once: a long run repeats most values (B, AB, N_H, ratio
    and stability are piecewise constant). A row is its cells joined by
    commas; no cell holds a comma or quote, so the bytes are those of
    `csv.writer`.
    """
    numeric = (
        result.t, result.E, result.dE, result.S, result.dS, result.O, result.dO,
        result.n_reactive, result.n_reactive / result.config.n,
        result.b_total, result.ab, result.r_instant,
    )
    columns = [_column_cells(col) for col in numeric]
    columns.append([s.value for s in result.stability_trace])
    return "".join([",".join(TABLE_COLUMNS), "\n", *[",".join(row) + "\n" for row in zip(*columns)]])


def _column_cells(values: np.ndarray) -> list[str]:
    """The cell text of each entry of a 1-D integer or float64 column.

    Integers print as "%d", floats as "%.17g". Each distinct value is
    formatted once; floats are told apart by their bits, so -0.0 and 0.0
    and each NaN payload keep their own entries.
    """
    if values.dtype == np.float64:
        keys, fmt = values.view(np.int64), "%.17g"
    else:
        keys, fmt = values, "%d"
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    texts = np.array([fmt % x for x in values[first].tolist()], dtype=object)
    return texts[inverse].tolist()


def emit_table(result: ScenarioResult, destination: str | Path) -> Path:
    """Write the time-series table; identical results give identical bytes."""
    return _write(format_table(result), destination)


def format_summary(summary: RunSummary) -> str:
    return _csv(SUMMARY_COLUMNS, [_summary_row(summary)])


def _summary_row(s: RunSummary) -> list:
    return [
        s.name,
        s.steps_run,
        "true" if s.diverged else "false",
        "" if s.truncated_at is None else s.truncated_at,
        s.seed,
        _g17(s.peak_O),
        _g17(s.final_O),
        _g17(s.peak_ratio),
        _g17(s.final_ratio),
        _g17(s.mean_R),
        _g17(s.rho_c),
        _g17(s.sigma_c),
        _g17(s.sigma_o),
        _g17(s.t_d),
        s.stability_final.value,
    ]


def emit_summary(summary: RunSummary, destination: str | Path) -> Path:
    return _write(format_summary(summary), destination)


def emit_sweep_table(param: str, points: Sequence[SweepPoint], destination: str | Path) -> Path:
    header = ["param", "param_value"] + SUMMARY_COLUMNS[1:]
    rows = ([param, _g17(pt.value)] + _summary_row(pt.summary)[1:] for pt in points)
    return _write(_csv(header, rows), destination)


def emit_curve_table(xs, means, stderrs, destination: str | Path) -> Path:
    rows = ([_g17(x), _g17(m), _g17(s)] for x, m, s in zip(xs, means, stderrs))
    return _write(_csv(CURVE_COLUMNS, rows), destination)


def format_window_table(rows: Iterable[tuple[int, int, float, float, float]]) -> str:
    """Windowed metrics of a time-series table, one (start, stop, t_d, sigma_o, mean_R) a row."""
    return _csv(WINDOW_COLUMNS, ([start, stop, *map(_g17, vals)] for start, stop, *vals in rows))


def emit_window_table(rows, destination: str | Path) -> Path:
    return _write(format_window_table(rows), destination)


def read_table(path: str | Path, columns: Sequence[str] = tuple(TABLE_COLUMNS)) -> dict[str, np.ndarray]:
    """Read a time-series table back into arrays of the named columns (default: all).

    An empty file, a foreign header, a row of the wrong width or a cell
    of a named column that is not a number raises TableFormatError
    naming the file and the line. Cells of the other columns are not
    converted, so they are not validated. A name that is not a table
    column raises ValueError.
    """
    for col in columns:
        if col not in TABLE_COLUMNS:
            raise ValueError(f"unknown table column {col!r}; valid: {', '.join(TABLE_COLUMNS)}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TABLE_COLUMNS:
            got = "an empty file" if header is None else f"the header {header!r}"
            raise TableFormatError(f"{path}: line 1: expected the header {TABLE_COLUMNS!r}, got {got}")
        rows, lines = [], []
        for row in reader:
            if len(row) != len(TABLE_COLUMNS):
                raise TableFormatError(
                    f"{path}: line {reader.line_num}: expected {len(TABLE_COLUMNS)} fields, got {len(row)}"
                )
            rows.append(row)
            lines.append(reader.line_num)
    out: dict[str, np.ndarray] = {}
    for col in columns:
        idx = TABLE_COLUMNS.index(col)
        values = [row[idx] for row in rows]
        if col == "stability":
            out[col] = np.array(values)
            continue
        convert = int if col in ("t", "N_H") else float
        try:
            out[col] = np.array([convert(v) for v in values])
        except ValueError:
            for line, v in zip(lines, values):
                try:
                    convert(v)
                except ValueError as exc:
                    raise TableFormatError(f"{path}: line {line}: {col}: {exc}") from None
    return out
