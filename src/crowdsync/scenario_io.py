"""Scenario files and result tables.

Scenario files are flat UTF-8 key-value text (``key = value``, ``#``
comments) with section prefixes crowd.*, rule.*, profile.*, run.*.
The name, crowd.*, rule.* and run.* keys each set one dataclass field
(`_FIELD_KEYS`), and a key's type, default and rule are those of the
field it sets. The profile.* keys of each kind are the parameters of
its builder in `PROFILE_BUILDERS`, read from the builder's signature.
The reader checks only the form of a value; the field or builder it
sets checks the value. Parsing reports every problem at once with line
numbers; emission produces a canonical form that is stable under
re-parsing. Result tables are comma-separated with fixed headers and
floats printed to 17 significant digits so every value round-trips;
no cell is quoted, and the time-series reader refuses a quote.
"""

from __future__ import annotations

import csv
import difflib
import inspect
import io
import math
import operator
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .dynamics import (
    AGENT_COLUMNS,
    CrowdConfig,
    CrowdError,
    NoiseModel,
    NoNoise,
    UniformNoise,
    WienerNoise,
    agent_column_errors,
    field_errors,
)
from .scenarios import (
    PROFILE_BUILDERS,
    ForceProfile,
    RunSummary,
    ScenarioResult,
    ScenarioSpec,
    SweepPoint,
    build_profile,
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

#: The noise model of each crowd.noise value.
_NOISE_KINDS = {"none": NoNoise, "uniform": UniformNoise, "wiener": WienerNoise}

#: (key prefix, class, fields) of the keys that set a dataclass field, in
#: canonical order; the profile.* keys come just before the profile's length.
#: A key is its prefix and the field's name, or the name `_KEY_NAMES` gives.
_FIELD_KEYS = (
    ("", ScenarioSpec, ("name",)),
    ("crowd.", CrowdConfig, ("n", "a", *AGENT_COLUMNS, "noise_model")),
    ("crowd.", WienerNoise, ("mu", "sigma")),
    ("crowd.", CrowdConfig, ("dt",)),
    ("rule.", SwitchRule, ("window", "saturation_scale")),
    ("run.", ForceProfile, ("length",)),
    ("run.", ScenarioSpec, ("seed", "metric_window", "overlap", "divergence_ceiling")),
)
_KEY_NAMES = {"noise_model": "noise", "length": "steps"}


def _field_keys(prefix: str, cls: type, names: tuple[str, ...]) -> list[tuple[str, type, str, object, bool]]:
    """(key, class, field, type, required) of each named field; one without a default is required."""
    hints = get_type_hints(cls)
    required = {f.name: f.default is MISSING and f.default_factory is MISSING for f in fields(cls)}
    return [(prefix + _KEY_NAMES.get(name, name), cls, name, hints[name], required[name]) for name in names]


_FIELDS = tuple(entry for group in _FIELD_KEYS for entry in _field_keys(*group))

#: How a field's file value is read, by the field's type; n is the crowd size, if known.
_READERS = {
    str: lambda r, key, n: r.text(key),
    int: lambda r, key, n: r.int_(key),
    float: lambda r, key, n: r.float_(key),
    bool: lambda r, key, n: r.bool_(key),
    int | None: lambda r, key, n: None if r.text(key).lower() == "none" else r.int_(key),
    np.ndarray: lambda r, key, n: r.float_list(key, n),
    NoiseModel: lambda r, key, n: _NOISE_KINDS.get(r.choice(key, _NOISE_KINDS)),
}

#: How a profile parameter's file value is read, by the parameter's type.
_PARAM_READERS = {
    int: lambda r, key: r.int_(key, minimum=0),
    float: lambda r, key: r.float_(key),
    list: lambda r, key: r.float_list(key, None),
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

_PROFILE_KEYS = {"kind"} | {key for params in _PROFILE_PARAMS.values() for key, _, _ in params}

_ALL_KEYS = {key for key, *_ in _FIELDS} | {f"profile.{k}" for k in _PROFILE_KEYS}


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
    """The form of raw entries, accumulating errors instead of raising.

    The typed readers take a present key, and report a malformed value
    with `fail`; `read` turns that into MISSING.
    """

    def __init__(self, entries: dict[str, tuple[int, str]], errors: list[str]):
        self.entries = entries
        self.errors = errors

    def has(self, key: str) -> bool:
        return key in self.entries

    def fail(self, key: str, msg: str) -> None:
        entry = self.entries.get(key)
        where = f"line {entry[0]}: " if entry else ""
        self.errors.append(f"{where}{key}: {msg}")

    def read(self, key: str, reader, required: bool, *args):
        """`reader(self, key, *args)`; MISSING if the key is absent (an error if required) or malformed."""
        if key not in self.entries:
            if required:
                self.errors.append(f"missing required key {key!r}")
            return MISSING
        count = len(self.errors)
        value = reader(self, key, *args)
        return value if len(self.errors) == count else MISSING

    def text(self, key: str) -> str:
        return self.entries[key][1]

    def choice(self, key: str, choices: Iterable[str]) -> str:
        value = self.text(key)
        if value not in choices:
            self.fail(key, f"must be one of {', '.join(choices)}; got {value!r}")
        return value

    def int_(self, key: str, minimum: int | None = None):
        text = self.text(key)
        try:
            value = int(text)
        except ValueError:
            self.fail(key, f"expected an integer, got {text!r}")
            return None
        if minimum is not None and value < minimum:
            self.fail(key, f"must be >= {minimum}, got {value}")
        return value

    def float_(self, key: str):
        text = self.text(key)
        try:
            value = float(text)
        except ValueError:
            self.fail(key, f"expected a number, got {text!r}")
            return None
        if not math.isfinite(value):
            self.fail(key, f"must be finite, got {text!r}")
        return value

    def bool_(self, key: str):
        text = self.text(key)
        if text.lower() in ("true", "yes", "1"):
            return True
        if text.lower() in ("false", "no", "0"):
            return False
        self.fail(key, f"expected true/false, got {text!r}")
        return None

    def float_list(self, key: str, n: int | None):
        """A float64 array: a scalar expanded to n copies, or a comma list of exactly n values.

        With n None, any number of values.
        """
        text = self.text(key)
        try:
            values = [float(p) for p in text.split(",")]
        except ValueError:
            self.fail(key, f"expected a number or comma-separated numbers, got {text!r}")
            return None
        if not all(math.isfinite(v) for v in values):
            self.fail(key, f"must be finite, got {text!r}")
        elif n is not None and len(values) == 1:
            return np.full(n, values[0])
        elif n is not None and len(values) != n:
            self.fail(key, f"expected 1 or {n} values, got {len(values)}")
        return np.array(values)


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse and fully validate a scenario file.

    A key that sets a dataclass field (`_FIELD_KEYS`) has that field's
    type, default and rule. The reader checks only the value's form: a
    key that is absent leaves the field its default, and a value that
    breaks the field's rule is reported with the field's own message.
    The profile builder checks its parameters; its error is reported on
    the profile.kind line. Raises ScenarioFormatError carrying every
    problem found, each with its line number where one applies.
    """
    entries, errors = _tokenize(text)
    r = _Reader(entries, errors)

    given: dict[type, dict] = {cls: {} for _, cls, _ in _FIELD_KEYS}
    for key, cls, name, typ, required in _FIELDS:
        value = r.read(key, _READERS[typ], required, given[CrowdConfig].get("n"))
        if value is not MISSING:
            broken = field_errors(cls, {name: value})
            for _, message in broken:
                r.fail(key, message)
            if not broken:
                given[cls][name] = value

    crowd = given[CrowdConfig]
    # an absent noise_amp is its field's default; the other columns have none
    columns = [crowd.get(c, getattr(CrowdConfig, c, None)) for c in AGENT_COLUMNS]
    if "n" in crowd and all(col is not None for col in columns):
        for column, message in agent_column_errors(*np.broadcast_arrays(*columns)):
            r.fail(f"crowd.{column}", message)

    kind = r.read("profile.kind", _Reader.choice, True, _PROFILE_PARAMS)
    profile = None
    if kind is not MISSING:
        errors_before = len(errors)
        params = {}
        for key, typ, optional in _PROFILE_PARAMS[kind]:
            value = r.read(f"profile.{key}", _PARAM_READERS[typ], not optional)
            if value is not MISSING:
                params[key] = value
        params_ok = len(errors) == errors_before
        for key in _PROFILE_KEYS - {k for k, _, _ in _PROFILE_PARAMS[kind]} - {"kind"}:
            if r.has(f"profile.{key}"):
                r.fail(f"profile.{key}", f"not a parameter of profile kind {kind!r}")
        steps = given[ForceProfile].get("length")
        if params_ok and steps is not None:
            try:
                profile = build_profile(kind, params, steps)
            except ValueError as exc:
                r.fail("profile.kind", str(exc))

    noise = crowd.get("noise_model")
    if noise is not WienerNoise and (r.has("crowd.mu") or r.has("crowd.sigma")):
        r.fail("crowd.noise", "crowd.mu/crowd.sigma are only meaningful with noise = wiener")

    if errors:
        raise ScenarioFormatError(errors)

    if noise is not None:
        crowd["noise_model"] = noise(**given[WienerNoise])  # only wiener noise has mu and sigma
    rule = SwitchRule(**given[SwitchRule])
    return ScenarioSpec(config=CrowdConfig(**crowd), rule=rule, profile=profile, **given[ScenarioSpec])


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
    if isinstance(value, np.ndarray):  # an agent column: one value when every agent has it
        return repr(float(value[0])) if np.all(value == value[0]) else ", ".join(map(repr, value.tolist()))
    if value is None:
        return "none"
    for kind, model in _NOISE_KINDS.items():
        if isinstance(value, model):
            return kind
    return str(value)


def format_scenario(spec: ScenarioSpec) -> str:
    """Canonical text form; parse(format(spec)) reproduces the spec."""
    owners = {
        ScenarioSpec: spec,
        CrowdConfig: spec.config,
        WienerNoise: spec.config.noise_model,
        SwitchRule: spec.rule,
        ForceProfile: spec.profile,
    }
    lines = []
    for key, cls, name, _, _ in _FIELDS:
        if cls is ForceProfile:  # its kind and parameters, then its length
            lines.append(f"profile.kind = {spec.profile.kind}")
            for param, _, _ in _PROFILE_PARAMS[spec.profile.kind]:
                lines.append(f"profile.{param} = {_fmt(spec.profile.params[param])}")
        if isinstance(owners[cls], cls):  # crowd.mu and crowd.sigma only for wiener noise
            lines.append(f"{key} = {_fmt(getattr(owners[cls], name))}")
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

    "%d" for the integer columns t and N_H, "%.17g" for the floats. A
    settled run repeats its rows but for t, so the cells after t are
    made once per run of consecutive rows whose every such cell keeps
    its bits (0.0 and -0.0 differ), and each distinct value of a column
    among those rows is formatted once (`_column_cells`). No cell holds
    a comma or quote, so the bytes are those of `csv.writer`.
    """
    numeric = (result.E, result.dE, result.S, result.dS, result.O, result.dO, result.n_reactive,
               result.n_reactive / result.config.n, result.b_total, result.ab, result.r_instant)
    stability = result.stability_trace
    changed = np.ones(len(stability), dtype=bool)  # where a run starts
    changed[1:] = np.fromiter(map(operator.is_not, stability[1:], stability[:-1]), bool, len(stability) - 1)
    for col in numeric:
        bits = col.view(np.int64) if col.dtype == np.float64 else col
        changed[1:] |= bits[1:] != bits[:-1]
    starts = np.flatnonzero(changed)
    last = [stability[i].value + "\n" for i in starts.tolist()]
    cells = [[""] * len(starts), *(_column_cells(col[starts]) for col in numeric), last]
    rests = np.array([",".join(row) for row in zip(*cells)], dtype=object)  # each run's ",E,...,stability\n"
    rows = map(operator.add, map(str, result.t.tolist()), rests[np.cumsum(changed) - 1].tolist())
    return "".join([",".join(TABLE_COLUMNS), "\n", *rows])


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

    A settled run repeats its rows but for t, so each distinct rest of
    a row (the text after its t cell) is split, width-checked and
    converted once, and the rows gather its values. An empty file, a
    foreign header, a row of the wrong width, a quote (tables have no
    quoting) or a cell of a named column that is not a number raises
    TableFormatError naming the file and the earliest such line. Cells
    of the other columns are not converted, so they are not validated.
    A name that is not a table column raises ValueError.
    """
    for col in columns:
        if col not in TABLE_COLUMNS:
            raise ValueError(f"unknown table column {col!r}; valid: {', '.join(TABLE_COLUMNS)}")
    with open(path, encoding="utf-8") as fh:  # universal newlines: a CRLF table reads as LF
        text = fh.read()
    if '"' in text:
        line = text.count("\n", 0, text.index('"')) + 1
        raise TableFormatError(f"{path}: line {line}: a quote; table cells are never quoted")
    lines = text.removesuffix("\n").split("\n") if text else []
    del text  # the lines hold its text: freed, it does not add to the peak memory below
    header = (lines[0].split(",") if lines[0] else []) if lines else None  # csv.reader's fields
    if header != TABLE_COLUMNS:
        got = "an empty file" if header is None else f"the header {header!r}"
        raise TableFormatError(f"{path}: line 1: expected the header {TABLE_COLUMNS!r}, got {got}")
    body = lines[1:]
    rests: dict[str, int] = {}  # each distinct rest's index, in the order of first occurrence
    row_rest = np.array([rests.setdefault(line.partition(",")[2], len(rests)) for line in body], dtype=np.intp)
    distinct = [rest.split(",") for rest in rests]
    for j, cells in enumerate(distinct):
        if len(cells) != len(TABLE_COLUMNS) - 1:
            k = int(np.argmax(row_rest == j))  # the first row with this rest
            got = body[k].count(",") + 1 if body[k] else 0  # as csv.reader counts
            raise TableFormatError(f"{path}: line {k + 2}: expected {len(TABLE_COLUMNS)} fields, got {got}")
    out: dict[str, np.ndarray] = {}
    for col in columns:
        idx = TABLE_COLUMNS.index(col) - 1  # in a row's rest; t is the part before it
        if idx < 0:
            values, where = [line.partition(",")[0] for line in body], np.arange(len(body))
        else:
            values, where = [cells[idx] for cells in distinct], row_rest
        convert = {"t": int, "N_H": int, "stability": str}.get(col, float)
        try:
            out[col] = np.array([convert(v) for v in values])[where]
        except ValueError:
            for j, v in enumerate(values):
                try:
                    convert(v)
                except ValueError as exc:
                    line = 2 + int(np.argmax(where == j))
                    raise TableFormatError(f"{path}: line {line}: {col}: {exc}") from None
    return out
