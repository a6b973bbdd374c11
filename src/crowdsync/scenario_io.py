"""Scenario files and result tables.

Scenario files are flat UTF-8 key-value text (``key = value``, ``#``
comments) with section prefixes crowd.*, rule.*, profile.*, run.*.
The name, crowd.*, rule.* and run.* keys each set one dataclass field
(`_FIELD_KEYS`), and a key's type, default and rule are those of the
field it sets. The profile.* keys of each kind are the parameters of
its builder in `PROFILE_BUILDERS`, read from the builder's signature.
Each form of value has one converter (`_int`, `_float`, `_bool`,
`_floats`, `_choice`) that checks only the form; the field or builder
it sets checks the value. Parsing reports every problem at once with
line numbers, a byte that is not UTF-8 included; emission produces a
canonical form that is stable under re-parsing. Result tables are
comma-separated with fixed headers and floats printed as "%.17g", so
every value round-trips. Each table has one writer, which joins its
cells with commas (`_csv`, or `format_table` for the time series). No
cell is quoted, as none can hold a comma, quote or line break: the one
free-text cell, a summary's name, is held to that by the rule of
`RunSummary.name`. The time-series reader refuses a quote.
"""

from __future__ import annotations

import codecs
import inspect
import math
import operator
from array import array
from dataclasses import MISSING, fields
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, get_type_hints

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
from .switching import Stability, SwitchRule

TABLE_COLUMNS = ["t", "E", "dE", "S", "dS", "O", "dO", "N_H", "ratio", "B", "AB", "R", "stability"]

#: The summary's columns: the fields of `RunSummary`, in order.
SUMMARY_COLUMNS = [f.name for f in fields(RunSummary)]

CURVE_COLUMNS = ["x", "mean_R", "stderr_R"]

WINDOW_COLUMNS = ["window_start", "window_stop", "t_d", "sigma_o", "mean_R"]

#: The noise model of each crowd.noise value.
_NOISE_KINDS = {"none": NoNoise, "uniform": UniformNoise, "wiener": WienerNoise}
_NOISE_NAMES = {model: kind for kind, model in _NOISE_KINDS.items()}

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
            import difflib  # only a file with an unknown key pays for it

            hint = difflib.get_close_matches(key, sorted(_ALL_KEYS), n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            errors.append(f"line {lineno}: unknown key {key!r}{suffix}")
            continue
        entries[key] = (lineno, value)
    return entries, errors


class _BadValue(ValueError):
    """A value of the wrong form; its message follows the key."""


def _int(text: str, minimum: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise _BadValue(f"expected an integer, got {text!r}") from None
    if minimum is not None and value < minimum:
        raise _BadValue(f"must be >= {minimum}, got {value}")
    return value


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _BadValue(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise _BadValue(f"must be finite, got {text!r}")
    return value


def _bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise _BadValue(f"expected true/false, got {text!r}")


def _floats(text: str, n: int | None = None) -> np.ndarray:
    """A float64 array: a scalar expanded to n copies, or a comma list of exactly n values.

    With n None, any number of values.
    """
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        raise _BadValue(f"expected a number or comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise _BadValue(f"must be finite, got {text!r}")
    if n is None or len(values) == n:
        return np.array(values)
    if len(values) == 1:
        return np.full(n, values[0])
    raise _BadValue(f"expected 1 or {n} values, got {len(values)}")


def _choice(text: str, choices: Iterable[str]) -> str:
    if text not in choices:
        raise _BadValue(f"must be one of {', '.join(choices)}; got {text!r}")
    return text


#: How a field's file value is read, by the field's type; an agent column is read by `_floats`.
_READERS = {
    str: str,
    int: _int,
    float: _float,
    bool: _bool,
    int | None: lambda text: None if text.lower() == "none" else _int(text),
    NoiseModel: lambda text: _NOISE_KINDS[_choice(text, _NOISE_KINDS)],
}

#: How a profile parameter's file value is read, by the parameter's type.
_PARAM_READERS = {int: partial(_int, minimum=0), float: _float, list: _floats}


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

    def fail(key: str, message: str) -> None:
        where = f"line {entries[key][0]}: " if key in entries else ""
        errors.append(f"{where}{key}: {message}")

    def read(key: str, convert, required: bool = True):
        """`convert` of the key's value; MISSING if the key is absent (an error if required) or malformed."""
        if key not in entries:
            if required:
                errors.append(f"missing required key {key!r}")
            return MISSING
        try:
            return convert(entries[key][1])
        except _BadValue as exc:
            fail(key, str(exc))
            return MISSING

    given: dict[type, dict] = {cls: {} for _, cls, _ in _FIELD_KEYS}
    for key, cls, name, typ, required in _FIELDS:
        convert = partial(_floats, n=given[CrowdConfig].get("n")) if typ is np.ndarray else _READERS[typ]
        value = read(key, convert, required)
        if value is not MISSING:
            broken = field_errors(cls, {name: value})
            for _, message in broken:
                fail(key, message)
            if not broken:
                given[cls][name] = value

    crowd = given[CrowdConfig]
    # an absent noise_amp is its field's default; the other columns have none
    columns = [crowd.get(c, getattr(CrowdConfig, c, None)) for c in AGENT_COLUMNS]
    if "n" in crowd and all(col is not None for col in columns):
        for column, message in agent_column_errors(*np.broadcast_arrays(*columns)):
            fail(f"crowd.{column}", message)

    kind = read("profile.kind", partial(_choice, choices=_PROFILE_PARAMS))
    profile = None
    if kind is not MISSING:
        params = {
            key: read(f"profile.{key}", _PARAM_READERS[typ], not optional)
            for key, typ, optional in _PROFILE_PARAMS[kind]
            if not optional or f"profile.{key}" in entries
        }
        own = {"profile.kind", *(f"profile.{key}" for key, _, _ in _PROFILE_PARAMS[kind])}
        for key in entries:  # in line order
            if key.startswith("profile.") and key not in own:
                fail(key, f"not a parameter of profile kind {kind!r}")
        steps = given[ForceProfile].get("length")
        if steps is not None and all(value is not MISSING for value in params.values()):
            try:
                profile = build_profile(kind, params, steps)
            except ValueError as exc:
                fail("profile.kind", str(exc))

    noise = crowd.get("noise_model")
    if noise is not WienerNoise and ("crowd.mu" in entries or "crowd.sigma" in entries):
        fail("crowd.noise", "crowd.mu/crowd.sigma are only meaningful with noise = wiener")

    if errors:
        raise ScenarioFormatError(errors)

    if noise is not None:
        crowd["noise_model"] = noise(**given[WienerNoise])  # only wiener noise has mu and sigma
    rule = SwitchRule(**given[SwitchRule])
    return ScenarioSpec(config=CrowdConfig(**crowd), rule=rule, profile=profile, **given[ScenarioSpec])


def load_scenario(path: str | Path) -> ScenarioSpec:
    return parse_scenario(_read_text(path, lambda message: ScenarioFormatError([message])))


def _read_text(path: str | Path, error: Callable[[str], CrowdError]) -> str:
    """A UTF-8 file's text, CRLF and CR read as LF; a byte that is not UTF-8 raises `error` naming its line.

    A leading byte-order mark is dropped, as the "utf-8-sig" codec drops it.
    """
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return _newlines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = _newlines(data[: exc.start].decode("utf-8")).count("\n") + 1
        raise error(f"{path}: line {line}: not UTF-8 (byte 0x{data[exc.start]:02x}: {exc.reason})") from None


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
    return _NOISE_NAMES.get(type(value)) or str(value)


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
    return "%.17g" % x


def _csv(header: list[str], rows: Iterable[list]) -> str:
    """The header and rows as comma-separated lines; no cell holds a comma, a quote or a line break."""
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def _text(value) -> str:
    return "" if value is None else str(value)


#: How a summary cell is written, by the type its `RunSummary` field declares. Any
#: other type (str, int, int | None) is written as itself, and None as "".
_CELL_TEXT = {float: _g17, bool: _fmt, Stability: operator.attrgetter("value")}
_SUMMARY_CELLS = [_CELL_TEXT.get(hint, _text) for hint in map(get_type_hints(RunSummary).get, SUMMARY_COLUMNS)]


def _write(text: str, destination: str | Path) -> Path:
    path = Path(destination)
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


#: Rows in one piece of the time-series table's text (`_table_chunks`): about 400 KB.
TABLE_CHUNK_ROWS = 4096


def format_table(result: ScenarioResult) -> str:
    """TimeSeriesTable as CSV text: one row per executed step.

    "%d" for the integer columns t and N_H, "%.17g" for the floats. The
    text is the join of `_table_chunks`; `emit_table` writes the same
    chunks without joining them. As in `_csv`, no cell holds a comma, a
    quote or a line break.
    """
    return "".join(_table_chunks(result))


def _table_chunks(result: ScenarioResult) -> Iterator[str]:
    """The time-series table's text: its header, then its rows in pieces of `TABLE_CHUNK_ROWS`.

    A settled run repeats its rows but for t, so the cells after t (a
    row's rest) are made once per run of consecutive rows whose every
    such cell keeps its bits (0.0 and -0.0 differ), and each distinct
    value of a column among those rows is formatted once
    (`_column_cells`). A piece converts its own t cells and puts each
    before its run's rest. So beyond the distinct rests, a consumer
    holds one piece.
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
    del cells  # the generator's frame lives while its chunks are written
    run_of_row = np.cumsum(changed) - 1
    yield ",".join(TABLE_COLUMNS) + "\n"
    t, step = result.t, TABLE_CHUNK_ROWS
    for i in range(0, len(t), step):  # each row's t cell, then its run's rest
        yield "".join(chain.from_iterable(zip(map(str, t[i : i + step].tolist()), rests[run_of_row[i : i + step]])))


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
    """Write the time-series table; identical results give identical bytes.

    The file gets `format_table`'s text, written chunk by chunk, so the
    text is never held whole: beyond the run's arrays, the memory is that
    of its distinct row rests and one chunk of `TABLE_CHUNK_ROWS` rows.
    """
    path = Path(destination)
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.writelines(_table_chunks(result))
    return path


def format_summary(summary: RunSummary) -> str:
    return _csv(SUMMARY_COLUMNS, [_summary_row(summary)])


def _summary_row(s: RunSummary) -> list[str]:
    return [text(getattr(s, column)) for column, text in zip(SUMMARY_COLUMNS, _SUMMARY_CELLS)]


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

    The file is read line by line, as UTF-8 with universal newlines and
    without a leading byte-order mark, and its text is never held whole:
    a row keeps only its t value and the index of its rest (the text
    after its t cell). A settled run repeats its rows but for t, so each
    distinct rest is split, width-checked and converted once, and the
    rows gather its values; the memory is that of the distinct rests,
    their cells of the named columns, and one number per row and named
    column. A byte that is not UTF-8, an empty file, a foreign header, a
    row of the wrong width, a quote (tables have no quoting), a cell of
    a named column that is not a number or a t cell that is not its row
    index (the line number - 2) raises TableFormatError
    naming the file and the earliest such line; of these, a bad byte is
    reported first, then a quote, the header, the width, and then the
    cells of the named columns in their order. Cells of the other
    columns are not converted, so they are not validated. A name that
    is not a table column raises ValueError.
    """
    for col in columns:
        if col not in TABLE_COLUMNS:
            raise ValueError(f"unknown table column {col!r}; valid: {', '.join(TABLE_COLUMNS)}")
    convert_t = "t" in columns
    header = None  # None for an empty file
    quote = width = bad_t = None  # the first line of each problem, with what its message needs
    rests: dict[str, int] = {}  # each distinct rest's index, in the order of first occurrence
    row_rest = array("q")
    try:
        # universal newlines; the mark is dropped as `_read_text` drops it. Every line is
        # read whatever is found, so that a later byte that is not UTF-8 is still reported first.
        with open(path, encoding="utf-8-sig") as f:
            first = f.readline()  # "" only at the end of the file
            if first:
                first = first.removesuffix("\n")
                header = first.split(",") if first else []  # csv.reader's fields
                quote = 1 if '"' in first else None
            for lineno, line in enumerate(f, start=2):
                line = line.removesuffix("\n")
                if quote is None and '"' in line:
                    quote = lineno
                t_text, _, rest = line.partition(",")
                index = rests.get(rest)
                if index is None:
                    index = rests[rest] = len(rests)
                    if width is None and rest.count(",") != len(TABLE_COLUMNS) - 2:
                        width = (lineno, line.count(",") + 1 if line else 0)  # as csv.reader counts
                row_rest.append(index)
                if convert_t and bad_t is None and t_text != str(lineno - 2):  # converted only if it differs
                    try:
                        if int(t_text) != lineno - 2:
                            bad_t = (lineno, f"expected row index {lineno - 2}, got {t_text!r}")
                    except ValueError as exc:
                        bad_t = (lineno, str(exc))
    except UnicodeDecodeError:
        _read_text(path, TableFormatError)  # raises, naming the line of the first bad byte
        raise
    if quote is not None:
        raise TableFormatError(f"{path}: line {quote}: a quote; table cells are never quoted")
    if header != TABLE_COLUMNS:
        got = "an empty file" if header is None else f"the header {header!r}"
        raise TableFormatError(f"{path}: line 1: expected the header {TABLE_COLUMNS!r}, got {got}")
    if width is not None:
        raise TableFormatError(f"{path}: line {width[0]}: expected {len(TABLE_COLUMNS)} fields, got {width[1]}")
    picks = {col: TABLE_COLUMNS.index(col) - 1 for col in columns if col != "t"}  # in a row's rest
    cells: dict[str, list[str]] = {col: [] for col in picks}  # only the named columns' cells are kept
    for rest in rests:
        split = rest.split(",")
        for col, idx in picks.items():
            cells[col].append(split[idx])
    where = np.asarray(row_rest, dtype=np.intp)
    out: dict[str, np.ndarray] = {}
    for col in columns:
        if col == "t":
            if bad_t is not None:
                raise TableFormatError(f"{path}: line {bad_t[0]}: t: {bad_t[1]}")
            out[col] = np.arange(len(row_rest))
            continue
        values = cells[col]
        convert = {"N_H": int, "stability": str}.get(col, float)
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
