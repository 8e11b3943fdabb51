"""Run reports: one row per arrival plus whole-run aggregates.

Three renderings share the same underlying data: a human table, CSV with a
fixed header, and JSON lines. The structured forms parse back losslessly
(timestamps are kept as integer milliseconds in JSON; CSV carries seconds at
millisecond precision), so reports can be diffed, hashed, and re-read.
"""

from __future__ import annotations

import json
from decimal import Decimal
from types import NoneType
from typing import NamedTuple, get_args, get_type_hints

from .model import AutoparkError, parse_number

FORMATS = ("table", "csv", "json-lines")


class ReportFormatError(AutoparkError):
    """Text being parsed is not a report in the named format."""


class ReportRow(NamedTuple):
    """Milestones for one arrival; rejected cars only carry entry and status."""

    vehicle_id: str
    status: str  # rejected:<Reason> or the ticket phase
    entry_ms: int | None = None
    parked_ms: int | None = None
    request_ms: int | None = None
    ready_ms: int | None = None
    exit_ms: int | None = None
    parking_latency_ms: int | None = None
    retrieval_latency_ms: int | None = None
    amount: Decimal | None = None


class Aggregates(NamedTuple):
    max_parking_latency_ms: int | None
    max_retrieval_latency_ms: int | None
    occupancy_peak: int
    pv_wh: float
    grid_wh: float
    load_wh: float
    min_soc: float
    max_concurrent_motors: int


class RunReport(NamedTuple):
    rows: tuple[ReportRow, ...]
    aggregates: Aggregates


def _value_types(cls) -> dict[str, tuple[type, bool]]:
    """Each field's type when it holds a value, and whether it may be None."""
    out = {}
    for name, hint in get_type_hints(cls).items():
        kinds = [kind for kind in get_args(hint) if kind is not NoneType]
        out[name] = (kinds[0], True) if kinds else (hint, False)
    return out


_ROW_TYPES = _value_types(ReportRow)
_AGGREGATE_TYPES = _value_types(Aggregates)

# A row's *_ms times are written in seconds to 3 places, under a *_s column.
CSV_HEADER = ",".join(
    name.removesuffix("_ms") + "_s" if name.endswith("_ms") else name for name in _ROW_TYPES
)


def format_report(report: RunReport, fmt: str = "table") -> str:
    if fmt == "csv":
        return _format_csv(report)
    if fmt == "json-lines":
        return _format_json_lines(report)
    if fmt == "table":
        return _format_table(report)
    raise ValueError(f"unknown report format: {fmt!r}")


def parse_report(text: str, fmt: str) -> RunReport:
    if fmt == "csv":
        return _parse_csv(text)
    if fmt == "json-lines":
        return _parse_json_lines(text)
    raise ValueError(f"unparseable report format: {fmt!r}")


# -- csv -------------------------------------------------------------------


def _row_cells(row: ReportRow) -> list[str]:
    cells = []
    for name, value in zip(row._fields, row):
        if value is None:
            cells.append("")
        elif name.endswith("_ms"):
            cells.append(f"{value / 1000:.3f}")
        else:
            cells.append(str(value))
    return cells


def _parse_cell(name: str, text: str):
    kind, optional = _ROW_TYPES[name]
    if optional and text == "":
        return None
    if kind is str:
        return text
    if name.endswith("_ms"):
        return round(parse_number(float, text) * 1000)
    return _number(kind, text)


def _number(kind: type, text: str):
    """A number in the grammar of ``parse_number``, other than NaN."""
    if (value := parse_number(kind, text)) != value:
        raise ValueError(f"NaN would not parse back equal: {text!r}")
    return value


def _aggregate_pairs(agg: Aggregates) -> list[tuple[str, str]]:
    return [(name, "-" if value is None else repr(value)) for name, value in agg._asdict().items()]


def _parse_aggregate(name: str, text: str):
    kind, optional = _AGGREGATE_TYPES[name]
    return None if optional and text == "-" else _number(kind, text)


def _format_csv(report: RunReport) -> str:
    lines = [CSV_HEADER]
    lines.extend(",".join(_row_cells(row)) for row in report.rows)
    lines.append("#aggregates " + " ".join(f"{k}={v}" for k, v in _aggregate_pairs(report.aggregates)))
    return "\n".join(lines) + "\n"


def _parse_csv(text: str) -> RunReport:
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ReportFormatError("missing or wrong CSV header")
    if not lines[-1].startswith("#aggregates "):
        raise ReportFormatError("missing aggregates trailer")
    rows = []
    for line in lines[1:-1]:
        cells = line.split(",")
        if len(cells) != len(_ROW_TYPES):
            raise ReportFormatError(
                f"expected {len(_ROW_TYPES)} fields, got {len(cells)}: {line!r}"
            )
        try:
            rows.append(ReportRow(*map(_parse_cell, _ROW_TYPES, cells)))
        except (ValueError, ArithmeticError) as exc:
            raise ReportFormatError(f"bad CSV row: {line!r}") from exc
    try:
        pairs = dict(
            item.split("=", 1) for item in lines[-1].removeprefix("#aggregates ").split()
        )
        aggregates = Aggregates(*[_parse_aggregate(name, pairs[name]) for name in _AGGREGATE_TYPES])
    except KeyError as exc:
        raise ReportFormatError(f"aggregates trailer missing {exc}") from exc
    except (ValueError, ArithmeticError) as exc:
        raise ReportFormatError(f"bad aggregates trailer: {lines[-1]!r}") from exc
    return RunReport(tuple(rows), aggregates)


# -- json lines ---------------------------------------------------------------


def _json_object(record) -> dict:
    """A report record's ``_asdict()`` as JSON values: a Decimal as its text,
    all else as is."""
    return {
        name: str(value) if isinstance(value, Decimal) else value
        for name, value in record._asdict().items()
    }


def _format_json_lines(report: RunReport) -> str:
    lines = [json.dumps(_json_object(row), separators=(",", ":")) for row in report.rows]
    lines.append(
        json.dumps({"aggregates": _json_object(report.aggregates)}, separators=(",", ":"))
    )
    return "\n".join(lines) + "\n"


def _json_value(types: dict[str, tuple[type, bool]], name: str, value):
    """One JSON value of a report field, checked against the field's type: a
    Decimal is written as its text, and a float may be written as an integer.
    A JSON true or false is no number."""
    if name not in types:
        raise TypeError(f"unknown field {name!r}")
    kind, optional = types[name]
    if value is None and optional:
        return value
    if kind is Decimal and type(value) is str:
        return _number(Decimal, value)
    if kind is float and type(value) in (int, float):
        return float(value)
    if type(value) is kind:
        return value
    raise TypeError(f"{name} is not a {kind.__name__}: {value!r}")


def _parse_json_record(cls, types: dict[str, tuple[type, bool]], obj):
    """A report record from a JSON object, each value of its field's type, by
    keyword: a key that is no field, or a field with no key, is a TypeError."""
    if type(obj) is not dict:
        raise TypeError(f"not a JSON object: {obj!r}")
    return cls(**{name: _json_value(types, name, value) for name, value in obj.items()})


def _parse_json_lines(text: str) -> RunReport:
    rows = []
    aggregates = None
    for line in text.splitlines():
        if not line:
            continue
        try:
            obj = json.loads(line, parse_constant=lambda text: _number(float, text))
        except ValueError as exc:
            raise ReportFormatError(f"bad JSON line: {line!r}") from exc
        try:
            if type(obj) is dict and "aggregates" in obj:
                if aggregates is not None:
                    raise ReportFormatError("duplicate aggregates line")
                if len(obj) != 1:
                    raise TypeError("the aggregates line holds other keys")
                aggregates = _parse_json_record(Aggregates, _AGGREGATE_TYPES, obj["aggregates"])
            else:
                rows.append(_parse_json_record(ReportRow, _ROW_TYPES, obj))
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ReportFormatError(f"bad report line: {line!r}") from exc
    if aggregates is None:
        raise ReportFormatError("missing aggregates line")
    return RunReport(tuple(rows), aggregates)


# -- table ---------------------------------------------------------------------


def _format_table(report: RunReport) -> str:
    headers = CSV_HEADER.split(",")
    grid = [headers] + [_row_cells(row) for row in report.rows]
    widths = [max(len(line[col]) for line in grid) for col in range(len(headers))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in grid
    ]
    lines.append("")
    for key, value in _aggregate_pairs(report.aggregates):
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"
