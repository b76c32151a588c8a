"""Streaming input/output: parse record files (JSONL or headered CSV),
validate invariants online, and serialize reports, trajectories, and Monte
Carlo summaries deterministically.
"""
from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import fields
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator

from .core import (
    AuditRecord,
    AuditReport,
    IngestError,
    ValidationError,
    strategy_to_dict,
    wealth_from_log,
)

RECORD_FIELDS = ("t", "group", "y_hat", "propensity", "density", "density_estimate")
_REQUIRED_FIELDS = ("t", "group", "y_hat")
_OPTIONAL_FIELDS = ("propensity", "density", "density_estimate")
_KINDS = (int, int, float, float, float, float)
_RECORD_KEYS = frozenset(RECORD_FIELDS)
_REQUIRED_KEYS = frozenset(_REQUIRED_FIELDS)
_INF = math.inf

# Every JSONL line is decoded by this one scanner; a line it cannot take
# whole goes through json.loads, so accepted lines and error text are
# exactly json.loads's.
_scan_once = json.JSONDecoder().scan_once
_LINE_ENDS = ("", "\n", "\r\n")

SUMMARY_COLUMNS = (
    "scenario", "alpha", "strategy", "fpr_or_power",
    "tau_mean", "tau_q10", "tau_q50", "tau_q90",
)

REPORT_FORMAT = "seqaudit-report-v1"


def record_from_dict(d: dict, line_no: int = 0, mode: str = "strict") -> AuditRecord:
    """Build a record from one decoded line.  Numeric fields never take a
    boolean, and ``t`` and ``group`` take only integral values; strict mode
    also refuses strings, while lenient mode (and CSV, whose cells are
    text) converts them with int() and float().  A clean line (exact types,
    no other key nor a null, values in range) is built after one test; any
    other converts field by field and goes through AuditRecord's checks."""
    get = d.get
    t, group, y_hat = get("t"), get("group"), get("y_hat")
    p, rho, rho_hat = get("propensity"), get("density"), get("density_estimate")
    if (  # the common case, whose every check AuditRecord.__new__ makes too
        type(t) is int and type(group) is int and type(y_hat) is float
        and len(d) == 3 + (p is not None) + (rho is not None) + (rho_hat is not None)
        and t >= 1 and group >= 0 and 0.0 <= y_hat <= 1.0
        and (p is None or type(p) is float and 0.0 < p < _INF)
        and (rho is None or type(rho) is float and 0.0 <= rho < _INF)
        and (rho_hat is None or type(rho_hat) is float and 0.0 < rho_hat < _INF)
    ):
        return tuple.__new__(AuditRecord, (t, group, y_hat, p, rho, rho_hat))
    keys = d.keys()
    if not keys <= _RECORD_KEYS:
        unknown = sorted(keys - _RECORD_KEYS)
        if mode == "strict":
            raise IngestError(line_no, f"unknown keys {unknown}")
        warnings.warn(f"line {line_no}: ignoring unknown keys {unknown}", stacklevel=2)
    if not keys >= _REQUIRED_KEYS:
        missing = [k for k in _REQUIRED_FIELDS if k not in d]
        raise IngestError(line_no, f"missing required keys {missing}")
    try:
        t, group, y_hat, p, rho, rho_hat = (  # field by field, in order
            v if v is None and key in _OPTIONAL_FIELDS else _number(key, v, kind, mode == "strict")
            for key, kind, v in zip(RECORD_FIELDS, _KINDS, (t, group, y_hat, p, rho, rho_hat))
        )
        return AuditRecord(t, group, y_hat, p, rho, rho_hat)
    except ValidationError as exc:
        raise IngestError(line_no, str(exc)) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise IngestError(line_no, f"malformed field: {exc}") from exc


def _number(key: str, value, kind: type, strict: bool):
    """``value`` converted to ``kind`` (int or float) under the typing rules
    of :func:`record_from_dict`."""
    if isinstance(value, bool):
        raise ValidationError(f"{key} must be a number, got {value!r}")
    if isinstance(value, str):
        if strict:
            raise ValidationError(f"{key} must be a JSON number, not a string, got {value!r}")
    elif kind is int and isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return kind(value)


def _open_lines(source) -> tuple[Iterable[str], bool]:
    """The lines of ``source``, and whether it is input whole when the call
    is made: a path, or bytes, read as a file holding them is read (with
    universal newlines, decoded as read), which is closed once read."""
    if isinstance(source, bytes):
        return io.TextIOWrapper(io.BytesIO(source), encoding="utf-8"), True
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


def parse_stream(source, format: str = "jsonl", mode: str = "strict") -> Iterator[AuditRecord]:
    """Lazily parse records in file order, enforcing per-group monotone time
    indices as they stream past.  In strict mode the first violation aborts
    with its line number; lenient mode downgrades unknown keys to warnings
    and converts numbers written as strings, as CSV cells always are.

    Strict JSONL from a path or bytes, input that is whole when the call is
    made, is read in :func:`columns.parse_columns`' chunks, one chunk
    ahead: a clean chunk's records are built from its columns, and any
    other chunk's come from the scalar code as it reads them.  Only this
    route loads numpy.  A text stream (stdin, an open file, a list of
    lines) goes line by line, since its next line may not exist yet and a
    live audit must decide at the record that arrives; so do lenient JSONL,
    any line of which may warn, and CSV, on which parse_columns builds.
    Either way the records, errors and line numbers are the same, and no
    error about a line past the record the consumer stops at ever
    surfaces."""
    _check_format(format, mode)
    lines, whole = _open_lines(source)
    if format == "jsonl" and not whole:
        return _line_records(enumerate(lines, start=1), mode, {})
    if format == "jsonl" and mode == "strict":
        from . import columns

        return chain.from_iterable(map(columns._column_records, columns._jsonl_chunks(lines, True)))

    def gen() -> Iterator[AuditRecord]:
        last_t: dict[int, int] = {}
        try:
            if format == "jsonl":
                yield from _line_records(enumerate(lines, start=1), mode, last_t)
            else:
                reader = csv.reader(lines)
                header = _csv_header(reader, mode)
                if header is None:
                    return
                for line_no, row in enumerate(reader, start=2):
                    if row:  # an empty row gives no record
                        yield _csv_record(header, row, line_no, last_t)
        finally:
            if whole:
                lines.close()

    return gen()


def _check_format(format: str, mode: str) -> None:
    if format not in ("jsonl", "csv"):
        raise ValidationError(f"unknown stream format {format!r}")
    if mode not in ("strict", "lenient"):
        raise ValidationError(f"unknown parse mode {mode!r}")


# The scalar per-line code.  parse_stream runs it on every line of a text
# stream, of lenient JSONL and of CSV, and the chunk route of ``columns``
# (parse_columns, and parse_stream of strict JSONL from a path or bytes) on
# every line of a chunk its vectorised checks cannot clear, so all give the
# same records, errors and warnings.


def _line_records(numbered: Iterable[tuple[int, str]], mode: str, last_t: dict[int, int]) -> Iterator[AuditRecord]:
    """The records of JSONL lines, each with its line number; a blank line
    gives none."""
    for line_no, line in numbered:
        record = _jsonl_record(line, line_no, mode, last_t)
        if record is not None:
            yield record


def _jsonl_record(line: str, line_no: int, mode: str, last_t: dict[int, int]) -> AuditRecord | None:
    """The record of one JSONL line (None for a blank line), checked by
    :func:`_in_order`."""
    obj = _decode_line(line)
    if obj is None:
        if not line.strip():
            return None
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IngestError(line_no, f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise IngestError(line_no, "each line must hold one JSON object")
    return _in_order(record_from_dict(obj, line_no, mode), line_no, last_t)


def _in_order(record: AuditRecord, line_no: int, last_t: dict[int, int]) -> AuditRecord:
    """``record``, if its time index is past its group's last in ``last_t``, which it updates."""
    t, group = record.t, record.group
    prev = last_t.get(group, 0)  # t >= 1, so a group's first record passes
    if t <= prev:
        raise IngestError(line_no, f"time index {t} not increasing for group {group} (last was {prev})")
    last_t[group] = t
    return record


def _decode_line(line: str) -> dict | None:
    """The one JSON object that the scanner reads whole from a line, or None."""
    try:
        obj, end = _scan_once(line, 0)
    except (StopIteration, json.JSONDecodeError):
        return None
    return obj if type(obj) is dict and line[end:] in _LINE_ENDS else None


def _csv_header(reader, mode: str) -> list[str] | None:
    """The checked header row of a CSV stream (None for an empty stream)."""
    header = next(reader, None)
    if header is None:
        return None
    header = [h.strip() for h in header]
    if len(set(header)) < len(header):
        raise IngestError(1, f"repeated columns {sorted({h for h in header if header.count(h) > 1})}")
    unknown = set(header) - _RECORD_KEYS
    if unknown:
        if mode == "strict":
            raise IngestError(1, f"unknown columns {sorted(unknown)}")
        warnings.warn(f"ignoring unknown columns {sorted(unknown)}", stacklevel=2)
    missing = [k for k in _REQUIRED_FIELDS if k not in header]
    if missing:
        raise IngestError(1, f"missing required columns {missing}")
    return header


def _csv_record(header: list[str], row: list[str], line_no: int, last_t: dict[int, int]) -> AuditRecord:
    """The record of one non-empty CSV row of one cell per header column;
    its cells are text, so they convert as in lenient mode."""
    if len(row) != len(header):
        raise IngestError(line_no, f"{len(row)} cells in a row under {len(header)} columns")
    cells = {key: cell for key, cell in zip(header, row) if key in _RECORD_KEYS and cell != ""}
    return _in_order(record_from_dict(cells, line_no, "lenient"), line_no, last_t)


def _fields_to_dict(obj, **values) -> dict:
    """Each dataclass field of ``obj`` by name, with ``values`` in place of some."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)} | values


def report_to_dict(report: AuditReport) -> dict:
    """The report document: decision, configuration and final wealth, with
    each game's when several ran.  Its ``trajectory`` keys are always null,
    at the top level and in each game; a trajectory goes only to
    :func:`write_trajectory_csv`."""
    games = report.per_game
    return {
        "format": REPORT_FORMAT,
        "decision": _fields_to_dict(report.decision, kind=report.decision.kind.value),
        "config": _fields_to_dict(report.config_echo, strategy=strategy_to_dict(report.config_echo.strategy)),
        "wealth_final": _finite_or_str(report.wealth_final),
        "log_wealth_final": report.log_wealth_final,
        "trajectory": None,
        "per_game": None if games is None else [
            _fields_to_dict(g, wealth_final=_finite_or_str(g.wealth_final), trajectory=None) for g in games
        ],
    }


def _finite_or_str(x: float) -> float | str:
    # The log form is authoritative; an overflowing linear value serializes
    # as the string "inf" to stay inside strict JSON.
    return "inf" if math.isinf(x) else x


def emit_report(report: AuditReport, sink: IO[str]) -> None:
    """Serialize a report as one JSON document with stable key order: the
    :func:`report_to_dict` form, in strict JSON, so an infinite linear
    wealth is written as the string "inf"."""
    json.dump(report_to_dict(report), sink, sort_keys=True, indent=2)
    sink.write("\n")


def write_trajectory_csv(report: AuditReport, sink: IO[str]) -> None:
    """Plot-ready wealth path: (step, wealth) rows, with a game_id column
    when several games ran.  Wealth is written in linear form, with the
    bytes one ``csv.writer`` row per step gives: a float is its ``repr``,
    and no game id needs quoting."""
    if report.per_game is not None:
        sink.write("step,wealth,game_id\n")
        for game in report.per_game:
            _write_wealth_rows(sink, game.trajectory or [], f",{game.game_id}\n")
    else:
        sink.write("step,wealth\n")
        _write_wealth_rows(sink, report.trajectory or [], "\n")


# Rows formatted per write: one write per block, and memory bounded by the
# block rather than by the trajectory.
_ROWS_PER_WRITE = 4096


def _write_wealth_rows(sink: IO[str], trajectory: list[tuple[int, float]], end: str) -> None:
    """``step,wealth`` plus ``end`` for each (step, log wealth) pair, by an
    inlined ``wealth_from_log`` that still calls it past 709."""
    exp = math.exp
    for i in range(0, len(trajectory), _ROWS_PER_WRITE):
        sink.write("".join([
            f"{step},{(exp(lw) if lw <= 709.0 else wealth_from_log(lw))!r}{end}"
            for step, lw in trajectory[i : i + _ROWS_PER_WRITE]
        ]))


def write_summary_csv(rows: Iterable[dict], sink: IO[str]) -> None:
    """Monte Carlo summaries keyed by (scenario, alpha, strategy)."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(SUMMARY_COLUMNS)
    for row in rows:
        writer.writerow([row[col] for col in SUMMARY_COLUMNS])
