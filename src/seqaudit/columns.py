"""Array routes: records read as numpy column chunks, audited by blocks
of steps, and each strategy's payoff arguments in array form.  The record
path (``cli``, ``core``, ``betting``, ``engine``, ``payoffs``, ``ingest``)
never imports this module at module level, so a live audit on stdin never
loads numpy; a file audit, ``parse_stream`` of a whole strict JSONL source
and ``simulate`` import it where they first need it.
"""
from __future__ import annotations

import json
import math
import re
from collections import deque
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import ingest
from .core import AuditConfig, AuditRecord, AuditReport, RecordColumns, ValidationError
from .engine import STRATEGIES, AuditSession, run_args, session_new, session_step
from .ingest import (
    _OPTIONAL_FIELDS, _RECORD_KEYS, _REQUIRED_KEYS, _check_format, _decode_line, _line_records, _open_lines,
)
from .payoffs import _SCALE_RTOL

# The chunk route reads JSONL this many lines at a time.
CHUNK_LINES = 2048

_NUMBERS = {int, float}
_EXACT_INT = 2**53  # an int up to this size is the same number as a float
_INT_LIMIT = 2**62  # t and group values the vectorised checks clear, well inside int64

# A run of the characters JSON numbers are written in: a value, or digits and
# exponent letters inside a key ("propensity", or "\u0074" for "t").
_NUMBER_RUN = re.compile(rb"[-+0-9.eE]+")
_VALUE_RUN = re.compile(rb":[ \t\n\r]*([-+0-9.eE]+)")  # the run after a key
_RUNS_ONLY = bytes(c if c in b"-+0123456789.eE" else 32 for c in range(256))  # the rest to spaces


def parse_columns(source, format: str = "jsonl", mode: str = "strict") -> Iterator[RecordColumns]:
    """The records :func:`ingest.parse_stream` gives, in file order, as
    column chunks.  ``source`` is a path, bytes or a text stream, and each
    is read a chunk ahead, so a live stream, which must be decided at the
    record that arrives, goes to parse_stream instead; parse_stream takes
    this route itself, record by record, for strict JSONL from a path or
    bytes.  The audit's engine checks each record's group against its own
    group count.  Lenient JSONL is refused: any of its lines may warn, so
    it goes record by record through parse_stream.

    JSONL is read CHUNK_LINES lines at a time, and each chunk is decided
    whole by its layout: the text of its first line with the values cut
    out.  When every line, blank lines aside, is that layout with one JSON
    number in each value slot, and array checks clear each value as the
    scalar code would take it as it is, the chunk is one column chunk, read
    without a dict per line.  Any other chunk, such as one whose lines mix
    layouts (keys in another order, an optional key on some lines only,
    other separators), goes line by line through the scalar code, as every
    CSV row does, since its cells are text.  Its records are yielded up to
    the line the scalar code refuses, whose error is raised at the next
    pull.  So every error and warning is parse_stream's, at the same line,
    and no error about a line past the one the consumer stops at ever
    surfaces."""
    _check_format(format, mode)
    if format == "csv":
        return _record_chunks(ingest.parse_stream(source, "csv", mode))  # by module name, which a wrapper may replace
    if mode == "lenient":
        raise ValidationError("lenient JSONL is parsed record by record, with parse_stream")
    chunks = _jsonl_chunks(*_open_lines(source))
    return chain.from_iterable((c,) if type(c) is RecordColumns else _record_chunks(c) for c in chunks)


def _jsonl_chunks(lines, close: bool) -> Iterator[RecordColumns | Iterator[AuditRecord]]:
    """For each chunk of JSONL lines, a clean chunk's columns, or else the
    scalar code's records of its lines, up to the line it refuses, whose
    error is raised at the next pull; those must be read before the next
    chunk, whose time order starts where they end.  With ``close`` the
    lines are closed however this ends."""
    last_t: dict[int, int] = {}
    first = 1  # the line number of the chunk's first line
    try:
        for chunk in _chunks(lines):
            cols = _clean_columns(list(filter(str.strip, chunk)), last_t)
            numbered = ((n, line) for n, line in enumerate(chunk, start=first) if line.strip())
            yield cols if cols is not None else _line_records(numbered, "strict", last_t)
            first += len(chunk)
    finally:
        if close:
            lines.close()


def _column_records(cols: RecordColumns | Iterator[AuditRecord]) -> Iterator[AuditRecord]:
    """The records of a chunk of :func:`_jsonl_chunks`: the scalar code's as
    they come, a column chunk's built as record_from_dict builds a clean
    line, since its columns passed every check AuditRecord makes.  NaN
    stands for a missing optional value, and a clean chunk's optional
    column is all NaN or holds none."""
    if type(cols) is not RecordColumns:
        return cols
    optional = ([None] * len(col) if np.isnan(col).all() else col.tolist() for col in cols[3:])
    fields = zip(cols.t.tolist(), cols.group.tolist(), cols.y_hat.tolist(), *optional)
    return map(tuple.__new__, repeat(AuditRecord), fields)


def _record_chunks(records: Iterator[AuditRecord]) -> Iterator[RecordColumns]:
    """Column chunks of the records the scalar code gives, CHUNK_LINES at
    most.  An error pulling a record is raised after the chunk of the
    records before it."""
    try:
        for chunk in _chunks(records):
            yield _record_columns(chunk)
    finally:
        records.close()  # closes a CSV file at once, however this generator ends


def _chunks(items: Iterable) -> Iterator[list]:
    """Non-empty lists of CHUNK_LINES items (fewer at the end).  An error
    pulling an item ends the chunks: the items before it come as a chunk,
    and the error is raised on the next pull, so it surfaces after them,
    where parse_stream raises it."""
    items = iter(items)
    while True:
        chunk: list = []
        try:
            chunk.extend(islice(items, CHUNK_LINES))
        except Exception:
            if chunk:
                yield chunk
            raise
        if not chunk:
            return
        yield chunk
        if len(chunk) < CHUNK_LINES:
            return


def _layout(line: str) -> tuple[bytes, list[str | bytes]] | None:
    """The layout of a line the scanner reads as one object of known keys,
    the required ones among them, and numbers only: the line's bytes with
    ``%s`` for each number run (no known key holds a ``%``), and each run's
    key, or its text where it lies inside a key.  None for any other line."""
    obj = _decode_line(line)
    if obj is None or not _REQUIRED_KEYS <= obj.keys() <= _RECORD_KEYS:
        return None
    if not set(map(type, obj.values())) <= _NUMBERS:  # a bool's type is bool
        return None
    text = line.encode() if line.endswith("\n") else line.encode() + b"\n"  # as the body ends
    values = {m.start(1) for m in _VALUE_RUN.finditer(text)}
    if not len(values) == len(obj) == text.count(b":"):  # a key written twice, NaN or Infinity
        return None
    keys = iter(obj)  # in the order the values are written
    slots = [next(keys) if m.start() in values else m.group() for m in _NUMBER_RUN.finditer(text)]
    return _NUMBER_RUN.sub(b"%s", text), slots


def _clean_columns(lines: list[str], last_t: dict[int, int]) -> RecordColumns | None:
    """Columns of a chunk's non-blank lines when each is its first line's
    layout with a JSON number in each value slot, and array checks clear
    each as a line the scalar code accepts as it is, else None.  Every line
    is checked at once, on the chunk's bytes: filling the layout, repeated,
    with the chunk's number runs must give those bytes back, and a run
    inside a key must be the first line's.  Two tests come first, both
    met by every such chunk: its last line has the layout (most chunks that
    mix layouts miss here), and its bytes hold n filled layouts, so the
    repeated layout is no larger than the chunk.  Each column's runs decode by
    one json.loads, so the JSON grammar holds and each value is the object
    decode's.  The array checks: t and group are ints, with 1 <= t < 2**62
    and 0 <= group < 2**62; other values are floats or ints a float holds
    exactly, in range and finite; and t increases within each group from
    ``last_t``, which is updated only when every check passes."""
    layout = _layout(lines[0]) if lines else None
    if layout is None:
        return None
    template, slots = layout
    n, width = len(lines), len(slots)
    body = "".join(lines).encode("utf-8", "surrogatepass")
    if not body.endswith(b"\n"):  # the file's last line
        body += b"\n"
    if _NUMBER_RUN.sub(b"%s", body[body.rfind(b"\n", 0, -1) + 1 :]) != template:
        return None
    if n * (len(template) - width) > len(body):  # each run fills a 2-byte "%s": bounds template * n
        return None
    runs = body.translate(_RUNS_ONLY).split()
    if len(runs) != n * width or (template * n) % tuple(runs) != body:
        return None
    text = {}
    for i, slot in enumerate(slots):
        if type(slot) is str:
            text[slot] = b",".join(runs[i::width])
        elif runs[i::width].count(slot) != n:
            return None
    t, group, y = _int_column(text["t"], 1), _int_column(text["group"], 0), _float_column(text["y_hat"])
    if t is None or group is None or y is None or not ((y >= 0.0) & (y <= 1.0)).all():
        return None
    optional = [_float_column(text[key]) if key in text else np.full(n, math.nan) for key in _OPTIONAL_FIELDS]
    for key, col in zip(_OPTIONAL_FIELDS, optional):
        if col is None or np.isinf(col).any() or (col < 0.0 if key == "density" else col <= 0.0).any():
            return None
    if not _increasing(group, t, last_t):
        return None
    return RecordColumns(t, group, y, *optional)


def _int_column(text: bytes, lo: int) -> np.ndarray | None:
    """Comma-separated JSON numbers as int64, or None unless each is an int
    in [lo, 2**62)."""
    if b"." in text or b"e" in text or b"E" in text:
        return None
    try:
        col = np.array(json.loads(b"[" + text + b"]"), dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    return col if lo <= col.min() and col.max() < _INT_LIMIT else None


def _float_column(text: bytes) -> np.ndarray | None:
    """Comma-separated JSON numbers as float64, or None unless each is a
    float or an int that a float holds exactly."""
    try:
        values = json.loads(b"[" + text + b"]")
        col = np.array(values, dtype=float)
    except (ValueError, OverflowError):
        return None
    return None if (np.abs(col) > _EXACT_INT).any() and int in map(type, values) else col


def _increasing(group: np.ndarray, t: np.ndarray, last_t: dict[int, int]) -> bool:
    """Whether the time indices increase within each group, starting from
    ``last_t``; if they do, ``last_t`` is updated to each group's last."""
    order = np.argsort(group, kind="stable")
    g, ts = group[order], t[order]
    head = np.empty(len(g), dtype=bool)  # the first row of each group
    head[0] = True
    np.not_equal(g[1:], g[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    prev = np.empty_like(ts)
    prev[1:] = ts[:-1]
    prev[heads] = [min(last_t.get(k, 0), _INT_LIMIT) for k in g[heads].tolist()]
    if (ts <= prev).any():
        return False
    last = np.append(head[1:], True)
    last_t.update(zip(g[last].tolist(), ts[last].tolist()))
    return True


def _record_columns(records: Sequence[AuditRecord]) -> RecordColumns:
    """Columns of records; ``t`` and ``group`` hold Python ints if one is
    beyond int64."""
    t, group, *floats = zip(*records)
    floats = (np.array(col, dtype=float) for col in floats)  # None as NaN
    return RecordColumns(_int_array(t), _int_array(group), *floats)


def _int_array(values: Sequence[int]) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def block_args(session: AuditSession, y: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Payoff arguments of a block of steps for :func:`engine.run_args`,
    one row per step and one column per game: the session's own step, the
    one the record path runs, called once with one value per group, as
    columns: group b's outputs ``y[:, b]``, paired with its weights
    ``w[:, b]`` for a weighted step.  The paired steps use only + - * /,
    which numpy applies to each float64 element as Python applies it to a
    float, so each row holds the record path's bits.  Weights are checked
    where their records arrive, not here."""
    values = list(y.T) if w is None else list(zip(y.T, w.T))
    return np.array(session.row.step(session, values)).T


def batched_args(y: np.ndarray) -> np.ndarray:
    """Batched arguments of a stream that brings one record per group, in
    group order, at every step: the group-0 record abstains and the group-1
    record fires on two one-record batches, whose means are the outputs.
    The abstentions are the rows g = 0.0 of the records that join a batch."""
    out = np.zeros((2 * len(y), 1))
    out[1::2] = y[:, :1] - y[:, 1:]
    return out


def refused_weights(w: np.ndarray, scale: float, delta_min: float) -> np.ndarray:
    """Where :func:`payoffs.propensity_context` refuses a weight of the array
    ``w``, NaN (a record without its weight fields) included.  Comparing NaN
    or infinity raises no floating-point error."""
    return ~((w > 0.0) & (w < np.inf) & (scale * w <= 0.5 * delta_min * (1.0 + _SCALE_RTOL)))


def run_columns(
    config: AuditConfig,
    chunks: Iterable[RecordColumns],
    record_trajectory: bool = True,
) -> AuditReport:
    """Driver over records held as columns, the chunks that
    :func:`parse_columns` yields, for every strategy that pairs one record
    per group into a step.  It pairs, stops and ends as
    :func:`engine.run_stream` does on the same records, errors included,
    so both give the same report: a record whose group lies outside the
    audit's raises its error once the steps before it have run.  The
    pairing runs on arrays, :func:`block_args` computes the arguments with
    the strategy's own step and :func:`engine.run_args` replays them; a
    chunk is pulled only when the steps before it ran without a terminal
    decision."""
    if STRATEGIES[type(config.strategy)].batched:
        raise ValidationError("batched audits take one record per step: run them through run_stream")
    return run_args(config, _paired_args(config, chunks), record_trajectory)


class _Backlog:
    """One group's unpaired records, oldest first: pieces of one array per
    value the strategy's step reads, each piece the records of one chunk,
    and how many records of the oldest piece are already paired.  A waiting
    record costs its values' bytes, however long it waits."""

    __slots__ = ("pieces", "head", "size")

    def __init__(self):
        self.pieces: deque[list[np.ndarray]] = deque()
        self.head = 0
        self.size = 0

    def push(self, values: list[np.ndarray]) -> None:
        if len(values[0]):
            self.pieces.append(values)
            self.size += len(values[0])

    def take(self, m: int) -> list[np.ndarray]:
        """The values of the ``m`` oldest records, which leave the backlog."""
        self.size -= m
        parts = []
        while m:
            piece = self.pieces[0]
            end = min(self.head + m, len(piece[0]))
            parts.append([col[self.head:end] for col in piece])
            m -= end - self.head
            if end == len(piece[0]):
                self.pieces.popleft()
                self.head = 0
            else:
                self.head = end
        return parts[0] if len(parts) == 1 else [np.concatenate(cols) for cols in zip(*parts)]


def _paired_args(config: AuditConfig, chunks: Iterable[RecordColumns]) -> Iterable[np.ndarray]:
    """Argument blocks of the steps that the column chunks complete, first
    in first out: the k-th record of every group forms step k.  A record
    that :func:`engine.session_step` refuses as it arrives, by its group or
    its weight, ends the blocks, after the steps of the records before it,
    with the error the record path raises there.  A weighted strategy's
    records wait with the values its step reads: output and the weight
    the refusal cut derived."""
    session = session_new(config, record_trajectory=False)
    weight = session.row.weight
    backlogs = [_Backlog() for _ in range(config.group_count)]
    for cols in chunks:
        masks = [cols.group == group for group in range(config.group_count)]
        values = [cols.y_hat]
        refused = ~np.logical_or.reduce(masks)
        if weight is not None:
            with np.errstate(all="ignore"):  # the record path divides silently too
                values.append(getattr(cols, weight) / cols.propensity)
            refused |= refused_weights(values[1], config.strategy.scale, config.strategy.delta_min)
        cut = int(np.argmax(refused)) if refused.any() else len(refused)
        for mask, backlog in zip(masks, backlogs):
            backlog.push([col[:cut][mask[:cut]] for col in values])
        steps = min(backlog.size for backlog in backlogs)
        if steps:
            yield block_args(session, *(np.array(per_group).T for per_group in zip(*(b.take(steps) for b in backlogs))))
        if cut < len(refused):  # the session refuses that record, NaN read as a missing field
            record = AuditRecord(*(None if v != v else v for v in (col[cut : cut + 1].tolist()[0] for col in cols)))
            session_step(session, record)
