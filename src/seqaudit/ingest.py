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
from pathlib import Path
from typing import IO, Iterable, Iterator

from .core import (
    AuditConfig,
    AuditRecord,
    AuditReport,
    Decision,
    DecisionKind,
    GameReport,
    IngestError,
    ValidationError,
    strategy_from_dict,
    strategy_to_dict,
    wealth_from_log,
)
from .engine import STRATEGIES

RECORD_FIELDS = ("t", "group", "y_hat", "propensity", "density", "density_estimate")
_REQUIRED_FIELDS = ("t", "group", "y_hat")
_OPTIONAL_FIELDS = ("propensity", "density", "density_estimate")
_RECORD_KEYS = frozenset(RECORD_FIELDS)
_REQUIRED_KEYS = frozenset(_REQUIRED_FIELDS)

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


def record_to_dict(record: AuditRecord) -> dict:
    d = {"t": record.t, "group": record.group, "y_hat": record.y_hat}
    for key in _OPTIONAL_FIELDS:
        value = getattr(record, key)
        if value is not None:
            d[key] = value
    return d


def record_from_dict(d: dict, line_no: int = 0, mode: str = "strict") -> AuditRecord:
    """Build a record from one decoded line.  Numeric fields never take a
    boolean, and ``t`` and ``group`` take only integral values; strict mode
    also refuses strings, while lenient mode (and CSV, whose cells are
    text) converts them with int() and float()."""
    keys = d.keys()
    if not keys <= _RECORD_KEYS:
        unknown = sorted(keys - _RECORD_KEYS)
        if mode == "strict":
            raise IngestError(line_no, f"unknown keys {unknown}")
        warnings.warn(f"line {line_no}: ignoring unknown keys {unknown}", stacklevel=2)
    if not keys >= _REQUIRED_KEYS:
        missing = [k for k in _REQUIRED_FIELDS if k not in d]
        raise IngestError(line_no, f"missing required keys {missing}")
    strict = mode == "strict"
    try:
        t, group, y_hat = d["t"], d["group"], d["y_hat"]
        if type(t) is not int:
            t = _number("t", t, int, strict)
        if type(group) is not int:
            group = _number("group", group, int, strict)
        if type(y_hat) is not float:
            y_hat = _number("y_hat", y_hat, float, strict)
        optional = []
        for key in _OPTIONAL_FIELDS:
            value = d.get(key)
            if value is not None and type(value) is not float:
                value = _number(key, value, float, strict)
            optional.append(value)
        return AuditRecord(t, group, y_hat, *optional)
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


def _open_lines(source) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    return source


def parse_stream(source, format: str = "jsonl", mode: str = "strict") -> Iterator[AuditRecord]:
    """Lazily parse records in file order, enforcing per-group monotone time
    indices as they stream past.  In strict mode the first violation aborts
    with its line number; lenient mode only downgrades unknown keys to
    warnings."""
    if format not in ("jsonl", "csv"):
        raise ValidationError(f"unknown stream format {format!r}")
    if mode not in ("strict", "lenient"):
        raise ValidationError(f"unknown parse mode {mode!r}")
    lines = _open_lines(source)

    def gen() -> Iterator[AuditRecord]:
        last_t: dict[int, int] = {}
        try:
            if format == "jsonl":
                for line_no, line in enumerate(lines, start=1):
                    try:
                        obj, end = _scan_once(line, 0)
                        whole = line[end:] in _LINE_ENDS
                    except (StopIteration, json.JSONDecodeError):
                        whole = False
                    if not whole:
                        if not line.strip():
                            continue
                        try:
                            obj = json.loads(line)
                        except json.JSONDecodeError as exc:
                            raise IngestError(line_no, f"invalid JSON: {exc}") from exc
                    if not isinstance(obj, dict):
                        raise IngestError(line_no, "each line must hold one JSON object")
                    record = record_from_dict(obj, line_no, mode)
                    _check_monotone(record, last_t, line_no)
                    yield record
            else:
                reader = csv.reader(lines)
                header = next(reader, None)
                if header is None:
                    return
                header = [h.strip() for h in header]
                unknown = set(header) - _RECORD_KEYS
                if unknown:
                    if mode == "strict":
                        raise IngestError(1, f"unknown columns {sorted(unknown)}")
                    warnings.warn(f"ignoring unknown columns {sorted(unknown)}", stacklevel=2)
                missing = [k for k in _REQUIRED_FIELDS if k not in header]
                if missing:
                    raise IngestError(1, f"missing required columns {missing}")
                for line_no, row in enumerate(reader, start=2):
                    if not row:
                        continue
                    d = {
                        key: cell
                        for key, cell in zip(header, row)
                        if key in _RECORD_KEYS and cell != ""
                    }
                    record = record_from_dict(d, line_no, mode="lenient")
                    _check_monotone(record, last_t, line_no)
                    yield record
        finally:
            close = getattr(lines, "close", None)
            if close is not None and isinstance(source, (str, Path)):
                close()

    return gen()


def _check_monotone(record: AuditRecord, last_t: dict[int, int], line_no: int) -> None:
    prev = last_t.get(record.group)
    if prev is not None and record.t <= prev:
        raise IngestError(
            line_no,
            f"time index {record.t} not increasing for group {record.group} (last was {prev})",
        )
    last_t[record.group] = record.t


def write_records(records: Iterable[AuditRecord], sink: IO[str], format: str = "jsonl") -> None:
    if format == "jsonl":
        for record in records:
            sink.write(json.dumps(record_to_dict(record), sort_keys=True))
            sink.write("\n")
        return
    if format == "csv":
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(RECORD_FIELDS)
        for record in records:
            writer.writerow(
                ["" if getattr(record, key) is None else getattr(record, key) for key in RECORD_FIELDS]
            )
        return
    raise ValidationError(f"unknown stream format {format!r}")


def _decision_to_dict(decision: Decision) -> dict:
    return {"kind": decision.kind.value, "tau": decision.tau, "u_draw": decision.u_draw}


def _decision_from_dict(d: dict) -> Decision:
    return Decision(kind=DecisionKind(d["kind"]), tau=d.get("tau"), u_draw=d.get("u_draw"))


def _config_to_dict(config: AuditConfig) -> dict:
    return {
        "alpha": config.alpha,
        "strategy": strategy_to_dict(config.strategy),
        "group_count": config.group_count,
        "randomized_final_step": config.randomized_final_step,
        "seed": config.seed,
    }


def _config_from_dict(d: dict) -> AuditConfig:
    return AuditConfig(
        alpha=d["alpha"],
        strategy=strategy_from_dict(d["strategy"]),
        group_count=d["group_count"],
        randomized_final_step=d["randomized_final_step"],
        seed=d["seed"],
    )


def report_to_dict(report: AuditReport) -> dict:
    d = {
        "format": REPORT_FORMAT,
        "decision": _decision_to_dict(report.decision),
        "config": _config_to_dict(report.config_echo),
        "wealth_final": _finite_or_str(report.wealth_final),
        "log_wealth_final": report.log_wealth_final,
        "trajectory": None
        if report.trajectory is None
        else [[step, lw] for step, lw in report.trajectory],
        "per_game": None
        if report.per_game is None
        else [
            {
                "game_id": g.game_id,
                "log_wealth_final": g.log_wealth_final,
                "wealth_final": _finite_or_str(g.wealth_final),
                "rejected": g.rejected,
                "tau": g.tau,
                "trajectory": None
                if g.trajectory is None
                else [[step, lw] for step, lw in g.trajectory],
            }
            for g in report.per_game
        ],
    }
    return d


def report_from_dict(d: dict) -> AuditReport:
    if d.get("format") != REPORT_FORMAT:
        raise ValidationError(f"unknown report format {d.get('format')!r}")
    per_game = None
    if d.get("per_game") is not None:
        per_game = [
            GameReport(
                game_id=g["game_id"],
                log_wealth_final=g["log_wealth_final"],
                wealth_final=_from_finite_or_str(g["wealth_final"]),
                rejected=g["rejected"],
                tau=g.get("tau"),
                trajectory=None
                if g.get("trajectory") is None
                else [(int(step), float(lw)) for step, lw in g["trajectory"]],
            )
            for g in d["per_game"]
        ]
    report = AuditReport(
        decision=_decision_from_dict(d["decision"]),
        config_echo=_config_from_dict(d["config"]),
        wealth_final=_from_finite_or_str(d["wealth_final"]),
        log_wealth_final=d["log_wealth_final"],
        trajectory=None
        if d.get("trajectory") is None
        else [(int(step), float(lw)) for step, lw in d["trajectory"]],
        per_game=per_game,
    )
    config = report.config_echo  # outside input: per_game must match the audit's games
    if (len(STRATEGIES[type(config.strategy)].games(config)) > 1) != (per_game is not None):
        raise ValidationError("per_game must be present exactly for audits with several games")
    return report


def _finite_or_str(x: float) -> float | str:
    # The log form is authoritative; an overflowing linear value serializes
    # as the string "inf" to stay inside strict JSON.
    return "inf" if math.isinf(x) else x


def _from_finite_or_str(x) -> float:
    return math.inf if x == "inf" else float(x)


def emit_report(report: AuditReport, sink: IO[str]) -> None:
    """Serialize a report as one JSON document with stable key order; the
    output round-trips through :func:`parse_report` exactly."""
    json.dump(report_to_dict(report), sink, sort_keys=True, indent=2)
    sink.write("\n")


def parse_report(source) -> AuditReport:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return report_from_dict(json.load(fh))
    return report_from_dict(json.load(source))


def write_trajectory_csv(report: AuditReport, sink: IO[str]) -> None:
    """Plot-ready wealth path: (step, wealth) rows, with a game_id column
    when several games ran.  Wealth is written in linear form."""
    writer = csv.writer(sink, lineterminator="\n")
    if report.per_game is not None:
        writer.writerow(("step", "wealth", "game_id"))
        for game in report.per_game:
            for step, lw in game.trajectory or ():
                writer.writerow((step, wealth_from_log(lw), game.game_id))
    else:
        writer.writerow(("step", "wealth"))
        for step, lw in report.trajectory or ():
            writer.writerow((step, wealth_from_log(lw)))


def write_summary_csv(rows: Iterable[dict], sink: IO[str]) -> None:
    """Monte Carlo summaries keyed by (scenario, alpha, strategy)."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(SUMMARY_COLUMNS)
    for row in rows:
        writer.writerow([row[col] for col in SUMMARY_COLUMNS])
