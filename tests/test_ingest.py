"""Parsing, validation, and deterministic serialization."""
import csv
import io
import json
import math
import warnings
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqaudit import ingest
from seqaudit.columns import parse_columns, run_columns
from seqaudit.core import (
    AuditConfig,
    AuditRecord,
    Batched,
    Composite,
    Decision,
    DecisionKind,
    IngestError,
    Simple,
    ValidationError,
    strategy_from_dict,
    wealth_from_log,
)
from seqaudit.engine import run_stream
from seqaudit.ingest import (
    emit_report,
    parse_stream,
    record_from_dict,
    report_to_dict,
    write_summary_csv,
    write_trajectory_csv,
)

from conftest import bernoulli_pair_stream


def test_parse_minimal_jsonl_line():
    (rec,) = list(parse_stream(io.StringIO('{"t": 1, "group": 0, "y_hat": 0.7}\n')))
    assert rec == AuditRecord(t=1, group=0, y_hat=0.7)


def test_parse_reports_line_numbers_on_range_error():
    src = io.StringIO('{"t": 1, "group": 0, "y_hat": 0.7}\n{"t": 2, "group": 0, "y_hat": 1.3}\n')
    with pytest.raises(IngestError, match="line 2") as err:
        list(parse_stream(src))
    assert "[0, 1]" in str(err.value)


def test_parse_rejects_non_monotone_time_per_group():
    src = io.StringIO(
        '{"t": 5, "group": 0, "y_hat": 0.5}\n'
        '{"t": 4, "group": 1, "y_hat": 0.5}\n'  # other group: fine
        '{"t": 5, "group": 0, "y_hat": 0.5}\n'  # repeat for group 0: error
    )
    with pytest.raises(IngestError, match="line 3"):
        list(parse_stream(src))


def test_parse_gaps_in_time_are_fine():
    src = io.StringIO('{"t": 1, "group": 0, "y_hat": 0.5}\n{"t": 100, "group": 0, "y_hat": 0.5}\n')
    assert len(list(parse_stream(src))) == 2


def test_unknown_keys_strict_vs_lenient():
    line = '{"t": 1, "group": 0, "y_hat": 0.5, "note": "hi"}\n'
    with pytest.raises(IngestError, match="unknown keys"):
        list(parse_stream(io.StringIO(line)))
    with pytest.warns(UserWarning, match="unknown keys"):
        (rec,) = list(parse_stream(io.StringIO(line), mode="lenient"))
    assert rec.y_hat == 0.5


def test_malformed_json_and_bad_mode():
    with pytest.raises(IngestError, match="invalid JSON"):
        list(parse_stream(io.StringIO("{not json}\n")))
    with pytest.raises(ValidationError):
        parse_stream(io.StringIO(""), mode="sloppy")
    with pytest.raises(ValidationError):
        parse_stream(io.StringIO(""), format="parquet")


def test_propensity_fields_parse_and_weight_downstream():
    src = io.StringIO('{"t": 5, "group": 1, "y_hat": 0.2, "propensity": 0.25, "density": 0.5}\n')
    (rec,) = list(parse_stream(src))
    assert rec.density / rec.propensity == pytest.approx(2.0)


def test_csv_round_trip_and_header_validation():
    text = (
        "t,group,y_hat,propensity,density,density_estimate\n"
        "1,0,0.7,0.25,0.5,\n"
        "1,1,0.2,,,\n"
        "2,0,0.4,0.3,,0.9\n"
    )
    records = [
        AuditRecord(t=1, group=0, y_hat=0.7, propensity=0.25, density=0.5),
        AuditRecord(t=1, group=1, y_hat=0.2),
        AuditRecord(t=2, group=0, y_hat=0.4, density_estimate=0.9, propensity=0.3),
    ]
    parsed = list(parse_stream(io.StringIO(text), format="csv"))
    assert parsed == records

    bad = "t,group,y_hat,color\n1,0,0.5,red\n"
    with pytest.raises(IngestError, match="unknown columns"):
        list(parse_stream(io.StringIO(bad), format="csv"))
    with pytest.warns(UserWarning):
        assert len(list(parse_stream(io.StringIO(bad), format="csv", mode="lenient"))) == 1
    headerless = "1,0,0.5\n"  # first row is always the header
    with pytest.raises(IngestError):
        list(parse_stream(io.StringIO(headerless), format="csv"))
    missing = "t,group\n1,0\n"
    with pytest.raises(IngestError, match="missing required columns"):
        list(parse_stream(io.StringIO(missing), format="csv"))
    # Every row holds one cell per header column, and no column is named
    # twice; an empty row is still skipped.
    ragged = [
        ("t,group,y_hat\n1,0,0.5\n\n1,1,0.5,0.7,junk\n", r"^line 4: 5 cells in a row under 3 columns$"),
        ("t,group,y_hat\n1,0,0.5\n1,1\n", r"^line 3: 2 cells in a row under 3 columns$"),
        ("t,group,y_hat,y_hat\n1,0,0.5,0.9\n", r"^line 1: repeated columns \['y_hat'\]$"),
        ("t,group,y_hat,y_hat\n1,0,0.5,\n", r"^line 1: repeated columns \['y_hat'\]$"),
    ]
    for text, message in ragged:
        for mode in ("strict", "lenient"):
            with pytest.raises(IngestError, match=message):
                list(parse_stream(io.StringIO(text), format="csv", mode=mode))
            with pytest.raises(IngestError, match=message):
                list(parse_columns(io.StringIO(text), format="csv", mode=mode))


def test_jsonl_round_trip_bit_identical():
    text = (
        '{"density": 0.12345678901234568, "group": 0, "propensity": 0.14285714285714285, '
        '"t": 3, "y_hat": 0.3333333333333333}\n'
        '{"group": 1, "t": 4, "y_hat": 0.9999999999999999}\n'
    )
    records = [
        AuditRecord(t=3, group=0, y_hat=1 / 3, propensity=1 / 7, density=0.123456789012345678),
        AuditRecord(t=4, group=1, y_hat=0.9999999999999999),
    ]
    parsed = list(parse_stream(io.StringIO(text)))
    assert parsed == records  # the shortest repr of each float reads back exactly


def test_record_dict_validation():
    with pytest.raises(IngestError, match="missing required keys"):
        record_from_dict({"t": 1, "group": 0}, line_no=7)
    rec = record_from_dict({"t": 1, "group": 0, "y_hat": 0.25})
    assert rec == AuditRecord(t=1, group=0, y_hat=0.25)


_INT_FIELDS = ("t", "group")
_FLOAT_FIELDS = ("y_hat", "propensity", "density", "density_estimate")
_FIELD_VALUES = st.one_of(
    st.integers(-2, 4),
    st.sampled_from([2**63, -(2**63) - 1, 2**64 + 1, 10**400]),
    st.integers(-2, 4).map(float),
    st.floats(-0.5, 1.5, allow_nan=False),
    st.booleans(),
    st.sampled_from(["1", "2.0", " 3 ", "0.5", "1e3", "nan", "-inf", "1_0", "abc", ""]),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
_GOOD_VALUES = {
    **dict.fromkeys(_INT_FIELDS, st.integers(1, 2**64)),
    **dict.fromkeys(_FLOAT_FIELDS, st.floats(0.0, 1.0)),
}
_VALUES = {key: st.one_of(good, _FIELD_VALUES) for key, good in _GOOD_VALUES.items()}
_REQUIRED = ("t", "group", "y_hat")
_LINE_DICTS = st.one_of(
    st.fixed_dictionaries(  # clean lines, the common case
        {key: _GOOD_VALUES[key] for key in _REQUIRED},
        optional={key: _GOOD_VALUES[key] for key in _FLOAT_FIELDS[1:]},
    ),
    st.fixed_dictionaries(
        {key: _VALUES[key] for key in _REQUIRED},
        optional={key: _VALUES[key] for key in _FLOAT_FIELDS[1:]} | {"note": _FIELD_VALUES},
    ),
    st.fixed_dictionaries({}, optional=_VALUES | {"note": _FIELD_VALUES}),
)


def _typing_rules(d: dict, mode: str):
    """The documented typing rules of record_from_dict, written out: the
    record's fields, each with its type, or the IngestError text.  Unknown
    keys refuse the line in strict mode and warn in lenient mode; then
    every required key must be present.  Each field converts, in field
    order: a bool is never a number, a string is one only in lenient mode
    (through int() or float()), an int field takes only integral values,
    and a failing int() or float() is a malformed field.  The record's
    range checks come after every conversion."""
    unknown = sorted(d.keys() - {*_INT_FIELDS, *_FLOAT_FIELDS})
    if unknown and mode == "strict":
        return f"line 7: unknown keys {unknown}"
    missing = [key for key in _REQUIRED if key not in d]
    if missing:
        return f"line 7: missing required keys {missing}"
    values = []
    for key in (*_INT_FIELDS, *_FLOAT_FIELDS):
        kind = int if key in _INT_FIELDS else float
        value = d.get(key)
        if type(value) is kind or (value is None and key in _FLOAT_FIELDS[1:]):
            values.append(value)
        elif isinstance(value, bool):
            return f"line 7: {key} must be a number, got {value!r}"
        elif isinstance(value, str) and mode == "strict":
            return f"line 7: {key} must be a JSON number, not a string, got {value!r}"
        elif kind is int and isinstance(value, float) and not value.is_integer():
            return f"line 7: {key} must be an integer, got {value!r}"
        else:
            try:
                values.append(kind(value))
            except (TypeError, ValueError, OverflowError) as exc:
                return f"line 7: malformed field: {exc}"
    t, group, y_hat, *optional = values
    if t < 1:
        return f"line 7: t must be a positive integer, got {t!r}"
    if group < 0:
        return f"line 7: group must be a nonnegative integer, got {group!r}"
    if not 0.0 <= y_hat <= 1.0:
        return f"line 7: y_hat must lie in [0, 1], got {y_hat!r}"
    for key, value in zip(_FLOAT_FIELDS[1:], optional):
        if key == "density" and value is not None and not (math.isfinite(value) and value >= 0.0):
            return f"line 7: density must be a nonnegative finite real, got {value!r}"
        if key != "density" and value is not None and not (math.isfinite(value) and value > 0.0):
            return f"line 7: {key} must be a positive finite real, got {value!r}"
    return [(type(v), v) for v in values]


def _typed_outcome(d: dict, mode: str):
    """What record_from_dict gives for ``d``, as _typing_rules writes it,
    and the warnings it gives, which _typing_rules leaves out: one for the
    unknown keys of a lenient line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = [(type(v), v) for v in record_from_dict(d, 7, mode)]
        except IngestError as exc:
            got = str(exc)
    unknown = sorted(d.keys() - {*_INT_FIELDS, *_FLOAT_FIELDS})
    expected = [f"line 7: ignoring unknown keys {unknown}"] if unknown and mode == "lenient" else []
    assert [str(w.message) for w in caught] == expected
    return got


@pytest.mark.parametrize("mode", ["strict", "lenient"])
@given(d=_LINE_DICTS)
@settings(max_examples=250, deadline=None)
def test_record_from_dict_follows_the_typing_rules(mode, d):
    assert _typed_outcome(d, mode) == _typing_rules(d, mode)


_ODD_VALUES = [
    0, 3, 2**63, -(2**63) - 1, 10**400, 0.0, 2.0, 0.5, 1.5, -0.25, True, False,
    "1", "0.5", " 3 ", "nan", "abc", "", None, math.nan, math.inf, -math.inf,
]


@pytest.mark.parametrize("mode", ["strict", "lenient"])
def test_record_from_dict_types_each_field_by_the_rules(mode):
    """Each field of a clean line in turn, and an unknown key, takes each
    kind of value the rules tell apart or goes missing, so the common
    case's exact-type test meets every one of them next to clean fields."""
    clean = {"t": 2, "group": 1, "y_hat": 0.5, "propensity": 0.5, "density": 0.25, "density_estimate": 0.25}
    for key in [*clean, "note"]:
        cases = [{k: v for k, v in clean.items() if k != key}]
        cases += [{**clean, key: value} for value in _ODD_VALUES]
        for d in cases:
            assert _typed_outcome(d, mode) == _typing_rules(d, mode), d


_CLEAN_LINES = [
    {"t": 1, "group": 0, "y_hat": 0.0},
    {"t": 1, "group": 1, "y_hat": 1.0, "propensity": 0.5, "density": 0.0},
    {"t": 2**70, "group": 0, "y_hat": 0.5, "density_estimate": 1e300},
    {"y_hat": 0.25, "density": 0.25, "propensity": 1.5, "group": 3, "t": 4, "density_estimate": 0.5},
]


def test_clean_lines_skip_the_checks_of_the_full_path():
    """A clean JSONL line is built by record_from_dict's one test, without
    a field conversion or AuditRecord.__new__."""
    text = "".join(json.dumps(d) + "\n" for d in _CLEAN_LINES)
    with (
        mock.patch.object(AuditRecord, "__new__", wraps=AuditRecord.__new__) as new,
        mock.patch.object(ingest, "_number", wraps=ingest._number) as number,
    ):
        records = list(parse_stream(io.StringIO(text)))
    assert new.call_count == number.call_count == 0
    assert records == [AuditRecord(**d) for d in _CLEAN_LINES]


@pytest.mark.parametrize(
    "line, mode, conversions",
    [
        ({"t": 2, "group": 1, "y_hat": 1}, "strict", 3),  # an integral y_hat
        ({"t": 2, "group": 1, "y_hat": 0.5, "density": None}, "strict", 3),
        ({"t": 2, "group": 1, "y_hat": 0.5, "note": 0.5}, "lenient", 3),
    ],
)
def test_other_lines_take_the_full_path(line, mode, conversions):
    with (
        mock.patch.object(AuditRecord, "__new__", wraps=AuditRecord.__new__) as new,
        mock.patch.object(ingest, "_number", wraps=ingest._number) as number,
        warnings.catch_warnings(record=True) as caught,
    ):
        warnings.simplefilter("always")
        (record,) = parse_stream(io.StringIO(json.dumps(line) + "\n"), mode=mode)
    assert (new.call_count, number.call_count) == (1, conversions)
    assert len(caught) == ("note" in line)
    assert record == AuditRecord(t=2, group=1, y_hat=float(line["y_hat"]))


_ODD_LINES = st.builds(
    lambda key, value: {"t": 2, "group": 1, "y_hat": 0.5, "propensity": 0.5, "density": 0.25, key: value},
    st.sampled_from([*_INT_FIELDS, *_FLOAT_FIELDS, "note"]),
    st.sampled_from(_ODD_VALUES),
)


@pytest.mark.parametrize("mode", ["strict", "lenient"])
@given(d=st.one_of(_LINE_DICTS, _ODD_LINES))
@settings(max_examples=250, deadline=None)
def test_each_record_is_the_one_audit_record_builds(mode, d):
    """Whatever path builds a record, AuditRecord builds the same one from
    its fields, with the same field types."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            record = record_from_dict(d, 7, mode)
        except IngestError:
            return
    rebuilt = AuditRecord(*record)
    assert type(record) is AuditRecord and rebuilt == record
    assert list(map(type, rebuilt)) == list(map(type, record))


@pytest.mark.parametrize(
    "fields, mode, reason",
    [
        ({"t": 1.9}, "strict", "t must be an integer, got 1.9"),
        ({"t": 1.9}, "lenient", "t must be an integer, got 1.9"),
        ({"group": 0.5}, "lenient", "group must be an integer, got 0.5"),
        ({"t": True}, "strict", "t must be a number, got True"),
        ({"group": True}, "strict", "group must be a number, got True"),
        ({"group": True}, "lenient", "group must be a number, got True"),
        ({"y_hat": False}, "lenient", "y_hat must be a number, got False"),
        ({"propensity": True, "density": 0.5}, "strict", "propensity must be a number, got True"),
        ({"density_estimate": True}, "lenient", "density_estimate must be a number, got True"),
        ({"y_hat": "0.5"}, "strict", "y_hat must be a JSON number, not a string, got '0.5'"),
        ({"t": "2"}, "strict", "t must be a JSON number, not a string, got '2'"),
        ({"group": "1"}, "strict", "group must be a JSON number, not a string, got '1'"),
        ({"density": "0.5"}, "strict", "density must be a JSON number, not a string, got '0.5'"),
        ({"t": "1.9"}, "lenient", "malformed field"),
    ],
)
def test_jsonl_typing_rejections(fields, mode, reason):
    line = json.dumps({"t": 2, "group": 1, "y_hat": 0.5, **fields})
    src = io.StringIO('{"t": 1, "group": 1, "y_hat": 0.5}\n' + line + "\n")
    with pytest.raises(IngestError) as err:
        list(parse_stream(src, mode=mode))
    assert err.value.line_no == 2
    assert err.value.reason.startswith(reason)


def test_jsonl_typing_accepts_integral_numbers_and_lenient_strings():
    (strict,) = parse_stream(io.StringIO('{"t": 2.0, "group": 1, "y_hat": 1}\n'))
    assert strict == AuditRecord(t=2, group=1, y_hat=1.0)
    assert type(strict.t) is int and type(strict.y_hat) is float
    line = '{"t": "3", "group": "0", "y_hat": "0.25", "propensity": "0.5", "density": "0.5"}\n'
    (lenient,) = parse_stream(io.StringIO(line), mode="lenient")
    assert lenient == AuditRecord(t=3, group=0, y_hat=0.25, propensity=0.5, density=0.5)


def test_csv_keeps_converting_text_cells():
    (rec,) = parse_stream(io.StringIO("t,group,y_hat\n4,1,0.5\n"), format="csv")
    assert rec == AuditRecord(t=4, group=1, y_hat=0.5)
    with pytest.raises(IngestError, match="line 2: malformed field"):
        list(parse_stream(io.StringIO("t,group,y_hat\n1.9,0,0.5\n"), format="csv"))


_RECORD = '{"t": 1, "group": 0, "y_hat": 0.5}'


@pytest.mark.parametrize(
    "line",
    [
        "  " + _RECORD + "\n",
        "\t" + _RECORD + "\n",
        _RECORD + " \x0c\n",
        _RECORD + "\r\n",
        _RECORD + "\r",
        _RECORD,
        _RECORD + " trailing\n",
        _RECORD + "{}\n",
        _RECORD + ",\n",
        '{"t": 1, "group": 0, "y_hat": NaN}\n',
        '{"t": 1, "group": 0, "y_hat": 0.5, "propensity": Infinity}\n',
        '{"t": 1, "group": 0, "y_hat": -Infinity}\n',
        "[" + _RECORD + "]\n",
        '"text"\n',
        "3\n",
        '{"t": 1, "group": 0, "y_hat": 0.9, "y_hat": 0.5}\n',
        '{"t": 1, "group": 1, "group": 0, "y_hat": 0.5}\n',
        "\n",
        "  \t\n",
        "\r\n",
        "",
        "{not json}\n",
        '{"t": 1, "group": 0,\n',
        "\ufeff" + _RECORD + "\n",
    ],
)
def test_decoder_matches_json_loads(line):
    """A line parses to the record, or fails with the error text, that
    json.loads followed by record_from_dict gives."""

    def reference():
        if not line.strip():
            return []
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IngestError(1, f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise IngestError(1, "each line must hold one JSON object")
        return [record_from_dict(obj, 1)]

    def outcome(parse):
        try:
            return parse()
        except IngestError as exc:
            return str(exc)

    assert outcome(lambda: list(parse_stream(io.StringIO(line)))) == outcome(reference)


def _report(randomized=False, composite=False, horizon=100, seed=5):
    strategy = Composite(epsilon=0.1) if composite else AuditConfig(alpha=0.05).strategy
    config = AuditConfig(
        alpha=0.05, strategy=strategy, randomized_final_step=randomized, seed=seed
    )
    stream = bernoulli_pair_stream(0.6, 0.4, horizon, seed=seed)
    return run_stream(config, stream)


def test_report_round_trip_identity():
    """The written document loads as report_to_dict's form, whose fields
    hold the report's values exactly, trajectories aside."""
    for report in (_report(), _report(randomized=True), _report(composite=True)):
        buf = io.StringIO()
        emit_report(report, buf)
        doc = json.loads(buf.getvalue())
        assert doc == report_to_dict(report)
        decision, config = doc["decision"], doc["config"]
        assert Decision(DecisionKind(decision["kind"]), decision["tau"], decision["u_draw"]) == report.decision
        assert AuditConfig(**{**config, "strategy": strategy_from_dict(config["strategy"])}) == report.config_echo
        assert (doc["wealth_final"], doc["log_wealth_final"]) == (report.wealth_final, report.log_wealth_final)
        # The document leaves the trajectories the report holds to the CSV writer.
        assert report.trajectory and all(g.trajectory for g in report.per_game or ())
        assert doc["trajectory"] is None
        assert all(g["trajectory"] is None for g in doc["per_game"] or ())
        keys = ("game_id", "log_wealth_final", "wealth_final", "rejected", "tau")
        games = [[getattr(g, key) for key in keys] for g in report.per_game or ()]
        assert [[g[key] for key in keys] for g in doc["per_game"] or ()] == games


def test_report_serialization_deterministic():
    report = _report()
    a, b = io.StringIO(), io.StringIO()
    emit_report(report, a)
    emit_report(report, b)
    assert a.getvalue() == b.getvalue()


def test_report_document_fields():
    report = _report(randomized=True)
    doc = report_to_dict(report)
    assert doc["config"]["alpha"] == 0.05
    assert doc["config"]["seed"] == 5
    assert doc["decision"]["kind"] in (
        "reject", "continue", "final_randomized_reject", "final_fail_to_reject",
    )
    assert "log_wealth_final" in doc and "wealth_final" in doc
    assert json.loads(json.dumps(doc)) == doc


def test_report_reject_fields_pass_through():
    report = _report(horizon=4000)
    assert report.decision.kind.value == "reject"
    doc = report_to_dict(report)
    assert doc["decision"]["tau"] == report.decision.tau


def test_infinite_wealth_serializes():
    """An overflowing linear wealth is written as the string "inf", so the
    document stays strict JSON."""

    def refuse(name):
        raise AssertionError(f"{name} is not strict JSON")

    report = replace(_report(composite=True), wealth_final=math.inf)
    report = replace(report, per_game=[replace(g, wealth_final=math.inf) for g in report.per_game])
    buf = io.StringIO()
    emit_report(report, buf)
    doc = json.loads(buf.getvalue(), parse_constant=refuse)
    assert doc["wealth_final"] == "inf"
    assert [g["wealth_final"] for g in doc["per_game"]] == ["inf", "inf"]
    assert doc["log_wealth_final"] == report.log_wealth_final


def test_parse_columns_refuses_lenient_jsonl(tmp_path):
    """Any lenient JSONL line may warn, so lenient JSONL is parsed record by
    record; lenient CSV, where only the header can warn, stays on columns."""
    path = tmp_path / "audit.jsonl"
    path.write_text('{"t": 1, "group": 0, "y_hat": 0.5}\n')
    with pytest.raises(ValidationError, match="lenient JSONL"):
        parse_columns(path, "jsonl", "lenient")
    (cols,) = parse_columns(io.StringIO("t,group,y_hat\n1,0,0.5\n"), "csv", "lenient")
    assert cols.t.tolist() == [1] and cols.y_hat.tolist() == [0.5]


@pytest.mark.parametrize("strategy", [Simple(), Batched()], ids=["simple", "batched"])
@pytest.mark.parametrize(
    "name, format, text",
    [("empty.jsonl", "jsonl", ""), ("blank.jsonl", "jsonl", "\n  \n\r\n"),
     ("empty.csv", "csv", ""), ("header.csv", "csv", "t,group,y_hat\n")],
    ids=["empty-file", "blank-jsonl", "empty-csv", "header-only-csv"],
)
def test_inputs_without_records_audit_to_continue(name, format, text, strategy, tmp_path):
    """A file, or a text stream, that holds no record gives the same report
    on every route: continue, at log wealth 0.  Batched audits take no
    column route."""
    path = tmp_path / name
    path.write_text(text)
    config = AuditConfig(alpha=0.05, strategy=strategy)
    reports = [run_stream(config, parse_stream(path, format)),
               run_stream(config, parse_stream(io.StringIO(text), format))]
    if not isinstance(strategy, Batched):
        reports.append(run_columns(config, parse_columns(path, format)))
    assert all(report == reports[0] for report in reports)
    assert reports[0].decision.kind is DecisionKind.CONTINUE
    assert reports[0].log_wealth_final == 0.0


def test_parse_columns_keeps_lone_surrogates_of_a_text_stream():
    """A stream opened with errors="surrogateescape" can hold lone
    surrogates; the column route reads the chunk's bytes with them kept, so
    the line still reaches the scalar code, which refuses it as
    parse_stream does."""
    text = '{"t": 1, "group": 0, "y_hat": 0.5}\n{"t": 2, "group": 0, "y_hat": 0.5, "\udcff": 1}\n'
    for parse in (parse_stream, parse_columns):
        with pytest.raises(IngestError, match=r"line 2: unknown keys \['\\udcff'\]"):
            list(parse(io.StringIO(text)))


def test_trajectory_csv_plain_and_per_game():
    report = _report(horizon=50)
    buf = io.StringIO()
    write_trajectory_csv(report, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "step,wealth"
    assert len(lines) == 1 + 50

    comp = _report(composite=True, horizon=30)
    buf = io.StringIO()
    write_trajectory_csv(comp, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "step,wealth,game_id"
    assert len(lines) == 1 + 2 * 30


def _trajectory_csv_by_writer(report):
    """The trajectory CSV as one ``csv.writer`` row per step."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if report.per_game is not None:
        writer.writerow(("step", "wealth", "game_id"))
        for game in report.per_game:
            writer.writerows((step, wealth_from_log(lw), game.game_id) for step, lw in game.trajectory)
    else:
        writer.writerow(("step", "wealth"))
        writer.writerows((step, wealth_from_log(lw)) for step, lw in report.trajectory)
    return buf.getvalue()


@settings(max_examples=100, deadline=None)
@given(
    paths=st.lists(
        st.lists(st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, 709.0, 709.5, 710.0])),
                 max_size=20),
        min_size=2, max_size=2,
    ),
)
def test_trajectory_csv_bytes_equal_a_csv_writer(paths):
    """Log wealths anywhere on the float line, overflow past 709 included,
    give the bytes ``csv.writer`` gives, for one game and for several."""
    report = _report(composite=True, horizon=5)
    games = [replace(g, trajectory=list(enumerate(path, 1))) for g, path in zip(report.per_game, paths)]
    for case in (replace(report, per_game=games), replace(report, per_game=None, trajectory=games[0].trajectory)):
        buf = io.StringIO()
        write_trajectory_csv(case, buf)
        assert buf.getvalue() == _trajectory_csv_by_writer(case)


def test_summary_csv_layout():
    rows = [
        {
            "scenario": "fig1-delta0.2", "alpha": 0.05, "strategy": "simple",
            "fpr_or_power": 1.0, "tau_mean": 123.4, "tau_q10": 80.0,
            "tau_q50": 110.0, "tau_q90": 190.0,
        }
    ]
    buf = io.StringIO()
    write_summary_csv(rows, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "scenario,alpha,strategy,fpr_or_power,tau_mean,tau_q10,tau_q50,tau_q90"
    assert lines[1].startswith("fig1-delta0.2,0.05,simple,1.0,123.4")
