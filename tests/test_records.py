from __future__ import annotations

import io
import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from streamscore.records import FlowRecord, FlowTable, LogFormatError, read_jsonl, write_jsonl


def sample_records() -> list[FlowRecord]:
    return [
        FlowRecord(client_id=0, spawn_s=0.0, complete_s=0.16, fct_s=0.16, bytes=500, flows=2),
        FlowRecord(
            client_id=1,
            spawn_s=0.5,
            complete_s=0.7,
            fct_s=0.2,
            bytes=0,
            flows=2,
            status="error",
            error="connection refused",
        ),
    ]


def test_round_trip_preserves_records(tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(path, sample_records(), run_meta={"concurrency": 2})
    meta, records = read_jsonl(path)
    assert meta == {"concurrency": 2}
    assert list(records) == sample_records()


def test_schema_field_names_are_stable(tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(path, sample_records(), run_meta={})
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert "run" in header
    first = json.loads(lines[1])
    assert set(first) == {
        "client_id",
        "spawn_s",
        "complete_s",
        "fct_s",
        "bytes",
        "flows",
        "status",
    }
    second = json.loads(lines[2])
    assert second["status"] == "error"
    assert second["error"] == "connection refused"


def test_read_tolerates_missing_header_and_blank_lines():
    body = '\n{"client_id": 3, "spawn_s": 0, "complete_s": 1, "fct_s": 1, "bytes": 9, "flows": 1, "status": "ok"}\n\n'
    meta, records = read_jsonl(io.StringIO(body))
    assert meta == {}
    assert records[0].client_id == 3


def test_malformed_lines_raise():
    with pytest.raises(LogFormatError):
        read_jsonl(io.StringIO("not json\n"))
    with pytest.raises(LogFormatError):
        read_jsonl(io.StringIO('{"client_id": 1}\n'))
    with pytest.raises(LogFormatError):
        read_jsonl(io.StringIO("[1, 2]\n"))


def test_record_validation():
    with pytest.raises(ValueError):
        FlowRecord(client_id=0, spawn_s=2.0, complete_s=1.0, fct_s=-1.0, bytes=1, flows=1)
    with pytest.raises(ValueError):
        FlowRecord(
            client_id=0, spawn_s=0.0, complete_s=1.0, fct_s=1.0, bytes=1, flows=1, status="meh"
        )


VALID = dict(client_id=0, spawn_s=0.0, complete_s=1.0, fct_s=1.0, bytes=1, flows=1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("spawn_s", math.nan),
        ("spawn_s", -math.inf),
        ("complete_s", math.nan),
        ("complete_s", math.inf),
        ("fct_s", math.nan),
        ("fct_s", math.inf),
        ("fct_s", -7.0),
        ("bytes", -5),
        ("flows", 0),
    ],
)
def test_record_rejects_non_finite_and_negative(field, value):
    with pytest.raises(ValueError, match=field):
        FlowRecord(**{**VALID, field: value})


# each bad line follows one valid record; the first three are the records of
# a log that used to analyze to min=nan and p50=-7.0 without an error
GOOD_LINE = '{"client_id": 0, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9, "flows": 1, "status": "ok"}'
BAD_LINES = [
    ('{"client_id": 1, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": NaN, "bytes": 9, "flows": 1}', "NaN"),
    ('{"client_id": 2, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": -7, "bytes": -5, "flows": 0}', "fct_s"),
    ('{"client_id": 0, "spawn_s": 2.0, "complete_s": 3.0, "fct_s": 1.0, "bytes": 9, "flows": 1}', "duplicate client_id 0"),
    ('{"client_id": 3, "spawn_s": 0.0, "complete_s": 1e400, "fct_s": 1.0, "bytes": 9, "flows": 1}', "complete_s"),
    ('{"client_id": 3, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": Infinity, "flows": 1}', "Infinity"),
    ('{"client_id": 3, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 1e400, "flows": 1}', "infinity"),
    ('{"client_id": 3, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9}', "missing field 'flows'"),
    ('{"client_id": 3, "spawn_s": "soon", "complete_s": 1.0, "fct_s": 1.0, "bytes": 9, "flows": 1}', "bad flow record"),
]


@pytest.mark.parametrize("bad, reason", BAD_LINES)
def test_read_rejects_bad_records_naming_the_line(bad, reason):
    body = '{"run": {}}\n' + GOOD_LINE + "\n\n" + bad + "\n"
    with pytest.raises(LogFormatError, match=r"^line 4: ") as info:
        read_jsonl(io.StringIO(body))
    assert reason in str(info.value)


@pytest.mark.parametrize(
    "body, lineno",
    [
        ('{"run": {"a": 1}}\n' + GOOD_LINE + '\n{"run": {"a": 2}}\n', 3),
        ('{"run": {}}\n\n{"run": {}}\n', 3),
        (GOOD_LINE + '\n{"run": {"a": 2}}\n', 2),
    ],
)
def test_read_rejects_a_run_header_after_the_first_line(body, lineno):
    # a second header used to replace the first one silently
    with pytest.raises(LogFormatError) as info:
        read_jsonl(io.StringIO(body))
    assert str(info.value) == f"line {lineno}: a run header may only open the log"


def test_header_after_blank_lines_still_opens_the_log():
    meta, records = read_jsonl(io.StringIO('\n\n{"run": {"a": 1}}\n' + GOOD_LINE + "\n"))
    assert meta == {"a": 1} and len(records) == 1


@pytest.mark.parametrize("line", ["not json", '{"a": 1} x', '{"a": 1}  {}', "{", '{"a": 1} \t]'])
def test_read_reports_json_errors_like_json_loads(line):
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(line)
    with pytest.raises(LogFormatError) as info:
        read_jsonl(io.StringIO(line + "\n"))
    assert str(info.value) == f"line 1: invalid JSON: {expected.value}"


# --- writer: one %-template line per record, equal to json.dumps of the schema ---

finite = st.floats(allow_nan=False, allow_infinity=False)
times = st.one_of(finite, st.integers(-(2**53), 2**53))


@st.composite
def flow_records(draw):
    spawn, complete = sorted((draw(times), draw(times)))
    return FlowRecord(
        client_id=draw(st.integers()),
        spawn_s=spawn,
        complete_s=complete,
        fct_s=draw(st.one_of(st.just(-0.0), finite.map(abs), st.integers(0, 2**53))),
        bytes=draw(st.integers(min_value=0)),
        flows=draw(st.integers(min_value=1)),
        status=draw(st.sampled_from(["ok", "error"])),
        error=draw(st.one_of(st.none(), st.text())),
    )


def schema_dict(record: FlowRecord) -> dict:
    # README field order; error only when set
    obj = {
        "client_id": record.client_id,
        "spawn_s": record.spawn_s,
        "complete_s": record.complete_s,
        "fct_s": record.fct_s,
        "bytes": record.bytes,
        "flows": record.flows,
        "status": record.status,
    }
    if record.error is not None:
        obj["error"] = record.error
    return obj


@given(st.lists(flow_records(), max_size=8, unique_by=lambda r: r.client_id))
@example([
    FlowRecord(-1, -0.0, 5e-324, -0.0, 0, 1, "error", 'say "hi" \\ \x00\x1f\u2028 caf\u00e9 \U0001f600'),
    FlowRecord(2**70, -1.7976931348623157e308, 1.7976931348623157e308, 1e-310, 2**64, 7),
])
def test_written_lines_equal_json_dumps_and_read_back(records):
    buf = io.StringIO()
    write_jsonl(buf, records, run_meta={"source": "test"})
    lines = buf.getvalue().splitlines(keepends=True)
    assert lines[0] == '{"run": {"source": "test"}}\n'
    assert lines[1:] == [json.dumps(schema_dict(r)) + "\n" for r in records]
    buf.seek(0)
    meta, table = read_jsonl(buf)
    assert (meta, list(table)) == ({"source": "test"}, records)


# --- FlowTable: columns, with rows built on demand ---


def test_flow_table_rows_and_columns_agree():
    rows = sample_records()
    table = FlowTable.from_rows(rows)
    assert len(table) == 2
    assert list(table) == rows
    assert table[1] == rows[1] and table[-1] == rows[-1]
    assert table.fct_s == (0.16, 0.2) and table.error == (None, "connection refused")
    assert table.ok_mask() == [True, False]
    assert FlowTable.from_rows(table) is table
    assert len(FlowTable.from_rows([])) == 0 and list(FlowTable()) == []


def test_read_returns_a_table_with_one_shared_status_string(tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(path, sample_records() + [FlowRecord(7, 1.0, 2.0, 1.0, 5, 1)], run_meta={})
    _, table = read_jsonl(path)
    assert isinstance(table, FlowTable)
    assert table.client_id == (0, 1, 7)
    assert table.status == ("ok", "error", "ok") and table.status[0] is table.status[2]
