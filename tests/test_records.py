from __future__ import annotations

import io
import json
import math
from dataclasses import fields

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from streamscore.records import FlowTable, LogFormatError, check_row, read_jsonl, write_jsonl

from conftest import table_of

SAMPLE_ROWS = [
    (0, 0.0, 0.16, 0.16, 500, 2, "ok", None),
    (1, 0.5, 0.7, 0.2, 0, 2, "error", "connection refused"),
]


def sample_records() -> FlowTable:
    return table_of(SAMPLE_ROWS)


def test_round_trip_preserves_records(tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(path, sample_records(), run_meta={"concurrency": 2})
    meta, records = read_jsonl(path)
    assert meta == {"concurrency": 2}
    assert records == sample_records()


def test_schema_field_names_are_stable(tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(path, sample_records(), run_meta={})
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert "run" in header
    # the one schema: the table's columns in order, error last and only when set
    names = [f.name for f in fields(FlowTable)]
    assert names == [
        "client_id", "spawn_s", "complete_s", "fct_s", "bytes", "flows", "status", "error",
    ]
    first = json.loads(lines[1])
    assert list(first) == names[:-1]
    second = json.loads(lines[2])
    assert list(second) == names
    assert second["status"] == "error"
    assert second["error"] == "connection refused"


def test_read_tolerates_missing_header_and_blank_lines():
    body = '\n{"client_id": 3, "spawn_s": 0, "complete_s": 1, "fct_s": 1, "bytes": 9, "flows": 1, "status": "ok"}\n\n'
    meta, records = read_jsonl(io.StringIO(body))
    assert meta == {}
    assert records.client_id == (3,)


def test_malformed_lines_raise():
    with pytest.raises(LogFormatError):
        read_jsonl(io.StringIO("not json\n"))
    with pytest.raises(LogFormatError):
        read_jsonl(io.StringIO('{"client_id": 1}\n'))
    with pytest.raises(LogFormatError):
        read_jsonl(io.StringIO("[1, 2]\n"))


def test_record_validation():
    with pytest.raises(ValueError):
        check_row(spawn_s=2.0, complete_s=1.0, fct_s=-1.0, nbytes=1, flows=1, status="ok")
    with pytest.raises(ValueError):
        check_row(spawn_s=0.0, complete_s=1.0, fct_s=1.0, nbytes=1, flows=1, status="meh")


VALID = dict(spawn_s=0.0, complete_s=1.0, fct_s=1.0, bytes=1, flows=1)


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
    row = {**VALID, field: value}
    with pytest.raises(ValueError, match=field):
        check_row(*row.values(), "ok")


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
    # a byte count past 2**63 used to stop analyze with an OverflowError traceback
    ('{"client_id": 3, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9223372036854775808, "flows": 1}', "bytes must be in [0, 2**63)"),
    ('{"client_id": 3, "spawn_s": "soon", "complete_s": 1.0, "fct_s": 1.0, "bytes": 9, "flows": 1}', "bad flow record"),
    # an FCT that is not its own record's completion minus spawn used to analyze to max fct 7.5 s
    ('{"client_id": 3, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 7.5, "bytes": 9, "flows": 1}', "fct_s 7.5 is not complete_s - spawn_s (1.0)"),
    # U+00A0 and U+3000 are Unicode whitespace, not JSON whitespace
    ('\u00a0{"client_id": 3, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9, "flows": 1}', "invalid JSON"),
    ('{"client_id": 3, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9, "flows": 1}\u3000', "invalid JSON"),
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
def flow_rows(draw):
    spawn, complete = sorted((draw(times), draw(times)))
    fct = float(complete - spawn)  # as both producers write it, a float
    assume(fct < math.inf)
    return (
        draw(st.integers()),  # client_id
        spawn,
        complete,
        fct,
        draw(st.integers(0, 2**63 - 1)),  # bytes
        draw(st.integers(min_value=1)),  # flows
        draw(st.sampled_from(["ok", "error"])),
        draw(st.one_of(st.none(), st.text())),  # error
    )


def schema_dict(row: tuple) -> dict:
    # README field order; error only when set
    obj = dict(zip([f.name for f in fields(FlowTable)], row))
    if obj["error"] is None:
        del obj["error"]
    return obj


@given(st.lists(flow_rows(), max_size=8, unique_by=lambda row: row[0]))
@example([
    (-1, -0.0, 5e-324, -0.0, 0, 1, "error", 'say "hi" \\ \x00\x1f\u2028 caf\u00e9 \U0001f600'),
    (2**70, 1.7976931348623157e308, 1.7976931348623157e308, 1e-310, 2**63 - 1, 7, "ok", None),
    (3, -1.7976931348623157e308, 0.0, 1.7976931348623157e308, 5, 1, "ok", None),
])
def test_written_lines_equal_json_dumps_and_read_back(rows):
    records = table_of(rows)
    buf = io.StringIO()
    write_jsonl(buf, records, run_meta={"source": "test"})
    lines = buf.getvalue().splitlines(keepends=True)
    assert lines[0] == '{"run": {"source": "test"}}\n'
    assert lines[1:] == [json.dumps(schema_dict(row)) + "\n" for row in rows]
    buf.seek(0)
    meta, table = read_jsonl(buf)
    assert (meta, table) == ({"source": "test"}, records)


# --- FlowTable: one tuple per column ---


def test_flow_table_rows_and_columns_agree():
    table = sample_records()
    assert len(table) == 2
    assert list(zip(*(getattr(table, f.name) for f in fields(FlowTable)))) == SAMPLE_ROWS
    assert table.fct_s == (0.16, 0.2) and table.error == (None, "connection refused")
    assert table.ok_mask() == [True, False]
    assert len(FlowTable()) == 0 and table_of([]) == FlowTable()
    with pytest.raises(ValueError, match="differ in length"):
        FlowTable(client_id=(0,))


def test_read_returns_a_table_with_one_shared_status_string(tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(path, table_of(SAMPLE_ROWS + [(7, 1.0, 2.0, 1.0, 5, 1)]), run_meta={})
    _, table = read_jsonl(path)
    assert isinstance(table, FlowTable)
    assert table.client_id == (0, 1, 7)
    assert table.status == ("ok", "error", "ok") and table.status[0] is table.status[2]
