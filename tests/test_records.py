from __future__ import annotations

import io
import json
import math
from array import array
from dataclasses import fields

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from streamscore.fluidsim import Scenario, simulate
from streamscore.model import LinkSpec
from streamscore.records import FlowTable, LogFormatError, check_row, read_jsonl, write_jsonl
from streamscore.schedule import MAX_FLOWS

from conftest import NUMERIC_TYPECODES, assert_typed_columns, table_of, traced_peak

SAMPLE_ROWS = [
    (0, 0.0, 0.16, 0.16, 500, 2, None),
    (1, 0.5, 0.7, 0.2, 0, 2, "connection refused"),
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
    # the one schema: the table's columns in order, then the status the error
    # implies, and the error last and only when set
    names = [f.name for f in fields(FlowTable)]
    assert names == ["client_id", "spawn_s", "complete_s", "fct_s", "bytes", "flows", "error"]
    first = json.loads(lines[1])
    assert list(first) == [*names[:-1], "status"]
    assert first["status"] == "ok"
    second = json.loads(lines[2])
    assert list(second) == [*names[:-1], "status", "error"]
    assert second["status"] == "error"
    assert second["error"] == "connection refused"


def test_read_tolerates_missing_header_and_blank_lines():
    body = '\n{"client_id": 3, "spawn_s": 0, "complete_s": 1, "fct_s": 1, "bytes": 9, "flows": 1, "status": "ok"}\n\n'
    meta, records = read_jsonl(io.StringIO(body))
    assert meta == {}
    assert records.client_id.tolist() == [3]


def test_read_takes_whole_float_counts_and_integer_times():
    body = '{"client_id": 3.0, "spawn_s": 0, "complete_s": 1, "fct_s": 1, "bytes": 9.0, "flows": 2.0}\n'
    _, records = read_jsonl(io.StringIO(body))
    assert (records.client_id.tolist(), records.bytes.tolist(), records.flows.tolist()) == ([3], [9], [2])
    assert (records.spawn_s.tolist(), records.fct_s.tolist()) == ([0.0], [1.0])
    assert type(records.bytes[0]) is int and type(records.spawn_s[0]) is float


def test_malformed_lines_raise():
    with pytest.raises(LogFormatError):
        read_jsonl(io.StringIO("not json\n"))
    with pytest.raises(LogFormatError):
        read_jsonl(io.StringIO('{"client_id": 1}\n'))
    with pytest.raises(LogFormatError):
        read_jsonl(io.StringIO("[1, 2]\n"))


def test_record_validation():
    with pytest.raises(ValueError):
        check_row(spawn_s=2.0, complete_s=1.0, fct_s=-1.0, nbytes=1, flows=1)
    check_row(spawn_s=0.0, complete_s=1.0, fct_s=1.0, nbytes=1, flows=MAX_FLOWS)
    with pytest.raises(ValueError, match=f"flows must be in \\[1, {MAX_FLOWS}\\], got {MAX_FLOWS + 1}"):
        check_row(spawn_s=0.0, complete_s=1.0, fct_s=1.0, nbytes=1, flows=MAX_FLOWS + 1)


@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-3e-9, 3e-9),
)
@example(-5e9, -4e9, 1e-9 + 1e-12)  # |complete_s| > 1: the slack is 1e-9 * |complete_s|
@example(-5e9, -4e9, 1e-9 - 1e-12)
@example(0.25, 0.5, 1e-9 + 1e-15)  # |complete_s| < 1: the slack is 1e-9
@example(0.25, 0.5, -1e-9 - 1e-15)
def test_fct_must_be_complete_minus_spawn_within_a_relative_1e_9(a, b, offset):
    # the reference: |fct_s - (complete_s - spawn_s)| <= 1e-9 * max(1, |complete_s|)
    spawn, complete = sorted((a, b))
    fct = (complete - spawn) + offset * max(1.0, abs(complete))
    assume(0 <= fct < math.inf)
    accepted = abs(fct - (complete - spawn)) <= 1e-9 * max(1.0, abs(complete))
    try:
        check_row(spawn, complete, fct, 1, 1)
    except ValueError as exc:
        assert not accepted and "is not complete_s - spawn_s" in str(exc)
    else:
        assert accepted


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
        check_row(*row.values())


def test_negative_fct_within_the_slack_of_complete_minus_spawn_is_rejected():
    # -1e-12 s passes the 1e-9 slack check against complete_s - spawn_s = 0: only the range check
    # stops it, and the report's regime relies on it for a worst FCT >= 0
    with pytest.raises(ValueError, match=r"^fct_s must be finite and >= 0, got -1e-12$"):
        check_row(0.5, 0.5, -1e-12, 1, 1)


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
    # status and error must agree: an "ok" line with an error used to count as a success
    ('{"client_id": 3, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9, "flows": 1, "status": "ok", "error": "boom"}', "status 'ok' does not agree with error 'boom'"),
    ('{"client_id": 3, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9, "flows": 1, "error": "boom"}', "status 'ok' does not agree"),
    ('{"client_id": 3, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9, "flows": 1, "status": "error"}', "status 'error' does not agree with error None"),
    ('{"client_id": 3, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9, "flows": 1, "status": "error", "error": 7}', "status 'error' does not agree with error 7"),
    ('{"client_id": 3, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9, "flows": 1, "status": "meh"}', "status 'meh' does not agree"),
    # fractional counts used to be truncated to 1, 9 and 1
    ('{"client_id": 1.7, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9, "flows": 1}', "counts must be whole: client_id 1.7"),
    ('{"client_id": 3, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9.5, "flows": 1}', "bytes 9.5"),
    ('{"client_id": 3, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9, "flows": 1.9}', "flows 1.9"),
    ('{"client_id": 3, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9, "flows": 1025}', "flows must be in [1, 1024], got 1025"),
    # float() takes a string and int() a bool: string times used to analyze to max fct 1 s,
    # and a true spawn time, client id or flow count to 1
    ('{"client_id": 3, "spawn_s": "0.5", "complete_s": "1.5", "fct_s": "1", "bytes": 9, "flows": 1}', "spawn_s must be a JSON number, got '0.5'"),
    ('{"client_id": 3, "spawn_s": 0.5, "complete_s": 1.5, "fct_s": "1", "bytes": 9, "flows": 1}', "fct_s must be a JSON number, got '1'"),
    ('{"client_id": 3, "spawn_s": true, "complete_s": 1.5, "fct_s": 0.5, "bytes": 9, "flows": 1}', "spawn_s must be a JSON number, got True"),
    ('{"client_id": true, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9, "flows": 1}', "client_id must be a JSON number, got True"),
    ('{"client_id": 3, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9, "flows": true}', "flows must be a JSON number, got True"),
    ('{"client_id": 3, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": false, "flows": 1}', "bytes must be a JSON number, got False"),
]


@pytest.mark.parametrize("bad, reason", BAD_LINES)
def test_read_rejects_bad_records_naming_the_line(bad, reason):
    body = '{"run": {}}\n' + GOOD_LINE + "\n\n" + bad + "\n"
    with pytest.raises(LogFormatError, match=r"^line 4: ") as info:
        read_jsonl(io.StringIO(body))
    assert reason in str(info.value)


def id_line(client_id: int) -> str:
    return GOOD_LINE.replace('"client_id": 0', f'"client_id": {client_id}') + "\n"


@given(st.lists(st.integers(0, 6), max_size=8))
@example([1, 1])  # a repeat in ascending order
@example([3, 1, 3])  # a repeat after the ids went out of order
@example([3, 1, 5, 5])  # an ascending repeat after the ids went out of order
@example([2**63 - 1, 0, 2**63 - 1])  # the largest id an int64 column holds
def test_read_rejects_exactly_the_first_repeated_client_id(ids):
    # the reference: a log is rejected at the first line whose id an earlier line holds
    body = "".join(map(id_line, ids))
    repeat = next((n for n, client_id in enumerate(ids) if client_id in ids[:n]), None)
    if repeat is None:
        assert read_jsonl(io.StringIO(body))[1].client_id.tolist() == ids
    else:
        with pytest.raises(LogFormatError) as info:
            read_jsonl(io.StringIO(body))
        assert str(info.value) == f"line {repeat + 1}: duplicate client_id {ids[repeat]}"


# an id is a client index and its column is int64, as bytes is: a negative or a 64-bit id used to
# load as any JSON integer, and without the bound array.append would raise OverflowError for it
@pytest.mark.parametrize(
    "client_id, shown",
    [(-1, -1), (2**63, 2**63), (2**70, 2**70), (-(2**70), -(2**70)), (9.3e18, 9_300_000_000_000_000_000)],
)
def test_read_bounds_client_id_to_int64_naming_the_line(client_id, shown):
    with pytest.raises(LogFormatError) as info:
        read_jsonl(io.StringIO(id_line(5) + id_line(client_id)))
    assert str(info.value) == f"line 2: bad flow record: client_id must be in [0, 2**63), got {shown}"
    _, table = read_jsonl(io.StringIO(id_line(5) + id_line(2**63 - 1)))  # the largest int64 is kept
    assert table.client_id.tolist() == [5, 2**63 - 1]


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


@pytest.mark.parametrize("run", ['[1, "x"]', "null", '"x"', "7"])
def test_read_rejects_a_run_header_that_is_not_an_object(run):
    # a list header used to land in report.json as inputs.run
    with pytest.raises(LogFormatError) as info:
        read_jsonl(io.StringIO(f'{{"run": {run}}}\n' + GOOD_LINE + "\n"))
    assert str(info.value) == "line 1: run header must be an object"


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
        draw(st.integers(0, 2**63 - 1)),  # client_id
        spawn,
        complete,
        fct,
        draw(st.integers(0, 2**63 - 1)),  # bytes
        draw(st.integers(1, MAX_FLOWS)),  # flows
        draw(st.one_of(st.none(), st.text())),  # error: None marks a success
    )


def schema_dict(row: tuple) -> dict:
    # README field order; the status the error implies, and the error only when set
    *values, error = row
    obj = dict(zip([f.name for f in fields(FlowTable)], values))
    obj["status"] = "ok" if error is None else "error"
    if error is not None:
        obj["error"] = error
    return obj


@given(st.lists(flow_rows(), max_size=8, unique_by=lambda row: row[0]))
@example([
    (0, -0.0, 5e-324, -0.0, 0, 1, 'say "hi" \\ \x00\x1f\u2028 caf\u00e9 \U0001f600'),
    (2**63 - 1, 1.7976931348623157e308, 1.7976931348623157e308, 1e-310, 2**63 - 1, 7, None),
    (3, -1.7976931348623157e308, 0.0, 1.7976931348623157e308, 5, MAX_FLOWS, ""),
])
def test_written_lines_equal_json_dumps_and_read_back(rows):
    records = table_of(rows)
    buf = io.StringIO()
    write_jsonl(buf, records, run_meta={"source": "test"})
    lines = buf.getvalue().splitlines(keepends=True)
    assert lines[0] == '{"run": {"source": "test"}}\n'
    # the table holds times as float64, so an int time is written as a float
    rows = [(cid, float(spawn), float(complete), *rest) for cid, spawn, complete, *rest in rows]
    assert lines[1:] == [json.dumps(schema_dict(row)) + "\n" for row in rows]
    buf.seek(0)
    meta, table = read_jsonl(buf)
    assert (meta, table) == ({"source": "test"}, records)


# --- FlowTable: one column per field, numbers in typed arrays ---


def test_flow_table_rows_and_columns_agree():
    table = sample_records()
    assert len(table) == 2
    assert list(zip(*(getattr(table, f.name) for f in fields(FlowTable)))) == SAMPLE_ROWS
    assert table.fct_s.tolist() == [0.16, 0.2] and table.error == (None, "connection refused")
    assert table.ok_mask() == [True, False]
    assert len(FlowTable()) == 0 and table_of([]) == FlowTable()
    with pytest.raises(ValueError, match="differ in length"):
        FlowTable(client_id=(0,))


def test_read_returns_a_table_whose_error_column_marks_failures(tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(path, table_of(SAMPLE_ROWS + [(7, 1.0, 2.0, 1.0, 5, 1)]), run_meta={})
    _, table = read_jsonl(path)
    assert isinstance(table, FlowTable)
    assert table.client_id.tolist() == [0, 1, 7]
    assert table.error == (None, "connection refused", None)
    assert table.ok_mask() == [True, False, True]
    # an empty error text still marks a failure
    line = '{"client_id": 0, "spawn_s": 0, "complete_s": 1, "fct_s": 1, "bytes": 0, "flows": 1, "status": "error", "error": ""}'
    _, table = read_jsonl(io.StringIO(line))
    assert table.error == ("",) and table.ok_mask() == [False]


@given(st.lists(flow_rows(), max_size=8, unique_by=lambda row: row[0]))
@example([(2**63 - 1, 3, 2**53, float(2**53 - 3), 2**63 - 1, MAX_FLOWS, None)])  # int times
def test_flow_table_types_tuple_list_and_array_columns_alike(rows):
    names = [f.name for f in fields(FlowTable)]
    raw = dict(zip(names, zip(*rows))) if rows else dict.fromkeys(names, ())
    arrays = {name: array(code, raw[name]) for name, code in NUMERIC_TYPECODES.items()}
    tables = [table_of(rows), FlowTable(**{name: list(column) for name, column in raw.items()}),
              FlowTable(**{**raw, **arrays})]
    assert tables[0] == tables[1] == tables[2]
    for table in tables:
        assert_typed_columns(table)
        # exact values: a time as its float, a client_id or a count as the int itself
        for name, code in NUMERIC_TYPECODES.items():
            assert getattr(table, name).tolist() == [float(v) if code == "d" else v for v in raw[name]]
        assert table.error == raw["error"]
    # an array of the right typecode is kept as it is, not copied
    assert all(getattr(tables[2], name) is column for name, column in arrays.items())


def test_round_trip_keeps_extreme_numbers_bit_exact(tmp_path):
    table = table_of([
        (0, -0.0, 5e-324, 5e-324, 2**63 - 1, MAX_FLOWS),
        (1, -5e-324, -0.0, 5e-324, 0, 1, "refused"),
    ])
    path = tmp_path / "run.jsonl"
    write_jsonl(path, table)
    _, back = read_jsonl(path)
    assert_typed_columns(back)
    for name in NUMERIC_TYPECODES:  # bit for bit: -0.0 keeps its sign
        assert getattr(back, name).tobytes() == getattr(table, name).tobytes(), name
    assert back.bytes.tolist() == [2**63 - 1, 0]
    assert math.copysign(1.0, back.spawn_s[0]) == -1.0 and back.complete_s[0] == 5e-324


# read_jsonl's tracemalloc peak on the 20,000-record log below is 67.6 B a record on CPython
# 3.11 with every numeric column typed, client_id too, and no id set for an ascending log; a
# client_id tuple of int objects made it 103.5 B, a set of every client_id 216 B, and one tuple
# per column (a float or int object per number) 288 B. The budget is the measured figure plus
# 15%, so each of these fails it.
READ_PEAK_BUDGET_B = 78


def test_read_jsonl_peak_memory_per_record_stays_in_budget(tmp_path):
    count = 20_000
    scenario = Scenario(link=LinkSpec(bandwidth=25e9 / 8, rtt=0.016), duration=count / 5,
                        concurrency=5.0, transfer_bytes=500_000_000)
    path = tmp_path / "run.jsonl"
    write_jsonl(path, simulate(scenario).records, run_meta=scenario.config_echo())
    (_, table), peak = traced_peak(lambda: read_jsonl(path))
    assert len(table) == count
    assert_typed_columns(table)
    assert peak / count < READ_PEAK_BUDGET_B, f"{peak / count:.1f} B per record"
