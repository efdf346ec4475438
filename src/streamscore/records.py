"""Per-transfer flow records and their JSONL serialization.

One record per spawned client, whether the transfer was measured on a real
network or produced by the simulator; the analysis pipeline consumes both
through this schema. ``FlowTable`` is the one record type: one column per
field, and its field order is the key order of a log line. The five numeric
columns are typed arrays (8 bytes a number: float64 times, int64 counts);
``client_id`` (any JSON integer) and ``error`` are tuples. ``check_row`` is
the one row validator. ``error`` (None on success) alone marks a failure; a
line's ``"status"`` is written from it and checked against it here only. A
log file is a header line ``{"run": {...}}`` and then one record per line.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, fields
from io import TextIOBase
from pathlib import Path

from .schedule import MAX_FLOWS

# One record line. %r writes builtin ints and finite floats exactly as
# json.dumps does (not so a subclass such as numpy.float64); the last %s is
# the row's status tail, and only the error text needs an escaping encoder.
_RECORD_LINE = (
    '{"client_id": %r, "spawn_s": %r, "complete_s": %r, "fct_s": %r, '
    '"bytes": %r, "flows": %r, "status": %s}\n'
)


class LogFormatError(ValueError):
    """A JSONL transfer log that does not match the record schema."""


def check_row(spawn_s: float, complete_s: float, fct_s: float, nbytes: int, flows: int) -> None:
    """Raise ValueError unless one record's values are in range."""
    # every comparison with NaN is False, so the negated forms reject it
    if not -math.inf < spawn_s <= complete_s < math.inf:
        raise ValueError(
            f"spawn_s {spawn_s} and complete_s {complete_s} must be "
            "finite, with complete_s >= spawn_s"
        )
    if not 0 <= fct_s < math.inf:
        raise ValueError(f"fct_s must be finite and >= 0, got {fct_s}")
    # both producers write exactly complete_s - spawn_s: |fct_s - that| <= 1e-9 * max(1, |complete_s|),
    # spelled without calls, since the reader checks every row (both values are finite here)
    slack = 1e-9 * (complete_s if complete_s > 1.0 else -complete_s if complete_s < -1.0 else 1.0)
    if not -slack <= fct_s - (complete_s - spawn_s) <= slack:
        raise ValueError(f"fct_s {fct_s} is not complete_s - spawn_s ({complete_s - spawn_s})")
    if not 0 <= nbytes < 2**63:  # a byte count any OS can hold, and a sum a float can
        raise ValueError(f"bytes must be in [0, 2**63), got {nbytes}")
    if not 1 <= flows <= MAX_FLOWS:
        raise ValueError(f"flows must be in [1, {MAX_FLOWS}], got {flows}")


@dataclass(frozen=True)
class FlowTable:
    """Flow records as one column per record field, rows in log order.

    The simulator, the live harness, the log reader and writer and the
    report all read and build the columns directly. A producer may hand over
    any sequence per column; construction makes each numeric column an
    ``array`` of its typecode (an array that has it already is kept, not
    copied) and the other two tuples. Producers hand over rows that already
    passed ``check_row``.
    """

    # every default is an empty tuple, typed by __post_init__ like a producer's column
    client_id: tuple[int, ...] = ()
    spawn_s: array[float] = ()
    complete_s: array[float] = ()
    fct_s: array[float] = ()
    bytes: array[int] = ()
    flows: array[int] = ()
    error: tuple[str | None, ...] = ()  # None for a successful transfer

    def __post_init__(self) -> None:
        for name, code in _TYPECODES.items():
            column = getattr(self, name)
            if code is None:
                column = tuple(column)  # a tuple is returned as it is
            elif not (column.__class__ is array and column.typecode == code):
                column = array(code, column)
            object.__setattr__(self, name, column)
        if len(set(map(len, self._columns()))) > 1:
            raise ValueError("flow table columns differ in length")

    def _columns(self) -> tuple:
        return tuple(getattr(self, name) for name in _COLUMNS)

    def __len__(self) -> int:
        return len(self.client_id)

    def ok_mask(self) -> list[bool]:
        """Per row: whether the transfer succeeded."""
        return [error is None for error in self.error]


_COLUMNS = tuple(f.name for f in fields(FlowTable))
# per column: the array typecode of a numeric column, or None for a tuple
_TYPECODES = {name: None for name in _COLUMNS} | {
    "spawn_s": "d", "complete_s": "d", "fct_s": "d", "bytes": "q", "flows": "q",
}


def write_jsonl(
    target: Path | str | TextIOBase, records: FlowTable, run_meta: dict | None = None
) -> None:
    """Write a header line followed by one record per line."""
    tails = ['"ok"' if e is None else '"error", "error": ' + json.dumps(e) for e in records.error]

    def _write(fh: TextIOBase) -> None:
        fh.write(json.dumps({"run": run_meta or {}}) + "\n")
        fh.writelines(map(_RECORD_LINE.__mod__, zip(*records._columns()[:-1], tails)))

    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            _write(fh)
    else:
        _write(target)


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name}")


# NaN and Infinity are not JSON; the stdlib decoder accepts them unless told not to
_decoder = json.JSONDecoder(parse_constant=_reject_constant)


# The reader calls these only for a value of another class than both writers write (a
# float time, an int count): the other JSON number converts, and a string or a bool, which
# float() and int() would take, is rejected.
def _time(name: str, value) -> float:
    if value.__class__ is not int:
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def _count(name: str, value) -> int:
    if value.__class__ is not float:
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    if (whole := int(value)) != value:  # int() raises on inf and NaN
        raise ValueError(f"counts must be whole: {name} {value!r}")
    return whole


def read_jsonl(source: Path | str | TextIOBase) -> tuple[dict, FlowTable]:
    """Parse a transfer log into its run metadata and a table of its records.

    The header is optional so that bare record streams still load, but only
    the first line may be one. A line that is not a JSON object, holds NaN or
    Infinity, is a second header, misses a field, holds a string or a boolean
    where a number belongs, has a fractional count, fails ``check_row``, pairs
    its status and error other than as "ok" with none or "error" with a
    string, or repeats a client_id raises LogFormatError naming its line;
    nothing is skipped.
    """

    def _read(fh: TextIOBase) -> tuple[dict, FlowTable]:
        meta: dict = {}
        # numbers go straight into their typed arrays; the table keeps them
        columns = tuple([] if code is None else array(code) for code in _TYPECODES.values())
        add_id, add_spawn, add_complete, add_fct, add_bytes, add_flows, add_error = (
            column.append for column in columns
        )
        seen: set[int] = set()
        opened = False  # a header may only be the first non-blank line
        scan = _decoder.scan_once  # raw_decode without its Python frames
        for lineno, line in enumerate(fh, start=1):
            line = line.strip(" \t\r\n")  # JSON whitespace only
            if not line:
                continue
            try:
                obj, end = scan(line, 0)
            except (StopIteration, ValueError):
                end = None
            if end != len(line):
                try:  # decode is json.loads, and raises json.loads's error for the line
                    obj = _decoder.decode(line)
                except ValueError as exc:
                    raise LogFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise LogFormatError(f"line {lineno}: expected an object")
            if "run" in obj and "client_id" not in obj:
                if opened:
                    raise LogFormatError(f"line {lineno}: a run header may only open the log")
                opened = True
                meta = obj["run"]
                continue
            opened = True
            try:
                client_id, spawn, complete, fct, nbytes, flows, status, error = (
                    obj["client_id"], obj["spawn_s"], obj["complete_s"], obj["fct_s"], obj["bytes"],
                    obj["flows"], obj.get("status", "ok"), obj.get("error"),
                )
                # one class test per field; only a number of the other class makes a call
                spawn = spawn if spawn.__class__ is float else _time("spawn_s", spawn)
                complete = complete if complete.__class__ is float else _time("complete_s", complete)
                fct = fct if fct.__class__ is float else _time("fct_s", fct)
                client_id = client_id if client_id.__class__ is int else _count("client_id", client_id)
                nbytes = nbytes if nbytes.__class__ is int else _count("bytes", nbytes)
                flows = flows if flows.__class__ is int else _count("flows", flows)
                check_row(spawn, complete, fct, nbytes, flows)
                if not (status == "ok" if error is None else status == "error" and isinstance(error, str)):
                    raise ValueError(f"status {status!r} does not agree with error {error!r}")
            except KeyError as exc:
                raise LogFormatError(
                    f"line {lineno}: bad flow record: missing field {exc}"
                ) from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise LogFormatError(f"line {lineno}: bad flow record: {exc}") from exc
            if client_id in seen:
                raise LogFormatError(f"line {lineno}: duplicate client_id {client_id}")
            seen.add(client_id)
            add_id(client_id)
            add_spawn(spawn)
            add_complete(complete)
            add_fct(fct)
            add_bytes(nbytes)
            add_flows(flows)
            add_error(error)
        return meta, FlowTable(*columns)

    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _read(fh)
    return _read(source)
