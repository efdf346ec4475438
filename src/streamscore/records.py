"""Per-transfer flow records and their JSONL serialization.

One record per spawned client, whether the transfer was measured on a real
network or produced by the simulator; the analysis pipeline consumes both
through this schema. ``FlowTable`` is the one record type: one tuple per
field, and its field order is the key order of a log line. ``check_row`` is
the one row validator. A log file is a single header line ``{"run": {...}}``
followed by one record object per line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import IO

# One record line. %r writes builtin ints and finite floats exactly as
# json.dumps does (not so a subclass such as numpy.float64), and status is
# always "ok" or "error"; only the error text needs an escaping encoder.
_RECORD_LINE = (
    '{"client_id": %r, "spawn_s": %r, "complete_s": %r, "fct_s": %r, '
    '"bytes": %r, "flows": %r, "status": "%s"%s}\n'
)


class LogFormatError(ValueError):
    """A JSONL transfer log that does not match the record schema."""


def check_row(
    spawn_s: float, complete_s: float, fct_s: float, nbytes: int, flows: int, status: str
) -> None:
    """Raise ValueError unless one record's values are in range."""
    # every comparison with NaN is False, so the negated forms reject it
    if not -math.inf < spawn_s <= complete_s < math.inf:
        raise ValueError(
            f"spawn_s {spawn_s} and complete_s {complete_s} must be "
            "finite, with complete_s >= spawn_s"
        )
    if not 0 <= fct_s < math.inf:
        raise ValueError(f"fct_s must be finite and >= 0, got {fct_s}")
    # both producers write exactly complete_s - spawn_s
    if not abs(fct_s - (complete_s - spawn_s)) <= 1e-9 * max(1.0, abs(complete_s)):
        raise ValueError(f"fct_s {fct_s} is not complete_s - spawn_s ({complete_s - spawn_s})")
    if not 0 <= nbytes < 2**63:  # a byte count any OS can hold, and a sum a float can
        raise ValueError(f"bytes must be in [0, 2**63), got {nbytes}")
    if not flows >= 1:
        raise ValueError(f"flows must be >= 1, got {flows}")
    if status not in ("ok", "error"):
        raise ValueError(f"status must be 'ok' or 'error', got {status!r}")


@dataclass(frozen=True)
class FlowTable:
    """Flow records as one tuple per record field, rows in log order.

    The simulator, the live harness, the log reader and writer and the
    report all read and build the columns directly. Producers hand over
    rows that already passed ``check_row``.
    """

    client_id: tuple[int, ...] = ()
    spawn_s: tuple[float, ...] = ()
    complete_s: tuple[float, ...] = ()
    fct_s: tuple[float, ...] = ()
    bytes: tuple[int, ...] = ()
    flows: tuple[int, ...] = ()
    status: tuple[str, ...] = ()  # "ok" or "error"
    error: tuple[str | None, ...] = ()

    def __post_init__(self) -> None:
        if len(set(map(len, self._columns()))) > 1:
            raise ValueError("flow table columns differ in length")

    def _columns(self) -> tuple[tuple, ...]:
        return tuple(getattr(self, name) for name in _COLUMNS)

    def __len__(self) -> int:
        return len(self.client_id)

    def ok_mask(self) -> list[bool]:
        """Per row: whether the transfer succeeded."""
        return [status == "ok" for status in self.status]


_COLUMNS = tuple(f.name for f in fields(FlowTable))


def write_jsonl(
    target: Path | str | IO[str], records: FlowTable, run_meta: dict | None = None
) -> None:
    """Write a header line followed by one record per line."""
    errors = ["" if e is None else ', "error": ' + json.dumps(e) for e in records.error]

    def _write(fh: IO[str]) -> None:
        fh.write(json.dumps({"run": run_meta or {}}) + "\n")
        fh.writelines(map(_RECORD_LINE.__mod__, zip(*records._columns()[:-1], errors)))

    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            _write(fh)
    else:
        _write(target)


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name}")


# NaN and Infinity are not JSON; the stdlib decoder accepts them unless told not to
_decoder = json.JSONDecoder(parse_constant=_reject_constant)


def read_jsonl(source: Path | str | IO[str]) -> tuple[dict, FlowTable]:
    """Parse a transfer log into its run metadata and a table of its records.

    The header is optional so that bare record streams still load, but only
    the first line may be one. A line that is not a JSON object, holds NaN or
    Infinity, is a second header, misses a field, fails ``check_row`` or
    repeats a client_id raises LogFormatError naming its line; nothing is
    skipped.
    """

    def _read(fh: IO[str]) -> tuple[dict, FlowTable]:
        meta: dict = {}
        columns: tuple[list, ...] = tuple([] for _ in _COLUMNS)
        add_id, add_spawn, add_complete, add_fct, add_bytes, add_flows, add_status, add_error = (
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
                client_id, spawn, complete, fct, nbytes, flows, status = (
                    int(obj["client_id"]),
                    float(obj["spawn_s"]),
                    float(obj["complete_s"]),
                    float(obj["fct_s"]),
                    int(obj["bytes"]),
                    int(obj["flows"]),
                    str(obj.get("status", "ok")),
                )
                check_row(spawn, complete, fct, nbytes, flows, status)
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
            add_status("ok" if status == "ok" else "error")  # one shared string per status
            add_error(obj.get("error"))
        return meta, FlowTable(*map(tuple, columns))

    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _read(fh)
    return _read(source)
