"""Per-transfer flow records and their JSONL serialization.

One record per spawned client, whether the transfer was measured on a real
network or produced by the simulator; the analysis pipeline consumes both
through this schema. A log file is a single header line ``{"run": {...}}``
followed by one record object per line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

# One record line. %r writes builtin ints and finite floats exactly as
# json.dumps does (not so a subclass such as numpy.float64), and status is
# always "ok" or "error"; only the error text needs an escaping encoder.
_RECORD_LINE = (
    '{"client_id": %r, "spawn_s": %r, "complete_s": %r, "fct_s": %r, '
    '"bytes": %r, "flows": %r, "status": "%s"%s}\n'
)


class LogFormatError(ValueError):
    """A JSONL transfer log that does not match the record schema."""


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One client's transfer: spawn/completion on a shared monotonic clock."""

    client_id: int
    spawn_s: float
    complete_s: float
    fct_s: float
    bytes: int
    flows: int
    status: str = "ok"
    error: str | None = None

    def __post_init__(self) -> None:
        # every comparison with NaN is False, so the negated forms reject it
        if not -math.inf < self.spawn_s <= self.complete_s < math.inf:
            raise ValueError(
                f"spawn_s {self.spawn_s} and complete_s {self.complete_s} must be "
                "finite, with complete_s >= spawn_s"
            )
        if not 0 <= self.fct_s < math.inf:
            raise ValueError(f"fct_s must be finite and >= 0, got {self.fct_s}")
        if not self.bytes >= 0:
            raise ValueError(f"bytes must be >= 0, got {self.bytes}")
        if not self.flows >= 1:
            raise ValueError(f"flows must be >= 1, got {self.flows}")
        if self.status not in ("ok", "error"):
            raise ValueError(f"status must be 'ok' or 'error', got {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json_line(self) -> str:
        """The record as one log line: a JSON object in schema field order."""
        error = "" if self.error is None else ', "error": ' + json.dumps(self.error)
        return _RECORD_LINE % (
            self.client_id,
            self.spawn_s,
            self.complete_s,
            self.fct_s,
            self.bytes,
            self.flows,
            self.status,
            error,
        )


def write_jsonl(
    target: Path | str | IO[str],
    records: Iterable[FlowRecord],
    run_meta: dict | None = None,
) -> None:
    """Write a header line followed by one record per line."""

    def _write(fh: IO[str]) -> None:
        fh.write(json.dumps({"run": run_meta or {}}) + "\n")
        fh.writelines(record.to_json_line() for record in records)

    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            _write(fh)
    else:
        _write(target)


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name}")


# NaN and Infinity are not JSON; the stdlib decoder accepts them unless told not to
_decode = json.JSONDecoder(parse_constant=_reject_constant).raw_decode


def read_jsonl(source: Path | str | IO[str]) -> tuple[dict, list[FlowRecord]]:
    """Parse a transfer log into its run metadata and records.

    The header is optional so that bare record streams still load. A line
    that is not a JSON object, holds NaN or Infinity, misses a field, fails
    FlowRecord's checks or repeats a client_id raises LogFormatError naming
    its line; nothing is skipped.
    """

    def _read(fh: IO[str]) -> tuple[dict, list[FlowRecord]]:
        meta: dict = {}
        records: list[FlowRecord] = []
        seen: set[int] = set()
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _decode(line)
                if end != len(line):
                    # json.loads reports the first non-blank character after the object
                    extra = len(line) - len(line[end:].lstrip(" \t\n\r"))
                    raise json.JSONDecodeError("Extra data", line, extra)
            except ValueError as exc:
                raise LogFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise LogFormatError(f"line {lineno}: expected an object")
            if "run" in obj and "client_id" not in obj:
                meta = obj["run"]
                continue
            try:
                record = FlowRecord(
                    int(obj["client_id"]),
                    float(obj["spawn_s"]),
                    float(obj["complete_s"]),
                    float(obj["fct_s"]),
                    int(obj["bytes"]),
                    int(obj["flows"]),
                    str(obj.get("status", "ok")),
                    obj.get("error"),
                )
            except KeyError as exc:
                raise LogFormatError(
                    f"line {lineno}: bad flow record: missing field {exc}"
                ) from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise LogFormatError(f"line {lineno}: bad flow record: {exc}") from exc
            if record.client_id in seen:
                raise LogFormatError(
                    f"line {lineno}: duplicate client_id {record.client_id}"
                )
            seen.add(record.client_id)
            records.append(record)
        return meta, records

    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _read(fh)
    return _read(source)
