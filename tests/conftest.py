from __future__ import annotations

import gc
import json
import socket
import time
import tracemalloc
from array import array
from contextlib import closing, contextmanager

from hypothesis import settings

from streamscore.loadgen import TransferServer
from streamscore.records import FlowTable, check_row

# fixed examples and no per-example deadline: property tests give the same
# verdict on every run and on every machine
settings.register_profile("streamscore", derandomize=True, max_examples=100, deadline=None)
settings.load_profile("streamscore")


def table_of(rows) -> FlowTable:
    """A FlowTable of row tuples in column order, each row checked by ``check_row``.

    A row may stop after ``flows``: error then defaults to None, a success.
    """
    full = [(*row, None)[:7] for row in rows]
    for row in full:
        check_row(*row[1:6])
    return FlowTable(*zip(*full))


NUMERIC_TYPECODES = {"spawn_s": "d", "complete_s": "d", "fct_s": "d", "bytes": "q", "flows": "q"}


def assert_typed_columns(table: FlowTable) -> None:
    """The table's numbers sit in float64 and int64 arrays; client_id and error are tuples."""
    for name, code in NUMERIC_TYPECODES.items():
        column = getattr(table, name)
        assert type(column) is array and column.typecode == code, (name, column)
    assert type(table.client_id) is tuple and type(table.error) is tuple


def traced_peak(fn):
    """``fn()`` and the peak of the memory it allocated while it ran, in bytes (``tracemalloc``)."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def strict_json(text: str):
    """``json.loads`` that rejects NaN and Infinity, which are not JSON."""
    return json.loads(text, parse_constant=_reject_constant)


def find_free_port_block(count: int, start: int = 15201, end: int = 64000) -> int:
    """First base port such that [base, base+count) are all bindable."""
    base = start
    while base + count < end:
        ok = True
        for port in range(base, base + count):
            with closing(socket.socket(socket.AF_INET, socket.SOCK_STREAM)) as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                try:
                    sock.bind(("127.0.0.1", port))
                except OSError:
                    ok = False
                    break
        if ok:
            return base
        base += count + 1
    raise RuntimeError("no free port block found")


class CountingServer(TransferServer):
    """A TransferServer that counts its open connections; any thread may read the count."""

    live_connections = 0  # written only by the loop thread

    def _serve_connection(self, conn, buffer):
        self.live_connections += 1
        try:
            yield from super()._serve_connection(conn, buffer)
        finally:
            self.live_connections -= 1


@contextmanager
def gc_pauses():
    """Collect ``[start, end, generation]`` (monotonic s) of each collection in the block."""
    pauses: list[list] = []

    def note(phase: str, info: dict) -> None:
        now = time.monotonic()
        if phase == "start":
            pauses.append([now, now, info["generation"]])
        elif pauses:
            pauses[-1][1] = now

    gc.callbacks.append(note)
    try:
        yield pauses
    finally:
        gc.callbacks.remove(note)


def spawn_diagnostics(meta: dict, pauses: list[list], live_at_start: int) -> str:
    """The collections during a run (ms from its epoch) and the server's connections at its start."""
    epoch = meta["monotonic_epoch_s"]
    collections = [
        (round((start - epoch) * 1e3, 3), round((end - start) * 1e3, 3), generation)
        for start, end, generation in pauses
    ]
    return (
        f"gc pauses (start ms, length ms, generation): {collections}; "
        f"server connections open at start: {live_at_start}"
    )
