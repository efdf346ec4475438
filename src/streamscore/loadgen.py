"""Live TCP load generation: pooled receive servers and a client orchestrator.

The server binds a pool of sequential ports; each accepted connection is
handled independently (read the declared payload to exhaustion, acknowledge
with one byte, repeat until the peer closes), so server-side contention is
limited to the NIC and kernel. ``ClientRunConfig`` is the shared
``schedule.LoadSpec`` plus the server and timeouts, so the client side spawns
transfer clients on the simulator's schedule, echoes the same load keys, and
logs one FlowRecord per client from a monotonic clock.

Wire format, per connection: a 16-byte header (magic ``SGTE``, version 0x01,
3 reserved zero bytes, payload length as big-endian u64) followed by exactly
that many payload bytes (a repeating 0x00-0xFF cycle), answered by the single
byte 0x06 once the server has read everything.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from .records import FlowRecord
from .schedule import LoadSpec

MAGIC = b"SGTE"
PROTOCOL_VERSION = 1
ACK = b"\x06"
_HEADER = struct.Struct(">4sB3xQ")
HEADER_SIZE = _HEADER.size  # 16

_CHUNK = 256 * 256  # 64 KiB, a multiple of 256 so the byte cycle stays aligned
_PATTERN_BLOCK = bytes(range(256)) * 256


class WireProtocolError(ValueError):
    """Peer sent bytes that do not match the transfer protocol."""


class ServerStartupError(OSError):
    """A listener port could not be bound; nothing was left half-started."""

    def __init__(self, port: int, cause: OSError):
        super().__init__(f"cannot bind port {port}: {cause}")
        self.port = port


def pack_header(payload_bytes: int) -> bytes:
    if payload_bytes < 0:
        raise ValueError(f"payload length must be >= 0, got {payload_bytes}")
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, payload_bytes)


def parse_header(raw: bytes) -> int:
    """Validate a 16-byte preamble and return the declared payload length."""
    if len(raw) != HEADER_SIZE:
        raise WireProtocolError(f"header must be {HEADER_SIZE} bytes, got {len(raw)}")
    magic, version, length = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise WireProtocolError(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise WireProtocolError(f"unsupported protocol version {version}")
    return length


def split_bytes(total: int, flows: int) -> list[int]:
    """Split a transfer across flows evenly, remainder to the last flow."""
    if flows <= 0:
        raise ValueError(f"flows must be > 0, got {flows}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    per_flow = total // flows
    return [per_flow] * (flows - 1) + [total - per_flow * (flows - 1)]


def payload_chunks(length: int):
    """Yield the deterministic payload pattern in cycle-aligned chunks."""
    sent = 0
    while sent < length:
        take = min(_CHUNK, length - sent)
        yield _PATTERN_BLOCK[:take]
        sent += take


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    parts = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, _CHUNK))
        if not chunk:
            raise ConnectionError(
                f"connection closed with {remaining} of {count} bytes outstanding"
            )
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


@dataclass(frozen=True)
class ServerConfig:
    base_port: int
    pool_size: int = 8
    bind_address: str = "127.0.0.1"

    def __post_init__(self) -> None:
        if not 0 < self.base_port <= 65535:
            raise ValueError(f"base_port must be a TCP port, got {self.base_port}")
        if self.pool_size <= 0:
            raise ValueError(f"pool_size must be > 0, got {self.pool_size}")
        if self.base_port + self.pool_size - 1 > 65535:
            raise ValueError("port pool extends past 65535")

    @property
    def ports(self) -> tuple[int, ...]:
        return tuple(range(self.base_port, self.base_port + self.pool_size))


class TransferServer:
    """Pool of acknowledge-on-receipt listeners on sequential ports."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self._listeners: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        self.transfers_served = 0
        self._stats_lock = threading.Lock()

    def start(self) -> None:
        """Bind every port in the pool; on any failure release them all."""
        bound: list[socket.socket] = []
        for port in self.config.ports:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                sock.bind((self.config.bind_address, port))
                sock.listen(128)
                # periodic wakeups let stop() terminate accept loops promptly
                sock.settimeout(0.2)
            except OSError as exc:
                sock.close()
                for other in bound:
                    other.close()
                raise ServerStartupError(port, exc) from exc
            bound.append(sock)
        self._listeners = bound
        for sock in bound:
            thread = threading.Thread(
                target=self._accept_loop, args=(sock,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        self._stopping.set()
        for sock in self._listeners:
            try:
                sock.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._listeners = []
        self._threads = []

    def __enter__(self) -> TransferServer:
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _accept_loop(self, listener: socket.socket) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            conn.settimeout(300.0)  # stalled-peer guard, well above any test load
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while True:
                try:
                    first = conn.recv(1)
                    if not first:
                        return  # clean close between transfers
                    raw = first + _recv_exact(conn, HEADER_SIZE - 1)
                    length = parse_header(raw)
                except (WireProtocolError, ConnectionError, OSError):
                    return  # drop without acknowledgment
                try:
                    remaining = length
                    while remaining > 0:
                        chunk = conn.recv(min(remaining, _CHUNK))
                        if not chunk:
                            return
                        remaining -= len(chunk)
                    # counted before the ack: a client holding its ack sees its transfer
                    with self._stats_lock:
                        self.transfers_served += 1
                    conn.sendall(ACK)
                except OSError:
                    return


@dataclass(frozen=True, kw_only=True)
class ClientRunConfig(LoadSpec):
    """A measured run: the shared load spec plus where and how to connect."""

    server_address: str
    base_port: int
    pool_size: int = 8  # client i targets base_port + (i mod pool_size)
    connect_timeout: float = 10.0
    transfer_timeout: float = 120.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.pool_size <= 0:
            raise ValueError(f"pool_size must be > 0, got {self.pool_size}")
        if self.connect_timeout <= 0 or self.transfer_timeout <= 0:
            raise ValueError("timeouts must be > 0")

    def config_echo(self) -> dict:
        return {
            "source": "loadgen",
            "server_address": self.server_address,
            "base_port": self.base_port,
            "pool_size": self.pool_size,
            **self.load_echo(),
            "connect_timeout": self.connect_timeout,
            "transfer_timeout": self.transfer_timeout,
        }


@dataclass
class TransferLog:
    meta: dict
    records: list[FlowRecord] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if not r.ok)


def _run_flow(
    address: tuple[str, int],
    nbytes: int,
    connect_timeout: float,
    transfer_timeout: float,
) -> int:
    """Send one flow's payload and wait for the acknowledgment byte."""
    with socket.create_connection(address, timeout=connect_timeout) as sock:
        sock.settimeout(transfer_timeout)
        sock.sendall(pack_header(nbytes))
        for chunk in payload_chunks(nbytes):
            sock.sendall(chunk)
        ack = sock.recv(1)
        if ack != ACK:
            raise WireProtocolError(
                "missing acknowledgment" if not ack else f"unexpected reply {ack!r}"
            )
    return nbytes


def _run_client(
    client_id: int,
    config: ClientRunConfig,
    epoch: float,
    sink: Callable[[FlowRecord], None],
) -> None:
    port = config.base_port + (client_id % config.pool_size)
    address = (config.server_address, port)
    sizes = split_bytes(config.transfer_bytes, config.parallel_flows)

    acked = [0] * len(sizes)
    errors: list[str] = []
    errors_lock = threading.Lock()

    def flow_worker(index: int, size: int) -> None:
        try:
            acked[index] = _run_flow(
                address, size, config.connect_timeout, config.transfer_timeout
            )
        except (OSError, WireProtocolError) as exc:
            with errors_lock:
                errors.append(f"flow {index}: {exc}")

    spawn_s = time.monotonic() - epoch
    if len(sizes) == 1:
        flow_worker(0, sizes[0])
    else:
        flow_threads = [
            threading.Thread(target=flow_worker, args=(i, size), daemon=True)
            for i, size in enumerate(sizes)
        ]
        for thread in flow_threads:
            thread.start()
        for thread in flow_threads:
            thread.join(timeout=config.transfer_timeout + config.connect_timeout)
            if thread.is_alive():
                with errors_lock:
                    errors.append("flow join timed out")
    complete_s = time.monotonic() - epoch

    sink(
        FlowRecord(
            client_id=client_id,
            spawn_s=spawn_s,
            complete_s=complete_s,
            fct_s=complete_s - spawn_s,
            bytes=sum(acked),
            flows=config.parallel_flows,
            status="ok" if not errors else "error",
            error=None if not errors else "; ".join(errors),
        )
    )


def run_clients(
    config: ClientRunConfig,
    counter_sampler: Callable[[], int] | None = None,
) -> TransferLog:
    """Spawn transfer clients on schedule and collect their flow records.

    ``counter_sampler``, when given, is read before and after the run so OS
    interface counters (or any external byte source) can be attached to the
    log without this module knowing how to collect them.
    """
    offsets = config.spawn_times()
    results: list[FlowRecord] = []
    results_lock = threading.Lock()

    def sink(record: FlowRecord) -> None:
        with results_lock:
            results.append(record)

    started_unix_ms = int(time.time() * 1000)
    epoch = time.monotonic()
    counter_start = counter_sampler() if counter_sampler is not None else None

    client_threads: list[threading.Thread] = []
    for client_id, offset in enumerate(offsets):
        delay = epoch + offset - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        thread = threading.Thread(
            target=_run_client, args=(client_id, config, epoch, sink), daemon=True
        )
        thread.start()
        client_threads.append(thread)

    join_budget = config.connect_timeout + config.transfer_timeout + 5.0
    deadline = time.monotonic() + join_budget
    for thread in client_threads:
        thread.join(timeout=max(0.1, deadline - time.monotonic()))

    # one record per spawned client, even if a worker wedged past its timeouts
    with results_lock:
        seen = {r.client_id for r in results}
    now = time.monotonic() - epoch
    for client_id, offset in enumerate(offsets):
        if client_id not in seen:
            sink(
                FlowRecord(
                    client_id=client_id,
                    spawn_s=offset,
                    complete_s=max(now, offset),
                    fct_s=max(now - offset, 0.0),
                    bytes=0,
                    flows=config.parallel_flows,
                    status="error",
                    error="client did not report before the join deadline",
                )
            )

    meta = dict(config.config_echo())
    meta["started_unix_ms"] = started_unix_ms
    meta["monotonic_epoch_s"] = epoch
    if counter_sampler is not None:
        meta["interface_bytes_start"] = counter_start
        meta["interface_bytes_end"] = counter_sampler()

    with results_lock:
        records = sorted(results, key=lambda r: r.client_id)
    return TransferLog(meta=meta, records=records)
