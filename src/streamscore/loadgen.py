"""Live TCP load generation: pooled receive servers and a client orchestrator.

Each side is one ``selectors`` loop, with no thread per client, flow or
connection: every socket is driven by one small generator that yields
``(sock, event, timeout)`` before each call on it, and the loop resumes it once
the socket is ready, or throws ``socket.timeout`` into it when the wait's
deadline passes first. The server binds a pool of sequential ports and runs one
loop thread for the whole pool; each accepted connection counts the declared
payload off the socket with ``MSG_TRUNC``, which on Linux drops the bytes in
the kernel uncopied, is acknowledged with one byte, and repeats until the peer
closes, and ``stop()`` closes every live connection. ``run_clients`` runs its
loop on the calling thread and spawns each client at its offset from the
loop's timer; every flow sends its payload with ``os.sendfile`` (Unix) from
one page-cache file of the byte pattern, so no payload passes through user
space on either side. ``PortPool`` alone checks a pool, as the base of both
configs. ``ClientRunConfig`` is also the shared
``schedule.LoadSpec`` (alone it validates a load, fixes its whole bytes and
bounds its client and flow counts), so the client side spawns on the
simulator's schedule, echoes the same load keys, and logs one record row per
client (its error text, or None) from a monotonic clock, each checked by
``records.check_row``. A run comes back as ``records.read_jsonl`` reads a log:
the header and one ``FlowTable`` in client order.

Wire format, per connection: a 16-byte header (magic ``SGTE``, version 0x01,
3 reserved zero bytes, payload length as big-endian u64) followed by exactly
that many payload bytes (a repeating 0x00-0xFF cycle), answered by the single
byte 0x06 once the server has read everything.
"""

from __future__ import annotations

import errno
import math
import mmap
import os
import selectors
import socket
import struct
import threading
import time

from ._frozen import frozen
from .records import FlowTable, check_row
from .schedule import LoadSpec

MAGIC = b"SGTE"
PROTOCOL_VERSION = 1
ACK = b"\x06"
_HEADER = struct.Struct(">4sB3xQ")
HEADER_SIZE = _HEADER.size  # 16

_CHUNK = 256 * 4096  # 1 MiB, a multiple of 256 so the byte cycle stays aligned
_STALLED_PEER_S = 300.0  # the server's wait deadline, well above any test load
_SPAWN_POLL_S = 0.002  # epoll can wake ~2 ms late: the spawn timer polls the last stretch
DEFAULT_POOL_SIZE = 8  # listeners in a server's pool, and ports a client run spreads over


class WireProtocolError(ValueError):
    """Peer sent bytes that do not match the transfer protocol."""


class ServerStartupError(OSError):
    """A listener port could not be bound; nothing was left half-started."""

    def __init__(self, port: int, cause: OSError):
        super().__init__(f"cannot bind port {port}: {cause}")
        self.port = port


def pack_header(payload_bytes: int) -> bytes:
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
    """Split a transfer across flows evenly, remainder to the last flow (``LoadSpec`` bounds both)."""
    per_flow = total // flows
    return [per_flow] * (flows - 1) + [total - per_flow * (flows - 1)]


class _Loop:
    """One selector driving socket generators, each wait bounded by a deadline.

    A generator yields ``(sock, event, timeout)`` before each call on ``sock``.
    The loop resumes it once ``sock`` is ready for ``event``, or throws
    ``socket.timeout`` into it when ``timeout`` seconds pass first (``None``
    waits without a deadline). Every live generator is parked on one socket.
    """

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()

    def resume(self, gen, error: OSError | None = None) -> None:
        """Run ``gen`` (new, or just woken) to its next wait and park it there."""
        try:
            sock, event, timeout = gen.send(None) if error is None else gen.throw(error)
        except StopIteration:
            return
        deadline = math.inf if timeout is None else time.monotonic() + timeout
        self._selector.register(sock, event, (gen, deadline))

    def _wake(self, key: selectors.SelectorKey, error: OSError | None = None) -> None:
        self._selector.unregister(key.fileobj)
        self.resume(key.data[0], error)

    def run_once(self, max_wait: float = math.inf) -> None:
        """Serve the ready sockets and the expired waits, blocking at most ``max_wait`` s."""
        deadline = min((key.data[1] for key in self._selector.get_map().values()), default=math.inf)
        timeout = min(max_wait, deadline - time.monotonic())
        for key, _ in self._selector.select(None if timeout == math.inf else timeout):
            self._wake(key)
        now = time.monotonic()
        if now >= deadline:
            for key in [key for key in self._selector.get_map().values() if key.data[1] <= now]:
                self._wake(key, socket.timeout("timed out"))

    def close(self) -> None:
        """Close every parked generator; each closes the sockets it owns."""
        for key in list(self._selector.get_map().values()):
            self._selector.unregister(key.fileobj)
            key.data[0].close()
        self._selector.close()


def _until_readable(sock: socket.socket):
    yield sock, selectors.EVENT_READ, None


@frozen(kw_only=True)
class PortPool:
    """Sequential TCP ports; the base of both ends, so each checks its pool alike."""

    base_port: int
    pool_size: int = DEFAULT_POOL_SIZE

    def __post_init__(self) -> None:
        if not 0 < self.base_port <= 65535:
            raise ValueError(f"base_port must be a TCP port, got {self.base_port}")
        if not self.pool_size > 0:
            raise ValueError(f"pool_size must be > 0, got {self.pool_size}")
        if self.base_port + self.pool_size - 1 > 65535:
            raise ValueError("port pool extends past 65535")

    @property
    def ports(self) -> tuple[int, ...]:
        return tuple(range(self.base_port, self.base_port + self.pool_size))


@frozen(kw_only=True)
class ServerConfig(PortPool):
    bind_address: str = "127.0.0.1"


class TransferServer:
    """Pool of acknowledge-on-receipt listeners on sequential ports, one loop thread."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.transfers_served = 0  # written only by the loop thread
        self._thread: threading.Thread | None = None
        self._wake: tuple[socket.socket, ...] = ()  # a byte on [1] ends the loop's wait on [0]

    def start(self) -> None:
        """Bind every port in the pool; on any failure release them all."""
        bound: list[socket.socket] = []
        for port in self.config.ports:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                sock.bind((self.config.bind_address, port))
                sock.listen(128)
            except OSError as exc:
                sock.close()
                for other in bound:
                    other.close()
                raise ServerStartupError(port, exc) from exc
            sock.setblocking(False)
            bound.append(sock)
        loop = _Loop()
        # every connection names it to recv_into with MSG_TRUNC, which on Linux never
        # writes it, so its pages are never made resident
        sink = mmap.mmap(-1, _CHUNK)
        for sock in bound:
            loop.resume(self._accept(loop, sock, sink))
        self._wake = socket.socketpair()
        loop.resume(_until_readable(self._wake[0]))
        self._thread = threading.Thread(target=self._serve, args=(loop, sink), daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """End the loop thread, closing every listener and live connection."""
        thread, self._thread = self._thread, None  # the loop thread ends once it sees None
        if thread is None:
            return
        self._wake[1].send(b"\0")
        thread.join()  # both ends stay open until here: the loop may end before the byte lands
        for end in self._wake:
            end.close()

    def __enter__(self) -> TransferServer:
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _serve(self, loop: _Loop, sink: mmap.mmap) -> None:
        with sink:
            try:
                while self._thread is not None:
                    loop.run_once()
            finally:
                loop.close()

    def _accept(self, loop: _Loop, listener: socket.socket, sink: mmap.mmap):
        with listener:
            while True:
                yield listener, selectors.EVENT_READ, None
                try:
                    conn, _addr = listener.accept()
                except OSError:
                    continue  # the peer left first, or no descriptor is free until one closes
                conn.setblocking(False)
                loop.resume(self._serve_connection(conn, sink))

    def _serve_connection(self, conn: socket.socket, sink: mmap.mmap):
        with conn:
            try:
                while True:
                    header = b""
                    while len(header) < HEADER_SIZE:
                        yield conn, selectors.EVENT_READ, _STALLED_PEER_S
                        part = conn.recv(HEADER_SIZE - len(header))
                        if not part:
                            return  # clean close between transfers, or a cut header
                        header += part
                    remaining = parse_header(header)
                    while remaining > 0:
                        yield conn, selectors.EVENT_READ, _STALLED_PEER_S
                        got = conn.recv_into(sink, min(remaining, _CHUNK), socket.MSG_TRUNC)
                        if not got:
                            return
                        remaining -= got
                    # counted before the ack: a client holding its ack sees its transfer
                    self.transfers_served += 1
                    conn.sendall(ACK)
            except (WireProtocolError, OSError):
                return  # drop without acknowledgment


@frozen(kw_only=True)
class ClientRunConfig(LoadSpec, PortPool):
    """A measured run: the shared load spec and port pool, plus where and how to connect."""

    server_address: str
    connect_timeout: float = 10.0
    transfer_timeout: float = 120.0

    def __post_init__(self) -> None:
        LoadSpec.__post_init__(self)
        PortPool.__post_init__(self)
        if not (self.connect_timeout > 0 and self.transfer_timeout > 0):
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


def _transfer(targets, port: int, nbytes: int, pattern: int, connect_timeout: float,
              transfer_timeout: float):
    """One flow on the client loop: connect, send the payload from ``pattern`` and await the ack.

    ``pattern`` is the descriptor of a ``_CHUNK``-byte file of the byte cycle;
    the payload is sent from it with ``os.sendfile``, wrapping at its end.

    ``targets`` is the resolver's address list, tried in order, the last
    address's error raised, as ``socket.create_connection`` does; or it is the
    resolver's error, which every flow then raises.
    """
    if isinstance(targets, OSError):
        raise targets.with_traceback(None)
    for attempt, (family, kind, proto, _, sockaddr) in enumerate(targets, 1):
        with socket.socket(family, kind, proto) as sock:
            sock.setblocking(False)
            try:
                code = sock.connect_ex((sockaddr[0], port, *sockaddr[2:]))
                if code == errno.EINPROGRESS:
                    yield sock, selectors.EVENT_WRITE, connect_timeout
                    code = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                if code:
                    raise OSError(code, os.strerror(code))
            except OSError:
                if attempt == len(targets):
                    raise
                continue
            header = pack_header(nbytes)
            while header:
                yield sock, selectors.EVENT_WRITE, transfer_timeout
                header = header[sock.send(header) :]
            sent = 0
            while sent < nbytes:
                yield sock, selectors.EVENT_WRITE, transfer_timeout
                sent += os.sendfile(sock.fileno(), pattern, sent % _CHUNK,
                                    min(_CHUNK - sent % _CHUNK, nbytes - sent))
            yield sock, selectors.EVENT_READ, transfer_timeout
            ack = sock.recv(1)
            if ack != ACK:
                raise WireProtocolError(
                    "missing acknowledgment" if not ack else f"unexpected reply {ack!r}"
                )
            return nbytes


def run_clients(config: ClientRunConfig) -> tuple[dict, FlowTable]:
    """Spawn transfer clients on schedule; return the header and records, as ``read_jsonl`` does."""
    import tempfile  # here, so that `measure serve` never loads it

    offsets = config.spawn_times()
    sizes = split_bytes(config.transfer_bytes, config.parallel_flows)
    try:  # once per run, so a slow resolver cannot stall the spawn timer
        targets = socket.getaddrinfo(config.server_address, None, type=socket.SOCK_STREAM)
    except OSError as exc:
        targets = exc
    ports = config.ports
    rows: list[tuple] = []  # one per client, in completion order
    loop = _Loop()

    def start_client(client_id: int) -> None:
        port = ports[client_id % len(ports)]
        spawn_s = time.monotonic() - epoch
        acked = [0] * len(sizes)
        errors = [""] * len(sizes)
        open_flows = len(sizes)

        def flow(index: int):
            nonlocal open_flows
            try:
                acked[index] = yield from _transfer(
                    targets, port, sizes[index], pattern, config.connect_timeout,
                    config.transfer_timeout,
                )
            except (OSError, WireProtocolError) as exc:
                errors[index] = f"flow {index}: {exc}"
            open_flows -= 1
            if open_flows == 0:  # each flow ends by ack, error or deadline
                complete_s = time.monotonic() - epoch
                error = "; ".join(filter(None, errors))
                row = (
                    client_id, spawn_s, complete_s, complete_s - spawn_s, sum(acked),
                    config.parallel_flows, error or None,
                )
                check_row(*row[1:6])
                rows.append(row)

        for index in range(len(sizes)):
            loop.resume(flow(index))

    with tempfile.TemporaryFile() as pattern_file:  # every flow's payload, from the page cache
        piece = bytes(range(256)) * 256  # 64 KiB pieces: no 1 MiB object is made
        for _ in range(_CHUNK // len(piece)):
            pattern_file.write(piece)
        pattern_file.flush()
        pattern = pattern_file.fileno()
        started_unix_ms = int(time.time() * 1000)
        epoch = time.monotonic()
        try:
            for client_id, offset in enumerate(offsets):
                while (wait := epoch + offset - time.monotonic()) > 0:
                    loop.run_once(wait - _SPAWN_POLL_S)
                start_client(client_id)
            while len(rows) < len(offsets):  # every client reports
                loop.run_once()
        finally:
            loop.close()

    meta = config.config_echo()
    meta["started_unix_ms"] = started_unix_ms
    meta["monotonic_epoch_s"] = epoch
    # client ids are unique, so the sort never compares past them
    return meta, FlowTable(*zip(*sorted(rows)))
