from __future__ import annotations

import socket
import struct
import sys
import threading
import time

import pytest

from streamscore.loadgen import (
    ACK,
    HEADER_SIZE,
    ClientRunConfig,
    ServerConfig,
    ServerStartupError,
    TransferServer,
    WireProtocolError,
    pack_header,
    parse_header,
    run_clients,
    split_bytes,
)
from streamscore.schedule import SpawnMode

from conftest import (CountingServer, assert_typed_columns, find_free_port_block, gc_pauses,
                      spawn_diagnostics)


# --- wire protocol ---


def test_header_layout_is_bit_exact():
    raw = pack_header(500_000_000)
    assert len(raw) == HEADER_SIZE == 16
    assert raw[:4] == b"SGTE"
    assert raw[4] == 0x01
    assert raw[5:8] == b"\x00\x00\x00"
    assert raw[8:] == struct.pack(">Q", 500_000_000)
    assert parse_header(raw) == 500_000_000


def test_parse_header_rejects_bad_magic_and_version():
    good = pack_header(10)
    with pytest.raises(WireProtocolError, match="magic"):
        parse_header(b"XGTE" + good[4:])
    with pytest.raises(WireProtocolError, match="version"):
        parse_header(good[:4] + b"\x02" + good[5:])
    with pytest.raises(WireProtocolError, match="16 bytes"):
        parse_header(good[:10])


def test_split_bytes_even_and_remainder():
    assert split_bytes(500_000_000, 4) == [125_000_000] * 4
    assert split_bytes(10, 3) == [3, 3, 4]
    assert split_bytes(0, 2) == [0, 0]


# --- server pool ---


def test_server_binds_sequential_ports_and_acks():
    base = find_free_port_block(3)
    with TransferServer(ServerConfig(base_port=base, pool_size=3)) as server:
        assert server.config.ports == (base, base + 1, base + 2)
        for port in server.config.ports:
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.sendall(pack_header(1000) + bytes(1000))
                assert sock.recv(1) == ACK


def recv_exactly(conn: socket.socket, nbytes: int) -> bytes:
    data = bytearray()
    while len(data) < nbytes:
        part = conn.recv(min(nbytes - len(data), 1 << 20))
        assert part, f"peer closed after {len(data)} of {nbytes} bytes"
        data += part
    return bytes(data)


def test_every_flow_carries_the_byte_cycle_across_the_pattern_wrap():
    # 2.5 MiB + 17 B a flow: each crosses the 1 MiB end of the client's pattern file twice
    per_flow = 5 * 2**19 + 17
    base = find_free_port_block(1)
    payloads = []
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", base))
        listener.listen(8)
        listener.settimeout(10)

        def read_flows():  # one flow at a time; the others wait in the kernel's queues
            for _ in range(3):
                conn, _addr = listener.accept()
                with conn:
                    conn.settimeout(10)
                    payloads.append(recv_exactly(conn, parse_header(recv_exactly(conn, HEADER_SIZE))))
                    conn.sendall(ACK)

        reader = threading.Thread(target=read_flows, daemon=True)
        reader.start()
        _, records = run_clients(
            ClientRunConfig(
                server_address="127.0.0.1", base_port=base, pool_size=1, duration=1.0,
                concurrency=1.0, transfer_bytes=3 * per_flow, parallel_flows=3,
                transfer_timeout=10.0,
            )
        )
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert records.error == (None,)
    cycle = bytes(range(256)) * (per_flow // 256 + 1)
    assert [len(payload) for payload in payloads] == [per_flow] * 3
    assert all(payload == cycle[:per_flow] for payload in payloads)  # byte i is i % 256


@pytest.mark.skipif(sys.platform != "linux", reason="Linux alone drops TCP bytes uncopied on MSG_TRUNC")
def test_server_discards_the_payload_without_writing_its_sink():
    sinks = []

    class SinkServer(TransferServer):
        def _serve_connection(self, conn, sink):
            sinks.append(sink)
            yield from super()._serve_connection(conn, sink)

    base = find_free_port_block(1)
    payload = bytes(range(256)) * 4096 * 2 + bytes(range(1, 100))
    with SinkServer(ServerConfig(base_port=base, pool_size=1)):
        with socket.create_connection(("127.0.0.1", base), timeout=5) as sock:
            sock.sendall(pack_header(len(payload)) + payload)
            assert sock.recv(1) == ACK
        [sink] = sinks
        assert sink[:] == bytes(len(sink))  # the kernel counted the bytes and copied none
    assert sink.closed  # the loop closed it when it ended


def test_zero_length_payload_acked_immediately():
    base = find_free_port_block(1)
    with TransferServer(ServerConfig(base_port=base, pool_size=1)) as _:
        with socket.create_connection(("127.0.0.1", base), timeout=5) as sock:
            sock.sendall(pack_header(0))
            assert sock.recv(1) == ACK


def test_connection_reuse_multiple_transfers():
    base = find_free_port_block(1)
    with TransferServer(ServerConfig(base_port=base, pool_size=1)):
        with socket.create_connection(("127.0.0.1", base), timeout=5) as sock:
            for _ in range(3):
                sock.sendall(pack_header(100))
                sock.sendall(b"\x00" * 100)
                assert sock.recv(1) == ACK


@pytest.mark.parametrize(
    "sent, half_close",
    [(b"NOPE" + pack_header(0)[4:], False),  # a bad magic: the server closes by itself
     (pack_header(100) + b"\x00" * 10, True)],  # a peer that stops mid-payload
)
def test_bad_preamble_or_cut_payload_dropped_without_ack(sent, half_close):
    base = find_free_port_block(1)
    with TransferServer(ServerConfig(base_port=base, pool_size=1)) as server:
        with socket.create_connection(("127.0.0.1", base), timeout=5) as sock:
            sock.sendall(sent)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            assert sock.recv(1) == b""  # server closed, no acknowledgment
        assert server.transfers_served == 0


def test_port_conflict_fails_fast_and_releases_earlier_ports():
    base = find_free_port_block(3)
    blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    blocker.bind(("127.0.0.1", base + 2))
    blocker.listen(1)
    try:
        server = TransferServer(ServerConfig(base_port=base, pool_size=3))
        with pytest.raises(ServerStartupError, match=str(base + 2)):
            server.start()
        # earlier ports were released: a fresh pool over them must bind
        with TransferServer(ServerConfig(base_port=base, pool_size=2)):
            pass
    finally:
        blocker.close()


# --- client orchestration ---


def test_loopback_run_simultaneous_counts_and_bytes():
    base = find_free_port_block(4)
    with TransferServer(ServerConfig(base_port=base, pool_size=4)):
        _, records = run_clients(
            ClientRunConfig(
                server_address="127.0.0.1",
                base_port=base,
                pool_size=4,
                duration=2.0,
                concurrency=3.0,
                transfer_bytes=1_000_000,
                parallel_flows=4,
            )
        )
    assert len(records) == 6  # 2 batches x 3 clients
    assert_typed_columns(records)
    assert all(records.ok_mask())
    for nbytes, flows, fct in zip(records.bytes, records.flows, records.fct_s):
        assert nbytes == 1_000_000  # per-flow byte audit sums exactly
        assert flows == 4
        assert fct > 0


def test_whole_float_transfer_bytes_sent_as_int_and_fraction_rejected():
    # parse_bytes returns a float; the LoadSpec stores the int the wire header packs
    base = find_free_port_block(2)
    with TransferServer(ServerConfig(base_port=base, pool_size=2)):
        meta, records = run_clients(
            ClientRunConfig(
                server_address="127.0.0.1",
                base_port=base,
                pool_size=2,
                duration=1.0,
                concurrency=2.0,
                transfer_bytes=1e6,
            )
        )
    assert list(zip(records.ok_mask(), records.bytes)) == [(True, 1_000_000)] * 2
    assert meta["transfer_bytes"] == 1_000_000
    assert type(meta["transfer_bytes"]) is int
    with pytest.raises(ValueError, match="transfer_bytes must be whole bytes, got 1.5"):
        ClientRunConfig(
            server_address="127.0.0.1", base_port=base, duration=1.0, concurrency=1.0,
            transfer_bytes=1.5,
        )


def test_simultaneous_batch_spread_under_50ms():
    base = find_free_port_block(4)
    with TransferServer(ServerConfig(base_port=base, pool_size=4)):
        _, records = run_clients(
            ClientRunConfig(
                server_address="127.0.0.1",
                base_port=base,
                pool_size=4,
                duration=2.0,
                concurrency=4.0,
                transfer_bytes=10_000,
            )
        )
    batches = {0: [], 1: []}
    for client_id, spawn in zip(records.client_id, records.spawn_s):
        batches[client_id // 4].append(spawn)
    for second, spawns in batches.items():
        assert len(spawns) == 4
        assert max(spawns) - min(spawns) < 0.050
        assert abs(min(spawns) - second) < 0.050


def test_scheduled_spawn_gaps_within_10ms():
    base = find_free_port_block(2)
    with CountingServer(ServerConfig(base_port=base, pool_size=2)) as server:
        live_at_start = server.live_connections
        with gc_pauses() as pauses:
            meta, records = run_clients(
                ClientRunConfig(
                    server_address="127.0.0.1",
                    base_port=base,
                    pool_size=2,
                    duration=2.0,
                    concurrency=3.0,
                    transfer_bytes=10_000,
                    mode=SpawnMode.SCHEDULED,
                )
            )
    spawns = [spawn for _, spawn in sorted(zip(records.client_id, records.spawn_s))]
    assert len(spawns) == 6
    gaps = [b - a for a, b in zip(spawns, spawns[1:])]
    lateness_ms = [round((gap - 1.0 / 3.0) * 1e3, 3) for gap in gaps]
    assert all(
        abs(gap - 1.0 / 3.0) < 0.010 for gap in gaps
    ), f"gap lateness (ms): {lateness_ms}; {spawn_diagnostics(meta, pauses, live_at_start)}"


def test_refused_connections_logged_as_failures():
    base = find_free_port_block(2)  # nothing listening
    _, records = run_clients(
        ClientRunConfig(
            server_address="127.0.0.1",
            base_port=base,
            pool_size=2,
            duration=1.0,
            concurrency=2.0,
            transfer_bytes=1000,
            parallel_flows=2,
            connect_timeout=2.0,
            transfer_timeout=2.0,
        )
    )
    assert records.ok_mask() == [False, False]
    for error, nbytes in zip(records.error, records.bytes):
        assert error
        assert nbytes == 0


def test_port_assignment_round_robins_over_pool():
    base = find_free_port_block(2)
    with TransferServer(ServerConfig(base_port=base, pool_size=2)) as server:
        _, records = run_clients(
            ClientRunConfig(
                server_address="127.0.0.1",
                base_port=base,
                pool_size=2,
                duration=1.0,
                concurrency=4.0,
                transfer_bytes=1000,
            )
        )
        assert all(records.ok_mask())
        assert server.transfers_served == 4


def test_client_i_targets_port_i_mod_pool_size():
    # only the pool's second port listens, so only the odd clients reach a server
    base = find_free_port_block(2)
    with TransferServer(ServerConfig(base_port=base + 1, pool_size=1)) as server:
        _, records = run_clients(
            ClientRunConfig(
                server_address="127.0.0.1", base_port=base, pool_size=2, duration=1.0,
                concurrency=4.0, transfer_bytes=1000, connect_timeout=2.0,
            )
        )
    assert records.ok_mask() == [False, True, False, True]
    assert server.transfers_served == 2


def test_transfer_is_counted_before_its_ack(monkeypatch):
    # a client that holds its ack must find its transfer counted
    base = find_free_port_block(1)
    counts_at_ack = []
    real_sendall = socket.socket.sendall
    with TransferServer(ServerConfig(base_port=base, pool_size=1)) as server:

        def sendall(sock, data, *args):
            if data == ACK:
                counts_at_ack.append(server.transfers_served)
            return real_sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", sendall)
        _, records = run_clients(
            ClientRunConfig(
                server_address="127.0.0.1",
                base_port=base,
                pool_size=1,
                duration=1.0,
                concurrency=2.0,
                transfer_bytes=1000,
                mode=SpawnMode.SCHEDULED,
            )
        )
    assert all(records.ok_mask())
    assert counts_at_ack == [1, 2]


def test_run_meta_echoes_config():
    base = find_free_port_block(1)
    config = ClientRunConfig(
        server_address="127.0.0.1",
        base_port=base,
        pool_size=1,
        duration=1.0,
        concurrency=1.0,
        transfer_bytes=10,
    )
    with TransferServer(ServerConfig(base_port=base, pool_size=1)):
        meta, _ = run_clients(config)
    for key, value in config.config_echo().items():
        assert meta[key] == value
    # the header's key order is part of the log format
    assert list(meta) == [
        "source",
        "server_address",
        "base_port",
        "pool_size",
        "duration",
        "concurrency",
        "parallel_flows",
        "transfer_bytes",
        "mode",
        "connect_timeout",
        "transfer_timeout",
        "started_unix_ms",
        "monotonic_epoch_s",
    ]


# --- one selector loop per side ---


def count_threads(monkeypatch) -> list:
    """Gather every threading.Thread constructed from now until the test ends."""
    created = []

    class Counted(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(threading, "Thread", Counted)
    return created


def test_run_clients_starts_no_thread(monkeypatch):
    base = find_free_port_block(2)
    with TransferServer(ServerConfig(base_port=base, pool_size=2)):
        created = count_threads(monkeypatch)  # the server's own thread already runs
        _, records = run_clients(
            ClientRunConfig(
                server_address="127.0.0.1",
                base_port=base,
                pool_size=2,
                duration=1.0,
                concurrency=3.0,
                transfer_bytes=1000,
                parallel_flows=2,
            )
        )
    assert len(records) == 3
    assert all(records.ok_mask())
    assert created == []


def test_server_runs_one_thread_for_all_connections(monkeypatch):
    base = find_free_port_block(2)
    created = count_threads(monkeypatch)
    with TransferServer(ServerConfig(base_port=base, pool_size=2)) as server:
        socks = [
            socket.create_connection(("127.0.0.1", base + i % 2), timeout=5) for i in range(3)
        ]
        try:
            for sock in socks:  # all three stay open while the others transfer
                sock.sendall(pack_header(1000) + bytes(1000))
                assert sock.recv(1) == ACK
            assert server.transfers_served == 3
        finally:
            for sock in socks:
                sock.close()
    assert len(created) == 1


def test_stop_closes_live_connections():
    base = find_free_port_block(1)
    server = TransferServer(ServerConfig(base_port=base, pool_size=1))
    server.start()
    try:
        with socket.create_connection(("127.0.0.1", base), timeout=5) as sock:
            sock.sendall(pack_header(0))
            assert sock.recv(1) == ACK  # accepted and served, now idle
            server.stop()
            sock.settimeout(2)
            assert sock.recv(1) == b""  # the server closed it
    finally:
        server.stop()


def test_stop_after_the_loop_saw_the_request_and_ended():
    # stop() flags the loop, then wakes it; the loop may see the flag and end first
    base = find_free_port_block(1)
    server = TransferServer(ServerConfig(base_port=base, pool_size=1))
    server.start()
    thread, server._thread = server._thread, None
    with socket.create_connection(("127.0.0.1", base), timeout=5):
        thread.join(timeout=5)  # the accept woke the loop, and it ended
    assert not thread.is_alive()
    server._thread = thread
    server.stop()


@pytest.mark.parametrize("payload", [1_000, 50_000_000])
def test_timeouts_hold_against_a_listener_that_never_accepts(payload):
    base = find_free_port_block(1)
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", base))
        listener.listen(8)  # the kernel completes both handshakes; nobody reads
        started = time.monotonic()
        _, records = run_clients(
            ClientRunConfig(
                server_address="127.0.0.1",
                base_port=base,
                pool_size=1,
                duration=1.0,
                concurrency=1.0,
                transfer_bytes=payload,
                parallel_flows=2,
                connect_timeout=0.5,
                transfer_timeout=0.5,
            )
        )
        elapsed = time.monotonic() - started
    assert records.error == ("flow 0: timed out; flow 1: timed out",)
    assert elapsed < 2.0


def test_host_name_resolved_once_per_run_in_resolver_order(monkeypatch):
    # the name resolves to ::1 first, where nothing listens, then to 127.0.0.1
    base = find_free_port_block(2)
    lookups = []

    def getaddrinfo(host, port, *args, **kwargs):
        lookups.append(host)
        return [
            (socket.AF_INET6, socket.SOCK_STREAM, 6, "", ("::1", port or 0, 0, 0)),
            (socket.AF_INET, socket.SOCK_STREAM, 6, "", ("127.0.0.1", port or 0)),
        ]

    with TransferServer(ServerConfig(base_port=base, pool_size=2)):
        monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
        _, records = run_clients(
            ClientRunConfig(
                server_address="dtn.example.org",
                base_port=base,
                pool_size=2,
                duration=1.0,
                concurrency=3.0,
                transfer_bytes=1000,
                parallel_flows=2,
            )
        )
    assert all(records.ok_mask())
    assert records.bytes.tolist() == [1000] * 3
    assert lookups == ["dtn.example.org"]
