from __future__ import annotations

import socket
import struct

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
    payload_chunks,
    run_clients,
    split_bytes,
)
from streamscore.schedule import SpawnMode

from conftest import find_free_port_block


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
    with pytest.raises(ValueError):
        split_bytes(10, 0)


def test_payload_pattern_cycles_continuously():
    data = b"".join(payload_chunks(70_000))
    assert len(data) == 70_000
    assert all(data[i] == i % 256 for i in range(0, 70_000, 997))


# --- server pool ---


def test_server_binds_sequential_ports_and_acks():
    base = find_free_port_block(3)
    with TransferServer(ServerConfig(base_port=base, pool_size=3)) as server:
        assert server.config.ports == (base, base + 1, base + 2)
        for port in server.config.ports:
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.sendall(pack_header(1000))
                for chunk in payload_chunks(1000):
                    sock.sendall(chunk)
                assert sock.recv(1) == ACK


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


def test_bad_magic_dropped_without_ack():
    base = find_free_port_block(1)
    with TransferServer(ServerConfig(base_port=base, pool_size=1)):
        with socket.create_connection(("127.0.0.1", base), timeout=5) as sock:
            sock.sendall(b"NOPE" + pack_header(0)[4:])
            assert sock.recv(1) == b""  # server closed, no acknowledgment


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
        log = run_clients(
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
    assert len(log.records) == 6  # 2 batches x 3 clients
    assert log.failures == 0
    for record in log.records:
        assert record.ok
        assert record.bytes == 1_000_000  # per-flow byte audit sums exactly
        assert record.flows == 4
        assert record.fct_s > 0


def test_simultaneous_batch_spread_under_50ms():
    base = find_free_port_block(4)
    with TransferServer(ServerConfig(base_port=base, pool_size=4)):
        log = run_clients(
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
    for record in log.records:
        batches[record.client_id // 4].append(record.spawn_s)
    for second, spawns in batches.items():
        assert len(spawns) == 4
        assert max(spawns) - min(spawns) < 0.050
        assert abs(min(spawns) - second) < 0.050


def test_scheduled_spawn_gaps_within_10ms():
    base = find_free_port_block(2)
    with TransferServer(ServerConfig(base_port=base, pool_size=2)):
        log = run_clients(
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
    spawns = [r.spawn_s for r in sorted(log.records, key=lambda r: r.client_id)]
    assert len(spawns) == 6
    gaps = [b - a for a, b in zip(spawns, spawns[1:])]
    for gap in gaps:
        assert abs(gap - 1.0 / 3.0) < 0.010


def test_refused_connections_logged_as_failures():
    base = find_free_port_block(2)  # nothing listening
    log = run_clients(
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
    assert len(log.records) == 2
    assert log.failures == 2
    for record in log.records:
        assert record.status == "error"
        assert record.error
        assert record.bytes == 0


def test_port_assignment_round_robins_over_pool():
    base = find_free_port_block(2)
    with TransferServer(ServerConfig(base_port=base, pool_size=2)) as server:
        log = run_clients(
            ClientRunConfig(
                server_address="127.0.0.1",
                base_port=base,
                pool_size=2,
                duration=1.0,
                concurrency=4.0,
                transfer_bytes=1000,
            )
        )
        assert log.failures == 0
        assert server.transfers_served == 4


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
        log = run_clients(
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
    assert log.failures == 0
    assert counts_at_ack == [1, 2]


def test_counter_sampler_hook_recorded_in_meta():
    base = find_free_port_block(1)
    samples = iter([100, 200])
    with TransferServer(ServerConfig(base_port=base, pool_size=1)):
        log = run_clients(
            ClientRunConfig(
                server_address="127.0.0.1",
                base_port=base,
                pool_size=1,
                duration=1.0,
                concurrency=1.0,
                transfer_bytes=10,
            ),
            counter_sampler=lambda: next(samples),
        )
    assert log.meta["interface_bytes_start"] == 100
    assert log.meta["interface_bytes_end"] == 200


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
        log = run_clients(config)
    for key, value in config.config_echo().items():
        assert log.meta[key] == value
    # the header's key order is part of the log format
    assert list(log.meta) == [
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
