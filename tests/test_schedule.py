from __future__ import annotations

import math
from array import array
from dataclasses import replace

import pytest

from streamscore.fluidsim import Scenario
from streamscore.loadgen import ClientRunConfig
from streamscore.model import LinkSpec
from streamscore.schedule import MAX_CLIENTS, MAX_FLOWS, LoadSpec, SpawnMode

LOAD = dict(duration=3.0, concurrency=2.5, transfer_bytes=1000, parallel_flows=3)
LOAD_KEYS = ["duration", "concurrency", "parallel_flows", "transfer_bytes", "mode"]


def _backends(**load) -> tuple[Scenario, ClientRunConfig]:
    return (
        Scenario(link=LinkSpec(bandwidth=1e9, rtt=0.01), **load),
        ClientRunConfig(server_address="127.0.0.1", base_port=9000, **load),
    )


def test_infinite_transfer_bytes_is_named_as_not_finite():
    # inf also fails the whole-bytes test, whose message would hide the cause; the range is a
    # record's int64 bytes
    with pytest.raises(ValueError, match=r"^transfer_bytes must be in \[0, 2\*\*63\), got inf$"):
        LoadSpec(**{**LOAD, "transfer_bytes": math.inf})


@pytest.mark.parametrize("mode", list(SpawnMode))
@pytest.mark.parametrize(
    "name, bad",
    [("duration", 0.0), ("duration", -1.0), ("duration", math.inf), ("concurrency", 0.0),
     ("concurrency", math.nan), ("transfer_bytes", -1), ("transfer_bytes", math.inf),
     ("transfer_bytes", 1.5), ("transfer_bytes", 2**63), ("transfer_bytes", 1e300), ("parallel_flows", 0), ("parallel_flows", 1.5),
     ("parallel_flows", MAX_FLOWS + 1), ("parallel_flows", math.inf),
     pytest.param("parallel_flows", 10**400, id="parallel_flows-10**400")],
)
def test_both_backends_share_one_load_spec(mode, name, bad):
    load = dict(LOAD, mode=mode)
    spec = LoadSpec(**load)
    sim, live = _backends(**load)
    assert sim.spawn_times() == live.spawn_times() == spec.spawn_times()
    for echo in (sim.config_echo(), live.config_echo()):
        # the five load keys sit together, in one order, with equal values
        start = list(echo).index("duration")
        assert list(echo.items())[start:start + 5] == list(spec.load_echo().items())
    assert list(spec.load_echo()) == LOAD_KEYS

    # an invalid shared value is rejected by both, from the one LoadSpec check
    for backend in (sim, live):
        with pytest.raises(ValueError, match=f"^{name} must be") as excinfo:
            replace(backend, **{name: bad})
        assert excinfo.traceback[-1].path.name == "schedule.py"


@pytest.mark.parametrize("mode", list(SpawnMode))
@pytest.mark.parametrize("concurrency", [0.7, 2.5, 3.0])
def test_spawn_times_are_a_float64_array_of_the_closed_form(mode, concurrency):
    spec = LoadSpec(mode=mode, concurrency=concurrency, duration=4.0, transfer_bytes=1)
    times = spec.spawn_times()
    assert (type(times), times.typecode) == (array, "d")
    batch = math.ceil(concurrency)  # a simultaneous second spawns a whole batch
    simultaneous = mode is SpawnMode.SIMULTANEOUS
    assert times.tolist() == [float(k // batch) if simultaneous else k / concurrency
                              for k in range(spec.client_count)]
    if simultaneous and concurrency == 2.5:
        assert times.tolist() == [0.0] * 3 + [1.0] * 3 + [2.0] * 3 + [3.0] * 3


def test_only_the_simulator_rejects_an_empty_transfer():
    # a measured run may send 0 bytes (measure run --size 0B); a fluid client may not
    sim, live = _backends(**LOAD)
    assert replace(live, transfer_bytes=0).transfer_bytes == 0
    with pytest.raises(ValueError, match="transfer_bytes must be > 0"):
        replace(sim, transfer_bytes=0)


def test_flow_count_is_whole_and_at_most_the_ceiling():
    for backend in _backends(**dict(LOAD, parallel_flows=float(MAX_FLOWS))):
        assert type(backend.parallel_flows) is int and backend.parallel_flows == MAX_FLOWS
    with pytest.raises(ValueError, match=f"parallel_flows must be a whole number in \\[1, {MAX_FLOWS}\\], got 2.5"):
        LoadSpec(**dict(LOAD, parallel_flows=2.5))


def test_integral_float_bytes_are_stored_as_an_int():
    # one type for both backends, so both headers write the same transfer_bytes
    for backend in _backends(**dict(LOAD, transfer_bytes=3e8)):
        assert type(backend.transfer_bytes) is int and backend.transfer_bytes == 300_000_000


@pytest.mark.parametrize(
    "mode, concurrency, duration",
    [(SpawnMode.SCHEDULED, 1.0, MAX_CLIENTS), (SpawnMode.SCHEDULED, 4.0, MAX_CLIENTS / 4),
     (SpawnMode.SIMULTANEOUS, 1.0, MAX_CLIENTS), (SpawnMode.SIMULTANEOUS, 4.5, MAX_CLIENTS / 5)],
)
def test_client_count_is_checked_before_any_spawn_list(monkeypatch, mode, concurrency, duration):
    def no_list(self):
        raise AssertionError("spawn_times built a list")

    monkeypatch.setattr(LoadSpec, "spawn_times", no_list)
    # the ceiling itself is accepted; one second more is rejected, naming the count
    spec = LoadSpec(mode=mode, concurrency=concurrency, duration=duration, transfer_bytes=1)
    assert spec.client_count == MAX_CLIENTS
    scheduled = mode is SpawnMode.SCHEDULED
    over = concurrency * (duration + 1) if scheduled else MAX_CLIENTS + math.ceil(concurrency)
    message = f"^client count must be 1 to {MAX_CLIENTS}, got {over:.10g}$"
    for backend in _backends(**dict(LOAD, mode=mode)):
        with pytest.raises(ValueError, match=message):
            replace(backend, concurrency=concurrency, duration=duration + 1)


@pytest.mark.parametrize("mode", list(SpawnMode))
@pytest.mark.parametrize(
    "concurrency, duration, shown",
    [(1e200, 1e200, "inf"), (1.0, 1e-10, "0")],
)
def test_client_count_outside_its_range_is_rejected(mode, concurrency, duration, shown):
    # an overflowing product is inf, never math.ceil(inf) or a huge int in the message
    with pytest.raises(ValueError, match=f"^client count must be 1 to {MAX_CLIENTS}, got {shown}$"):
        LoadSpec(mode=mode, concurrency=concurrency, duration=duration, transfer_bytes=1)
