from __future__ import annotations

from dataclasses import replace

import pytest

from streamscore.fluidsim import Scenario
from streamscore.loadgen import ClientRunConfig
from streamscore.model import LinkSpec
from streamscore.schedule import LoadSpec, SpawnMode

LOAD = dict(duration=3.0, concurrency=2.5, transfer_bytes=1000, parallel_flows=3)
LOAD_KEYS = ["duration", "concurrency", "parallel_flows", "transfer_bytes", "mode"]


def _backends(**load) -> tuple[Scenario, ClientRunConfig]:
    return (
        Scenario(link=LinkSpec(bandwidth=1e9, rtt=0.01), **load),
        ClientRunConfig(server_address="127.0.0.1", base_port=9000, **load),
    )


@pytest.mark.parametrize("mode", list(SpawnMode))
@pytest.mark.parametrize(
    "name, bad",
    [("duration", 0.0), ("duration", -1.0), ("concurrency", 0.0),
     ("transfer_bytes", -1), ("parallel_flows", 0)],
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


def test_only_the_simulator_rejects_an_empty_transfer():
    # a measured run may send 0 bytes (measure run --size 0B); a fluid client may not
    sim, live = _backends(**LOAD)
    assert replace(live, transfer_bytes=0).transfer_bytes == 0
    with pytest.raises(ValueError, match="transfer_bytes must be > 0"):
        replace(sim, transfer_bytes=0)
