from __future__ import annotations

import json
import math
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from streamscore import fluidsim
from streamscore.fluidsim import (
    AllocationInterval,
    Scenario,
    load_scenario,
    simulate,
    sweep,
)
from streamscore.model import LinkSpec
from streamscore.schedule import SpawnMode, spawn_offsets

from fluidsim_reference import simulate_reference

GBPS_25 = 25e9 / 8
LINK = LinkSpec(bandwidth=GBPS_25)


def scenario(**overrides) -> Scenario:
    base = dict(
        link=LINK,
        duration=1.0,
        concurrency=8.0,
        transfer_bytes=0.5e9,
        parallel_flows=1,
        mode=SpawnMode.SIMULTANEOUS,
        startup_latency=0.0,
    )
    base.update(overrides)
    return Scenario(**base)


# --- spawn schedules ---


def test_simultaneous_batches_each_whole_second():
    offsets = spawn_offsets(SpawnMode.SIMULTANEOUS, 8, 10.0)
    assert len(offsets) == 80
    assert offsets[:8] == [0.0] * 8
    assert sorted(set(offsets)) == [float(s) for s in range(10)]


def test_scheduled_spacing():
    offsets = spawn_offsets(SpawnMode.SCHEDULED, 2, 10.0)
    assert len(offsets) == 20
    deltas = [b - a for a, b in zip(offsets, offsets[1:])]
    assert all(d == pytest.approx(0.5, rel=1e-12) for d in deltas)


def test_scheduled_count_is_exact_at_awkward_rates():
    # 3 clients/s for 10 s must produce exactly 30, not 31
    assert len(spawn_offsets(SpawnMode.SCHEDULED, 3, 10.0)) == 30
    assert len(spawn_offsets(SpawnMode.SIMULTANEOUS, 3, 10.0)) == 30


# --- simulate: oracles ---


def test_equal_share_eight_clients():
    # equal-share oracle: total 4 GB at line rate, all complete together
    result = simulate(scenario())
    assert len(result.records) == 8
    expected = 8 * 0.5e9 / GBPS_25
    for record in result.records:
        assert record.fct_s == expected  # bit-exact
        assert record.spawn_s == 0.0
    assert result.max_fct == expected == pytest.approx(1.28, rel=1e-12)


def test_single_client_attains_line_rate():
    result = simulate(scenario(concurrency=1.0))
    assert len(result.records) == 1
    assert result.records[0].fct_s == pytest.approx(0.16, rel=1e-9)


def test_scheduled_no_overlap_all_line_rate():
    # 2 clients/s, each 0.16 s of work: finishes inside the 0.5 s gap
    result = simulate(
        scenario(duration=10.0, concurrency=2.0, mode=SpawnMode.SCHEDULED)
    )
    assert len(result.records) == 20
    for record in result.records:
        assert record.fct_s == pytest.approx(0.16, rel=1e-9)


def test_startup_latency_defaults_to_rtt_and_adds_to_fct():
    link = LinkSpec(bandwidth=GBPS_25, rtt=0.016)
    result = simulate(
        Scenario(link=link, duration=1.0, concurrency=1.0, transfer_bytes=0.5e9)
    )
    assert result.records[0].fct_s == pytest.approx(0.176, rel=1e-9)


def test_worst_fct_matches_max():
    # the summary comes from the FCT column; records are built from it later
    for mode in SpawnMode:
        result = simulate(scenario(duration=10.0, concurrency=7.5, mode=mode))
        assert result.max_fct == max(r.fct_s for r in result.records)


# --- conservation invariants ---


def _per_client_bytes(trace: tuple[AllocationInterval, ...]) -> dict[int, float]:
    delivered: dict[int, float] = defaultdict(float)
    for interval in trace:
        for cid in interval.client_ids:
            delivered[cid] += interval.rate_per_client * (interval.end - interval.start)
    return delivered


def test_work_conservation_every_interval():
    result = simulate(scenario(duration=10.0))
    for interval in result.trace:
        allocated = interval.rate_per_client * len(interval.client_ids)
        assert allocated == pytest.approx(GBPS_25, rel=1e-9)


def test_byte_conservation_per_client():
    result = simulate(scenario(duration=10.0))
    delivered = _per_client_bytes(result.trace)
    assert len(delivered) == 80
    for total in delivered.values():
        assert total == pytest.approx(0.5e9, rel=1e-6)


def test_no_flow_beats_line_rate():
    result = simulate(scenario(duration=10.0, startup_latency=0.02))
    floor = 0.02 + 0.5e9 / GBPS_25
    for record in result.records:
        assert record.fct_s >= floor - 1e-12


def test_total_delivered_bytes_counts_whole_clients():
    result = simulate(scenario(duration=10.0, concurrency=3.0))
    assert len(result.records) == 30
    assert sum(r.bytes for r in result.records) == 30 * int(0.5e9)


def test_determinism_bit_identical():
    a = simulate(scenario(duration=10.0))
    b = simulate(scenario(duration=10.0))
    # the columns are tuples, so a result stays hashable
    assert a == b and hash(a) == hash(b)
    assert a.records == b.records
    assert a.trace == b.trace
    assert a.utilization == b.utilization
    # reading the lazy views changes neither equality nor the hash
    assert a == b and hash(a) == hash(b)


def test_utilization_bounds_and_equal_share_case():
    result = simulate(scenario())
    assert 0.0 <= result.utilization <= 1.0
    assert result.utilization == pytest.approx(1.0, rel=1e-9)


def test_rejects_zero_clients():
    with pytest.raises(ValueError):
        spawn_offsets(SpawnMode.SIMULTANEOUS, 1, 0.0)


@pytest.mark.parametrize("mode", list(SpawnMode))
@pytest.mark.parametrize("concurrency, duration", [(1e400, 1.0), (1.0, 1e400), (float("nan"), 1.0)])
def test_rejects_non_finite_schedules(mode, concurrency, duration):
    with pytest.raises(ValueError, match="finite"):
        spawn_offsets(mode, concurrency, duration)


# --- reference oracle ---


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


@given(
    mode=st.sampled_from(list(SpawnMode)),
    concurrency=st.floats(min_value=0.5, max_value=12.0),
    duration=st.floats(min_value=1.0, max_value=20.0),
    size=st.floats(min_value=5e7, max_value=5e9),
    alpha=st.floats(min_value=0.1, max_value=1.0),
    startup=st.one_of(st.just(0.0), st.none(), st.floats(min_value=0.0, max_value=0.1)),
)
# overloaded runs, so the active set grows for the whole spawn window
@example(mode=SpawnMode.SCHEDULED, concurrency=8.0, duration=10.0, size=0.5e9,
         alpha=1.0, startup=0.016)
@example(mode=SpawnMode.SIMULTANEOUS, concurrency=7.0, duration=20.0, size=0.5e9,
         alpha=1.0, startup=0.0)
@example(mode=SpawnMode.SCHEDULED, concurrency=12.0, duration=20.0, size=2e9,
         alpha=0.5, startup=None)
def test_matches_reference_oracle(mode, concurrency, duration, size, alpha, startup):
    s = Scenario(
        link=LinkSpec(bandwidth=GBPS_25, alpha=alpha, rtt=0.01),
        duration=duration,
        concurrency=concurrency,
        transfer_bytes=size,
        mode=mode,
        startup_latency=startup,
    )
    fast, slow = simulate(s), simulate_reference(s)

    assert len(fast.trace) == len(slow.trace)
    for got, want in zip(fast.trace, slow.trace):
        assert tuple(got.client_ids) == want.client_ids
        assert _rel_close(got.start, want.start, 1e-12)
        assert _rel_close(got.end, want.end, 1e-12)
        assert got.rate_per_client == want.rate_per_client

    assert len(fast.records) == len(slow.records)
    for got, want in zip(fast.records, slow.records):
        assert (got.client_id, got.spawn_s, got.bytes, got.flows) == (
            want.client_id, want.spawn_s, want.bytes, want.flows
        )
        assert _rel_close(got.fct_s, want.fct_s, 1e-12)
    assert _rel_close(fast.utilization, slow.utilization, 1e-12)
    assert _rel_close(fast.max_fct, slow.max_fct, 1e-12)

    delivered = _per_client_bytes(fast.trace)
    assert sorted(delivered) == list(range(len(fast.records)))
    for total in delivered.values():
        assert _rel_close(total, size, 1e-9)


def test_idle_separated_clients_match_reference_bit_for_bit():
    # the service clock restarts whenever the link idles, so 4,000 clients
    # in a row lose no precision to a growing clock
    s = scenario(duration=2000.0, concurrency=2.0, mode=SpawnMode.SCHEDULED,
                 transfer_bytes=503_517_133.7, startup_latency=0.016)
    fast, slow = simulate(s), simulate_reference(s)
    assert fast.records == slow.records
    assert fast.utilization == slow.utilization


# --- oracle-free invariants at 10^5 clients ---


@pytest.mark.parametrize("mode", list(SpawnMode))
@pytest.mark.parametrize("load", [0.5, 0.95, 1.2, 3.0])
def test_trace_conserves_bytes_and_obeys_littles_law(mode, load):
    # exact identities need no oracle, so they hold at any scale: the trace
    # delivers every client's bytes, and the time clients spend on the link
    # (Little's law) equals the integral of the active count over the trace
    size, clients = 1e6, 100_000
    link = LinkSpec(bandwidth=1e9, alpha=0.8, rtt=0.007)
    concurrency = load * link.bandwidth / size
    result = simulate(
        Scenario(link=link, duration=clients / concurrency, concurrency=concurrency,
                 transfer_bytes=size, mode=mode)
    )
    count = len(result.spawns)
    assert count >= clients
    delivered = math.fsum(rate * (end - start) * (hi - lo)
                          for start, end, lo, hi, rate in result.intervals)
    assert delivered == pytest.approx(count * size, rel=1e-9, abs=0)
    on_link = math.fsum(fct - link.rtt for fct in result.fcts)
    occupancy = math.fsum((end - start) * (hi - lo)
                          for start, end, lo, hi, _ in result.intervals)
    assert on_link == pytest.approx(occupancy, rel=1e-9, abs=0)


# --- scaling guards (deterministic: memory and call counts, no wall clock) ---


def test_overloaded_run_memory_is_linear():
    # 8,000 clients at 1.28x load: the active set grows past 3,000 clients, so
    # per-interval id tuples would hold ~26 M ids; ranges keep the trace small
    s = scenario(duration=1000.0, concurrency=8.0, mode=SpawnMode.SCHEDULED,
                 startup_latency=0.016)
    tracemalloc.start()
    try:
        result = simulate(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.records) == 8000
    assert result.max_fct > 100 * 0.16  # the run really queues
    assert peak < 64 * 2**20


def test_sweep_simulates_each_concurrency_once(monkeypatch):
    calls = []

    def counting(s):
        calls.append(s.concurrency)
        return simulate(s)

    monkeypatch.setattr(fluidsim, "simulate", counting)
    rows = sweep(scenario(duration=10.0), [1, 2, 3, 4, 5, 6, 7, 8], [1, 2, 4, 8])
    assert len(rows) == 32
    assert calls == [1, 2, 3, 4, 5, 6, 7, 8]


# --- lazy records and trace ---


def _count_constructions(monkeypatch) -> Counter:
    built: Counter = Counter()

    def counting(cls):
        def construct(*args):
            built[cls.__name__] += 1
            return cls(*args)

        return construct

    for name in ("FlowRecord", "AllocationInterval"):
        monkeypatch.setattr(fluidsim, name, counting(getattr(fluidsim, name)))
    return built


def test_records_and_trace_are_built_on_first_read(monkeypatch):
    built = _count_constructions(monkeypatch)
    result = simulate(scenario(duration=10.0, concurrency=7.0, mode=SpawnMode.SCHEDULED))
    assert "records" not in vars(result) and "trace" not in vars(result)
    assert not built

    records = result.records
    assert built == {"FlowRecord": 70}
    assert [r.fct_s for r in records] == list(result.fcts)
    trace = result.trace
    assert built["AllocationInterval"] == len(result.intervals) > 70
    assert result.records is records and result.trace is trace  # cached, built once


def test_sweep_builds_no_records_or_trace(monkeypatch):
    built = _count_constructions(monkeypatch)
    base = scenario(duration=10.0, mode=SpawnMode.SCHEDULED)
    rows = sweep(base, [1, 2, 3, 4, 5, 6, 7, 8], [1, 2, 4, 8])
    assert len(rows) == 32
    assert not built


@pytest.mark.parametrize("mode", list(SpawnMode))
@pytest.mark.parametrize("startup", [0.0, None])
@pytest.mark.parametrize("alpha", [1.0, 0.7])
def test_sweep_rows_equal_single_simulations(mode, startup, alpha):
    base = Scenario(
        link=LinkSpec(bandwidth=GBPS_25, alpha=alpha, rtt=0.016),
        duration=10.0,
        concurrency=1.0,
        transfer_bytes=0.5e9,
        mode=mode,
        startup_latency=startup,
    )
    concurrencies = [1.0, 2.5, 5.0, 6.0, 7.25, 8.0]
    rows = sweep(base, concurrencies, [1, 4])
    for index, concurrency in enumerate(concurrencies):
        summary = simulate(replace(base, concurrency=concurrency)).summary()
        for row in rows[2 * index : 2 * index + 2]:
            assert row.concurrency == concurrency
            assert (row.worst_fct, row.utilization, row.sss) == (
                summary["max_fct"], summary["utilization"], summary["sss"]
            )


# --- congestion behavior ---


def test_worst_fct_nondecreasing_in_concurrency():
    worsts = []
    for concurrency in range(1, 9):
        result = simulate(scenario(duration=10.0, concurrency=float(concurrency)))
        worsts.append(result.max_fct)
    assert all(a <= b + 1e-12 for a, b in zip(worsts, worsts[1:]))


def test_overload_grows_super_linearly():
    at6 = simulate(scenario(duration=10.0, concurrency=6.0)).max_fct
    at8 = simulate(scenario(duration=10.0, concurrency=8.0)).max_fct
    assert at8 >= 3.0 * at6


def test_simultaneous_worse_than_scheduled_below_capacity():
    for concurrency in (2.0, 4.0, 6.0):
        sim = simulate(scenario(duration=10.0, concurrency=concurrency)).max_fct
        sched = simulate(
            scenario(duration=10.0, concurrency=concurrency, mode=SpawnMode.SCHEDULED)
        ).max_fct
        assert sim >= sched - 1e-12


# --- sweep ---


def test_sweep_is_full_cartesian_in_input_order():
    rows = sweep(scenario(duration=10.0), [1, 2, 3, 4, 5, 6, 7, 8], [2, 4, 8])
    assert len(rows) == 24
    assert [(r.concurrency, r.parallel_flows) for r in rows[:4]] == [
        (1, 2),
        (1, 4),
        (1, 8),
        (2, 2),
    ]


def test_sweep_single_combination():
    rows = sweep(scenario(duration=10.0), [4], [2])
    assert len(rows) == 1
    assert rows[0].offered_load == pytest.approx(4 * 0.5e9 / GBPS_25, rel=1e-12)
    assert rows[0].sss == pytest.approx(rows[0].worst_fct / 0.16, rel=1e-9)


def test_sweep_rejects_nonpositive_flows():
    with pytest.raises(ValueError, match="parallel_flows"):
        sweep(scenario(), [1, 2], [2, 0])


def test_parallel_flows_only_annotate_records():
    # fluid sharing is per client; flow count must not change completion times
    two = simulate(scenario(duration=10.0, parallel_flows=2))
    eight = simulate(scenario(duration=10.0, parallel_flows=8))
    assert [r.fct_s for r in two.records] == [r.fct_s for r in eight.records]
    assert all(r.flows == 2 for r in two.records)
    assert all(r.flows == 8 for r in eight.records)


# --- scenario files ---


def test_load_scenario_flat_text(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(
        """
        # bottleneck config
        bandwidth = 25Gbps
        alpha = 1.0
        rtt = 16ms
        duration = 10s
        concurrency = 8
        parallel_flows = 4
        transfer_bytes = 0.5GB
        mode = simultaneous
        startup_latency = 0s
        """
    )
    s = load_scenario(path)
    assert s.link.bandwidth == GBPS_25
    assert s.link.rtt == 0.016
    assert s.duration == 10.0
    assert s.concurrency == 8.0
    assert s.parallel_flows == 4
    assert s.transfer_bytes == 0.5e9
    assert s.mode is SpawnMode.SIMULTANEOUS
    assert s.startup == 0.0


def test_load_scenario_json_nested_link(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "link": {"bandwidth": "25Gbps", "alpha": 0.8, "rtt": "16ms"},
                "duration": "5s",
                "concurrency": 2,
                "transfer_bytes": 500000000,
                "mode": "scheduled",
            }
        )
    )
    s = load_scenario(path)
    assert s.link.alpha == 0.8
    assert s.mode is SpawnMode.SCHEDULED
    assert s.transfer_bytes == 5e8
    assert s.startup == 0.016  # defaults to one RTT


def test_load_scenario_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("bandwidth = 25Gbps\nbogus = 1\n")
    with pytest.raises(ValueError, match="bogus"):
        load_scenario(path)
