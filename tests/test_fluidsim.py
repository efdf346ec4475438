from __future__ import annotations

import json
import math
import tracemalloc
from array import array
from collections import Counter, defaultdict
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from streamscore import fluidsim
from streamscore.fluidsim import (
    AllocationInterval,
    Scenario,
    read_scenario_file,
    scenario_from_mapping,
    simulate,
    sweep,
)
from streamscore.model import LinkSpec
from streamscore.schedule import LoadSpec, SpawnMode

from conftest import assert_typed_columns, traced_peak
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


def load(mode: SpawnMode, concurrency: float, duration: float) -> LoadSpec:
    return LoadSpec(mode=mode, concurrency=concurrency, duration=duration, transfer_bytes=1)


def test_simultaneous_batches_each_whole_second():
    offsets = load(SpawnMode.SIMULTANEOUS, 8, 10.0).spawn_times()
    assert len(offsets) == 80
    assert offsets[:8] == [0.0] * 8
    assert sorted(set(offsets)) == [float(s) for s in range(10)]


def test_scheduled_spacing():
    offsets = load(SpawnMode.SCHEDULED, 2, 10.0).spawn_times()
    assert len(offsets) == 20
    deltas = [b - a for a, b in zip(offsets, offsets[1:])]
    assert all(d == pytest.approx(0.5, rel=1e-12) for d in deltas)


def test_scheduled_count_is_exact_at_awkward_rates():
    # 3 clients/s for 10 s must produce exactly 30, not 31
    assert len(load(SpawnMode.SCHEDULED, 3, 10.0).spawn_times()) == 30
    assert len(load(SpawnMode.SIMULTANEOUS, 3, 10.0).spawn_times()) == 30


# --- simulate: oracles ---


def test_equal_share_eight_clients():
    # equal-share oracle: total 4 GB at line rate, all complete together
    result = simulate(scenario())
    assert len(result.records) == 8
    expected = 8 * 0.5e9 / GBPS_25
    assert result.records.fct_s.tolist() == [expected] * 8  # bit-exact
    assert result.records.spawn_s.tolist() == [0.0] * 8
    assert result.max_fct == expected == pytest.approx(1.28, rel=1e-12)


def test_single_client_attains_line_rate():
    result = simulate(scenario(concurrency=1.0))
    assert len(result.records) == 1
    assert result.records.fct_s[0] == pytest.approx(0.16, rel=1e-9)


def test_scheduled_no_overlap_all_line_rate():
    # 2 clients/s, each 0.16 s of work: finishes inside the 0.5 s gap
    result = simulate(
        scenario(duration=10.0, concurrency=2.0, mode=SpawnMode.SCHEDULED)
    )
    assert len(result.records) == 20
    for fct in result.records.fct_s:
        assert fct == pytest.approx(0.16, rel=1e-9)


def test_startup_latency_defaults_to_rtt_and_adds_to_fct():
    link = LinkSpec(bandwidth=GBPS_25, rtt=0.016)
    result = simulate(
        Scenario(link=link, duration=1.0, concurrency=1.0, transfer_bytes=0.5e9)
    )
    assert result.records.fct_s[0] == pytest.approx(0.176, rel=1e-9)


def test_worst_fct_matches_max():
    # the summary comes from the FCT column; records are built from it later
    for mode in SpawnMode:
        result = simulate(scenario(duration=10.0, concurrency=7.5, mode=mode))
        assert result.max_fct == max(result.records.fct_s)


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
    for fct in result.records.fct_s:
        assert fct >= floor - 1e-12


def test_total_delivered_bytes_counts_whole_clients():
    result = simulate(scenario(duration=10.0, concurrency=3.0))
    assert len(result.records) == 30
    assert sum(result.records.bytes) == 30 * int(0.5e9)


def test_determinism_bit_identical():
    a = simulate(scenario(duration=10.0))
    b = simulate(scenario(duration=10.0))
    # the hash skips the two array columns, so a result stays hashable
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
    # the load spec itself refuses the empty window, before anything spawns
    with pytest.raises(ValueError, match="^duration must be"):
        load(SpawnMode.SIMULTANEOUS, 1, 0.0)


@pytest.mark.parametrize("mode", list(SpawnMode))
@pytest.mark.parametrize("concurrency, duration", [(1e400, 1.0), (1.0, 1e400), (float("nan"), 1.0)])
def test_rejects_non_finite_schedules(mode, concurrency, duration):
    with pytest.raises(ValueError, match="must be finite"):
        load(mode, concurrency, duration)


# --- reference oracle ---


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


@given(
    mode=st.sampled_from(list(SpawnMode)),
    concurrency=st.floats(min_value=0.5, max_value=12.0),
    duration=st.floats(min_value=1.0, max_value=20.0),
    size=st.integers(min_value=50_000_000, max_value=5_000_000_000),
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

    got, want = fast.records, slow.records
    assert len(got) == len(want)
    assert (got.client_id, got.spawn_s, got.bytes, got.flows) == (
        want.client_id, want.spawn_s, want.bytes, want.flows
    )
    for got_fct, want_fct in zip(got.fct_s, want.fct_s):
        assert _rel_close(got_fct, want_fct, 1e-12)
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
                 transfer_bytes=503_517_134, startup_latency=0.016)
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


# The tracemalloc peak of simulate(...).records on the 20,000-client burst below is 154 B a
# client on CPython 3.11 with typed columns, and 204 B with one tuple per column (a float or int
# object per number). The budget is the measured figure plus 15%, so boxed columns fail it.
SIM_PEAK_BUDGET_B = 180


def test_simulated_records_peak_memory_per_client_stays_in_budget():
    count = 20_000
    s = scenario(link=LinkSpec(bandwidth=GBPS_25, rtt=0.016), duration=count / 5, concurrency=5.0,
                 startup_latency=None)
    records, peak = traced_peak(lambda: simulate(s).records)
    assert len(records) == count
    assert_typed_columns(records)
    assert peak / count < SIM_PEAK_BUDGET_B, f"{peak / count:.1f} B per client"


def test_result_columns_and_records_are_typed_arrays():
    result = simulate(scenario(duration=3.0))
    assert (type(result.spawns), result.spawns.typecode) == (array, "d")
    assert (type(result.fcts), result.fcts.typecode) == (array, "d")
    records = result.records
    assert_typed_columns(records)
    assert records.spawn_s is result.spawns and records.fct_s is result.fcts  # kept, not copied
    assert records.client_id == tuple(range(24))


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

    for name in ("FlowTable", "AllocationInterval"):
        monkeypatch.setattr(fluidsim, name, counting(getattr(fluidsim, name)))
    return built


def test_records_and_trace_are_built_on_first_read(monkeypatch):
    built = _count_constructions(monkeypatch)
    result = simulate(scenario(duration=10.0, concurrency=7.0, mode=SpawnMode.SCHEDULED))
    assert "records" not in vars(result) and "trace" not in vars(result)
    assert not built

    # the record table is the loop's columns, wrapped once
    records = result.records
    assert built == {"FlowTable": 1}
    assert len(records) == 70 and records.fct_s == result.fcts
    trace = result.trace
    assert built["AllocationInterval"] == len(result.intervals) > 70
    assert result.records is records and result.trace is trace  # cached, built once
    assert built["FlowTable"] == 1


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


@given(
    concurrency=st.floats(min_value=0.1, max_value=64.0),
    duration=st.floats(min_value=0.5, max_value=30.0),
    busy=st.floats(min_value=0.001, max_value=0.999),  # ceil(c) * S / C, in seconds
    alpha=st.floats(min_value=0.1, max_value=1.0),
    startup=st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.5)),
)
def test_simultaneous_worst_fct_closed_form_below_saturation(
    concurrency, duration, busy, alpha, startup
):
    # each batch of ceil(c) clients shares the link alone and drains before
    # the next second: every client in it finishes at startup + ceil(c) S / C
    link = LinkSpec(bandwidth=GBPS_25, alpha=alpha, rtt=0.016)
    batch = math.ceil(concurrency)
    s = Scenario(link=link, duration=duration, concurrency=concurrency,
                 transfer_bytes=round(busy * link.effective_rate / batch),
                 mode=SpawnMode.SIMULTANEOUS, startup_latency=startup)
    expected = s.startup + batch * s.transfer_bytes / link.effective_rate
    # an FCT is the difference of two clock readings below 32 s, each within 4e-15 s
    assert math.isclose(simulate(s).max_fct, expected, rel_tol=1e-12, abs_tol=1e-13)


@given(
    mode=st.sampled_from(list(SpawnMode)),
    concurrencies=st.lists(st.floats(min_value=0.1, max_value=16.0), min_size=2, max_size=5),
    duration=st.floats(min_value=1.0, max_value=10.0),
    size=st.integers(min_value=50_000_000, max_value=2_000_000_000),
    alpha=st.floats(min_value=0.1, max_value=1.0),
    startup=st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.1)),
)
def test_worst_fct_never_falls_as_concurrency_rises(
    mode, concurrencies, duration, size, alpha, startup
):
    base = Scenario(link=LinkSpec(bandwidth=GBPS_25, alpha=alpha, rtt=0.016),
                    duration=duration, concurrency=1.0, transfer_bytes=size,
                    mode=mode, startup_latency=startup)
    worsts = [simulate(replace(base, concurrency=c)).max_fct for c in sorted(concurrencies)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(worsts, worsts[1:])), worsts


def test_uncongested_worst_fct_is_exactly_the_ideal_transfer_time():
    # a client the link serves alone takes startup + S/C whatever its spawn
    # time, so below load 1 the worst FCT cannot step down by a rounding
    # (perfbench's sweep-overload inputs at seed 1213)
    link = LinkSpec(bandwidth=25e9 / 8, rtt=0.012328)
    base = Scenario(link=link, duration=200.0, concurrency=1.0, transfer_bytes=503_839_985,
                    mode=SpawnMode.SCHEDULED)
    ideal = link.rtt + 503_839_985 / link.effective_rate
    rows = sweep(base, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1])
    assert [row.worst_fct for row in rows] == [ideal] * 6
    assert set(simulate(replace(base, concurrency=3.0)).records.fct_s) == {ideal}


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
    assert two.records.fct_s == eight.records.fct_s
    assert all(flows == 2 for flows in two.records.flows)
    assert all(flows == 8 for flows in eight.records.flows)


# --- scenario files, read as the CLI reads them ---


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
    s = scenario_from_mapping(read_scenario_file(path))
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
    s = scenario_from_mapping(read_scenario_file(path))
    assert s.link.alpha == 0.8
    assert s.mode is SpawnMode.SCHEDULED
    assert s.transfer_bytes == 5e8
    assert s.startup == 0.016  # defaults to one RTT


def test_scenario_keys_left_out_take_the_spec_defaults():
    raw = {"bandwidth": "25Gbps", "duration": "1s", "concurrency": 2, "transfer_bytes": "1GB"}
    assert scenario_from_mapping(raw) == Scenario(
        link=LinkSpec(bandwidth=GBPS_25), duration=1.0, concurrency=2.0, transfer_bytes=1e9
    )


def test_load_scenario_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("bandwidth = 25Gbps\nbogus = 1\n")
    with pytest.raises(ValueError, match="bogus"):
        scenario_from_mapping(read_scenario_file(path))
