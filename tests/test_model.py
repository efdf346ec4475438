from __future__ import annotations

import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamscore.fluidsim import Scenario
from streamscore.loadgen import ClientRunConfig, PortPool
from streamscore.model import (
    Choice,
    ComputeSpec,
    DelayDecomposition,
    IoOverhead,
    LinkSpec,
    ScanSpec,
    TierPolicy,
    TimeBreakdown,
    WorkloadSpec,
    breakdown_from_parts,
    classify_tier,
    decide,
    file_vs_stream,
    io_overhead_from_times,
    local_processing_time,
    offered_load,
    propagation_only_delay,
    remote_completion,
    remote_processing_time,
    required_remote_rate,
    streaming_speed_score,
    theoretical_transfer_time,
    total_delay,
    transfer_budget,
    transfer_time,
)

GBPS_25 = 25e9 / 8  # bytes/s


# --- construction invariants ---


def test_workload_rejects_negative_size():
    with pytest.raises(ValueError):
        WorkloadSpec(unit_size=-1.0)


def test_link_alpha_bounds():
    with pytest.raises(ValueError):
        LinkSpec(bandwidth=1e9, alpha=0.0)
    with pytest.raises(ValueError):
        LinkSpec(bandwidth=1e9, alpha=1.5)
    assert LinkSpec(bandwidth=1e9, alpha=0.5).effective_rate == 0.5e9


def test_theta_below_one_rejected():
    for theta in (0.5, math.nan):  # NaN is no theta either
        with pytest.raises(ValueError, match="theta must be >= 1"):
            IoOverhead(theta)


def test_tier_policy_validation():
    with pytest.raises(ValueError):
        TierPolicy(())
    with pytest.raises(ValueError):
        TierPolicy((("a", 10.0), ("b", 10.0)))
    with pytest.raises(ValueError):
        TierPolicy((("a", 10.0), ("b", 5.0)))


def test_breakdown_total_is_computed_from_its_parts():
    # transfer + io + remote, in that order: 0.1 + 0.2 + 3.0 is 3.3, 0.1 + 3.0 + 0.2 is not
    b = TimeBreakdown(transfer_s=0.1, io_s=0.2, remote_s=3.0)
    assert b.total_s == 3.3
    assert list(asdict(b)) == ["transfer_s", "io_s", "remote_s", "total_s"]
    with pytest.raises(TypeError):
        TimeBreakdown(transfer_s=1.0, remote_s=1.0, io_s=0.0, total_s=3.0)
    for name in ("transfer_s", "io_s", "remote_s"):
        with pytest.raises(ValueError, match=name):
            TimeBreakdown(**{"transfer_s": 1.0, "io_s": 0.0, "remote_s": 1.0, name: math.nan})


@pytest.mark.parametrize("transfer_s, remote_s, name", [(-1.0, 1.0, "transfer_s"), (1.0, -1.0, "remote_s")])
def test_breakdown_from_parts_leaves_the_range_check_to_the_breakdown(transfer_s, remote_s, name):
    # breakdown_from_parts had a check of its own; TimeBreakdown's is the one left, and names the part
    with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
        breakdown_from_parts(transfer_s, remote_s, IoOverhead(2.0))


def test_scan_spec_files_bounded_by_frames():
    with pytest.raises(ValueError):
        ScanSpec(frame_bytes=1.0, frame_count=10, frame_interval=0.1, files=11)


def _scan(**fields) -> ScanSpec:
    return ScanSpec(**{"frame_bytes": 1.0, "frame_count": 10, "frame_interval": 0.1, **fields})


# for a library caller each of these is the one check of its value
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: WorkloadSpec(unit_size=1.0, complexity=-1.0), "complexity must be >= 0, got -1.0"),
        (lambda: WorkloadSpec(unit_size=1.0, generation_interval=0.0), "generation_interval must be > 0, got 0.0"),
        (lambda: LinkSpec(bandwidth=0.0), "bandwidth must be > 0, got 0.0"),
        (lambda: LinkSpec(bandwidth=math.nan), "bandwidth must be > 0, got nan"),
        # the product underflows: every rate and load would divide by 0
        (lambda: LinkSpec(bandwidth=1e-300, alpha=1e-300), "alpha x bandwidth must be > 0, got 1e-300 x 1e-300"),
        (lambda: LinkSpec(bandwidth=1e9, rtt=-1.0), "rtt must be >= 0, got -1.0"),
        (lambda: DelayDecomposition(queue_s=-1.0), "queue_s must be >= 0"),
        (lambda: TierPolicy((("a", 0.0), ("b", 1.0))), "tier deadlines must be > 0"),
        (lambda: _scan(frame_bytes=0.0), "frame_bytes must be > 0, got 0.0"),
        (lambda: _scan(frame_count=0), "frame_count must be > 0, got 0"),
        (lambda: _scan(frame_interval=0.0), "frame_interval must be > 0, got 0.0"),
        (lambda: _scan(files=0), "files must be > 0, got 0"),
        (lambda: _scan(per_file_overhead=-1.0), "per_file_overhead must be >= 0, got -1.0"),
        (lambda: theoretical_transfer_time(-1.0, LinkSpec(bandwidth=1e9)), "size_bytes must be >= 0, got -1.0"),
        (lambda: transfer_budget(0.0, 1.0), "deadline must be > 0, got 0.0"),
        (lambda: transfer_budget(1.0, -1.0), "worst_transfer_s must be >= 0, got -1.0"),
        (lambda: classify_tier(-1.0), "time must be >= 0, got -1.0"),
        (lambda: decide(WorkloadSpec(unit_size=1.0), LinkSpec(bandwidth=1e9), ComputeSpec(1.0, 1.0),
                        worst_case_transfer=-1), "worst_case_transfer must be >= 0"),
        # NaN fails every bound, with the message of any other out-of-range value
        (lambda: WorkloadSpec(unit_size=math.nan), "unit_size must be >= 0, got nan"),
        (lambda: WorkloadSpec(unit_size=1.0, complexity=math.nan), "complexity must be >= 0, got nan"),
        (lambda: WorkloadSpec(unit_size=1.0, generation_interval=math.nan), "generation_interval must be > 0, got nan"),
        (lambda: ComputeSpec(local_rate=math.nan, remote_rate=1e12), "local_rate must be > 0, got nan"),
        (lambda: ComputeSpec(local_rate=1e12, remote_rate=math.nan), "remote_rate must be > 0, got nan"),
        (lambda: LinkSpec(bandwidth=1e9, rtt=math.nan), "rtt must be >= 0, got nan"),
        (lambda: DelayDecomposition(prop_s=math.nan), "prop_s must be >= 0"),
        (lambda: TierPolicy((("a", math.nan),)), "tier deadlines must be > 0"),
        (lambda: _scan(frame_bytes=math.nan), "frame_bytes must be > 0, got nan"),
        (lambda: _scan(frame_count=math.nan), "frame_count must be > 0, got nan"),
        (lambda: _scan(frame_interval=math.nan), "frame_interval must be > 0, got nan"),
        (lambda: _scan(files=math.nan), "files must be > 0, got nan"),
        (lambda: _scan(per_file_overhead=math.nan), "per_file_overhead must be >= 0, got nan"),
        (lambda: io_overhead_from_times(1.0, math.nan), "transfer_s must be > 0 to fit theta, got nan"),
        (lambda: io_overhead_from_times(math.nan, 1.0), "io_s must be >= 0, got nan"),
        (lambda: streaming_speed_score(math.nan, 1.0), "times must be > 0, got worst=nan, theoretical=1.0"),
        (lambda: streaming_speed_score(1.0, math.nan), "times must be > 0, got worst=1.0, theoretical=nan"),
        (lambda: theoretical_transfer_time(math.nan, LinkSpec(bandwidth=1e9)), "size_bytes must be >= 0, got nan"),
        (lambda: transfer_budget(math.nan, 1.0), "deadline must be > 0, got nan"),
        (lambda: transfer_budget(1.0, math.nan), "worst_transfer_s must be >= 0, got nan"),
        (lambda: required_remote_rate(WorkloadSpec(unit_size=1.0), math.nan), "budget must be > 0, got nan"),
        (lambda: classify_tier(math.nan), "time must be >= 0, got nan"),
        (lambda: decide(WorkloadSpec(unit_size=1.0), LinkSpec(bandwidth=1e9), ComputeSpec(1.0, 1.0),
                        worst_case_transfer=math.nan), "worst_case_transfer must be >= 0"),
        # the two backends' own bounds
        (lambda: Scenario(link=LinkSpec(bandwidth=1e9), duration=1.0, concurrency=1.0, transfer_bytes=1,
                          startup_latency=math.nan), "startup_latency must be >= 0, got nan"),
        (lambda: PortPool(base_port=5201, pool_size=math.nan), "pool_size must be > 0, got nan"),
        (lambda: ClientRunConfig(server_address="127.0.0.1", base_port=5201, duration=1.0, concurrency=1.0,
                                 transfer_bytes=1, connect_timeout=math.nan), "timeouts must be > 0"),
        (lambda: ClientRunConfig(server_address="127.0.0.1", base_port=5201, duration=1.0, concurrency=1.0,
                                 transfer_bytes=1, transfer_timeout=math.nan), "timeouts must be > 0"),
    ],
)
def test_exported_api_rejects_an_out_of_range_value_by_name(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


# --- local / transfer / remote times ---


def test_local_time_34tf_on_34tflops():
    # 34 TFLOP of work on 34 TFLOPS: direct division gives 1 s
    w = WorkloadSpec(unit_size=1e9, complexity=34e12 / 1e9)
    c = ComputeSpec(local_rate=34e12, remote_rate=34e12)
    assert local_processing_time(w, c) == pytest.approx(1.0, rel=1e-12)


def test_local_time_zero_complexity():
    w = WorkloadSpec(unit_size=1e9, complexity=0.0)
    c = ComputeSpec(local_rate=5e12, remote_rate=5e12)
    assert local_processing_time(w, c) == 0.0


def test_local_time_20tf_on_5tflops():
    w = WorkloadSpec(unit_size=2e9, complexity=20e12 / 2e9)
    c = ComputeSpec(local_rate=5e12, remote_rate=5e12)
    assert local_processing_time(w, c) == pytest.approx(4.0, rel=1e-12)


def test_transfer_time_half_gb_at_25gbps():
    w = WorkloadSpec(unit_size=0.5e9)
    assert transfer_time(w, LinkSpec(bandwidth=GBPS_25)) == pytest.approx(0.16, rel=1e-9)


def test_transfer_time_zero_size():
    w = WorkloadSpec(unit_size=0.0)
    assert transfer_time(w, LinkSpec(bandwidth=GBPS_25)) == 0.0


def test_transfer_time_alpha_half():
    w = WorkloadSpec(unit_size=0.5e9)
    link = LinkSpec(bandwidth=GBPS_25, alpha=0.5)
    assert transfer_time(w, link) == pytest.approx(0.32, rel=1e-12)


def test_remote_time_identity_and_double_rate():
    w = WorkloadSpec(unit_size=1e9, complexity=34e12 / 1e9)
    same = ComputeSpec(local_rate=34e12, remote_rate=34e12)
    assert remote_processing_time(w, same) == pytest.approx(1.0, rel=1e-12)
    assert remote_processing_time(w, same) == local_processing_time(w, same)
    doubled = ComputeSpec(local_rate=34e12, remote_rate=68e12)
    assert remote_processing_time(w, doubled) == pytest.approx(0.5, rel=1e-12)


# --- completion breakdown ---


def test_breakdown_theta_one_has_no_io():
    w = WorkloadSpec(unit_size=0.5e9, complexity=1.0)
    c = ComputeSpec(local_rate=1e9, remote_rate=1e9)
    b = remote_completion(w, LinkSpec(bandwidth=GBPS_25), c, IoOverhead(1.0))
    assert b.io_s == 0.0
    assert b.total_s == pytest.approx(b.transfer_s + b.remote_s, rel=1e-12)


def test_breakdown_theta_two_hand_evaluated():
    # transfer 0.16 s, theta 2 -> io 0.16 s; remote 1 s -> total 1.32 s
    w = WorkloadSpec(unit_size=0.5e9, complexity=2.0)  # 1e9 FLOP
    c = ComputeSpec(local_rate=1e9, remote_rate=1e9)
    b = remote_completion(w, LinkSpec(bandwidth=GBPS_25), c, IoOverhead(2.0))
    assert b.transfer_s == pytest.approx(0.16, rel=1e-9)
    assert b.io_s == pytest.approx(0.16, rel=1e-9)
    assert b.remote_s == pytest.approx(1.0, rel=1e-9)
    assert b.total_s == pytest.approx(1.32, rel=1e-9)


def test_breakdown_theta_three_no_remote_work():
    w = WorkloadSpec(unit_size=0.5e9, complexity=0.0)
    c = ComputeSpec(local_rate=1e9, remote_rate=1e9)
    b = remote_completion(w, LinkSpec(bandwidth=GBPS_25), c, IoOverhead(3.0))
    assert b.total_s == pytest.approx(0.48, rel=1e-9)


# --- theta fitting ---


def test_theta_fit_examples():
    assert io_overhead_from_times(0.0, 0.16).theta == 1.0
    assert io_overhead_from_times(0.16, 0.16).theta == pytest.approx(2.0, rel=1e-12)
    assert io_overhead_from_times(0.32, 0.16).theta == pytest.approx(3.0, rel=1e-12)


def test_theta_fit_rejects_bad_inputs():
    with pytest.raises(ValueError):
        io_overhead_from_times(0.1, 0.0)
    with pytest.raises(ValueError):
        io_overhead_from_times(-0.1, 0.16)


def test_theta_must_be_finite():
    # an infinite theta used to give an infinite io overhead and "tier none"
    with pytest.raises(ValueError, match="theta must be >= 1 and finite, got inf"):
        IoOverhead(math.inf)
    for io_s in (math.inf, 1e308):  # a fit that overflows is no theta either
        with pytest.raises(ValueError, match="theta must be >= 1 and finite, got inf"):
            io_overhead_from_times(io_s, 1e-10)


# --- streaming speed score ---


def test_sss_congested_and_ideal():
    assert streaming_speed_score(5.0, 0.16) == pytest.approx(31.25, rel=1e-9)
    assert streaming_speed_score(0.2, 0.16) == pytest.approx(1.25, rel=1e-9)
    assert streaming_speed_score(0.16, 0.16) == 1.0


def test_sss_rejects_nonpositive():
    with pytest.raises(ValueError):
        streaming_speed_score(0.0, 0.16)
    with pytest.raises(ValueError):
        streaming_speed_score(5.0, 0.0)


def test_theoretical_time_uses_raw_bandwidth():
    link = LinkSpec(bandwidth=GBPS_25, alpha=0.5)
    assert theoretical_transfer_time(0.5e9, link) == pytest.approx(0.16, rel=1e-9)


# --- budgets ---


def test_transfer_budget_examples():
    assert transfer_budget(10.0, 1.2) == pytest.approx(8.8, rel=1e-12)
    assert transfer_budget(10.0, 6.0) == pytest.approx(4.0, rel=1e-12)
    assert transfer_budget(10.0, 0.0) == 10.0
    assert transfer_budget(10.0, 12.0) == 0.0


def test_required_remote_rate_examples():
    coherent = WorkloadSpec(unit_size=2e9, complexity=34e12 / 2e9)
    assert required_remote_rate(coherent, 8.8) == pytest.approx(34e12 / 8.8, rel=1e-12)
    liquid = WorkloadSpec(unit_size=4e9, complexity=20e12 / 4e9)
    assert required_remote_rate(liquid, 4.0) == pytest.approx(5e12, rel=1e-12)
    assert required_remote_rate(WorkloadSpec(unit_size=1e9), 4.0) == 0.0
    with pytest.raises(ValueError):
        required_remote_rate(coherent, 0.0)


# --- tiers ---


def test_classify_tier_boundaries():
    assert classify_tier(9.99) == "Tier 2"
    assert classify_tier(0.0) == "Tier 1"
    assert classify_tier(61.0) is None
    assert classify_tier(1.0) == "Tier 2"  # strict less-than at the boundary
    assert classify_tier(60.0) is None


# --- delay decomposition ---


def test_delay_total_and_propagation_only():
    d = DelayDecomposition(proc_s=0.001, queue_s=0.002, trans_s=0.003, prop_s=0.004)
    assert total_delay(d) == pytest.approx(0.010, rel=1e-12)
    assert propagation_only_delay(d) == 0.004
    assert total_delay(DelayDecomposition()) == 0.0


def test_propagation_only_hides_queueing():
    # a 5 s queue vanishes from the optimistic figure
    d = DelayDecomposition(queue_s=5.0, trans_s=0.16, prop_s=0.008)
    assert propagation_only_delay(d) == 0.008
    assert total_delay(d) == pytest.approx(5.168, rel=1e-12)


# --- decision ---


def test_decide_infeasible_when_generation_outpaces_link():
    w = WorkloadSpec(unit_size=4e9, complexity=20e12 / 4e9, generation_interval=1.0)
    c = ComputeSpec(local_rate=20e12, remote_rate=20e12)
    d = decide(w, LinkSpec(bandwidth=GBPS_25), c)
    assert d.choice is Choice.INFEASIBLE
    assert d.tier_achieved is None
    assert "exceeds" in d.rationale


@pytest.mark.parametrize("rate, infeasible", [(0.8e9, False), (0.81e9, True)])
def test_offered_load_one_is_the_feasibility_line(rate, infeasible):
    # offered load is over alpha x B: 0.81 GB/s fits 1 GB/s raw, not 0.8 GB/s effective
    link = LinkSpec(bandwidth=1e9, alpha=0.8)
    assert offered_load(rate, link) == pytest.approx(rate / 0.8e9, rel=1e-12)
    w = WorkloadSpec(unit_size=rate, complexity=1.0, generation_interval=1.0)
    d = decide(w, link, ComputeSpec(local_rate=1e12, remote_rate=1e12), worst_case_transfer=2.0)
    assert (d.choice is Choice.INFEASIBLE) is infeasible
    # the breakdown is set on every verdict, at the worst case when one is given
    assert d.remote.transfer_s == 2.0 and d.remote.total_s == pytest.approx(2.0 + rate / 1e12)


def test_decide_tie_goes_local():
    # local == remote total when the link is free and rates match... force it:
    w = WorkloadSpec(unit_size=0.0, complexity=0.0)
    c = ComputeSpec(local_rate=1e12, remote_rate=1e12)
    d = decide(w, LinkSpec(bandwidth=GBPS_25), c)
    assert d.choice is Choice.LOCAL
    assert d.gain == 1.0


def test_decide_remote_wins_with_gain_five():
    # local 10 s vs remote total 2 s
    w = WorkloadSpec(unit_size=1e9, complexity=10.0)  # 1e10 FLOP
    c = ComputeSpec(local_rate=1e9, remote_rate=1e10)  # local 10 s, remote 1 s
    link = LinkSpec(bandwidth=1e9)  # transfer 1 s -> total 2 s
    d = decide(w, link, c)
    assert d.choice is Choice.REMOTE_STREAM
    assert d.gain == pytest.approx(5.0, rel=1e-12)
    assert d.tier_achieved == "Tier 2"


def test_decide_gain_is_inf_against_a_remote_path_that_takes_no_time():
    w = WorkloadSpec(unit_size=1e9, complexity=10.0)
    c = ComputeSpec(local_rate=1e9, remote_rate=math.inf)  # local 10 s, remote 0 s
    d = decide(w, LinkSpec(bandwidth=1e9), c, worst_case_transfer=0.0)
    assert d.remote.total_s == 0.0
    assert (d.choice, d.gain, d.tier_achieved) == (Choice.REMOTE_STREAM, math.inf, "Tier 1")


def test_decide_local_when_cheaper():
    w = WorkloadSpec(unit_size=1e9, complexity=1.0)
    c = ComputeSpec(local_rate=1e10, remote_rate=1e10)  # 0.1 s both sides
    link = LinkSpec(bandwidth=1e8)  # transfer 10 s
    d = decide(w, link, c)
    assert d.choice is Choice.LOCAL
    assert d.gain <= 1.0


def test_decide_pessimistic_transfer_override():
    w = WorkloadSpec(unit_size=0.5e9, complexity=0.0)
    c = ComputeSpec(local_rate=1e12, remote_rate=1e12)
    link = LinkSpec(bandwidth=GBPS_25)
    optimistic = decide(w, link, c)
    pessimistic = decide(w, link, c, worst_case_transfer=5.0)
    assert optimistic.remote.transfer_s == pytest.approx(0.16, rel=1e-9)
    assert pessimistic.remote.transfer_s == 5.0


# --- file vs stream ---


def _aps_scan(files: int, overhead: float) -> ScanSpec:
    return ScanSpec(
        frame_bytes=2048 * 2048 * 2,
        frame_count=1440,
        frame_interval=0.033,
        files=files,
        per_file_overhead=overhead,
    )


def test_file_vs_stream_derived_values():
    # independent closed-form oracle, evaluated inline
    rate = GBPS_25
    frame = 2048 * 2048 * 2
    total = frame * 1440
    gen = 0.033 * 1440
    expect_stream = max(gen, total / rate) + frame / rate
    expect_file = gen + 1440 * 1.0 + total / rate

    cmp = file_vs_stream(_aps_scan(files=1440, overhead=1.0), LinkSpec(bandwidth=rate))
    assert cmp.stream_s == pytest.approx(expect_stream, rel=1e-12)
    assert cmp.file_s == pytest.approx(expect_file, rel=1e-12)
    assert cmp.stream_s == pytest.approx(47.5227, rel=1e-4)
    assert cmp.file_s == pytest.approx(1491.385, rel=1e-4)
    assert cmp.reduction == pytest.approx(0.9681, abs=5e-4)


def test_file_vs_stream_single_file_no_overhead():
    link = LinkSpec(bandwidth=GBPS_25)
    scan = _aps_scan(files=1, overhead=0.0)
    cmp = file_vs_stream(scan, link)
    assert cmp.stream_s <= cmp.file_s
    # generation dominates transfer here; file lags by at most one file's
    # (i.e. the whole scan's) transfer time
    assert scan.generation_time >= scan.total_bytes / link.effective_rate
    assert cmp.file_s - cmp.stream_s <= scan.total_bytes / link.effective_rate


def test_file_vs_stream_reduction_grows_with_files():
    link = LinkSpec(bandwidth=GBPS_25)
    reductions = [
        file_vs_stream(_aps_scan(files=f, overhead=1.0), link).reduction
        for f in (10, 144, 1440)
    ]
    assert reductions[0] < reductions[1] < reductions[2]


# --- property tests ---

_pos = st.floats(min_value=1e-6, max_value=1e18, allow_nan=False, allow_infinity=False)
_small_pos = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)
_theta = st.floats(min_value=1.0, max_value=100.0, allow_nan=False)
_alpha = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)


@given(theta=_theta, transfer=_small_pos)
def test_theta_round_trip(theta, transfer):
    fitted = io_overhead_from_times((theta - 1.0) * transfer, transfer)
    assert fitted.theta == pytest.approx(theta, rel=1e-9)


@given(size=_pos, complexity=st.floats(min_value=0, max_value=1e6), bw=_pos,
       alpha=_alpha, remote=_pos, theta=_theta)
def test_breakdown_consistency(size, complexity, bw, alpha, remote, theta):
    w = WorkloadSpec(unit_size=size, complexity=complexity)
    c = ComputeSpec(local_rate=remote, remote_rate=remote)
    b = remote_completion(w, LinkSpec(bandwidth=bw, alpha=alpha), c, IoOverhead(theta))
    assert b.total_s == pytest.approx(b.transfer_s + b.io_s + b.remote_s, rel=1e-9)


@given(size=_small_pos, bw=_small_pos, alpha=_alpha,
       remote=_small_pos, theta=st.floats(min_value=1.0, max_value=50.0),
       factor=st.floats(min_value=1.01, max_value=10.0))
def test_total_time_monotonicity(size, bw, alpha, remote, theta, factor):
    w = WorkloadSpec(unit_size=size, complexity=1.0)
    c = ComputeSpec(local_rate=remote, remote_rate=remote)
    link = LinkSpec(bandwidth=bw, alpha=alpha)
    io = IoOverhead(theta)
    base = remote_completion(w, link, c, io).total_s

    # strictly decreasing in bandwidth and remote rate
    assert remote_completion(w, LinkSpec(bandwidth=bw * factor, alpha=alpha), c, io).total_s < base
    faster = ComputeSpec(local_rate=remote, remote_rate=remote * factor)
    assert remote_completion(w, link, faster, io).total_s < base
    # strictly decreasing in alpha (when it can still grow)
    if alpha * factor <= 1.0:
        better = LinkSpec(bandwidth=bw, alpha=alpha * factor)
        assert remote_completion(w, better, c, io).total_s < base
    # strictly increasing in theta, size, complexity
    assert remote_completion(w, link, c, IoOverhead(theta * factor)).total_s > base
    bigger = WorkloadSpec(unit_size=size * factor, complexity=1.0)
    assert remote_completion(bigger, link, c, io).total_s > base
    harder = WorkloadSpec(unit_size=size, complexity=factor)
    assert remote_completion(harder, link, c, io).total_s > base


@given(a=_small_pos, b=_small_pos, k=st.floats(min_value=1e-3, max_value=1e3))
def test_sss_scale_invariant(a, b, k):
    assert streaming_speed_score(k * a, k * b) == pytest.approx(
        streaming_speed_score(a, b), rel=1e-9
    )
    if a >= b:
        assert streaming_speed_score(a, b) >= 1.0


@given(size=_small_pos, complexity=_small_pos, local=_small_pos,
       remote=_small_pos, bw=_small_pos, theta=st.floats(min_value=1.0, max_value=10.0),
       k=st.floats(min_value=0.01, max_value=100.0))
def test_decision_scale_invariance(size, complexity, local, remote, bw, theta, k):
    # scaling the workload scales local and remote times equally
    w1 = WorkloadSpec(unit_size=size, complexity=complexity)
    w2 = WorkloadSpec(unit_size=size * k, complexity=complexity)
    c = ComputeSpec(local_rate=local, remote_rate=remote)
    link = LinkSpec(bandwidth=bw)
    io = IoOverhead(theta)
    d1, d2 = decide(w1, link, c, io), decide(w2, link, c, io)
    assert d1.choice == d2.choice
    assert d1.gain == pytest.approx(d2.gain, rel=1e-9)


@given(t1=st.floats(min_value=0, max_value=100), t2=st.floats(min_value=0, max_value=100))
def test_classify_tier_monotone(t1, t2):
    if t1 > t2:
        t1, t2 = t2, t1
    policy = TierPolicy()
    names = [name for name, _ in policy.tiers]
    rank = {name: i for i, name in enumerate(names)}
    first, second = classify_tier(t1, policy), classify_tier(t2, policy)
    rank_first = rank[first] if first is not None else len(names)
    rank_second = rank[second] if second is not None else len(names)
    assert rank_first <= rank_second


@given(
    proc=st.floats(min_value=0, max_value=1e3),
    queue=st.floats(min_value=0, max_value=1e3),
    trans=st.floats(min_value=0, max_value=1e3),
    prop=st.floats(min_value=0, max_value=1e3),
)
def test_propagation_only_lower_bounds_total(proc, queue, trans, prop):
    d = DelayDecomposition(proc_s=proc, queue_s=queue, trans_s=trans, prop_s=prop)
    assert propagation_only_delay(d) <= total_delay(d)


@settings(max_examples=60)
@given(
    frame_bytes=st.floats(min_value=1e3, max_value=1e9),
    frame_count=st.integers(min_value=2, max_value=5000),
    interval=st.floats(min_value=1e-4, max_value=10.0),
    bw=_small_pos,
    files=st.integers(min_value=1, max_value=5000),
    overhead=st.floats(min_value=0, max_value=10.0),
    more_files=st.integers(min_value=0, max_value=100),
)
def test_file_vs_stream_properties(frame_bytes, frame_count, interval, bw, files, overhead, more_files):
    files = min(files, frame_count)
    link = LinkSpec(bandwidth=bw)
    scan = ScanSpec(frame_bytes, frame_count, interval, files, overhead)
    cmp = file_vs_stream(scan, link)
    assert cmp.reduction < 1.0
    # non-decreasing in files and in per-file overhead
    bigger_files = min(files + more_files, frame_count)
    cmp_files = file_vs_stream(
        ScanSpec(frame_bytes, frame_count, interval, bigger_files, overhead), link
    )
    assert cmp_files.reduction >= cmp.reduction - 1e-12
    cmp_overhead = file_vs_stream(
        ScanSpec(frame_bytes, frame_count, interval, files, overhead + 1.0), link
    )
    assert cmp_overhead.reduction >= cmp.reduction
    if files == 1 and overhead == 0.0:
        drain = frame_bytes / link.effective_rate
        # overhead-free limit: file can only lag by the pipeline drain, and
        # streaming wins outright whenever a frame transfers faster than the
        # scan generates (the regime where pipelining is possible at all)
        assert cmp.stream_s <= cmp.file_s + drain + 1e-9
        if drain <= scan.generation_time:
            assert cmp.stream_s <= cmp.file_s + 1e-9
