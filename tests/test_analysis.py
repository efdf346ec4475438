from __future__ import annotations

import csv
import io
import json
import math
import random

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from streamscore.analysis import (
    OPTIMISTIC_BASELINE_LABEL,
    FctStats,
    Regime,
    build_report,
    classify_regime,
    delay_comparator,
    fct_stats,
    nearest_rank,
    report_json,
    stats_ratios,
    write_report,
    write_sweep_csv,
)
from streamscore.fluidsim import Scenario, simulate, sweep
from streamscore.model import LinkSpec, TierPolicy, carried_utilization
from streamscore.records import LogFormatError, read_jsonl
from streamscore.schedule import MAX_FLOWS
from conftest import strict_json, table_of

GBPS_25 = 25e9 / 8


def make_rows(fcts, failures=0, nbytes=500_000_000):
    rows = [(i, 0.0, fct, fct, nbytes, 1) for i, fct in enumerate(fcts)]
    rows += [(len(fcts) + j, 0.0, 1.0, 1.0, 0, 1, "timeout") for j in range(failures)]
    return rows


def make_records(fcts, failures=0, nbytes=500_000_000):
    return table_of(make_rows(fcts, failures, nbytes))


def summarize(records):
    """The FCT statistics build_report gives for these records."""
    return FctStats(**build_report(records)["stats"])


def empirical_cdf(records):
    """The (fct, probability) steps build_report gives for these records."""
    return build_report(records)["cdf"]


# --- summarize ---


def test_summarize_singleton():
    stats = summarize(make_records([0.16]))
    assert stats.count == 1
    assert stats.max == stats.mean == stats.p50 == stats.p90 == stats.p99 == 0.16


def test_summarize_nearest_rank_on_1_to_100():
    values = [float(v) for v in range(1, 101)]
    random.Random(7).shuffle(values)
    stats = summarize(make_records(values))
    assert stats.p50 == 50.0
    assert stats.p90 == 90.0
    assert stats.p99 == 99.0
    assert stats.max == 100.0
    assert stats.mean == pytest.approx(50.5)


def test_summarize_excludes_failures():
    stats = summarize(make_records([1.0, 2.0], failures=3))
    assert stats.count == 2
    assert stats.failures == 3
    assert stats.max == 2.0


def test_summarize_requires_a_success():
    with pytest.raises(ValueError):
        summarize(make_records([], failures=2))


def test_nearest_rank_small_samples():
    assert nearest_rank([5.0], 99) == 5.0
    assert nearest_rank([1.0, 2.0], 50) == 1.0
    assert nearest_rank([1.0, 2.0], 51) == 2.0


# --- cdf ---


def test_cdf_uniform_steps():
    series = empirical_cdf(make_records([1.0, 2.0, 3.0, 4.0]))
    assert series == [(1.0, 0.25), (2.0, 0.5), (3.0, 0.75), (4.0, 1.0)]


def test_cdf_singleton():
    assert empirical_cdf(make_records([0.2])) == [(0.2, 1.0)]


def test_cdf_duplicates_coalesce_to_highest_rank():
    series = empirical_cdf(make_records([2.0, 2.0, 4.0]))
    assert series == [(2.0, pytest.approx(2 / 3)), (4.0, 1.0)]


def test_cdf_ends_at_exactly_one():
    series = empirical_cdf(make_records([random.Random(3).random() for _ in range(37)]))
    assert series[-1][1] == 1.0
    probs = [p for _, p in series]
    assert all(a < b for a, b in zip(probs, probs[1:]))


# --- regimes ---


def test_regime_examples():
    assert classify_regime(0.2) is Regime.LOW
    assert classify_regime(2.5) is Regime.MODERATE
    assert classify_regime(12.0) is Regime.SEVERE
    assert classify_regime(1.0) is Regime.MODERATE  # boundary: not < 1
    assert classify_regime(10.0) is Regime.SEVERE


def test_regime_respects_custom_tiers():
    policy = TierPolicy((("fast", 0.5), ("slow", 5.0)))
    assert classify_regime(0.7, policy) is Regime.MODERATE
    assert classify_regime(5.0, policy) is Regime.SEVERE


def test_regime_report_tier_feasibility():
    report = build_report(make_records([2.5]))["regime"]
    assert Regime(report["regime"]) is Regime.MODERATE
    assert report["tier_feasibility"] == {"Tier 1": False, "Tier 2": True, "Tier 3": True}


def test_regime_monotone_and_consistent_with_tiers():
    from streamscore.model import classify_tier

    policy = TierPolicy()
    order = [Regime.LOW, Regime.MODERATE, Regime.SEVERE]
    rng = random.Random(11)
    last = None
    for worst in sorted(rng.uniform(0, 120) for _ in range(200)):
        regime = classify_regime(worst, policy)
        if last is not None:
            assert order.index(regime) >= order.index(last)
        last = regime
        # low exactly when the worst transfer meets the tightest tier
        assert (regime is Regime.LOW) == (classify_tier(worst, policy) == "Tier 1")


# --- utilization ---


def test_utilization_examples():
    link = LinkSpec(bandwidth=GBPS_25)
    # 4 GB delivered in 2 s on 25 Gbps
    assert carried_utilization(8 * 500_000_000, 2.0, link) == pytest.approx(0.64, rel=1e-9)
    # 3 GB/s sustained
    assert carried_utilization(6 * 500_000_000, 1.0, link) == pytest.approx(0.96, rel=1e-9)
    assert carried_utilization(0, 1.0, link) == 0.0
    # no span, no capacity: no figure
    assert carried_utilization(1000, 0.0, link) is None
    # the report's window is the last successful completion
    report = build_report(make_records([2.0] * 8, nbytes=500_000_000), link=link)
    assert report["regime"]["utilization"] == pytest.approx(0.64, rel=1e-9)


def test_utilization_counts_only_successful_bytes():
    # a failed transfer can carry the bytes of the flows that were acknowledged
    failed = (9, 0.0, 1.0, 1.0, 500_000_000, 2, "flow 1: reset")
    records = table_of(make_rows([1.0, 1.0]) + [failed])
    report = build_report(records, link=LinkSpec(bandwidth=GBPS_25))
    assert report["regime"]["utilization"] == pytest.approx(0.32)


def test_utilization_clamps_and_warns(caplog):
    link = LinkSpec(bandwidth=1000.0)
    with caplog.at_level("WARNING", logger="streamscore.model"):
        assert carried_utilization(5000, 1.0, link) == 1.0
    assert "clamping" in caplog.text
    caplog.clear()
    # an excess of float rounding only, as a busy simulated link gives: clamped silently
    with caplog.at_level("WARNING", logger="streamscore.model"):
        assert carried_utilization(1000 * (1 + 1e-12), 1.0, link) == 1.0
    assert caplog.text == ""
    with caplog.at_level("WARNING", logger="streamscore.model"):
        assert carried_utilization(1000 * (1 + 1e-8), 1.0, link) == 1.0
    assert "utilization 1.00000001 exceeds" in caplog.text  # past float rounding, and reads so
    caplog.clear()
    # a huge fraction is named in a few digits, not all of them
    with caplog.at_level("WARNING", logger="streamscore.model"):
        assert carried_utilization(5 * 10**12, 1e-247, link) == 1.0
    assert "utilization 5e+256 exceeds 1.0 (window 1e-247s)" in caplog.text


# --- report ---


def test_report_structure_and_round_trip(tmp_path):
    records = make_records([0.16, 0.18, 0.2, 5.0], failures=1)
    link = LinkSpec(bandwidth=GBPS_25, rtt=0.016)
    report = build_report(records, link=link)

    assert set(report) >= {"schema", "stats", "cdf", "regime", "comparison"}
    assert not {"sss", "decision"} & set(report)  # schema 2: SSS lives in regime only
    assert report["schema"] == "streamscore-report/2"
    assert report["regime"]["sss"] == pytest.approx(5.0 / 0.16, rel=1e-9)
    assert report["stats"]["failures"] == 1
    assert report["comparison"] is None
    assert report["delay_model"]["label"] == OPTIMISTIC_BASELINE_LABEL
    assert report["delay_model"]["propagation_only_s"] == pytest.approx(0.008)
    assert report["delay_model"]["total_s"] >= report["delay_model"]["propagation_only_s"]
    # both efficiency fits exposed and labeled
    eff = report["transfer_efficiency"]
    assert eff["alpha_from_worst_fct"] < eff["alpha_from_mean_fct"]

    # a report's embedded inputs re-analyze to identical statistics
    again = fct_stats(report["inputs"]["fct_values"], report["inputs"]["failures"])
    for field in ("count", "failures", "min", "max", "mean", "p50", "p90", "p99"):
        assert getattr(again, field) == report["stats"][field]

    paths = write_report(report, tmp_path)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "series_cdf.csv").exists()
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded["stats"] == report["stats"]
    with open(tmp_path / "series_cdf.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["fct_s", "cumulative_probability"]
    assert len(rows) == 1 + len(report["cdf"])
    assert paths


def test_report_modal_bytes_skip_zero_byte_successes():
    records = table_of(make_rows([0.1, 0.2, 0.3], nbytes=0) + [(3, 0.0, 0.4, 0.4, 5000, 1)])
    report = build_report(records, link=LinkSpec(bandwidth=GBPS_25))
    assert report["inputs"]["bytes"] == 5000
    assert report["regime"]["sss"] == pytest.approx(0.4 / (5000 / GBPS_25))


def test_report_comparison_counts_the_second_run_on_its_own():
    report = build_report(
        make_records([0.16, 0.2]), compare_records=make_records([0.3, 0.25, 0.2], failures=2)
    )
    other = report["comparison"]["comparison"]
    assert (other["count"], other["failures"], other["min"], other["max"]) == (3, 2, 0.2, 0.3)


def test_report_comparison_block():
    simulated = make_records([0.16, 0.2])
    measured = make_records([0.2, 0.25])
    report = build_report(
        simulated,
        compare_records=measured,
        comparison_labels=("simulated", "measured"),
    )
    comparison = report["comparison"]
    assert comparison["simulated"]["max"] == 0.2
    assert comparison["measured"]["max"] == 0.25
    assert comparison["ratios"]["max"] == pytest.approx(0.2 / 0.25)


def test_stats_ratios_handles_zero_denominator():
    a = fct_stats([1.0, 2.0])
    b = fct_stats([1.0, 2.0])
    ratios = stats_ratios(a, b)
    assert ratios["max"] == 1.0
    assert ratios["p50"] == 1.0


def test_delay_comparator_always_labeled():
    block = delay_comparator(trans_s=0.16, prop_s=0.008, queue_s=5.0)
    assert block["label"] == OPTIMISTIC_BASELINE_LABEL
    assert block["total_s"] == pytest.approx(5.168)
    assert block["propagation_only_s"] == 0.008


# --- pipeline closure with the simulator ---


def test_equal_share_sim_analyzes_to_exact_stats():
    scenario = Scenario(
        link=LinkSpec(bandwidth=GBPS_25),
        duration=10.0,
        concurrency=8.0,
        transfer_bytes=0.5e9,
        startup_latency=0.0,
    )
    # single batch variant: all 80 records at 1.28 needs sustained overload;
    # use the one-batch scenario for the exact closure check
    one_batch = Scenario(
        link=LinkSpec(bandwidth=GBPS_25),
        duration=1.0,
        concurrency=8.0,
        transfer_bytes=0.5e9,
        startup_latency=0.0,
    )
    stats = summarize(simulate(one_batch).records)
    expected = 8 * 0.5e9 / GBPS_25
    assert stats.max == expected
    assert stats.p99 == expected
    assert stats.p50 == expected
    assert stats.mean == expected

    report = build_report(simulate(scenario).records, link=LinkSpec(bandwidth=GBPS_25))
    assert report["regime"]["regime"] == "moderate"


def test_sweep_csv_has_header_and_24_rows(tmp_path):
    base = Scenario(
        link=LinkSpec(bandwidth=GBPS_25),
        duration=10.0,
        concurrency=1.0,
        transfer_bytes=0.5e9,
        startup_latency=0.0,
    )
    rows = sweep(base, [1, 2, 3, 4, 5, 6, 7, 8], [2, 4, 8])
    path = tmp_path / "series_worst_fct_vs_load.csv"
    write_sweep_csv(rows, path)
    with open(path) as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0][0] == "concurrency"
    assert len(parsed) == 25  # header + 24 data rows


# --- report encoder: json.dumps(indent=2) bytes, large arrays spliced in ---

report_fcts = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),  # subnormals too
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1.7976931348623157e308]),
    st.integers(0, 2**53),
)


def _without_arrays(report: dict, cdf: list, values: list) -> dict:
    return {**report, "cdf": cdf, "inputs": {**report["inputs"], "fct_values": values}}


@given(st.lists(report_fcts, min_size=1, max_size=40), st.integers(0, 2), st.booleans())
@example([-0.0], 0, False)
@example([5e-324, 1e16, 3, 3, 0.1], 1, True)
@example([7], 0, True)
def test_report_json_equals_json_dumps_indent_2(fcts, failures, with_link):
    link = LinkSpec(bandwidth=GBPS_25, rtt=0.016) if with_link else None
    report = build_report(make_records(fcts, failures), link=link)
    assert report_json(report) == json.dumps(report, indent=2)
    # empty and one-element arrays
    for cdf, values in (([], []), (report["cdf"][:1], report["inputs"]["fct_values"][:1])):
        edited = _without_arrays(report, cdf, values)
        assert report_json(edited) == json.dumps(edited, indent=2)


def test_report_json_falls_back_when_a_string_looks_like_a_splice_mark():
    report = build_report(
        make_records([0.2, 0.1]),
        compare_records=make_records([0.3]),
        comparison_labels=("\x00cdf", "\x00fct_values"),
    )
    assert report_json(report) == json.dumps(report, indent=2)


@pytest.mark.parametrize("labels", [("primary", "comparison"), ("\x00cdf", "comparison")])
@pytest.mark.parametrize("where", ["regime", "cdf", "fct_values"])
def test_report_json_refuses_a_non_finite_figure(labels, where):
    # on the splice path, in a spliced array and on the json.dumps fallback: never Infinity or NaN
    for figure in (math.inf, math.nan):
        report = build_report(make_records([0.2, 0.1]), compare_records=make_records([0.3]),
                              comparison_labels=labels)
        if where == "regime":
            report["regime"]["worst_fct"] = figure
        elif where == "cdf":
            report["cdf"][-1] = (figure, 1.0)
        else:
            report["inputs"]["fct_values"][-1] = figure
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            report_json(report)


def test_report_json_splices_arrays_larger_than_one_encoder_chunk():
    # the arrays are encoded a chunk at a time; the joins must not show
    fcts = [i / 7 for i in range(1, 10_000)]
    report = build_report(make_records(fcts), link=LinkSpec(bandwidth=GBPS_25, rtt=0.016))
    assert len(report["cdf"]) == len(fcts)
    assert report_json(report) == json.dumps(report, indent=2)


# --- any log the reader accepts reports only finite, non-negative figures ---

log_times = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals and 1.8e308 too
    st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
)


@st.composite
def log_lines(draw):
    """One record line as a producer writes it, fct_s = complete_s - spawn_s."""
    spawn, complete = sorted((draw(log_times), draw(log_times)))
    line = {
        "spawn_s": spawn,
        "complete_s": complete,
        "fct_s": complete - spawn,
        "bytes": draw(st.integers(min_value=0)),
        "flows": draw(st.integers(1, MAX_FLOWS)),  # the reader rejects any other count
    }
    error = draw(st.sampled_from([None, None, "refused"]))  # a failure in three
    line["status"] = "ok" if error is None else "error"
    if error is not None:
        line["error"] = error
    return line


@given(
    st.lists(log_lines(), min_size=1, max_size=12),
    st.floats(min_value=1.0, max_value=1e15),  # link bandwidth, B/s
    st.floats(min_value=0.0, max_value=10.0),  # rtt, s
)
@example([{"spawn_s": 0.0, "complete_s": 5e-324, "fct_s": 5e-324, "bytes": 1000, "flows": 1,
           "status": "ok"}], GBPS_25, 0.0)
@example([{"spawn_s": 0.0, "complete_s": 1.7976931348623157e308, "fct_s": 1.7976931348623157e308,
           "bytes": 1, "flows": 1, "status": "ok"}] * 2, 1e15, 0.0)
@example([{"spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 10**9, "flows": 1,
           "status": "ok"}], 1e-300, 0.016)  # the delay total overflows
def test_any_accepted_log_reports_finite_figures(lines, bandwidth, rtt):
    text = "".join(json.dumps({"client_id": i, **line}) + "\n" for i, line in enumerate(lines))
    try:
        _, records = read_jsonl(io.StringIO(text))
    except LogFormatError:
        assume(False)
    assume(None in records.error)
    report = build_report(records, link=LinkSpec(bandwidth=bandwidth, rtt=rtt))
    doc = strict_json(report_json(report))

    def finite(value):
        return isinstance(value, (int, float)) and 0 <= value < math.inf

    # (the mean of equal FCTs can round one ulp past the max, so no min <= mean <= max)
    assert all(finite(value) for value in doc["stats"].values()), doc["stats"]
    figures = [doc["regime"]["sss"], doc["regime"]["utilization"]]
    if doc["transfer_efficiency"] is not None:
        figures += [doc["transfer_efficiency"]["alpha_from_mean_fct"],
                    doc["transfer_efficiency"]["alpha_from_worst_fct"]]
    if doc["delay_model"] is not None:
        figures += [doc["delay_model"]["total_s"], doc["delay_model"]["propagation_only_s"]]
    assert all(value is None or finite(value) for value in figures), figures
    assert doc["regime"]["utilization"] is None or doc["regime"]["utilization"] <= 1.0
