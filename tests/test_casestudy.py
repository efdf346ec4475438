from __future__ import annotations

import json
import math

import pytest

from streamscore.analysis import row_dict
from streamscore.casestudy import (
    DEMO_CASE_STUDY,
    CaseStudyInput,
    Workflow,
    evaluate,
    interpolate_worst_fct,
    load_case_study,
    study_from_mapping,
)
from streamscore.model import LinkSpec, TierPolicy

GBPS_25 = 25e9 / 8
CURVE = ((0.64, 1.2), (0.96, 6.0))


def test_interpolation_hits_curve_points_exactly():
    assert interpolate_worst_fct(CURVE, 0.64) == (1.2, False)
    assert interpolate_worst_fct(CURVE, 0.96) == (6.0, False)


def test_interpolation_midpoint_linear():
    value, extrapolated = interpolate_worst_fct(CURVE, 0.8)
    assert value == pytest.approx(1.2 + (6.0 - 1.2) * (0.8 - 0.64) / (0.96 - 0.64))
    assert not extrapolated


def test_extrapolation_is_tagged():
    low, tagged_low = interpolate_worst_fct(CURVE, 0.1)
    high, tagged_high = interpolate_worst_fct(CURVE, 0.99)
    assert tagged_low and tagged_high
    assert low == 0.0  # linear extension clamped at zero
    assert high > 6.0


@pytest.mark.parametrize("throughput, infeasible", [(0.8e9, False), (0.81e9, True)])
def test_offered_load_above_one_is_infeasible(throughput, infeasible):
    link = LinkSpec(bandwidth=1e9, alpha=0.8)
    study = CaseStudyInput(
        workflows=(Workflow("w", throughput, 1e12),), link=link, tiers=TierPolicy(),
        worst_fct_curve=((0.5, 1.0), (1.0, 2.0)),
    )
    (row,) = evaluate(study)
    assert row.offered_load == pytest.approx(throughput / 0.8e9, rel=1e-12)
    assert row.infeasible is infeasible


def test_demo_study_reproduces_published_budgets():
    results = {row.name: row for row in evaluate(DEMO_CASE_STUDY)}

    coherent = results["Coherent Scattering (XPCS, XSVS)"]
    assert coherent.offered_load == pytest.approx(0.64, abs=1e-12)
    assert coherent.worst_fct == pytest.approx(1.2, abs=1e-12)
    tier2 = next(t for t in coherent.tiers if t.tier == "Tier 2")
    assert tier2.budget_s == pytest.approx(8.8, abs=1e-9)
    assert tier2.required_remote_rate == pytest.approx(34e12 / 8.8, rel=1e-9)

    liquid = results["Liquid Scattering"]
    assert liquid.infeasible
    assert liquid.worst_fct is None
    assert "exceeds" in liquid.note

    reduced = results["Liquid Scattering (reduced to 3 GB/s)"]
    assert reduced.offered_load == pytest.approx(0.96, abs=1e-12)
    tier2 = next(t for t in reduced.tiers if t.tier == "Tier 2")
    assert tier2.budget_s == pytest.approx(4.0, abs=1e-9)
    assert tier2.required_remote_rate == pytest.approx(5e12, rel=1e-9)


def test_zero_budget_tier_has_no_required_rate():
    results = evaluate(DEMO_CASE_STUDY)
    coherent = results[0]
    tier1 = next(t for t in coherent.tiers if t.tier == "Tier 1")
    assert tier1.budget_s == 0.0
    assert tier1.required_remote_rate is None


# two inputs whose row overflows a float: a steep curve extrapolated to a worst FCT of inf at load 0.1,
# and a workflow whose compute over its throughput is inf FLOP per byte, so every required rate is inf
OVERFLOWS = {
    "worst-fct": (Workflow("bad", 0.1e9, 1e12), ((0.5, 1e308), (0.5000001, 0.0)),
                  "worst FCT and required remote rates must be finite, got inf s and [None, None, None]"),
    "remote-rate": (Workflow("bad", 1e-10, 1e300), CURVE,
                    "worst FCT and required remote rates must be finite, got 0.0 s and [inf, inf, inf]"),
}


@pytest.mark.parametrize("case", list(OVERFLOWS))
def test_row_errors_do_not_block_other_rows(case):
    bad, curve, message = OVERFLOWS[case]
    study = CaseStudyInput(
        workflows=(bad, Workflow(name="fine", throughput=0.6e9, compute=1e12)),
        link=LinkSpec(bandwidth=1e9),
        tiers=TierPolicy(),
        worst_fct_curve=curve,
    )
    results = evaluate(study)
    assert len(results) == 2
    # the error row's JSON object, key order included; it keeps the offered load it computed
    assert list(row_dict(results[0]).items()) == [
        ("name", "bad"),
        ("throughput_bytes_per_s", bad.throughput),
        ("offered_load", bad.throughput / 1e9),
        ("infeasible", False),
        ("worst_fct_s", None),
        ("extrapolated", False),
        ("tiers", ()),
        ("note", None),
        ("error", message),
    ]
    assert results[1].error is None
    assert results[1].worst_fct is not None
    json.dumps([row_dict(row) for row in results], allow_nan=False)  # every figure left is finite


def test_an_overflowed_offered_load_is_an_error_row_with_a_null_load():
    # 1e300 B/s over 1e-10 B/s: the load was inf, an INFEASIBLE row that JSON could not carry
    study = CaseStudyInput(
        workflows=(Workflow("bad", 1e300, 1e12), Workflow(name="fine", throughput=0.5e-10, compute=1e12)),
        link=LinkSpec(bandwidth=1e-10),
        tiers=TierPolicy(),
        worst_fct_curve=CURVE,
    )
    bad, fine = evaluate(study)
    assert (bad.offered_load, bad.infeasible, bad.tiers) == (None, False, ())
    assert bad.error == "offered load must be finite, got inf (1e+300 B/s over 1e-10 B/s)"
    assert (fine.error, fine.offered_load) == (None, 0.5)
    json.dumps([row_dict(row) for row in (bad, fine)], allow_nan=False)


def test_load_case_study_with_unit_literals(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(
        json.dumps(
            {
                "workflows": [
                    {"name": "a", "throughput": "2GBps", "compute": "34TF"},
                    {"name": "b", "throughput": "4GBps", "compute": "20TFLOP"},
                ],
                "link": {"bandwidth": "25Gbps", "alpha": 1.0, "rtt": "16ms"},
                "tiers": [["Tier 1", "1s"], ["Tier 2", "10s"], ["Tier 3", "1min"]],
                "worst_fct_curve": [[0.64, "1.2s"], [0.96, "6s"]],
            }
        )
    )
    study = load_case_study(path)
    assert study.workflows[0].throughput == 2e9
    assert study.workflows[0].compute == 34e12
    assert study.workflows[1].compute == 20e12
    assert study.link.bandwidth == GBPS_25
    assert study.tiers.deadlines == (1.0, 10.0, 60.0)
    assert study.worst_fct_curve == ((0.64, 1.2), (0.96, 6.0))


def test_malformed_study_rejected():
    with pytest.raises(ValueError):
        study_from_mapping({"workflows": []})
    with pytest.raises(ValueError):
        study_from_mapping(
            {
                "workflows": [{"name": "a", "throughput": "2GBps", "compute": "34TF"}],
                "link": {"bandwidth": "25Gbps"},
                "worst_fct_curve": [[0.9, "1s"], [0.5, "2s"]],  # not increasing
            }
        )


def _study(curve) -> CaseStudyInput:
    return CaseStudyInput(workflows=(Workflow("w", 1e9, 1e12),), link=LinkSpec(bandwidth=GBPS_25),
                          tiers=TierPolicy(), worst_fct_curve=curve)


# NaN passed the old `<= 0` and `< 0` tests, and a NaN worst FCT evaluated to a 0.0 s worst case
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Workflow("w", math.nan, 1e12), "throughput must be > 0, got nan"),
        (lambda: Workflow("w", 1e9, math.nan), "compute must be >= 0, got nan"),
        (lambda: _study(((0.5, math.nan),)), "curve worst FCTs must be finite and >= 0: ((0.5, nan),)"),
        (lambda: _study(((0.5, 1.0), (0.9, math.inf))),
         "curve worst FCTs must be finite and >= 0: ((0.5, 1.0), (0.9, inf))"),
        (lambda: _study(((0.5, -1.0),)), "curve worst FCTs must be finite and >= 0: ((0.5, -1.0),)"),
    ],
)
def test_nan_and_out_of_range_workflow_and_curve_values_rejected(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_compute_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        study_from_mapping(
            {
                "workflows": [{"name": "a", "throughput": "2GBps", "compute": "10s"}],
                "link": {"bandwidth": "25Gbps"},
                "worst_fct_curve": [[0.64, "1.2s"]],
            }
        )
