from __future__ import annotations

import json

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


def test_row_errors_do_not_block_other_rows(monkeypatch):
    import streamscore.casestudy as cs

    study = CaseStudyInput(
        workflows=(
            Workflow(name="bad", throughput=1e9, compute=1e12),
            Workflow(name="fine", throughput=2e9, compute=1e12),
        ),
        link=LinkSpec(bandwidth=GBPS_25),
        tiers=TierPolicy(),
        worst_fct_curve=CURVE,
    )
    original = cs._evaluate_one

    def flaky(workflow, inner_study):
        if workflow.name == "bad":
            raise ValueError("boom")
        return original(workflow, inner_study)

    monkeypatch.setattr(cs, "_evaluate_one", flaky)
    results = evaluate(study)
    assert len(results) == 2
    assert results[0].error == "boom"
    # the error row's JSON object, key order included
    assert list(row_dict(results[0]).items()) == [
        ("name", "bad"),
        ("throughput_bytes_per_s", 1e9),
        ("offered_load", 0.0),
        ("infeasible", False),
        ("worst_fct_s", None),
        ("extrapolated", False),
        ("tiers", ()),
        ("note", None),
        ("error", "boom"),
    ]
    assert results[1].error is None
    assert results[1].worst_fct is not None


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


def test_compute_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        study_from_mapping(
            {
                "workflows": [{"name": "a", "throughput": "2GBps", "compute": "10s"}],
                "link": {"bandwidth": "25Gbps"},
                "worst_fct_curve": [[0.64, "1.2s"]],
            }
        )
