"""Facility case study: per-workflow streaming feasibility and compute budgets.

Each workflow states a sustained throughput and a compute demand; the study
maps throughput to its offered load (``model.offered_load``, infeasible above
1), looks up the worst-case transfer time on a measured or simulated curve of
``(offered_load, worst_fct_s)`` sweep rows, and derives the compute budget
and minimum remote rate per deadline tier. Curve queries outside the measured
range are answered by extending the end segments but tagged as extrapolated.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

from ._frozen import frozen
from .model import (
    DEFAULT_TIER_POLICY,
    LinkSpec,
    TierPolicy,
    WorkloadSpec,
    link_from_mapping,
    offered_load,
    required_remote_rate,
    transfer_budget,
)
from .quantities import (
    Dimension,
    coerce_quantity,
    parse_quantity,
    parse_rate,
    parse_seconds,
)


@frozen
class Workflow:
    """One analysis workflow: data rate out of the instrument, compute need.

    ``compute`` is FLOP per one-second data unit; a sustained-rate figure
    (FLOP/s) for a 1 Hz unit stream has the same magnitude, so both readings
    of facility requirement tables work here.
    """

    name: str
    throughput: float  # bytes/s sustained
    compute: float  # FLOP per second of data

    def __post_init__(self) -> None:
        if not self.throughput > 0:
            raise ValueError(f"throughput must be > 0, got {self.throughput}")
        if not self.compute >= 0:
            raise ValueError(f"compute must be >= 0, got {self.compute}")


@frozen
class CaseStudyInput:
    workflows: tuple[Workflow, ...]
    link: LinkSpec
    tiers: TierPolicy
    worst_fct_curve: tuple[tuple[float, float], ...]  # (offered load, worst fct s)

    def __post_init__(self) -> None:
        if not self.workflows:
            raise ValueError("case study needs at least one workflow")
        if not self.worst_fct_curve:
            raise ValueError("worst-FCT curve needs at least one point")
        loads = [load for load, _ in self.worst_fct_curve]
        if any(b <= a for a, b in zip(loads, loads[1:])):
            raise ValueError(f"curve points must have increasing offered load: {loads}")
        if any(not 0 <= load <= 1 for load in loads):
            raise ValueError(f"curve offered loads must lie in [0, 1]: {loads}")
        if any(not 0 <= worst < math.inf for _, worst in self.worst_fct_curve):
            raise ValueError(f"curve worst FCTs must be finite and >= 0: {self.worst_fct_curve}")


def interpolate_worst_fct(
    curve: tuple[tuple[float, float], ...], load: float
) -> tuple[float, bool]:
    """Piecewise-linear worst-FCT lookup on a non-empty curve; returns (value, extrapolated)."""
    if len(curve) == 1:
        return curve[0][1], load != curve[0][0]

    extrapolated = load < curve[0][0] or load > curve[-1][0]
    if load <= curve[0][0]:
        (x0, y0), (x1, y1) = curve[0], curve[1]
    elif load >= curve[-1][0]:
        (x0, y0), (x1, y1) = curve[-2], curve[-1]
    else:
        for (x0, y0), (x1, y1) in zip(curve, curve[1:]):
            if x0 <= load <= x1:
                break
    value = y0 + (y1 - y0) * (load - x0) / (x1 - x0)
    return max(0.0, value), extrapolated


@frozen
class TierBudget:
    tier: str
    deadline_s: float
    budget_s: float
    required_remote_rate: float | None  # FLOP/s; None when no budget remains


@frozen
class WorkflowResult:
    name: str
    throughput: float
    offered_load: float | None = 0.0  # None where it overflowed: JSON cannot carry inf
    infeasible: bool = False
    worst_fct: float | None = None
    extrapolated: bool = False
    tiers: tuple[TierBudget, ...] = ()
    note: str | None = None
    error: str | None = None


def evaluate(study: CaseStudyInput) -> list[WorkflowResult]:
    """Evaluate every workflow; a failing row keeps its offered load and never blocks the others."""
    results = []
    for workflow in study.workflows:
        load = offered_load(workflow.throughput, study.link)
        row = WorkflowResult(name=workflow.name, throughput=workflow.throughput,
                             offered_load=load if load < math.inf else None)
        try:
            results.append(_evaluate_one(row, workflow, study))
        except ValueError as exc:
            results.append(replace(row, error=str(exc)))
    return results


def _evaluate_one(row: WorkflowResult, workflow: Workflow, study: CaseStudyInput) -> WorkflowResult:
    if row.offered_load is None:
        raise ValueError(f"offered load must be finite, got inf ({workflow.throughput:.6g} B/s over "
                         f"{study.link.effective_rate:.6g} B/s)")
    if row.offered_load > 1:
        return replace(row, infeasible=True, note=(
            f"required {workflow.throughput:.6g} B/s exceeds effective link "
            f"capacity {study.link.effective_rate:.6g} B/s; streaming infeasible"
        ))

    worst, extrapolated = interpolate_worst_fct(study.worst_fct_curve, row.offered_load)
    # the data unit is one second of generation: unit_size = throughput x 1 s
    unit = WorkloadSpec(
        unit_size=workflow.throughput, complexity=workflow.compute / workflow.throughput
    )
    tiers = []
    for tier_name, deadline in study.tiers.tiers:
        budget = transfer_budget(deadline, worst)
        rate = required_remote_rate(unit, budget) if budget > 0 else None
        tiers.append(
            TierBudget(
                tier=tier_name,
                deadline_s=deadline,
                budget_s=budget,
                required_remote_rate=rate,
            )
        )
    # an extrapolated FCT or a rate that overflows to inf is no verdict, and JSON cannot carry it
    rates = [tier.required_remote_rate for tier in tiers]
    if not all(map(math.isfinite, [worst, *filter(None, rates)])):
        raise ValueError(f"worst FCT and required remote rates must be finite, got {worst} s and {rates}")
    return replace(
        row,
        worst_fct=worst,
        extrapolated=extrapolated,
        tiers=tuple(tiers),
        note="worst FCT extrapolated beyond the measured curve" if extrapolated else None,
    )


def _parse_compute(text: str) -> float:
    """Compute demand: accepts FLOP or FLOP/s literals (same magnitude)."""
    magnitude, dim = parse_quantity(text)
    if dim not in (Dimension.FLOP, Dimension.FLOP_PER_SECOND):
        raise ValueError(f"compute {text!r} must be FLOP or FLOP/s")
    return magnitude


def study_from_mapping(raw: dict) -> CaseStudyInput:
    try:
        workflows = tuple(
            Workflow(
                name=str(w["name"]),
                throughput=coerce_quantity(w["throughput"], parse_rate),
                compute=coerce_quantity(w["compute"], _parse_compute),
            )
            for w in raw["workflows"]
        )
        link = link_from_mapping(raw["link"])
        curve = tuple(
            (coerce_quantity(u), coerce_quantity(worst, parse_seconds))
            for u, worst in raw["worst_fct_curve"]
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed case study input: {exc}") from exc

    tiers_raw = raw.get("tiers")
    if tiers_raw is None:
        tiers = DEFAULT_TIER_POLICY
    else:
        tiers = TierPolicy(
            tuple((str(name), coerce_quantity(d, parse_seconds)) for name, d in tiers_raw)
        )
    return CaseStudyInput(workflows=workflows, link=link, tiers=tiers, worst_fct_curve=curve)


def load_case_study(path: Path | str) -> CaseStudyInput:
    return study_from_mapping(json.loads(Path(path).read_text(encoding="utf-8")))


# Bundled demo: light-source workflows on a 25 Gbps path, with worst-FCT curve
# points taken from congestion measurements at offered loads 0.64 and 0.96.
DEMO_CASE_STUDY = CaseStudyInput(
    workflows=(
        Workflow(name="Coherent Scattering (XPCS, XSVS)", throughput=2e9, compute=34e12),
        Workflow(name="Liquid Scattering", throughput=4e9, compute=20e12),
        Workflow(name="Liquid Scattering (reduced to 3 GB/s)", throughput=3e9, compute=20e12),
    ),
    link=LinkSpec(bandwidth=25e9 / 8, alpha=1.0, rtt=16e-3),
    tiers=DEFAULT_TIER_POLICY,
    worst_fct_curve=((0.64, 1.2), (0.96, 6.0)),
)
