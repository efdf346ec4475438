"""Statistics and reporting over transfer logs, measured or simulated.

Tail-focused summaries (max, nearest-rank percentiles, empirical CDF),
operational-regime classification against a tier policy, utilization
estimates from application bytes, and a JSON report plus CSV series meant
for external plotting. Failed transfers never enter FCT statistics; they are
surfaced as a failure count instead.
"""

from __future__ import annotations

import csv
import json
import logging
from collections import Counter
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .model import (
    DEFAULT_TIER_POLICY,
    DelayDecomposition,
    LinkSpec,
    TierPolicy,
    classify_tier,
    propagation_only_delay,
    streaming_speed_score,
    theoretical_transfer_time,
    total_delay,
)
from .records import FlowRecord

logger = logging.getLogger(__name__)

OPTIMISTIC_BASELINE_LABEL = "optimistic baseline"

REPORT_SCHEMA = "streamscore-report/1"


@dataclass(frozen=True)
class FctStats:
    """Flow-completion-time summary over the successful records of a run."""

    count: int
    failures: int
    min: float
    max: float
    mean: float
    p50: float
    p90: float
    p99: float


class Regime(Enum):
    LOW = "low"
    MODERATE = "moderate"
    SEVERE = "severe"


@dataclass(frozen=True)
class RegimeReport:
    regime: Regime
    worst_fct: float
    utilization: float | None
    sss: float | None
    tier_feasibility: dict[str, bool]  # tier name -> worst transfer meets deadline


def _ok_fcts(records: Iterable[FlowRecord]) -> list[float]:
    return [r.fct_s for r in records if r.ok]


def nearest_rank(sorted_values: Sequence[float], percentile: int) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("cannot take a percentile of zero values")
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    index = -((-percentile * n) // 100)  # integer ceil division
    return sorted_values[index - 1]


def _stats_of_sorted(ordered: Sequence[float], failures: int) -> FctStats:
    if not ordered:
        raise ValueError("no successful records to summarize")
    return FctStats(
        count=len(ordered),
        failures=failures,
        min=ordered[0],
        max=ordered[-1],
        mean=sum(ordered) / len(ordered),
        p50=nearest_rank(ordered, 50),
        p90=nearest_rank(ordered, 90),
        p99=nearest_rank(ordered, 99),
    )


def _cdf_of_sorted(ordered: Sequence[float]) -> list[tuple[float, float]]:
    if not ordered:
        raise ValueError("no successful records for a CDF")
    n = len(ordered)
    series: list[tuple[float, float]] = []
    for i, value in enumerate(ordered, start=1):
        if i == n or ordered[i] != value:
            series.append((value, i / n))
    return series


def summarize_values(fcts: Sequence[float], failures: int = 0) -> FctStats:
    return _stats_of_sorted(sorted(fcts), failures)


def summarize(records: Iterable[FlowRecord]) -> FctStats:
    """FCT statistics over successful records; failures only counted."""
    records = list(records)
    fcts = _ok_fcts(records)
    return summarize_values(fcts, failures=len(records) - len(fcts))


def empirical_cdf(records: Iterable[FlowRecord]) -> list[tuple[float, float]]:
    """Empirical CDF as (fct, cumulative probability) steps ending at 1.0.

    Duplicate values coalesce to their highest rank, so probabilities
    strictly increase across entries.
    """
    return _cdf_of_sorted(sorted(_ok_fcts(records)))


def classify_regime(worst_fct: float, policy: TierPolicy = DEFAULT_TIER_POLICY) -> Regime:
    """Low below the tightest deadline, severe at or past the next one."""
    if worst_fct < 0:
        raise ValueError(f"worst_fct must be >= 0, got {worst_fct}")
    deadlines = policy.deadlines
    low_cut = deadlines[0]
    severe_cut = deadlines[1] if len(deadlines) > 1 else deadlines[0]
    if worst_fct < low_cut:
        return Regime.LOW
    if worst_fct >= severe_cut:
        return Regime.SEVERE
    return Regime.MODERATE


def regime_report(
    worst_fct: float,
    policy: TierPolicy = DEFAULT_TIER_POLICY,
    utilization: float | None = None,
    sss: float | None = None,
) -> RegimeReport:
    return RegimeReport(
        regime=classify_regime(worst_fct, policy),
        worst_fct=worst_fct,
        utilization=utilization,
        sss=sss,
        tier_feasibility={
            name: worst_fct < deadline for name, deadline in policy.tiers
        },
    )


def utilization(
    records: Iterable[FlowRecord], link: LinkSpec, window: float
) -> float:
    """Delivered application bytes over link capacity for the window."""
    if window <= 0:
        raise ValueError(f"window must be > 0, got {window}")
    delivered = sum(
        r.bytes for r in records if r.ok and r.complete_s <= window + 1e-12
    )
    fraction = delivered / (link.bandwidth * window)
    if fraction > 1.0:
        logger.warning(
            "utilization %.4f exceeds 1.0 (window %.3fs); clamping - the link "
            "bandwidth figure is likely below the achieved rate",
            fraction,
            window,
        )
        return 1.0
    return max(0.0, fraction)


def delay_comparator(trans_s: float, prop_s: float, queue_s: float = 0.0) -> dict:
    """Full delay sum next to the propagation-only optimistic baseline."""
    d = DelayDecomposition(proc_s=0.0, queue_s=queue_s, trans_s=trans_s, prop_s=prop_s)
    return {
        "total_s": total_delay(d),
        "propagation_only_s": propagation_only_delay(d),
        "label": OPTIMISTIC_BASELINE_LABEL,
    }


def stats_ratios(a: FctStats, b: FctStats) -> dict[str, float | None]:
    """Per-statistic a/b ratios for comparing two runs."""
    out: dict[str, float | None] = {}
    for name in ("min", "max", "mean", "p50", "p90", "p99"):
        denom = getattr(b, name)
        out[name] = None if denom == 0 else getattr(a, name) / denom
    return out


def _modal_bytes(ok_records: list[FlowRecord]) -> int | None:
    sizes = Counter(r.bytes for r in ok_records if r.bytes > 0)
    if not sizes:
        return None
    return sizes.most_common(1)[0][0]


# result fields whose JSON and CSV keys carry their unit
_ROW_KEYS = {
    "worst_fct": "worst_fct_s",
    "throughput": "throughput_bytes_per_s",
    "required_remote_rate": "required_remote_rate_flops",
}


def _enum_values(pairs) -> dict:
    return {key: value.value if isinstance(value, Enum) else value for key, value in pairs}


def _row_values(pairs) -> dict:
    return _enum_values((_ROW_KEYS.get(key, key), value) for key, value in pairs)


def row_dict(row) -> dict:
    """A sweep or case-study row as its JSON/CSV object, in field order."""
    return asdict(row, dict_factory=_row_values)


def build_report(
    records: Iterable[FlowRecord],
    link: LinkSpec | None = None,
    policy: TierPolicy = DEFAULT_TIER_POLICY,
    decision: dict | None = None,
    compare_records: Iterable[FlowRecord] | None = None,
    comparison_labels: tuple[str, str] = ("primary", "comparison"),
) -> dict:
    """Assemble the full JSON report for one run (plus an optional second).

    With a link spec the report gains SSS, utilization, both transfer
    efficiency estimates (mean- and worst-based, labeled), and the delay
    comparator with its optimistic-baseline tag.
    """
    records = list(records)
    ok_records = [r for r in records if r.ok]
    # one sort feeds the stats, the CDF and the embedded inputs
    fct_values = sorted(r.fct_s for r in ok_records)
    stats = _stats_of_sorted(fct_values, failures=len(records) - len(ok_records))
    cdf_series = _cdf_of_sorted(fct_values)

    sss_value: float | None = None
    util: float | None = None
    efficiency: dict | None = None
    delay_block: dict | None = None
    modal = _modal_bytes(ok_records)
    if link is not None and modal is not None:
        theoretical = theoretical_transfer_time(modal, link)
        if theoretical > 0:
            sss_value = streaming_speed_score(stats.max, theoretical)
        window = max(r.complete_s for r in ok_records)
        if window > 0:
            util = utilization(ok_records, link, window)
        # the fitted-efficiency question is open: report both candidates
        efficiency = {
            "alpha_from_mean_fct": (modal / stats.mean) / link.bandwidth,
            "alpha_from_worst_fct": (modal / stats.max) / link.bandwidth,
            "note": "achieved-rate fraction of raw bandwidth; mean-based vs worst-case-based fits",
        }
        delay_block = delay_comparator(trans_s=theoretical, prop_s=link.rtt / 2)

    regime = regime_report(stats.max, policy, utilization=util, sss=sss_value)

    comparison: dict | None = None
    if compare_records is not None:
        other_stats = summarize(compare_records)
        label_a, label_b = comparison_labels
        comparison = {
            label_a: asdict(stats),
            label_b: asdict(other_stats),
            "ratios": stats_ratios(stats, other_stats),
        }

    return {
        "schema": REPORT_SCHEMA,
        "stats": asdict(stats),
        "cdf": [[value, probability] for value, probability in cdf_series],
        "regime": asdict(regime, dict_factory=_enum_values),
        "sss": sss_value,
        "decision": decision,
        "comparison": comparison,
        "transfer_efficiency": efficiency,
        "delay_model": delay_block,
        "inputs": {
            "fct_values": fct_values,
            "failures": stats.failures,
            "bytes": modal,
        },
    }


def reanalyze(report: dict) -> FctStats:
    """Recompute statistics from a report's embedded inputs."""
    inputs = report["inputs"]
    return summarize_values(inputs["fct_values"], failures=inputs["failures"])


def report_json(report: dict) -> str:
    """The report's JSON text, as report.json and ``analyze --json`` hold it."""
    return json.dumps(report, indent=2)


def write_report(
    report: dict, out_dir: Path | str, text: str | None = None
) -> list[Path]:
    """Write report.json and the CSV series for external plotting.

    ``text`` is ``report_json(report)`` when the caller has already encoded
    it, so a report that is also printed is encoded once.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    report_path = out / "report.json"
    if text is None:
        text = report_json(report)
    report_path.write_text(text + "\n", encoding="utf-8")
    written.append(report_path)

    cdf_path = out / "series_cdf.csv"
    with open(cdf_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fct_s", "cumulative_probability"])
        writer.writerows(report["cdf"])
    written.append(cdf_path)
    return written


def write_sweep_csv(rows, path: Path | str) -> Path:
    """Worst-FCT-versus-load series from (non-empty) fluidsim sweep rows."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    table = [row_dict(row) for row in rows]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table[0])
        writer.writerows(row.values() for row in table)
    return path


def tier_feasibility_line(worst_fct: float, policy: TierPolicy) -> str:
    tier = classify_tier(worst_fct, policy)
    return tier if tier is not None else "none"
