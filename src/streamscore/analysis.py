"""Statistics and reporting over transfer logs, measured or simulated.

``build_report`` is the path from flow records to statistics. It reads a
``FlowTable``'s columns, sorts the successful FCTs once and feeds two
primitives over that sorted list: ``fct_stats`` (max, mean, nearest-rank
percentiles) and ``fct_cdf`` (the empirical CDF). The report adds the
operational regime against a tier policy, its SSS and carried utilization
(``model.carried_utilization``, the figure ``simulate`` also prints), and a
JSON text plus CSV series for external plotting. Failed transfers never
enter FCT statistics; they are surfaced as a failure count instead. A
figure that overflows a float is reported as null, so the JSON text never
holds NaN or Infinity.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import compress
from pathlib import Path

from .model import (
    DEFAULT_TIER_POLICY,
    DelayDecomposition,
    LinkSpec,
    TierPolicy,
    carried_utilization,
    propagation_only_delay,
    streaming_speed_score,
    theoretical_transfer_time,
    total_delay,
)
from .records import FlowTable

OPTIMISTIC_BASELINE_LABEL = "optimistic baseline"

REPORT_SCHEMA = "streamscore-report/2"


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


def nearest_rank(sorted_values: Sequence[float], percentile: int) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("cannot take a percentile of zero values")
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    index = -((-percentile * n) // 100)  # integer ceil division
    return sorted_values[index - 1]


def fct_stats(sorted_fcts: Sequence[float], failures: int = 0) -> FctStats:
    """FCT statistics over an ascending list of successful FCTs."""
    if not sorted_fcts:
        raise ValueError("no successful records to summarize")
    n = len(sorted_fcts)
    mean = sum(sorted_fcts) / n
    if mean == math.inf:  # the sum overflowed; the mean itself is at most the max
        mean = min(sum(fct / n for fct in sorted_fcts), sorted_fcts[-1])
    return FctStats(
        count=n,
        failures=failures,
        min=sorted_fcts[0],
        max=sorted_fcts[-1],
        mean=mean,
        p50=nearest_rank(sorted_fcts, 50),
        p90=nearest_rank(sorted_fcts, 90),
        p99=nearest_rank(sorted_fcts, 99),
    )


def fct_cdf(sorted_fcts: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF of an ascending FCT list, as (fct, probability) steps.

    Duplicate values coalesce to their highest rank, so probabilities
    strictly increase across entries and the last one is exactly 1.0.
    """
    if not sorted_fcts:
        raise ValueError("no successful records for a CDF")
    n = len(sorted_fcts)
    series: list[tuple[float, float]] = []
    for i, value in enumerate(sorted_fcts, start=1):
        if i == n or sorted_fcts[i] != value:
            series.append((value, i / n))
    return series


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


def delay_comparator(trans_s: float, prop_s: float, queue_s: float = 0.0) -> dict:
    """Full delay sum next to the propagation-only optimistic baseline; null where one overflows."""
    d = DelayDecomposition(proc_s=0.0, queue_s=queue_s, trans_s=trans_s, prop_s=prop_s)
    return {
        "total_s": finite_or_none(total_delay(d)),
        "propagation_only_s": finite_or_none(propagation_only_delay(d)),
        "label": OPTIMISTIC_BASELINE_LABEL,
    }


def stats_ratios(a: FctStats, b: FctStats) -> dict[str, float | None]:
    """Per-statistic a/b ratios for comparing two runs; None where b's is 0 or a ratio overflows."""
    out: dict[str, float | None] = {}
    for name in ("min", "max", "mean", "p50", "p90", "p99"):
        denom = getattr(b, name)
        out[name] = None if denom == 0 else finite_or_none(getattr(a, name) / denom)
    return out


# result fields whose JSON and CSV keys carry their unit
_ROW_KEYS = {
    "worst_fct": "worst_fct_s",
    "throughput": "throughput_bytes_per_s",
    "required_remote_rate": "required_remote_rate_flops",
}


def _row_values(pairs) -> dict:
    return {
        _ROW_KEYS.get(key, key): value.value if isinstance(value, Enum) else value
        for key, value in pairs
    }


def row_dict(row) -> dict:
    """A sweep or case-study row as its JSON/CSV object, in field order."""
    return asdict(row, dict_factory=_row_values)


def finite_or_none(value: float) -> float | None:
    """A figure, or None where it overflowed: JSON holds no NaN or Infinity."""
    return value if math.isfinite(value) else None


def _ok_fcts(table: FlowTable, ok: list[bool]) -> tuple[list[float], int]:
    """The successful FCTs in ascending order, and the failure count."""
    fcts = sorted(compress(table.fct_s, ok))
    return fcts, len(table) - len(fcts)


def build_report(
    records: FlowTable,
    link: LinkSpec | None = None,
    policy: TierPolicy = DEFAULT_TIER_POLICY,
    compare_records: FlowTable | None = None,
    comparison_labels: tuple[str, str] = ("primary", "comparison"),
) -> dict:
    """Assemble the full JSON report for one run (plus an optional second).

    With a link spec the report gains SSS, carried utilization, both
    transfer efficiency estimates (mean- and worst-based, labeled), and the
    delay comparator with its optimistic-baseline tag. SSS is null when the
    worst FCT is 0, the efficiency block is null when the mean FCT is 0 (which
    subnormal FCTs can also reach by underflow), and SSS or an efficiency
    figure is null when it overflows.
    """
    ok = records.ok_mask()
    # one sort feeds the stats, the CDF and the embedded inputs
    fct_values, failures = _ok_fcts(records, ok)
    stats = fct_stats(fct_values, failures)

    sss_value: float | None = None
    util: float | None = None
    efficiency: dict | None = None
    delay_block: dict | None = None
    sizes = Counter(compress(records.bytes, ok))
    sizes.pop(0, None)
    modal = sizes.most_common(1)[0][0] if sizes else None
    if link is not None and modal is not None:
        theoretical = theoretical_transfer_time(modal, link)
        if theoretical > 0 and stats.max > 0:
            sss_value = finite_or_none(streaming_speed_score(stats.max, theoretical))
        util = carried_utilization(
            sum(compress(records.bytes, ok)), max(compress(records.complete_s, ok)), link
        )
        if stats.mean > 0:
            # the fitted-efficiency question is open: report both candidates
            efficiency = {
                "alpha_from_mean_fct": finite_or_none((modal / stats.mean) / link.bandwidth),
                "alpha_from_worst_fct": finite_or_none((modal / stats.max) / link.bandwidth),
                "note": "achieved-rate fraction of raw bandwidth; mean-based vs worst-case-based fits",
            }
        delay_block = delay_comparator(trans_s=theoretical, prop_s=link.rtt / 2)

    comparison: dict | None = None
    if compare_records is not None:
        other_stats = fct_stats(*_ok_fcts(compare_records, compare_records.ok_mask()))
        label_a, label_b = comparison_labels
        comparison = {
            label_a: asdict(stats),
            label_b: asdict(other_stats),
            "ratios": stats_ratios(stats, other_stats),
        }

    return {
        "schema": REPORT_SCHEMA,
        "stats": asdict(stats),
        "cdf": fct_cdf(fct_values),
        "regime": {
            "regime": classify_regime(stats.max, policy).value,
            "worst_fct": stats.max,
            "utilization": util,
            "sss": sss_value,
            # tier name -> worst transfer meets its deadline
            "tier_feasibility": {name: stats.max < deadline for name, deadline in policy.tiers},
        },
        "comparison": comparison,
        "transfer_efficiency": efficiency,
        "delay_model": delay_block,
        "inputs": {
            "fct_values": fct_values,
            "failures": stats.failures,
            "bytes": modal,
        },
    }


_CHUNK = 4096  # numbers encoded at a time, so the encoder's per-number strings stay few


def _number_array(values: list, depth: int) -> str:
    """Numbers, or pairs of numbers, as json.dumps(indent=2) lays them out at ``depth``.

    The C encoder writes each number as the indent=2 encoder does, and no
    number's text holds a bracket, comma or space: re-indenting is exact.
    """
    if not values:
        return "[]"
    pad = ["\n" + "  " * d for d in range(depth, depth + 3)]
    pairs = isinstance(values[0], (list, tuple))  # pairs, one level deeper

    def lay_out(start: int) -> str:
        text = json.dumps(values[start:start + _CHUNK], allow_nan=False)[1:-1]
        if pairs:
            text = text.replace("], [", "]\x00[").replace(", ", "," + pad[2])
            text = text.replace("[", "[" + pad[2]).replace("]", pad[1] + "]")
            return text.replace("\x00", "," + pad[1])
        return text.replace(", ", "," + pad[1])

    body = ("," + pad[1]).join(map(lay_out, range(0, len(values), _CHUNK)))
    return "".join(("[", pad[1], body, pad[0], "]"))


def report_json(report: dict) -> str:
    """The report's JSON text, as report.json and ``analyze --json`` hold it.

    Byte-identical to ``json.dumps(report, indent=2)``, whose pure-Python
    encoder is slow on the two large number arrays: ``cdf`` and
    ``inputs.fct_values`` are encoded apart and spliced in. A non-finite
    figure raises ValueError: the text is JSON, with no NaN or Infinity.
    """
    arrays = {"\x00cdf": (report["cdf"], 1), "\x00fct_values": (report["inputs"]["fct_values"], 2)}
    inputs = {**report["inputs"], "fct_values": "\x00fct_values"}
    text = json.dumps({**report, "cdf": "\x00cdf", "inputs": inputs}, indent=2, allow_nan=False)
    for mark, (values, depth) in arrays.items():
        if text.count(json.dumps(mark)) != 1:  # another string equals the mark
            return json.dumps(report, indent=2, allow_nan=False)
        text = text.replace(json.dumps(mark), _number_array(values, depth))
    return text


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
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.writelines((text, "\n"))  # no concatenated copy of a large text
    written.append(report_path)

    import csv  # the two CSV writers are its only users
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
    import csv
    table = [row_dict(row) for row in rows]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table[0])
        writer.writerows(row.values() for row in table)
    return path

