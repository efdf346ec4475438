"""Statistics and reporting over transfer logs, measured or simulated.

``build_report`` is the path from flow records to statistics. It reads a
``FlowTable``'s columns, sorts the successful FCTs once and feeds two
primitives over that sorted list: ``fct_stats`` (max, mean, nearest-rank
percentiles) and ``fct_cdf`` (the empirical CDF); ``compare_runs`` builds
every comparison block. The report adds the operational regime against a
tier policy, its SSS and carried utilization (``model.carried_utilization``,
the figure ``simulate`` also prints), and a JSON text plus CSV series for
external plotting. Failed transfers never
enter FCT statistics; they are surfaced as a failure count instead. A
figure that overflows a float is reported as null, so the JSON text never
holds NaN or Infinity.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict
from enum import Enum
from itertools import compress
from pathlib import Path

from ._frozen import frozen
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

REPORT_SCHEMA = "streamscore-report/3"


@frozen
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
    """Nearest-rank percentile of a non-empty ascending list: the ceil(p/100 * n)-th smallest value."""
    index = -((-percentile * len(sorted_values)) // 100)  # integer ceil division
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
    strictly increase across entries and the last one is exactly 1.0 (an empty list has none).
    """
    n = len(sorted_fcts)
    series: list[tuple[float, float]] = []
    for i, value in enumerate(sorted_fcts, start=1):
        if i == n or sorted_fcts[i] != value:
            series.append((value, i / n))
    return series


def classify_regime(worst_fct: float, policy: TierPolicy = DEFAULT_TIER_POLICY) -> Regime:
    """Low below the tightest deadline, severe at or past the next one."""
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
    """A sweep or case-study row, or a decision, as its JSON/CSV object, in field order."""
    return asdict(row, dict_factory=_row_values)


def finite_or_none(value: float) -> float | None:
    """A figure, or None where it overflowed: JSON holds no NaN or Infinity."""
    return value if math.isfinite(value) else None


def _ok_fcts(table: FlowTable, ok: list[bool]) -> tuple[list[float], int]:
    """The successful FCTs in ascending order, and the failure count."""
    fcts = sorted(compress(table.fct_s, ok))
    return fcts, len(table) - len(fcts)


def compare_runs(a: FlowTable, b: FlowTable, labels: tuple[str, str] = ("primary", "comparison"),
                 a_stats: FctStats | None = None) -> dict:
    """Each run's FCT statistics under its label, then the a/b ``ratios``; ``a_stats`` are a's, if known.

    A ratio is None where b's figure is 0 or the ratio overflows.
    """
    a_stats = a_stats or fct_stats(*_ok_fcts(a, a.ok_mask()))
    b_stats = fct_stats(*_ok_fcts(b, b.ok_mask()))
    ratios: dict[str, float | None] = {}
    for name in ("min", "max", "mean", "p50", "p90", "p99"):
        denom = getattr(b_stats, name)
        ratios[name] = None if denom == 0 else finite_or_none(getattr(a_stats, name) / denom)
    return {labels[0]: asdict(a_stats), labels[1]: asdict(b_stats), "ratios": ratios}


def build_report(
    records: FlowTable,
    link: LinkSpec | None = None,
    policy: TierPolicy = DEFAULT_TIER_POLICY,
    compare_records: FlowTable | None = None,
    run: dict | None = None,
    comparison_run: dict | None = None,
) -> dict:
    """Assemble the full JSON report for one run (plus an optional second).

    ``run`` and ``comparison_run`` are the two logs' headers, kept as they
    are under ``inputs``. The CDF states each successful FCT once: with n =
    ``stats.count``, a step (fct, p) stands for round(p·n) FCTs up to fct, so
    fct occurs that many times minus the count of the step before.

    With a link spec the report gains SSS, carried utilization, both
    transfer efficiency estimates (mean- and worst-based, labeled), and the
    delay comparator with its optimistic-baseline tag. SSS is null when the
    worst FCT is 0, the efficiency block is null when the mean FCT is 0 (which
    subnormal FCTs can also reach by underflow), and SSS or an efficiency
    figure is null when it overflows.
    """
    ok = records.ok_mask()
    # one sort feeds the stats and the CDF
    fcts, failures = _ok_fcts(records, ok)
    stats = fct_stats(fcts, failures)

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

    comparison = None if compare_records is None else compare_runs(records, compare_records, a_stats=stats)
    return {
        "schema": REPORT_SCHEMA,
        "stats": asdict(stats),
        "cdf": fct_cdf(fcts),
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
            "failures": stats.failures,
            "bytes": modal,
            "run": run,
            "comparison_run": comparison_run,
        },
    }


_CHUNK = 4096  # pairs encoded at a time, so the encoder's per-number strings stay few


def _cdf_array(cdf: list) -> str:
    """A non-empty CDF's (fct, probability) pairs as json.dumps(indent=2) lays them out in the report.

    The C encoder writes each number as the indent=2 encoder does, and no
    number's text holds a bracket, comma or space: re-indenting is exact.
    """
    pad = ["\n" + "  " * depth for depth in (1, 2, 3)]  # the list, a pair, a number

    def lay_out(start: int) -> str:
        text = json.dumps(cdf[start:start + _CHUNK], allow_nan=False)[1:-1]
        text = text.replace("], [", "]\x00[").replace(", ", "," + pad[2])
        text = text.replace("[", "[" + pad[2]).replace("]", pad[1] + "]")
        return text.replace("\x00", "," + pad[1])

    body = ("," + pad[1]).join(map(lay_out, range(0, len(cdf), _CHUNK)))
    return "".join(("[", pad[1], body, pad[0], "]"))


def report_json(report: dict) -> str:
    """The report's JSON text, as report.json and ``analyze --json`` hold it.

    Byte-identical to ``json.dumps(report, indent=2)`` on a report of
    ``build_report``, whose CDF is never empty. That encoder is pure Python and
    slow on a long ``cdf``, so the CDF is encoded apart and spliced in. A
    non-finite figure raises ValueError: the text is JSON, with no NaN or
    Infinity.
    """
    mark = json.dumps("\x00cdf")
    text = json.dumps({**report, "cdf": "\x00cdf"}, indent=2, allow_nan=False)
    if text.count(mark) != 1:  # another string equals the mark
        return json.dumps(report, indent=2, allow_nan=False)
    return text.replace(mark, _cdf_array(report["cdf"]))


def write_report(
    report: dict, out_dir: Path | str, text: str | None = None
) -> list[Path]:
    """Write report.json and the CSV series for external plotting.

    ``text`` is ``report_json(report)`` when the caller has already encoded
    it, so a report that is also printed is encoded once.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    if text is None:
        text = report_json(report)
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.writelines((text, "\n"))  # no concatenated copy of a large text
    return [report_path, write_csv(out / "series_cdf.csv", ("fct_s", "cumulative_probability"), report["cdf"])]


def write_sweep_csv(rows, path: Path | str) -> Path:
    """Worst-FCT-versus-load series from (non-empty) fluidsim sweep rows."""
    table = [row_dict(row) for row in rows]
    return write_csv(path, table[0], (row.values() for row in table))


def write_csv(path: Path | str, header, rows) -> Path:
    """A CSV file of a header line and then the rows; its directory is made if missing.

    ``rows`` is an iterable of rows, or a function that passes each row, as it
    is made, to the function it is given, so no row is kept.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    import csv  # the CSV files are its only users
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if callable(rows):
            rows(writer.writerow)
        else:
            writer.writerows(rows)
    return path

