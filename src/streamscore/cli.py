"""Command-line entry point: model, simulate, measure, analyze, casestudy.

A thin sequential dispatcher over the library modules; every flag maps to a
module config field. Exit codes are uniform across subcommands: 0 for
success, 1 for usage or domain errors, 2 for infeasible results and failed
runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from itertools import compress
from pathlib import Path

from . import analysis, fluidsim
from .model import (
    Choice,
    ComputeSpec,
    IoOverhead,
    LinkSpec,
    TierPolicy,
    WorkloadSpec,
    classify_tier,
    decide,
    streaming_speed_score,
    theoretical_transfer_time,
)
from .quantities import (
    parse_byte_count,
    parse_bytes,
    parse_compute_rate,
    parse_rate,
    parse_seconds,
    parse_work,
)
from .records import read_jsonl, write_jsonl
from .schedule import SpawnMode

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; the exit-code contract wants 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.format_usage().rstrip()}\n{self.prog}: {message}")


def _typed(parse):
    """``parse`` as an argparse ``type=`` whose ``ValueError`` text argparse prints after the flag.

    For a ``ValueError`` argparse names only the function (``invalid parse_byte_count value``).
    """
    def typed(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return typed


_seconds, _byte_count, _bytes, _rate, _work, _compute_rate, _mode = map(_typed, (
    parse_seconds, parse_byte_count, parse_bytes, parse_rate, parse_work, parse_compute_rate, SpawnMode.parse,
))


def _parts(text: str) -> list[str]:
    # an empty list is an error, not a flag left out
    parts = [part for part in text.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    return parts


@_typed
def _tiers_arg(text: str) -> TierPolicy:
    return TierPolicy.from_deadlines([parse_seconds(part) for part in _parts(text)])


@_typed
def _float_list(text: str) -> list[float]:
    return [float(part) for part in _parts(text)]


@_typed
def _int_list(text: str) -> list[int]:
    return [int(part) for part in _parts(text)]


def _fmt(value: float | None, spec: str = ".6g") -> str:
    # a figure that overflowed is null in the document, and prints as inf
    return "inf" if value is None else format(value, spec)


def _delay_row(block: dict) -> tuple[str, str]:
    total, prop = (_fmt(block[key]) for key in ("total_s", "propagation_only_s"))
    return ("delay total", f"{total} s (propagation only {prop} s, {block['label']})")


def _ratios_row(block: dict | None) -> list[str]:
    # a comparison block's line (its two labels, then "ratios"); none without a block
    if block is None:
        return []
    ratios = ", ".join(f"{name}={_fmt(value)}" for name, value in block["ratios"].items() if value is not None)
    return [f"{'/'.join(list(block)[:2])} ratios: {ratios}"]


def _table(rows: list[tuple[str, str]]) -> str:
    width = max(len(key) for key, _ in rows)
    return "\n".join(f"{key:<{width}}  {value}" for key, value in rows)


def _non_finite(doc, path: str = ""):
    """The key path (``.breakdown.io_s``, ``[1].worst_fct_s``) and value of each non-finite float in ``doc``."""
    if isinstance(doc, float) and not math.isfinite(doc):
        yield path, doc
    elif isinstance(doc, dict | list | tuple):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _non_finite(value, f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}")


def _json(doc) -> str:
    # NaN and Infinity are not JSON: a non-finite figure is named by its key path
    try:
        return json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        path, value = next(_non_finite(doc))
        raise ValueError(f"{path.lstrip('.')} must be finite, got {value}") from None


def _render(doc, table, args) -> str:
    """The command's output: its document's JSON with --json, else the table made from the document alone.

    Both forms encode the document, so a figure that is not finite stops either
    with the same ``error:`` line, and both show the same figures.
    """
    text = _json(doc)
    return text if args.json else table(doc)


def _write_or_print(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)


# each flag that sets a spec field, and that field; a flag not given leaves the
# field to the scenario file or the spec's own default
_SPEC_FIELDS = {
    "--bw": "bandwidth", "--alpha": "alpha", "--rtt": "rtt", "--startup": "startup_latency",
    "--duration": "duration", "--concurrency": "concurrency", "--size": "transfer_bytes",
    "--parallel": "parallel_flows", "--mode": "mode",
    "--server": "server_address", "--base-port": "base_port", "--pool-size": "pool_size",
    "--bind": "bind_address", "--connect-timeout": "connect_timeout",
    "--transfer-timeout": "transfer_timeout",
}
_LOAD_REQUIRED = ("--duration", "--concurrency", "--size")


def _spec_fields(args, command: str, required: tuple[str, ...], hint: str = "") -> dict:
    """The spec fields of the flags given; a usage error names each required one left out."""
    given = {
        field: value
        for flag, field in _SPEC_FIELDS.items()
        if (value := getattr(args, flag[2:].replace("-", "_"), None)) is not None
    }
    missing = [flag for flag in required if _SPEC_FIELDS[flag] not in given]
    if missing:
        raise UsageError(f"{command} requires {', '.join(missing)}{hint}")
    return given


def build_parser() -> _Parser:
    parser = _Parser(prog="streamscore", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--out", help="output file (or directory for analyze)")
    load = _Parser(add_help=False)  # one load description for simulate and measure run
    load.add_argument("--duration", type=_seconds, help="spawning window, e.g. 10s")
    load.add_argument("--concurrency", type=float, help="clients per second")
    load.add_argument("--size", type=_byte_count, help="bytes per client")
    load.add_argument("--parallel", type=int, help="TCP flows per client")
    load.add_argument("--mode", type=_mode, help="simultaneous|scheduled")
    pool = _Parser(add_help=False)  # the server's ports, for measure serve and measure run
    pool.add_argument("--base-port", type=int)
    pool.add_argument("--pool-size", type=int)

    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser(
        "model", parents=[common], help="evaluate the completion-time model"
    )
    p_model.add_argument("--size", required=True, type=_bytes, help="data unit size, e.g. 0.5GB")
    p_model.add_argument("--bw", required=True, type=_rate, help="link bandwidth, e.g. 25Gbps")
    p_model.add_argument("--alpha", type=float, default=1.0, help="transfer efficiency in (0,1]")
    p_model.add_argument("--theta", type=float, default=1.0, help="file I/O overhead coefficient >= 1")
    p_model.add_argument("--work", type=_work, default=0.0, help="compute per unit, e.g. 34TFLOP")
    p_model.add_argument("--local-rate", type=_compute_rate, help="local compute rate, e.g. 34TF")
    p_model.add_argument("--remote-rate", type=_compute_rate, help="remote compute rate, e.g. 68TF")
    p_model.add_argument("--interval", type=_seconds, help="seconds between data units")
    p_model.add_argument("--worst", type=_seconds, help="measured worst-case transfer time")
    p_model.add_argument("--rtt", type=_seconds, default=0.0, help="round-trip time, e.g. 16ms")
    p_model.add_argument("--tiers", type=_tiers_arg, default=TierPolicy(), help="deadlines, e.g. 1s,10s,60s")
    p_model.set_defaults(func=cmd_model)

    p_sim = sub.add_parser(
        "simulate", parents=[common, load], help="run the bottleneck-link fluid simulator"
    )
    p_sim.add_argument("--scenario", help="scenario file (JSON or key = value lines)")
    p_sim.add_argument("--bw", type=_rate, help="link bandwidth")
    p_sim.add_argument("--alpha", type=float, help="transfer efficiency")
    p_sim.add_argument("--rtt", type=_seconds, help="round-trip time")
    p_sim.add_argument("--startup", type=_seconds, help="per-client startup latency")
    p_sim.add_argument("--sweep", type=_float_list, help="concurrency values, e.g. 1,2,3,4,5,6,7,8")
    p_sim.add_argument("--parallel-list", type=_int_list, help="parallel-flow values, e.g. 2,4,8")
    p_sim.add_argument("--compare", help="measured JSONL log to compare against")
    p_sim.add_argument("--trace", help="CSV file for the allocation trace, one row an interval")
    p_sim.set_defaults(func=cmd_simulate)

    p_measure = sub.add_parser("measure", help="live measurement harness")
    measure_sub = p_measure.add_subparsers(dest="measure_command", required=True)

    p_serve = measure_sub.add_parser(
        "serve", parents=[pool], help="run the listener pool until interrupted"
    )
    p_serve.add_argument("--bind")
    p_serve.set_defaults(func=cmd_measure_serve)

    p_run = measure_sub.add_parser(
        "run", parents=[common, load, pool], help="spawn transfer clients against a server pool"
    )
    p_run.add_argument("--server")
    p_run.add_argument("--connect-timeout", type=_seconds)
    p_run.add_argument("--transfer-timeout", type=_seconds)
    p_run.set_defaults(func=cmd_measure_run)

    p_analyze = sub.add_parser(
        "analyze", parents=[common], help="statistics and report from a JSONL log"
    )
    p_analyze.add_argument("--in", dest="infile", required=True, help="JSONL transfer log")
    p_analyze.add_argument("--link-bw", type=_rate, help="link bandwidth for SSS/utilization")
    p_analyze.add_argument("--rtt", type=_seconds)
    p_analyze.add_argument("--tiers", type=_tiers_arg, default=TierPolicy())
    p_analyze.add_argument("--compare", help="second JSONL log for per-stat ratios")
    p_analyze.set_defaults(func=cmd_analyze)

    p_case = sub.add_parser(
        "casestudy", parents=[common], help="per-workflow feasibility and budgets"
    )
    p_case.add_argument("--input", help="case study JSON (defaults to the bundled demo)")
    p_case.set_defaults(func=cmd_casestudy)

    return parser


def cmd_model(args) -> int:
    workload_kwargs = {}
    if args.size > 0:
        workload_kwargs["complexity"] = args.work / args.size
    elif args.work > 0:
        raise UsageError("--work > 0 requires --size > 0")
    workload = WorkloadSpec(
        unit_size=args.size, generation_interval=args.interval, **workload_kwargs
    )
    link = LinkSpec(bandwidth=args.bw, alpha=args.alpha, rtt=args.rtt)
    io = IoOverhead(args.theta)

    if args.work > 0 and args.remote_rate is None:
        raise UsageError("--remote-rate is required when --work > 0")
    remote_rate = 1.0 if args.remote_rate is None else args.remote_rate
    local_rate = remote_rate if args.local_rate is None else args.local_rate
    compute = ComputeSpec(local_rate=local_rate, remote_rate=remote_rate)

    theoretical = theoretical_transfer_time(args.size, link)
    sss_value = None if args.worst is None else streaming_speed_score(args.worst, theoretical)

    decision = decide(workload, link, compute, io, args.tiers, worst_case_transfer=args.worst)
    breakdown = decision.remote
    verdict = analysis.row_dict(decision)
    del verdict["remote"]  # the breakdown, which the document holds already
    if args.local_rate is None:
        # without a local rate only outright infeasibility is a verdict, with no local figure
        verdict = {**verdict, "local_s": None} if decision.choice is Choice.INFEASIBLE else None

    doc = {
        "breakdown": dataclasses.asdict(breakdown),
        "sss": None if sss_value is None else analysis.finite_or_none(sss_value),
        "tier": classify_tier(breakdown.total_s, args.tiers),
        "delay_model": analysis.delay_comparator(trans_s=theoretical, prop_s=args.rtt / 2),
        "decision": verdict,
    }
    _write_or_print(_render(doc, lambda doc: _model_table(doc, args), args), args.out)
    return EXIT_INFEASIBLE if verdict and verdict["choice"] == Choice.INFEASIBLE.value else EXIT_OK


def _model_table(doc: dict, args) -> str:
    parts = doc["breakdown"]
    rows = [
        ("transfer", f"{_fmt(parts['transfer_s'])} s"),
        ("io overhead", f"{_fmt(parts['io_s'])} s (theta {_fmt(args.theta)})"),
        ("remote compute", f"{_fmt(parts['remote_s'])} s"),
        ("remote total", f"{_fmt(parts['total_s'])} s"),
        ("tier", doc["tier"] or "none"),
    ]
    if args.worst is not None:  # a null SSS is one that overflowed
        rows.append(("sss", _fmt(doc["sss"])))
    rows.append(_delay_row(doc["delay_model"]))
    if (decision := doc["decision"]) is not None:
        rows.append(("decision", f"{decision['choice']} (gain {_fmt(decision['gain'])}): {decision['rationale']}"))
    return _table(rows)


def _scenario_from_args(args) -> fluidsim.Scenario:
    # each given flag overrides (or fills in) its key of the scenario file
    raw = fluidsim.read_scenario_file(args.scenario) if args.scenario else {}
    required = () if args.scenario else ("--bw", *_LOAD_REQUIRED)
    overrides = _spec_fields(args, "simulate", required, " (or --scenario)")
    return fluidsim.scenario_from_mapping(raw, **overrides)


def cmd_simulate(args) -> int:
    # a flag the chosen mode never reads is an error, not silently dropped
    for flag in ("compare", "trace"):
        if args.sweep is not None and getattr(args, flag) is not None:
            raise UsageError(f"--{flag} does not apply to --sweep")
    if args.parallel_list is not None and args.sweep is None:
        raise UsageError("--parallel-list requires --sweep")
    if args.parallel_list is not None and args.parallel is not None:
        raise UsageError("--parallel does not apply with --parallel-list")
    if args.sweep is not None:
        if args.concurrency is not None:  # a warning, not an error: scripts pass it, as a sweep once required it
            print("warning: --concurrency is ignored: --sweep sets the concurrency", file=sys.stderr)
        args.concurrency = args.sweep[0]  # the base's; the sweep replaces it with each value
    base = _scenario_from_args(args)

    if args.sweep:
        # a sweep list replaces the scenario file's key: this one its parallel_flows, --sweep its concurrency
        parallel_values = args.parallel_list or [base.parallel_flows]
        rows = fluidsim.sweep(base, args.sweep, parallel_values)
        doc = [{**analysis.row_dict(row), "sss": analysis.finite_or_none(row.sss)} for row in rows]
        output = _render(doc, _sweep_table, args)  # checked before the CSV is written
        if args.out:
            analysis.write_sweep_csv(rows, args.out)
        print(output)
        return EXIT_OK

    started_unix_ms = int(time.time() * 1000)  # before the run, as loadgen stamps before its first spawn
    result = fluidsim.simulate(base)
    summary = result.summary()
    doc = {"summary": {**summary, "sss": analysis.finite_or_none(summary["sss"])},
           "clients": len(result.spawns)}
    if args.compare:  # read before --out is written, which may be the same file
        measured = read_jsonl(args.compare)[1]
        doc["comparison"] = analysis.compare_runs(result.records, measured, ("simulated", "measured"))
    output = _render(doc, _simulate_table, args)  # checked before any file: a log of inf FCTs is not JSON
    if args.out:
        write_jsonl(args.out, result.records, run_meta={**base.config_echo(), "started_unix_ms": started_unix_ms})
    if args.trace:
        analysis.write_csv(args.trace, ("start_s", "end_s", "first_client", "end_client", "rate_Bps"),
                           result.replay)
    print(output)
    return EXIT_OK


def _sweep_table(doc: list) -> str:
    return "\n".join(["concurrency  parallel  mode          load    worst_fct  sss"] + [
        f"{row['concurrency']:<11g}  {row['parallel_flows']:<8d}  {row['mode']:<12s}  "
        f"{row['offered_load']:<6.3g}  {row['worst_fct_s']:<9.4g}  {_fmt(row['sss'], '.4g')}"
        for row in doc
    ])


def _simulate_table(doc: dict) -> str:
    summary = doc["summary"]
    return "\n".join([_table([
        ("clients", str(doc["clients"])),
        ("worst fct", f"{_fmt(summary['max_fct'])} s"),
        ("utilization", _fmt(summary["utilization"])),
        ("sss", _fmt(summary["sss"])),
    ]), *_ratios_row(doc.get("comparison"))])


def cmd_measure_serve(args) -> int:
    import signal

    from . import loadgen

    config = loadgen.ServerConfig(**_spec_fields(args, "measure serve", ("--base-port",)))
    server = loadgen.TransferServer(config)
    server.start()
    previous = signal.getsignal(signal.SIGTERM)
    try:
        signal.signal(signal.SIGTERM, signal.default_int_handler)  # stop as on SIGINT
        # inside the try: an interrupt right after this line must still stop the server
        print(f"listening on {config.bind_address}:{config.base_port}-{config.ports[-1]}", flush=True)
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.stop()
    return EXIT_OK


def cmd_measure_run(args) -> int:
    from . import loadgen

    required = ("--server", "--base-port", *_LOAD_REQUIRED)
    config = loadgen.ClientRunConfig(**_spec_fields(args, "measure run", required))
    meta, records = loadgen.run_clients(config)
    if args.out:
        write_jsonl(args.out, records, run_meta=meta)

    doc = {
        "records": len(records),
        "failures": len(records) - records.error.count(None),
        "max_fct_s": max(compress(records.fct_s, records.ok_mask()), default=None),
    }
    print(_render(doc, _measure_run_table, args))
    return EXIT_INFEASIBLE if doc["max_fct_s"] is None else EXIT_OK


def _measure_run_table(doc: dict) -> str:
    worst = doc["max_fct_s"]  # null when no transfer succeeded
    return _table([
        ("records", str(doc["records"])),
        ("failures", str(doc["failures"])),
        ("worst fct", "n/a" if worst is None else f"{_fmt(worst)} s"),
    ])


def cmd_analyze(args) -> int:
    if args.link_bw is None and args.rtt is not None:
        raise UsageError("--rtt requires --link-bw")
    run, records = read_jsonl(args.infile)
    if None not in records.error:
        raise UsageError(f"no successful records in {args.infile}")
    link = None if args.link_bw is None else LinkSpec(bandwidth=args.link_bw, **_spec_fields(args, "analyze", ()))
    compare_run, compare_records = read_jsonl(args.compare) if args.compare else (None, None)

    report = analysis.build_report(records, link=link, policy=args.tiers, compare_records=compare_records,
                                   run=run, comparison_run=compare_run)
    # the table prints no CDF, and check_row keeps its values finite: only the rest is checked
    text = analysis.report_json(report) if args.out or args.json else _json({**report, "cdf": None})
    if args.out:
        analysis.write_report(report, args.out, text)
    print(text if args.json else _analyze_table(report))
    return EXIT_OK


def _analyze_table(report: dict) -> str:
    stats, regime = report["stats"], report["regime"]
    rows = [
        ("records", str(stats["count"] + stats["failures"])),
        ("failures", str(stats["failures"])),
        ("max fct", f"{_fmt(stats['max'])} s"),
        ("mean fct", f"{_fmt(stats['mean'])} s"),
        ("p50/p90/p99", f"{_fmt(stats['p50'])} / {_fmt(stats['p90'])} / {_fmt(stats['p99'])} s"),
        ("regime", regime["regime"]),
    ]
    rows += [(key, _fmt(regime[key])) for key in ("sss", "utilization") if regime[key] is not None]
    if report["delay_model"] is not None:
        rows.append(_delay_row(report["delay_model"]))
    tiers = [f"  {name}: {'yes' if feasible else 'no'}" for name, feasible in regime["tier_feasibility"].items()]
    return "\n".join([_table(rows), *tiers, *_ratios_row(report["comparison"])])


def cmd_casestudy(args) -> int:
    from . import casestudy

    study = casestudy.load_case_study(args.input) if args.input else casestudy.DEMO_CASE_STUDY
    doc = [analysis.row_dict(row) for row in casestudy.evaluate(study)]
    _write_or_print(_render(doc, _casestudy_table, args), args.out)
    return EXIT_INFEASIBLE if any(row["infeasible"] or row["error"] for row in doc) else EXIT_OK


def _casestudy_table(doc: list) -> str:
    lines = []
    for row in doc:
        lines += [row["name"], f"  throughput   {_fmt(row['throughput_bytes_per_s'])} B/s",
                  f"  offered load {_fmt(row['offered_load'])}"]
        if row["error"]:
            lines.append(f"  error        {row['error']}")
            continue
        if row["infeasible"]:
            lines.append(f"  INFEASIBLE   {row['note']}")
            continue
        worst = f"{_fmt(row['worst_fct_s'])} s"
        if row["extrapolated"]:
            worst += " (extrapolated)"
        lines.append(f"  worst fct    {worst}")
        for tier in row["tiers"]:
            rate = tier["required_remote_rate_flops"]
            rate = "no budget remains" if rate is None else f"{_fmt(rate)} FLOPS"
            lines.append(
                f"  {tier['tier']:<8s} (<{_fmt(tier['deadline_s'])} s): "
                f"budget {_fmt(tier['budget_s'])} s, min remote rate {rate}"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    # QuantityError and LogFormatError are ValueErrors; this clause must precede OSError's
    except (UsageError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def run() -> None:
    """Process entry point of ``python -m streamscore`` and the ``streamscore`` script.

    Freezes the collector once ``main`` returns: finalization would otherwise run
    full collections over the ~15,000 objects the imports leave tracked, a few ms
    a process spent freeing memory the OS reclaims anyway. Reference-count
    teardown, the flush of stdout and stderr, ``atexit`` handlers and thread joins
    still run. ``--help``, an interrupt or an uncaught error exits before the
    freeze; in-process callers use ``main``, which leaves the collector alone.
    """
    status = main()
    # imported here: imported before the command, gc raised the peak RSS of an
    # `analyze` of 48,000 records by 1.5 MB (a shifted heap layout)
    import gc

    gc.freeze()
    raise SystemExit(status)
