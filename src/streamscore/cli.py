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
    QuantityError,
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


def _tiers_arg(text: str) -> TierPolicy:
    deadlines = [parse_seconds(part) for part in text.split(",") if part.strip()]
    if not deadlines:
        raise QuantityError(f"no tier deadlines in {text!r}")
    return TierPolicy.from_deadlines(deadlines)


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _delay_row(block: dict) -> tuple[str, str]:
    # a figure that overflowed is null in the block, and prints as inf
    total, prop = ("inf" if block[key] is None else _fmt(block[key])
                   for key in ("total_s", "propagation_only_s"))
    return ("delay total", f"{total} s (propagation only {prop} s, {block['label']})")


def _table(rows: list[tuple[str, str]]) -> str:
    width = max(len(key) for key, _ in rows)
    return "\n".join(f"{key:<{width}}  {value}" for key, value in rows)


def _json(doc) -> str:
    # NaN and Infinity are not JSON: an SSS that overflowed is null by now, as in
    # report.json, and any other non-finite figure stops the command with exit 1
    return json.dumps(doc, indent=2, allow_nan=False)


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
    load.add_argument("--duration", type=parse_seconds, help="spawning window, e.g. 10s")
    load.add_argument("--concurrency", type=float, help="clients per second")
    load.add_argument("--size", type=parse_bytes, help="bytes per client")
    load.add_argument("--parallel", type=int, help="TCP flows per client")
    load.add_argument("--mode", type=SpawnMode.parse, help="simultaneous|scheduled")
    pool = _Parser(add_help=False)  # the server's ports, for measure serve and measure run
    pool.add_argument("--base-port", type=int)
    pool.add_argument("--pool-size", type=int)

    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser(
        "model", parents=[common], help="evaluate the completion-time model"
    )
    p_model.add_argument("--size", required=True, type=parse_bytes, help="data unit size, e.g. 0.5GB")
    p_model.add_argument("--bw", required=True, type=parse_rate, help="link bandwidth, e.g. 25Gbps")
    p_model.add_argument("--alpha", type=float, default=1.0, help="transfer efficiency in (0,1]")
    p_model.add_argument("--theta", type=float, default=1.0, help="file I/O overhead coefficient >= 1")
    p_model.add_argument("--work", type=parse_work, default=0.0, help="compute per unit, e.g. 34TFLOP")
    p_model.add_argument("--local-rate", type=parse_compute_rate, help="local compute rate, e.g. 34TF")
    p_model.add_argument("--remote-rate", type=parse_compute_rate, help="remote compute rate, e.g. 68TF")
    p_model.add_argument("--interval", type=parse_seconds, help="seconds between data units")
    p_model.add_argument("--worst", type=parse_seconds, help="measured worst-case transfer time")
    p_model.add_argument("--rtt", type=parse_seconds, default=0.0, help="round-trip time, e.g. 16ms")
    p_model.add_argument("--tiers", type=_tiers_arg, default=TierPolicy(), help="deadlines, e.g. 1s,10s,60s")
    p_model.set_defaults(func=cmd_model)

    p_sim = sub.add_parser(
        "simulate", parents=[common, load], help="run the bottleneck-link fluid simulator"
    )
    p_sim.add_argument("--scenario", help="scenario file (JSON or key = value lines)")
    p_sim.add_argument("--bw", type=parse_rate, help="link bandwidth")
    p_sim.add_argument("--alpha", type=float, help="transfer efficiency")
    p_sim.add_argument("--rtt", type=parse_seconds, help="round-trip time")
    p_sim.add_argument("--startup", type=parse_seconds, help="per-client startup latency")
    p_sim.add_argument("--sweep", type=_float_list, help="concurrency values, e.g. 1,2,3,4,5,6,7,8")
    p_sim.add_argument("--parallel-list", type=_int_list, help="parallel-flow values, e.g. 2,4,8")
    p_sim.add_argument("--compare", help="measured JSONL log to compare against")
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
    p_run.add_argument("--connect-timeout", type=parse_seconds)
    p_run.add_argument("--transfer-timeout", type=parse_seconds)
    p_run.set_defaults(func=cmd_measure_run)

    p_analyze = sub.add_parser(
        "analyze", parents=[common], help="statistics and report from a JSONL log"
    )
    p_analyze.add_argument("--in", dest="infile", required=True, help="JSONL transfer log")
    p_analyze.add_argument("--link-bw", type=parse_rate, help="link bandwidth for SSS/utilization")
    p_analyze.add_argument("--rtt", type=parse_seconds, default=0.0)
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
    if args.local_rate is None:
        # without a local rate only outright infeasibility is a verdict, and
        # its local figure is dropped since no local rate was supplied
        decision = (
            dataclasses.replace(decision, local_s=None)
            if decision.choice is Choice.INFEASIBLE
            else None
        )

    tier = classify_tier(breakdown.total_s, args.tiers)
    delay_block = analysis.delay_comparator(trans_s=theoretical, prop_s=args.rtt / 2)

    if args.json:
        doc = {
            "breakdown": dataclasses.asdict(breakdown),
            "sss": None if sss_value is None else analysis.finite_or_none(sss_value),
            "tier": tier,
            "delay_model": delay_block,
            "decision": None
            if decision is None
            else {
                "choice": decision.choice.value,
                "gain": decision.gain,
                "tier_achieved": decision.tier_achieved,
                "rationale": decision.rationale,
                "local_s": decision.local_s,
            },
        }
        _write_or_print(_json(doc), args.out)
    else:
        rows = [
            ("transfer", f"{_fmt(breakdown.transfer_s)} s"),
            ("io overhead", f"{_fmt(breakdown.io_s)} s (theta {_fmt(args.theta)})"),
            ("remote compute", f"{_fmt(breakdown.remote_s)} s"),
            ("remote total", f"{_fmt(breakdown.total_s)} s"),
            ("tier", tier or "none"),
        ]
        if sss_value is not None:
            rows.append(("sss", _fmt(sss_value)))
        rows.append(_delay_row(delay_block))
        if decision is not None:
            rows.append(
                (
                    "decision",
                    f"{decision.choice.value} (gain {_fmt(decision.gain)}): "
                    f"{decision.rationale}",
                )
            )
        _write_or_print(_table(rows), args.out)

    if decision is not None and decision.choice is Choice.INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _scenario_from_args(args) -> fluidsim.Scenario:
    # each given flag overrides (or fills in) its key of the scenario file
    raw = fluidsim.read_scenario_file(args.scenario) if args.scenario else {}
    required = () if args.scenario else ("--bw", *_LOAD_REQUIRED)
    overrides = _spec_fields(args, "simulate", required, " (or --scenario)")
    return fluidsim.scenario_from_mapping(raw, **overrides)


def cmd_simulate(args) -> int:
    base = _scenario_from_args(args)

    if args.sweep:
        parallel_values = args.parallel_list or [base.parallel_flows]
        rows = fluidsim.sweep(base, args.sweep, parallel_values)
        if args.out:
            analysis.write_sweep_csv(rows, args.out)
        if args.json:
            print(_json([{**analysis.row_dict(row), "sss": analysis.finite_or_none(row.sss)}
                         for row in rows]))
        else:
            print("concurrency  parallel  mode          load    worst_fct  sss")
            for row in rows:
                print(
                    f"{row.concurrency:<11g}  {row.parallel_flows:<8d}  "
                    f"{row.mode.value:<12s}  {row.offered_load:<6.3g}  "
                    f"{row.worst_fct:<9.4g}  {row.sss:.4g}"
                )
        return EXIT_OK

    result = fluidsim.simulate(base)
    if args.out:
        meta = base.config_echo()
        meta["started_unix_ms"] = int(time.time() * 1000)
        write_jsonl(args.out, result.records, run_meta=meta)

    summary = result.summary()
    comparison = None
    if args.compare:
        _, measured = read_jsonl(args.compare)
        report = analysis.build_report(
            result.records,
            link=base.link,
            compare_records=measured,
            comparison_labels=("simulated", "measured"),
        )
        comparison = report["comparison"]

    if args.json:
        doc = {"summary": {**summary, "sss": analysis.finite_or_none(summary["sss"])},
               "clients": len(result.spawns)}
        if comparison is not None:
            doc["comparison"] = comparison
        print(_json(doc))
    else:
        print(_table([
            ("clients", str(len(result.spawns))),
            ("worst fct", f"{_fmt(summary['max_fct'])} s"),
            ("utilization", _fmt(summary["utilization"])),
            ("sss", _fmt(summary["sss"])),
        ]))
        if comparison is not None:
            ratios = ", ".join(
                f"{name}={_fmt(value)}"
                for name, value in comparison["ratios"].items()
                if value is not None
            )
            print(f"simulated/measured ratios: {ratios}")
    return EXIT_OK


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

    worst = max(compress(records.fct_s, records.ok_mask()), default=None)
    failures = len(records) - records.error.count(None)
    if args.json:
        doc = {"records": len(records), "failures": failures, "max_fct_s": worst}
        print(_json(doc))
    else:
        print(_table([
            ("records", str(len(records))),
            ("failures", str(failures)),
            ("worst fct", "n/a" if worst is None else f"{_fmt(worst)} s"),
        ]))
    return EXIT_INFEASIBLE if worst is None else EXIT_OK


def cmd_analyze(args) -> int:
    _, records = read_jsonl(args.infile)
    if None not in records.error:
        raise UsageError(f"no successful records in {args.infile}")

    link = None
    if args.link_bw is not None:
        link = LinkSpec(bandwidth=args.link_bw, rtt=args.rtt)

    compare_records = None
    if args.compare:
        _, compare_records = read_jsonl(args.compare)

    report = analysis.build_report(
        records,
        link=link,
        policy=args.tiers,
        compare_records=compare_records,
    )
    text = analysis.report_json(report) if args.out or args.json else None
    if args.out:
        analysis.write_report(report, args.out, text)

    if args.json:
        print(text)
    else:
        stats = report["stats"]
        rows = [
            ("records", str(stats["count"] + stats["failures"])),
            ("failures", str(stats["failures"])),
            ("max fct", f"{_fmt(stats['max'])} s"),
            ("mean fct", f"{_fmt(stats['mean'])} s"),
            ("p50/p90/p99", f"{_fmt(stats['p50'])} / {_fmt(stats['p90'])} / {_fmt(stats['p99'])} s"),
            ("regime", report["regime"]["regime"]),
        ]
        if report["regime"]["sss"] is not None:
            rows.append(("sss", _fmt(report["regime"]["sss"])))
        if report["regime"]["utilization"] is not None:
            rows.append(("utilization", _fmt(report["regime"]["utilization"])))
        if report["delay_model"] is not None:
            rows.append(_delay_row(report["delay_model"]))
        print(_table(rows))
        for name, feasible in report["regime"]["tier_feasibility"].items():
            print(f"  {name}: {'yes' if feasible else 'no'}")
    return EXIT_OK


def cmd_casestudy(args) -> int:
    from . import casestudy

    study = (
        casestudy.load_case_study(args.input)
        if args.input
        else casestudy.DEMO_CASE_STUDY
    )
    results = casestudy.evaluate(study)

    if args.json:
        doc = [analysis.row_dict(row) for row in results]
        _write_or_print(_json(doc), args.out)
    else:
        lines = []
        for row in results:
            lines.append(f"{row.name}")
            lines.append(f"  throughput   {_fmt(row.throughput)} B/s")
            if row.error:
                lines.append(f"  error        {row.error}")
                continue
            lines.append(f"  offered load {_fmt(row.offered_load)}")
            if row.infeasible:
                lines.append(f"  INFEASIBLE   {row.note}")
                continue
            worst = f"{_fmt(row.worst_fct)} s"
            if row.extrapolated:
                worst += " (extrapolated)"
            lines.append(f"  worst fct    {worst}")
            for tier in row.tiers:
                rate = (
                    f"{_fmt(tier.required_remote_rate)} FLOPS"
                    if tier.required_remote_rate is not None
                    else "no budget remains"
                )
                lines.append(
                    f"  {tier.tier:<8s} (<{_fmt(tier.deadline_s)} s): "
                    f"budget {_fmt(tier.budget_s)} s, min remote rate {rate}"
                )
        _write_or_print("\n".join(lines), args.out)

    any_blocked = any(row.infeasible or row.error for row in results)
    return EXIT_INFEASIBLE if any_blocked else EXIT_OK


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


if __name__ == "__main__":
    raise SystemExit(main())
