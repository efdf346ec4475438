"""Benchmark for streamscore: simulator sweep, log-to-verdict pipeline, loopback harness.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-overload --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, plain then traced

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json with
tracing off; ``--trace 1`` is the separate traced run that reports the
per-layer metrics (and, on stdout, its own end-to-end figures next to them,
so the tracing overhead shows). Inputs come from ``--seed`` alone. Every
output is checked; a failed check or a nonzero exit counts as a failed
operation. Times and rates are reported at a reference host speed, measured
by perfbench/reference.py between operations (see workloads.py); the raw
figures are printed beside them and kept in the result file. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with provenance, the exact commands and (traced) the spans, is written to
``.bench_build/perfbench/results/``.

The program under test is ``src/streamscore`` of the checkout, run as
``python -m streamscore``; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from harness import ROOT, WORK, SetupError, check_checkout, provenance
from workloads import UNGATED_UNITS, WORKLOADS, Bench


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from exc


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    bench = Bench(name, seed, seconds, trace)
    try:
        outcome = WORKLOADS[name](bench)
    finally:
        bench.runner.close()

    e2e, scale = bench.host_scaled(outcome.e2e)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    values = outcome.layers if trace else e2e
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{name} produced no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    units = {**UNGATED_UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"]}}

    procs = bench.program_procs()
    attempted = len(procs) + outcome.transfers_attempted
    failed = (
        sum(p.failed for p in procs)
        + bench.checks.unattached_failures
        + outcome.transfers_failed
    )
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "wall_s": bench.elapsed(),
        "provenance": {**provenance(), "commands": bench.runner.commands},
        "inputs": bench.inputs,
        "checks": {k: {"passed": p, "total": t, "first_failure": f or None}
                   for k, (p, t, f) in bench.checks.results.items()},
        "flags": bench.flags,
        "correct": bench.checks.all_passed and bool(bench.checks.results),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": metrics,
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "end_to_end_raw": outcome.e2e,
        "host_scale": scale,
        "notes": outcome.notes,
        "samples": outcome.samples,
    }
    if bench.recorder is not None:
        result["run_id"] = bench.recorder.run_id
        result["spans"] = bench.recorder.to_json()
    out = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    result["path"] = out
    return result


def _print(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"{result['wall_s']:.1f} s")
    print("inputs:", json.dumps(result["inputs"]))
    for line in result["provenance"]["commands"]:
        print("command:", line)
    for name, check in result["checks"].items():
        status = "PASS" if check["passed"] == check["total"] else "FAIL"
        detail = f"  first failure: {check['first_failure']}" if check["first_failure"] else ""
        print(f"check {status} {check['passed']}/{check['total']}  {name}{detail}")
    for flag in result["flags"]:
        print("FLAG:", flag)
    notes = result["notes"]
    heading = "end-to-end" + (" (traced run)" if result["trace"] else "")
    print(f"-- {heading}")
    print(f"(times and rates at the reference host speed; this host ran at "
          f"{result['host_scale']:.3f} of it; raw figures in brackets)")
    for name, metric in result["end_to_end"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        raw = result["end_to_end_raw"][name]
        print(f"{name:<34} {metric['value']!r} {metric['unit']}  [{raw!r}]{note}")
    print(f"{'failed_ratio':<34} {result['failed_ratio']!r} 1  "
          f"({result['failed']} of {result['attempted']} operations)")
    if result["trace"]:
        print("-- per layer")
        for name, metric in result["metrics"].items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{name:<34} {metric['value']!r} {metric['unit']}{note}")
    print("provenance:", json.dumps({k: v for k, v in result["provenance"].items()
                                     if k != "commands"}))
    print("result file:", result["path"].relative_to(ROOT))


def _summary(results: list[dict], metrics: dict) -> dict:
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        spec = _spec()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        _print(result)
        print(json.dumps(_summary([result], result["metrics"])))
        return 0

    results, metrics = [], {}
    began = time.perf_counter()
    for name in WORKLOADS:
        plain = run_workload(name, args.seed, args.seconds, False, spec)
        traced = run_workload(name, args.seed, args.seconds, True, spec)
        for result in (plain, traced):
            _print(result)
        print(f"-- {name}: tracing overhead (traced / plain)")
        for metric, entry in plain["metrics"].items():
            ratio = traced["end_to_end"][metric]["value"] / entry["value"]
            print(f"{metric:<34} {entry['value']!r} -> "
                  f"{traced['end_to_end'][metric]['value']!r} {entry['unit']}  x{ratio:.3f}")
        results += [plain, traced]
        metrics.update({f"{name}/{k}": v for k, v in plain["metrics"].items()})
        metrics.update({f"{name}/{k}": v for k, v in traced["metrics"].items()})
    print(f"== all workloads in {time.perf_counter() - began:.1f} s")
    print(json.dumps(_summary(results, metrics)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
