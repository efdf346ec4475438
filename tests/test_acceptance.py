"""Acceptance gate: every release criterion, one test each, at the stated
tolerance. Each test prints a single ACCEPTANCE pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them inline).
"""

from __future__ import annotations

import json
import math
import random
from contextlib import contextmanager
from itertools import compress

import pytest

from streamscore.analysis import build_report, fct_stats
from streamscore.casestudy import evaluate, study_from_mapping
from streamscore.cli import main
from streamscore.fluidsim import Scenario, simulate, sweep
from streamscore.loadgen import ClientRunConfig, ServerConfig, run_clients
from streamscore.model import (
    ComputeSpec,
    DelayDecomposition,
    IoOverhead,
    LinkSpec,
    ScanSpec,
    WorkloadSpec,
    decide,
    file_vs_stream,
    io_overhead_from_times,
    propagation_only_delay,
    remote_completion,
    streaming_speed_score,
    total_delay,
    transfer_time,
)
from streamscore.schedule import SpawnMode

from conftest import (
    CountingServer,
    find_free_port_block,
    gc_pauses,
    spawn_diagnostics,
    table_of,
)

GBPS_25 = 25e9 / 8


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL - {name}", flush=True)
        raise
    print(f"ACCEPTANCE {number} PASS - {name}", flush=True)


def test_criterion_1_case_study_reproduction(capsys, tmp_path):
    with criterion(1, "case-study budgets 8.8 s / 4 s and infeasible flag"):
        study_path = tmp_path / "study.json"
        study_path.write_text(
            json.dumps(
                {
                    "workflows": [
                        {"name": "Coherent Scattering (XPCS, XSVS)", "throughput": "2GBps", "compute": "34TF"},
                        {"name": "Liquid Scattering", "throughput": "4GBps", "compute": "20TF"},
                        {"name": "Liquid Scattering (reduced)", "throughput": "3GBps", "compute": "20TF"},
                    ],
                    "link": {"bandwidth": "25Gbps", "alpha": 1.0},
                    "tiers": [["Tier 1", "1s"], ["Tier 2", "10s"], ["Tier 3", "1min"]],
                    "worst_fct_curve": [[0.64, "1.2s"], [0.96, "6s"]],
                }
            )
        )
        code = main(["casestudy", "--input", str(study_path), "--json"])
        out = capsys.readouterr().out
        rows = {row["name"]: row for row in json.loads(out)}

        coherent = rows["Coherent Scattering (XPCS, XSVS)"]
        tier2 = next(t for t in coherent["tiers"] if t["tier"] == "Tier 2")
        assert abs(tier2["budget_s"] - 8.8) <= 1e-9

        assert rows["Liquid Scattering"]["infeasible"] is True

        reduced = rows["Liquid Scattering (reduced)"]
        tier2 = next(t for t in reduced["tiers"] if t["tier"] == "Tier 2")
        assert abs(tier2["budget_s"] - 4.0) <= 1e-9

        assert code == 2  # infeasible row signaled

        # same numbers straight from the library
        results = {r.name: r for r in evaluate(study_from_mapping(json.loads(study_path.read_text())))}
        assert abs(next(t for t in results["Coherent Scattering (XPCS, XSVS)"].tiers if t.tier == "Tier 2").budget_s - 8.8) <= 1e-9
        assert abs(next(t for t in results["Liquid Scattering (reduced)"].tiers if t.tier == "Tier 2").budget_s - 4.0) <= 1e-9
        assert results["Liquid Scattering"].infeasible


def test_criterion_2_theoretical_transfer_and_sss():
    with criterion(2, "0.16 s theoretical transfer; SSS 31.25 and 1.25"):
        workload = WorkloadSpec(unit_size=0.5e9)
        link = LinkSpec(bandwidth=GBPS_25, alpha=1.0)
        t = transfer_time(workload, link)
        assert t == 0.16  # exact
        assert abs(streaming_speed_score(5.0, t) - 31.25) / 31.25 <= 1e-9
        assert abs(streaming_speed_score(0.2, t) - 1.25) / 1.25 <= 1e-9


def test_criterion_3_equal_share_oracle():
    with criterion(3, "8 simultaneous clients all finish at 1.28 s; conservation"):
        scenario = Scenario(
            link=LinkSpec(bandwidth=GBPS_25),
            duration=1.0,
            concurrency=8.0,
            transfer_bytes=0.5e9,
            startup_latency=0.0,
        )
        result = simulate(scenario)
        assert len(result.records) == 8
        expected = 8 * 0.5e9 / GBPS_25  # 1.28 s
        for fct in result.records.fct_s:
            assert abs(fct - expected) / expected <= 1e-9
            assert abs(fct - 1.28) <= 1e-9

        # work conservation: every interval allocates exactly the capacity
        for interval in result.trace:
            allocated = interval.rate_per_client * len(interval.client_ids)
            assert abs(allocated - GBPS_25) / GBPS_25 <= 1e-6
        # byte conservation per client
        delivered = {cid: 0.0 for cid in range(8)}
        for interval in result.trace:
            for cid in interval.client_ids:
                delivered[cid] += interval.rate_per_client * (interval.end - interval.start)
        for total in delivered.values():
            assert abs(total - 0.5e9) / 0.5e9 <= 1e-6


def test_criterion_4_congestion_regimes():
    with criterion(4, "worst FCT monotone, super-linear overload, scheduled stays flat"):
        def scenario(concurrency: float, mode: SpawnMode) -> Scenario:
            return Scenario(
                link=LinkSpec(bandwidth=GBPS_25),
                duration=10.0,
                concurrency=concurrency,
                transfer_bytes=0.5e9,
                mode=mode,
                startup_latency=0.0,
            )

        rows = sweep(scenario(1.0, SpawnMode.SIMULTANEOUS), [1, 2, 3, 4, 5, 6, 7, 8], [1])
        worsts = [row.worst_fct for row in rows]
        assert all(a <= b + 1e-12 for a, b in zip(worsts, worsts[1:]))
        assert worsts[7] >= 3.0 * worsts[5]
        # offered load above 1.0 at concurrency 8
        assert rows[7].offered_load > 1.0

        baseline = 0.16 + scenario(1.0, SpawnMode.SCHEDULED).startup
        for concurrency in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            result = simulate(scenario(concurrency, SpawnMode.SCHEDULED))
            assert result.max_fct <= 2.0 * baseline


def test_criterion_5_streaming_vs_file_reduction():
    with criterion(5, "reduction grows with file count and reaches 0.95"):
        link = LinkSpec(bandwidth=GBPS_25, alpha=1.0)

        def scan(files: int, overhead: float) -> ScanSpec:
            return ScanSpec(
                frame_bytes=2048 * 2048 * 2,
                frame_count=1440,
                frame_interval=0.033,
                files=files,
                per_file_overhead=overhead,
            )

        reductions = [file_vs_stream(scan(f, 1.0), link).reduction for f in (10, 144, 1440)]
        assert reductions[0] < reductions[1] < reductions[2]

        best = file_vs_stream(scan(1440, 1.0), link)
        assert best.reduction >= 0.95


def test_criterion_6_loadgen_loopback(capsys, tmp_path):
    with criterion(6, "12 ok records on loopback; byte audit; scheduled gaps <= 10 ms"):
        base = find_free_port_block(8)
        out_path = tmp_path / "measured.jsonl"
        with CountingServer(ServerConfig(base_port=base, pool_size=8)) as server:
            code = main(
                [
                    "measure", "run", "--server", "127.0.0.1",
                    "--base-port", str(base), "--duration", "3s",
                    "--concurrency", "4", "--size", "10MB", "--parallel", "4",
                    "--out", str(out_path), "--json",
                ]
            )
            capsys.readouterr()
            assert code == 0

            from streamscore.records import read_jsonl

            _, records = read_jsonl(out_path)
            ok = records.ok_mask()
            assert len(records) == 12
            assert sum(ok) == 12
            columns = zip(records.bytes, records.flows, records.fct_s)
            for nbytes, flows, fct in compress(columns, ok):
                assert nbytes == 10_000_000
                assert flows == 4
                assert fct > 0

            # scheduled spawn-gap fidelity at 3 clients/s
            live_at_start = server.live_connections
            with gc_pauses() as pauses:
                meta, scheduled = run_clients(
                    ClientRunConfig(
                        server_address="127.0.0.1",
                        base_port=base,
                        pool_size=8,
                        duration=2.0,
                        concurrency=3.0,
                        transfer_bytes=1_000_000,
                        mode=SpawnMode.SCHEDULED,
                    )
                )
            spawns = [spawn for _, spawn in sorted(zip(scheduled.client_id, scheduled.spawn_s))]
            assert len(spawns) == 6
            gaps = [b - a for a, b in zip(spawns, spawns[1:])]
            lateness_ms = [round((gap - 1.0 / 3.0) * 1e3, 3) for gap in gaps]
            assert all(
                abs(gap - 1.0 / 3.0) <= 0.010 for gap in gaps
            ), f"gap lateness (ms): {lateness_ms}; {spawn_diagnostics(meta, pauses, live_at_start)}"


def test_criterion_7_randomized_invariants():
    with criterion(7, "1,000 randomized record sets and model invariants hold"):
        rng = random.Random(20250810)
        policy_names = ("p50", "p90", "p99")
        for _ in range(1000):
            n = rng.randint(1, 200)
            fcts = [rng.uniform(1e-3, 50.0) for _ in range(n)]

            stats = fct_stats(sorted(fcts))
            assert stats.p50 <= stats.p90 <= stats.p99 <= stats.max
            assert stats.min <= stats.mean <= stats.max

            records = table_of((i, 0.0, f, f, 100, 1) for i, f in enumerate(fcts))
            cdf = build_report(records)["cdf"]
            probs = [p for _, p in cdf]
            values = [v for v, _ in cdf]
            assert probs[-1] == 1.0
            assert all(a < b for a, b in zip(probs, probs[1:]))
            assert all(a < b for a, b in zip(values, values[1:]))

            # theta round-trip
            theta = rng.uniform(1.0, 20.0)
            transfer = rng.uniform(1e-3, 100.0)
            fitted = io_overhead_from_times((theta - 1.0) * transfer, transfer)
            assert abs(fitted.theta - theta) / theta <= 1e-9

            # breakdown consistency and per-parameter monotonicity
            size = rng.uniform(1e3, 1e12)
            complexity = rng.uniform(1e-3, 1e3)
            bw = rng.uniform(1e6, 1e11)
            alpha = rng.uniform(0.05, 1.0)
            remote = rng.uniform(1e9, 1e15)
            w = WorkloadSpec(unit_size=size, complexity=complexity)
            c = ComputeSpec(local_rate=remote, remote_rate=remote)
            link = LinkSpec(bandwidth=bw, alpha=alpha)
            io = IoOverhead(theta)
            b = remote_completion(w, link, c, io)
            assert abs(b.total_s - (b.transfer_s + b.io_s + b.remote_s)) <= 1e-9 * b.total_s

            factor = rng.uniform(1.1, 4.0)
            base_total = b.total_s
            assert remote_completion(w, LinkSpec(bandwidth=bw * factor, alpha=alpha), c, io).total_s < base_total
            if alpha * factor <= 1.0:
                assert remote_completion(w, LinkSpec(bandwidth=bw, alpha=alpha * factor), c, io).total_s < base_total
            assert remote_completion(w, link, ComputeSpec(local_rate=remote, remote_rate=remote * factor), io).total_s < base_total
            assert remote_completion(w, link, c, IoOverhead(theta * factor)).total_s > base_total
            assert remote_completion(WorkloadSpec(unit_size=size * factor, complexity=complexity), link, c, io).total_s > base_total
            assert remote_completion(WorkloadSpec(unit_size=size, complexity=complexity * factor), link, c, io).total_s > base_total

            # decision argmax scale invariance
            local_rate = rng.uniform(1e9, 1e15)
            c2 = ComputeSpec(local_rate=local_rate, remote_rate=remote)
            k = rng.uniform(0.01, 100.0)
            d1 = decide(w, link, c2, io)
            d2 = decide(WorkloadSpec(unit_size=size * k, complexity=complexity), link, c2, io)
            assert d1.choice == d2.choice
            assert abs(d1.gain - d2.gain) <= 1e-9 * max(d1.gain, d2.gain)

        assert policy_names  # loop completed


def test_criterion_8_optimistic_baseline_comparator():
    with criterion(8, "propagation-only never exceeds the full delay; label present"):
        rng = random.Random(99)
        for _ in range(1000):
            d = DelayDecomposition(
                proc_s=rng.uniform(0, 10),
                queue_s=rng.uniform(0, 10),
                trans_s=rng.uniform(0, 10),
                prop_s=rng.uniform(0, 10),
            )
            assert propagation_only_delay(d) <= total_delay(d)

        records = table_of((i, 0.0, 0.2, 0.2, int(0.5e9), 1) for i in range(4))
        report = build_report(records, link=LinkSpec(bandwidth=GBPS_25, rtt=0.016))
        assert report["delay_model"]["label"] == "optimistic baseline"
        assert report["delay_model"]["propagation_only_s"] <= report["delay_model"]["total_s"]
