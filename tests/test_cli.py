from __future__ import annotations

import json
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from streamscore.cli import main
from streamscore.loadgen import ACK, pack_header
from streamscore.records import read_jsonl

from conftest import find_free_port_block

GOLDEN = Path(__file__).parent / "golden"

def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- model ---


def test_model_theoretical_transfer(capsys):
    code, out, _ = run_cli(
        capsys,
        "model", "--size", "0.5GB", "--bw", "25Gbps",
        "--alpha", "1", "--theta", "1", "--work", "0FLOP",
    )
    assert code == 0
    assert "0.16 s" in out


def test_model_json_breakdown(capsys):
    code, out, _ = run_cli(
        capsys,
        "model", "--size", "0.5GB", "--bw", "25Gbps", "--theta", "2",
        "--work", "1TFLOP", "--remote-rate", "1TF", "--worst", "5s", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["breakdown"]["transfer_s"] == pytest.approx(0.16, rel=1e-9)
    assert doc["breakdown"]["io_s"] == pytest.approx(0.16, rel=1e-9)
    assert doc["breakdown"]["remote_s"] == pytest.approx(1.0, rel=1e-9)
    assert doc["breakdown"]["total_s"] == pytest.approx(1.32, rel=1e-9)
    assert doc["sss"] == pytest.approx(31.25, rel=1e-9)
    assert doc["delay_model"]["label"] == "optimistic baseline"


def test_model_missing_bw_exits_1(capsys):
    code, _, err = run_cli(capsys, "model", "--size", "0.5GB")
    assert code == 1
    assert "usage" in err.lower()


def test_model_bad_theta_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "model", "--size", "0.5GB", "--bw", "25Gbps", "--theta", "0.5"
    )
    assert code == 1
    assert "theta must be >= 1" in err


def test_model_infeasible_exits_2(capsys):
    code, out, _ = run_cli(
        capsys,
        "model", "--size", "4GB", "--bw", "25Gbps", "--interval", "1s",
        "--work", "20TFLOP", "--local-rate", "20TF", "--remote-rate", "20TF",
    )
    assert code == 2
    assert "infeasible" in out


def test_model_decision_gain(capsys):
    code, out, _ = run_cli(
        capsys,
        "model", "--size", "1GB", "--bw", "8Gbps", "--work", "10TFLOP",
        "--local-rate", "1TF", "--remote-rate", "10TF", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"]["choice"] == "remote_stream"
    assert doc["decision"]["gain"] == pytest.approx(5.0, rel=1e-9)


# --- simulate ---


def test_simulate_writes_80_records(capsys, tmp_path):
    out_path = tmp_path / "sim.jsonl"
    code, out, _ = run_cli(
        capsys,
        "simulate", "--bw", "25Gbps", "--duration", "10s", "--concurrency", "8",
        "--size", "0.5GB", "--mode", "simultaneous", "--startup", "0s",
        "--out", str(out_path),
    )
    assert code == 0
    meta, records = read_jsonl(out_path)
    assert len(records) == 80
    assert meta["concurrency"] == 8.0
    assert meta["transfer_bytes"] == 0.5e9
    assert meta["mode"] == "simultaneous"


def test_simulate_sweep_table(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate", "--bw", "25Gbps", "--duration", "10s", "--concurrency", "1",
        "--size", "0.5GB", "--startup", "0s",
        "--sweep", "1,2,3,4,5,6,7,8", "--parallel-list", "2,4,8",
        "--out", str(csv_path), "--json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 24
    assert csv_path.read_text().count("\n") == 25


def test_simulate_scenario_file_with_override(capsys, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "link": {"bandwidth": "25Gbps"},
                "duration": "1s",
                "concurrency": 8,
                "transfer_bytes": "0.5GB",
                "startup_latency": "0s",
            }
        )
    )
    code, out, _ = run_cli(
        capsys, "simulate", "--scenario", str(scenario), "--concurrency", "1", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["clients"] == 1
    assert doc["summary"]["max_fct"] == pytest.approx(0.16, rel=1e-9)


def test_simulate_missing_flags_exit_1(capsys):
    code, _, err = run_cli(capsys, "simulate", "--bw", "25Gbps")
    assert code == 1
    assert "--duration" in err


def test_simulate_overflowing_quantity_exits_1_without_a_log(capsys, tmp_path):
    out_path = tmp_path / "sim.jsonl"
    code, _, err = run_cli(
        capsys,
        "simulate", "--bw", "1e400bps", "--size", "1GB", "--duration", "1s",
        "--concurrency", "1", "--out", str(out_path),
    )
    assert code == 1
    assert "1e400bps" in err
    assert not out_path.exists()


@pytest.mark.parametrize("field", ["bandwidth", "concurrency"])
def test_simulate_scenario_with_overflowing_number_exits_1(capsys, tmp_path, field):
    raw = {"bandwidth": '"25Gbps"', "duration": '"1s"', "concurrency": "1", "transfer_bytes": '"1GB"'}
    raw[field] = "1e400"  # json.dumps cannot write it; json.loads reads it as inf
    scenario = tmp_path / "scenario.json"
    scenario.write_text("{" + ", ".join(f'"{key}": {value}' for key, value in raw.items()) + "}")
    out_path = tmp_path / "sim.jsonl"
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario), "--out", str(out_path))
    assert code == 1
    assert "finite" in err
    assert not out_path.exists()


def test_simulate_compare_overlays_measured_log(capsys, tmp_path):
    measured = tmp_path / "measured.jsonl"
    run_cli(
        capsys,
        "simulate", "--bw", "25Gbps", "--duration", "10s", "--concurrency", "4",
        "--size", "0.5GB", "--startup", "16ms", "--out", str(measured),
    )
    code, out, _ = run_cli(
        capsys,
        "simulate", "--bw", "25Gbps", "--duration", "10s", "--concurrency", "4",
        "--size", "0.5GB", "--startup", "0s", "--compare", str(measured), "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert "simulated" in doc["comparison"]
    assert "measured" in doc["comparison"]
    assert doc["comparison"]["ratios"]["max"] < 1.0  # zero-startup run is faster


# --- analyze ---


def test_analyze_empty_log_exits_1(capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text('{"run": {}}\n')
    code, _, err = run_cli(capsys, "analyze", "--in", str(empty))
    assert code == 1
    assert "no successful records" in err


def test_simulate_then_analyze_pipeline(capsys, tmp_path):
    log = tmp_path / "sim.jsonl"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--bw", "25Gbps", "--duration", "10s", "--concurrency", "8",
        "--size", "0.5GB", "--startup", "0s", "--out", str(log),
    )
    assert code == 0
    out_dir = tmp_path / "report"
    code, out, _ = run_cli(
        capsys,
        "analyze", "--in", str(log), "--link-bw", "25Gbps", "--rtt", "16ms",
        "--tiers", "1s,10s,60s", "--out", str(out_dir), "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["regime"]["regime"] in ("low", "moderate", "severe")
    # --json prints the very text written to report.json
    assert out == (out_dir / "report.json").read_text(encoding="utf-8")
    assert (out_dir / "series_cdf.csv").exists()
    assert report["delay_model"]["label"] == "optimistic baseline"


def test_simulate_and_analyze_match_golden_bytes(capsys, tmp_path):
    # fixed inputs, overloaded scheduled run: the log (apart from its wall
    # clock stamp), report.json and the CDF series keep their exact bytes
    log = tmp_path / "log.jsonl"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--bw", "10Gbps", "--size", "0.3GB", "--rtt", "7ms",
        "--duration", "3s", "--concurrency", "5.5", "--mode", "scheduled",
        "--parallel", "3", "--out", str(log), "--json",
    )
    assert code == 0
    text = log.read_text(encoding="utf-8")
    assert re.sub(r', "started_unix_ms": \d+', "", text, count=1) == (
        GOLDEN / "simulate_log.jsonl"
    ).read_text(encoding="utf-8")
    out_dir = tmp_path / "report"
    code, out, _ = run_cli(
        capsys,
        "analyze", "--in", str(log), "--link-bw", "10Gbps", "--rtt", "7ms",
        "--out", str(out_dir), "--json",
    )
    assert code == 0
    for name in ("report.json", "series_cdf.csv"):
        assert (out_dir / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    assert out.encode("utf-8") == (GOLDEN / "report.json").read_bytes()


def test_sweep_and_casestudy_match_golden_bytes(capsys, tmp_path):
    # the sweep JSON and CSV and the case study JSON keep their exact bytes
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate", "--bw", "10Gbps", "--alpha", "0.7", "--size", "0.3GB",
        "--rtt", "7ms", "--duration", "3s", "--concurrency", "1",
        "--mode", "scheduled", "--sweep", "1,2.5,4,5.5",
        "--parallel-list", "1,2,8", "--json", "--out", str(csv_path),
    )
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / "sweep.json").read_bytes()
    assert csv_path.read_bytes() == (GOLDEN / "sweep.csv").read_bytes()
    code, out, _ = run_cli(capsys, "casestudy", "--json")
    assert code == 2  # the bundled study holds an infeasible workflow
    assert out.encode("utf-8") == (GOLDEN / "casestudy.json").read_bytes()


def test_analyze_rejects_bad_records_naming_the_line(capsys, tmp_path):
    # this log used to analyze to min=nan, p50=-7.0 and exit 0
    log = tmp_path / "bad.jsonl"
    log.write_text(
        '{"client_id": 0, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9, "flows": 1}\n'
        '{"client_id": 1, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": NaN, "bytes": 9, "flows": 1}\n'
        '{"client_id": 2, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": -7, "bytes": -5, "flows": 0}\n'
        '{"client_id": 0, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 9, "flows": 1}\n'
    )
    code, out, err = run_cli(capsys, "analyze", "--in", str(log), "--json")
    assert code == 1
    assert out == ""
    assert "line 2: " in err and "NaN" in err


def test_analyze_compare_runs(capsys, tmp_path):
    log_a = tmp_path / "a.jsonl"
    log_b = tmp_path / "b.jsonl"
    for path, concurrency in ((log_a, "8"), (log_b, "4")):
        run_cli(
            capsys,
            "simulate", "--bw", "25Gbps", "--duration", "10s",
            "--concurrency", concurrency, "--size", "0.5GB", "--startup", "0s",
            "--out", str(path),
        )
    code, out, _ = run_cli(
        capsys, "analyze", "--in", str(log_a), "--compare", str(log_b), "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["comparison"]["ratios"]["max"] > 1.0


# --- casestudy ---


def test_casestudy_default_demo(capsys):
    code, out, _ = run_cli(capsys, "casestudy", "--json")
    assert code == 2  # demo includes a deliberately infeasible workflow
    rows = json.loads(out)
    by_name = {row["name"]: row for row in rows}
    coherent = by_name["Coherent Scattering (XPCS, XSVS)"]
    tier2 = next(t for t in coherent["tiers"] if t["tier"] == "Tier 2")
    assert tier2["budget_s"] == pytest.approx(8.8, abs=1e-9)
    assert by_name["Liquid Scattering"]["infeasible"]


def test_casestudy_custom_input_all_feasible(capsys, tmp_path):
    study = tmp_path / "study.json"
    study.write_text(
        json.dumps(
            {
                "workflows": [{"name": "a", "throughput": "1GBps", "compute": "1TF"}],
                "link": {"bandwidth": "25Gbps"},
                "worst_fct_curve": [[0.32, "0.5s"]],
            }
        )
    )
    code, out, _ = run_cli(capsys, "casestudy", "--input", str(study), "--json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["worst_fct_s"] == 0.5


# --- measure (in-process run against a library server) ---


def test_measure_run_loopback(capsys, tmp_path):
    from streamscore.loadgen import ServerConfig, TransferServer

    base = find_free_port_block(4)
    out_path = tmp_path / "measured.jsonl"
    with TransferServer(ServerConfig(base_port=base, pool_size=4)):
        code, out, _ = run_cli(
            capsys,
            "measure", "run", "--server", "127.0.0.1", "--base-port", str(base),
            "--pool-size", "4", "--duration", "2s", "--concurrency", "2",
            "--parallel", "2", "--size", "1MB", "--out", str(out_path), "--json",
        )
    assert code == 0
    doc = json.loads(out)
    assert doc["records"] == 4
    assert doc["failures"] == 0
    meta, records = read_jsonl(out_path)
    assert len(records) == 4
    assert all(r.bytes == 1_000_000 for r in records)
    assert meta["parallel_flows"] == 2


def test_measure_run_all_failed_exits_2(capsys, tmp_path):
    base = find_free_port_block(1)  # nothing listening
    code, _, _ = run_cli(
        capsys,
        "measure", "run", "--server", "127.0.0.1", "--base-port", str(base),
        "--duration", "1s", "--concurrency", "1", "--size", "1KB",
        "--connect-timeout", "1s", "--transfer-timeout", "1s",
    )
    assert code == 2


def test_measure_serve_subprocess_end_to_end():
    base = find_free_port_block(2)
    with subprocess.Popen(
        [
            sys.executable, "-m", "streamscore", "measure", "serve",
            "--base-port", str(base), "--pool-size", "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            assert "listening" in line
            with socket.create_connection(("127.0.0.1", base), timeout=5) as sock:
                sock.sendall(pack_header(100) + b"\x00" * 100)
                assert sock.recv(1) == ACK
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)


def test_measure_serve_sigint_right_after_listening_exits_0():
    # the interrupt arrives as soon as the listening line is out
    for _ in range(3):
        base = find_free_port_block(2)
        with subprocess.Popen(
            [
                sys.executable, "-m", "streamscore", "measure", "serve",
                "--base-port", str(base), "--pool-size", "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                assert "listening" in proc.stdout.readline()
                proc.send_signal(signal.SIGINT)
                assert proc.wait(timeout=10) == 0, proc.stderr.read()
            finally:
                if proc.poll() is None:
                    proc.kill()


def test_measure_serve_port_conflict_exits_2(capsys):
    base = find_free_port_block(2)
    blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    blocker.bind(("127.0.0.1", base + 1))
    blocker.listen(1)
    try:
        code, _, err = run_cli(
            capsys,
            "measure", "serve", "--base-port", str(base), "--pool-size", "2",
        )
        assert code == 2
        assert str(base + 1) in err
    finally:
        blocker.close()


# --- unified exit codes ---


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower() or "invalid" in err.lower()


def test_bad_quantity_exits_1(capsys):
    code, _, err = run_cli(capsys, "model", "--size", "0.5gb", "--bw", "25Gbps")
    assert code == 1
    assert "0.5gb" in err


def test_cli_import_leaves_harness_and_case_study_unloaded():
    # only `measure` and `casestudy` need them; every other command skips the import.
    # The layer modules must load with the CLI: perfbench/spans.py patches layer
    # functions only in modules loaded when `import streamscore.cli` returns, so a
    # lazily imported layer would go untraced.
    layers = ("fluidsim", "analysis", "records", "model")
    code = (
        "import json, sys, streamscore.cli; "
        "print(json.dumps(sorted(m.split('.')[1] for m in sys.modules "
        "if m.startswith('streamscore.'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30, check=True
    )
    loaded = set(json.loads(done.stdout))
    assert not loaded & {"loadgen", "casestudy"}
    assert set(layers) <= loaded
