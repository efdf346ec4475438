from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from streamscore.cli import UsageError, build_parser, main
from streamscore.loadgen import ACK, pack_header
from streamscore.records import read_jsonl
from streamscore.schedule import MAX_CLIENTS, LoadSpec

from conftest import find_free_port_block, strict_json

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
    # the breakdown is the decision's: the worst-case transfer replaces the modelled 0.16 s
    assert doc["breakdown"]["transfer_s"] == 5.0
    assert doc["breakdown"]["io_s"] == pytest.approx(5.0, rel=1e-9)
    assert doc["breakdown"]["remote_s"] == pytest.approx(1.0, rel=1e-9)
    assert doc["breakdown"]["total_s"] == pytest.approx(11.0, rel=1e-9)
    assert doc["tier"] == "Tier 3"
    assert doc["sss"] == pytest.approx(31.25, rel=1e-9)
    assert doc["delay_model"]["label"] == "optimistic baseline"
    code, out, _ = run_cli(
        capsys,
        "model", "--size", "0.5GB", "--bw", "25Gbps", "--theta", "2",
        "--work", "1TFLOP", "--remote-rate", "1TF", "--json",
    )
    doc = json.loads(out)
    assert doc["breakdown"]["transfer_s"] == pytest.approx(0.16, rel=1e-9)
    assert doc["breakdown"]["io_s"] == pytest.approx(0.16, rel=1e-9)
    assert doc["breakdown"]["total_s"] == pytest.approx(1.32, rel=1e-9)


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


def test_model_nan_theta_exits_1_naming_theta(capsys):
    # the stored total's sum check used to be the only thing that caught it
    code, out, err = run_cli(capsys, "model", "--size", "0.5GB", "--bw", "25Gbps", "--theta", "nan")
    assert (code, out) == (1, "")
    assert err == "error: theta must be >= 1 and finite, got nan\n"


def test_model_zero_size_infinite_theta_exits_1(capsys):
    # inf x 0 s of transfer used to be caught only as a NaN io time; theta is checked first now
    code, out, err = run_cli(capsys, "model", "--size", "0B", "--bw", "25Gbps", "--theta", "inf")
    assert (code, out) == (1, "")
    assert err == "error: theta must be >= 1 and finite, got inf\n"


def test_model_infinite_theta_exits_1_naming_theta(capsys):
    # it used to print "io overhead inf s", "remote total inf s" and "tier none" with exit 0
    code, out, err = run_cli(capsys, "model", "--size", "1GB", "--bw", "25Gbps", "--theta", "inf")
    assert (code, out) == (1, "")
    assert err == "error: theta must be >= 1 and finite, got inf\n"


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


@pytest.mark.parametrize(
    "rates, field",
    [
        (["--remote-rate", "0TF"], "remote_rate"),
        (["--local-rate", "0TF", "--remote-rate", "10TF", "--work", "10TFLOP"], "local_rate"),
        (["--local-rate", "0TF"], "local_rate"),
    ],
)
def test_model_zero_rate_is_rejected_by_name(capsys, rates, field):
    # a zero rate used to be replaced: by 1 FLOP/s, or locally by the remote rate
    code, out, err = run_cli(capsys, "model", "--size", "1GB", "--bw", "8Gbps", *rates)
    assert code == 1
    assert out == ""
    assert f"{field} must be > 0" in err


def test_model_out_writes_the_text_table(capsys, tmp_path):
    argv = ["model", "--size", "1GB", "--bw", "8Gbps", "--work", "10TFLOP",
            "--local-rate", "1TF", "--remote-rate", "10TF"]
    code, table, _ = run_cli(capsys, *argv)
    assert code == 0
    out_path = tmp_path / "model.txt"
    code, out, _ = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text(encoding="utf-8") == table


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


def test_simulate_flag_fills_in_a_field_the_scenario_lacks(capsys, tmp_path):
    scenario = tmp_path / "scenario.conf"
    scenario.write_text("bandwidth = 25Gbps\nconcurrency = 2\ntransfer_bytes = 0.5GB\n")
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario), "--json")
    assert code == 1
    assert "missing required fields: ['duration']" in err
    code, out, _ = run_cli(
        capsys, "simulate", "--scenario", str(scenario), "--duration", "3s", "--json"
    )
    assert code == 0
    assert json.loads(out)["clients"] == 6


@pytest.mark.parametrize(
    "flags, max_fct",
    [
        ([], 0.16),  # a key under "link" wins over the same top-level key
        (["--bw", "10Gbps"], 0.4),  # a flag wins over both
        (["--bw", "10Gbps", "--startup", "0.1s"], 0.5),
    ],
)
def test_simulate_flags_win_over_every_scenario_key(capsys, tmp_path, flags, max_fct):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "bandwidth": "1Gbps",
        "link": {"bandwidth": "25Gbps"},
        "duration": "1s",
        "concurrency": 1,
        "transfer_bytes": "0.5GB",
        "startup_latency": "0s",
    }))
    code, out, _ = run_cli(capsys, "simulate", "--scenario", str(scenario), *flags, "--json")
    assert code == 0
    assert json.loads(out)["summary"]["max_fct"] == pytest.approx(max_fct, rel=1e-9)


def test_simulate_scenario_null_startup_means_one_rtt(capsys, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "bandwidth": "25Gbps",
        "rtt": "10ms",
        "duration": "1s",
        "concurrency": 1,
        "transfer_bytes": "0.5GB",
        "startup_latency": None,
    }))
    code, out, _ = run_cli(capsys, "simulate", "--scenario", str(scenario), "--json")
    assert code == 0
    assert json.loads(out)["summary"]["max_fct"] == pytest.approx(0.17, rel=1e-9)


@pytest.mark.parametrize("scenario_given", [False, True])
def test_simulate_bad_mode_is_a_usage_error(capsys, tmp_path, scenario_given):
    scenario = tmp_path / "scenario.conf"
    scenario.write_text("bandwidth = 25Gbps\nduration = 1s\nconcurrency = 1\ntransfer_bytes = 1GB\n")
    source = ["--scenario", str(scenario)] if scenario_given else [
        "--bw", "25Gbps", "--duration", "1s", "--concurrency", "1", "--size", "1GB"
    ]
    code, out, err = run_cli(capsys, "simulate", *source, "--mode", "sideways")
    assert code == 1
    assert out == ""
    assert "usage:" in err and "argument --mode" in err


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


_HUGE = "1" + "0" * 400  # a JSON integer no float can hold


@pytest.mark.parametrize("field", ["transfer_bytes", "concurrency", "alpha", "parallel_flows"])
def test_simulate_scenario_with_an_integer_past_float_range_exits_1(capsys, tmp_path, field):
    raw = {"bandwidth": '"25Gbps"', "duration": '"1s"', "concurrency": "1", "transfer_bytes": '"1GB"'}
    raw[field] = _HUGE
    scenario = tmp_path / "scenario.json"
    scenario.write_text("{" + ", ".join(f'"{key}": {value}' for key, value in raw.items()) + "}")
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert (code, out) == (1, "")
    assert err == f"error: quantity {_HUGE} overflows a float\n"


@pytest.mark.parametrize(
    "flows, message",
    [("1.5", "got 1.5"), ("1025", "got 1025.0"), ("0", "got 0.0"), ('"2.5"', "got 2.5")],
)
def test_simulate_scenario_with_a_bad_flow_count_exits_1(capsys, tmp_path, flows, message):
    # a fractional count used to run as 1 flow, and a count of any size was accepted
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"bandwidth": "25Gbps", "duration": "1s", "concurrency": 1, '
                        f'"transfer_bytes": "1GB", "parallel_flows": {flows}}}')
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert (code, out) == (1, "")
    assert err == f"error: parallel_flows must be a whole number in [1, 1024], {message}\n"


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


def test_analyze_all_failed_log_exits_1_naming_the_log(capsys, tmp_path):
    failed = tmp_path / "failed.jsonl"
    failed.write_text(
        '{"client_id": 0, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 0, '
        '"flows": 1, "status": "error", "error": "refused"}\n'
    )
    code, out, err = run_cli(capsys, "analyze", "--in", str(failed))
    assert (code, out) == (1, "")
    assert err == f"error: no successful records in {failed}\n"


def test_analyze_zero_worst_fct_reports_no_sss(capsys, tmp_path):
    # a valid log whose only transfer took 0 s: no ratio to a transfer time
    log = tmp_path / "instant.jsonl"
    log.write_text(
        '{"client_id": 0, "spawn_s": 1.0, "complete_s": 1.0, "fct_s": 0.0, "bytes": 1000, '
        '"flows": 1, "status": "ok"}\n'
    )
    code, out, err = run_cli(capsys, "analyze", "--in", str(log), "--link-bw", "25Gbps", "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["regime"]["sss"] is None
    assert report["transfer_efficiency"] is None
    assert report["regime"]["utilization"] == pytest.approx(1000 / (25e9 / 8), rel=1e-12)
    assert report["delay_model"]["total_s"] == pytest.approx(1000 / (25e9 / 8), rel=1e-12)
    code, out, _ = run_cli(capsys, "analyze", "--in", str(log), "--link-bw", "25Gbps")
    assert code == 0
    assert "max fct" in out and "sss" not in out


def test_analyze_subnormal_fct_reports_only_finite_figures(capsys, tmp_path):
    # modal bytes over a 5e-324 s FCT overflow: the fits are null, not Infinity
    log = tmp_path / "subnormal.jsonl"
    log.write_text(
        '{"client_id": 0, "spawn_s": 0.0, "complete_s": 5e-324, "fct_s": 5e-324, "bytes": 1000, '
        '"flows": 1}\n'
    )
    code, out, _ = run_cli(capsys, "analyze", "--in", str(log), "--link-bw", "25Gbps", "--json")
    assert code == 0
    report = strict_json(out)
    assert report["transfer_efficiency"]["alpha_from_mean_fct"] is None
    assert report["transfer_efficiency"]["alpha_from_worst_fct"] is None
    assert 0.0 < report["regime"]["sss"] < 1e-300  # 5e-324 s over 3.2e-7 s: subnormal
    assert report["regime"]["utilization"] == 1.0  # clamped, with the measured-log warning


_ONE_SLOW_CLIENT = ["--bw", "25Gbps", "--size", "1GB", "--duration", "1s", "--concurrency", "1",
                    "--rtt", "1e308s"]


@pytest.mark.parametrize(
    "argv, sss_of",
    [
        (["model", "--size", "1GB", "--bw", "25Gbps", "--worst", "1e308s"], lambda doc: doc["sss"]),
        (["simulate", *_ONE_SLOW_CLIENT], lambda doc: doc["summary"]["sss"]),
        (["simulate", *_ONE_SLOW_CLIENT, "--sweep", "1"], lambda doc: doc[0]["sss"]),
    ],
    ids=["model", "simulate", "sweep"],
)
def test_json_writes_an_overflowed_sss_as_null(capsys, argv, sss_of):
    # 1e308 s over a 0.32 s ideal transfer: the --json documents used to print "sss": Infinity
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert sss_of(strict_json(out)) is None
    code, out, _ = run_cli(capsys, *argv)  # the text table may say inf
    assert code == 0
    assert "inf" in out


def test_analyze_json_writes_an_overflowed_compare_ratio_as_null(capsys, tmp_path):
    # 1e300 s over 1e-10 s: every ratio overflows, and `analyze --json` used to print Infinity
    logs = {}
    for name, fct in (("slow", "1e300"), ("fast", "1e-10")):
        logs[name] = tmp_path / f"{name}.jsonl"
        logs[name].write_text(f'{{"client_id": 0, "spawn_s": 0.0, "complete_s": {fct}, "fct_s": {fct}, '
                              '"bytes": 1000, "flows": 1}\n')
    code, out, _ = run_cli(capsys, "analyze", "--in", str(logs["slow"]), "--compare", str(logs["fast"]),
                           "--json")
    assert code == 0
    assert set(strict_json(out)["comparison"]["ratios"].values()) == {None}


def test_analyze_writes_an_overflowed_delay_total_as_null(capsys, tmp_path):
    # 1 GB over 1e-300 bps: the delay total overflows; stdout and report.json used to hold Infinity
    log = tmp_path / "one.jsonl"
    log.write_text('{"client_id": 0, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, '
                   '"bytes": 1000000000, "flows": 1}\n')
    argv = ("analyze", "--in", str(log), "--link-bw", "1e-300bps")
    code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "report"), "--json")
    assert code == 0
    written = (tmp_path / "report" / "report.json").read_text()
    assert written == out
    for text in (out, written):
        assert '"total_s": null' in text
        assert strict_json(text)["delay_model"]["total_s"] is None
    code, out, _ = run_cli(capsys, *argv)  # the text table says inf
    assert code == 0
    assert "delay total  inf s (propagation only 0 s" in out


def test_json_with_another_non_finite_figure_exits_1(capsys):
    # a 1e308 s worst case x theta 3 overflows the io time: fail, not "io_s": Infinity
    code, out, err = run_cli(capsys, "model", "--size", "1GB", "--bw", "25Gbps", "--worst", "1e308s",
                             "--theta", "3", "--json")
    assert (code, out) == (1, "")
    assert err.startswith("error: Out of range float values are not JSON compliant")


def test_analyze_json_clamp_warning_goes_to_stderr(tmp_path):
    # 1 GB in 1 ms is 1000 GB/s over a 25 Gbps link: the utilization clamps and warns, and
    # the warning, whose logging import is deferred to that branch, stays off stdout
    log = tmp_path / "fast.jsonl"
    log.write_text('{"client_id": 0, "spawn_s": 0.0, "complete_s": 0.001, "fct_s": 0.001, '
                   '"bytes": 1000000000, "flows": 1}\n')
    done = subprocess.run(
        [sys.executable, "-m", "streamscore", "analyze", "--in", str(log), "--link-bw", "25Gbps",
         "--json"],
        capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0
    assert done.stderr == ("utilization 320 exceeds 1.0 (window 0.001s); clamping - the link "
                           "bandwidth figure is likely below the achieved rate\n")
    assert strict_json(done.stdout)["regime"]["utilization"] == 1.0


def test_analyze_takes_no_alpha(capsys):
    # the report reads only the link's bandwidth and RTT
    log = str(GOLDEN / "simulate_log.jsonl")
    code, out, err = run_cli(capsys, "analyze", "--in", log, "--link-bw", "10Gbps", "--alpha", "0.5")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --alpha" in err


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


@pytest.mark.parametrize(
    "argv, link_bw",
    [
        # the golden run: scheduled, overloaded, 3 flows per client
        (["--bw", "10Gbps", "--size", "0.3GB", "--rtt", "7ms", "--duration", "3s",
          "--mode", "scheduled", "--concurrency", "5.5", "--parallel", "3"], "10Gbps"),
        (["--bw", "1.25GBps", "--alpha", "0.8", "--size", "0.3GB", "--rtt", "7ms",
          "--duration", "20s", "--mode", "scheduled", "--concurrency", "3"], "1.25GBps"),
        # a busy link from t = 0 that rounds to a fraction just above 1
        (["--bw", "25Gbps", "--size", "0.3GB", "--duration", "1s", "--concurrency", "3",
          "--startup", "0s"], "25Gbps"),
    ],
)
def test_simulate_and_analyze_print_one_utilization(capsys, caplog, tmp_path, argv, link_bw):
    log = tmp_path / "log.jsonl"
    code, out, _ = run_cli(capsys, "simulate", *argv, "--out", str(log), "--json")
    assert code == 0
    simulated = json.loads(out)["summary"]["utilization"]
    assert "clamping" not in caplog.text  # a simulated run never warns
    code, out, _ = run_cli(capsys, "analyze", "--in", str(log), "--link-bw", link_bw, "--json")
    assert code == 0
    assert json.loads(out)["regime"]["utilization"] == simulated  # bit-equal
    assert "clamping" not in caplog.text  # nor does analyzing one


def test_sweep_rows_are_a_case_study_curve(capsys, tmp_path):
    # a scheduled sweep at alpha 0.8; its (offered_load, worst_fct_s) rows up to
    # load 1 are the case study's curve, and the case study reads it back on the
    # same axis: 0.9 GB/s on the same link is the 3 clients/s row, not an extrapolation
    link = ["--bw", "1.25GBps", "--alpha", "0.8", "--rtt", "7ms"]
    code, out, _ = run_cli(
        capsys, "simulate", *link, "--size", "0.3GB", "--duration", "20s", "--mode", "scheduled",
        "--concurrency", "1", "--sweep", "0.5,1,1.5,2,2.5,3,3.5", "--json",
    )
    assert code == 0
    rows = {row["concurrency"]: row for row in json.loads(out)}
    assert rows[3.5]["offered_load"] == pytest.approx(1.05, rel=1e-12)  # past the feasibility line
    curve = [[row["offered_load"], row["worst_fct_s"]] for row in rows.values() if row["offered_load"] <= 1]
    assert [load for load, _ in curve] == [rows[c]["offered_load"] for c in (0.5, 1, 1.5, 2, 2.5, 3)]
    study, doc = tmp_path / "study.json", {
        "workflows": [{"name": "w", "throughput": "0.9GBps", "compute": "1TFLOP"}],
        "link": {"bandwidth": "1.25GBps", "alpha": 0.8, "rtt": "7ms"},
    }
    study.write_text(json.dumps({**doc, "worst_fct_curve": curve}))
    code, out, _ = run_cli(capsys, "casestudy", "--input", str(study), "--json")
    assert code == 0
    (result,) = json.loads(out)
    assert result["offered_load"] == pytest.approx(0.9, rel=1e-12)
    assert result["offered_load"] == rows[3]["offered_load"]
    assert result["worst_fct_s"] == rows[3]["worst_fct_s"] == pytest.approx(0.307, rel=1e-9)
    assert result["extrapolated"] is False
    # the curve stays inside [0, 1], so the overloaded row cannot join it
    overloaded = [rows[3.5]["offered_load"], rows[3.5]["worst_fct_s"]]
    study.write_text(json.dumps({**doc, "worst_fct_curve": curve + [overloaded]}))
    code, _, err = run_cli(capsys, "casestudy", "--input", str(study))
    assert code == 1
    assert "curve offered loads must lie in [0, 1]" in err


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


_GOLDEN_LOG = str(GOLDEN / "simulate_log.jsonl")
_GOLDEN_RUN = ("--bw", "10Gbps", "--size", "0.3GB", "--rtt", "7ms", "--duration", "3s",
               "--mode", "scheduled")


@pytest.mark.parametrize(
    "golden, argv, exit_code",
    [
        ("analyze.txt", ["analyze", "--in", _GOLDEN_LOG, "--link-bw", "10Gbps", "--rtt", "7ms"], 0),
        ("sweep.txt", ["simulate", *_GOLDEN_RUN, "--alpha", "0.7", "--concurrency", "1",
                       "--sweep", "1,2.5,4,5.5", "--parallel-list", "1,2,8"], 0),
        ("casestudy.txt", ["casestudy"], 2),
        ("compare.txt", ["simulate", *_GOLDEN_RUN, "--concurrency", "5.5", "--parallel", "3",
                         "--compare", _GOLDEN_LOG], 0),
        ("model.txt", ["model", "--size", "0.3GB", "--bw", "10Gbps", "--alpha", "0.8",
                       "--rtt", "7ms", "--theta", "1.5", "--work", "10TFLOP",
                       "--local-rate", "10TF", "--remote-rate", "40TF", "--worst", "1.2s"], 0),
    ],
)
def test_text_output_matches_golden_bytes(capsys, golden, argv, exit_code):
    # the tables, tier lines, case study text, sweep table and ratios line
    code, out, _ = run_cli(capsys, *argv)
    assert code == exit_code
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


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


@pytest.mark.parametrize("key", ["compute", "load"])
def test_casestudy_integer_past_float_range_exits_1(capsys, tmp_path, key):
    workflow = {"name": "a", "throughput": "1GBps", "compute": "1TF"}
    curve = [[0.32, "0.5s"]]
    if key == "compute":
        workflow["compute"] = "HUGE"
    else:
        curve[0][0] = "HUGE"
    study = tmp_path / "study.json"
    text = json.dumps({"workflows": [workflow], "link": {"bandwidth": "25Gbps"}, "worst_fct_curve": curve})
    study.write_text(text.replace('"HUGE"', _HUGE))
    code, out, err = run_cli(capsys, "casestudy", "--input", str(study))
    assert (code, out) == (1, "")
    assert err == f"error: quantity {_HUGE} overflows a float\n"


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
    assert all(nbytes == 1_000_000 for nbytes in records.bytes)
    assert meta["parallel_flows"] == 2


def test_measure_run_all_failed_exits_2(capsys, tmp_path):
    base = find_free_port_block(1)  # nothing listening
    code, out, _ = run_cli(
        capsys,
        "measure", "run", "--server", "127.0.0.1", "--base-port", str(base),
        "--duration", "1s", "--concurrency", "1", "--size", "1KB",
        "--connect-timeout", "1s", "--transfer-timeout", "1s", "--json",
    )
    assert code == 2
    assert json.loads(out) == {"records": 1, "failures": 1, "max_fct_s": None}


def test_measure_run_fractional_size_exits_1_before_connecting(capsys):
    code, out, err = run_cli(
        capsys,
        "measure", "run", "--server", "127.0.0.1", "--base-port", "5201",
        "--duration", "1s", "--concurrency", "1", "--size", "1.5B",
    )
    assert code == 1
    assert out == ""
    assert "transfer_bytes must be whole bytes, got 1.5" in err


@pytest.mark.parametrize(
    "pool, message",
    [(["--base-port", "70000"], "base_port must be a TCP port, got 70000"),
     (["--base-port", "65535", "--pool-size", "2"], "port pool extends past 65535"),
     (["--base-port", "5201", "--pool-size", "0"], "pool_size must be > 0, got 0")],
)
def test_measure_run_rejects_a_bad_pool_as_serve_does_before_any_socket(capsys, monkeypatch, pool, message):
    # run used to end in an OverflowError traceback from connect_ex
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "socket", no_socket)
    monkeypatch.setattr(socket, "getaddrinfo", no_socket)
    errors = []
    for command in (["measure", "run", "--server", "127.0.0.1", "--duration", "1s",
                     "--concurrency", "1", "--size", "1KB"], ["measure", "serve"]):
        code, out, err = run_cli(capsys, *command, *pool)
        assert (code, out) == (1, "")
        errors.append(err)
    assert errors == [f"error: {message}\n"] * 2


def test_measure_commands_leave_unset_fields_to_the_spec_defaults(capsys, monkeypatch):
    # given only their required flags, both build the config the dataclass defaults give
    from streamscore import loadgen
    from streamscore.records import FlowTable

    built = []

    def run_clients(config):
        built.append(config)
        return {}, FlowTable()

    class Server:
        def __init__(self, config):
            built.append(config)

        def start(self):
            pass

        def stop(self):
            pass

    def interrupt(seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(loadgen, "run_clients", run_clients)
    monkeypatch.setattr(loadgen, "TransferServer", Server)
    monkeypatch.setattr(time, "sleep", interrupt)
    code, _, _ = run_cli(
        capsys,
        "measure", "run", "--server", "dtn.example.org", "--base-port", "5201",
        "--duration", "2s", "--concurrency", "3", "--size", "2.01KB",
    )
    assert code == 2  # no client ran
    code, out, _ = run_cli(capsys, "measure", "serve", "--base-port", "5201")
    assert code == 0
    assert out == "listening on 127.0.0.1:5201-5208\n"
    assert built == [
        loadgen.ClientRunConfig(
            server_address="dtn.example.org", base_port=5201, duration=2.0, concurrency=3.0,
            transfer_bytes=2010,
        ),
        loadgen.ServerConfig(base_port=5201),
    ]


@pytest.mark.parametrize(
    "command, message",
    [
        (["simulate", "--bw", "25Gbps"], "simulate requires --size (or --scenario)"),
        (["measure", "run", "--server", "127.0.0.1", "--base-port", "5201"],
         "measure run requires --size"),
    ],
)
def test_missing_size_exits_1_naming_it(capsys, command, message):
    code, out, err = run_cli(capsys, *command, "--duration", "1s", "--concurrency", "1")
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


_MEASURE_RUN = ["measure", "run", "--server", "127.0.0.1", "--base-port", "5201"]


def test_fractional_size_exits_1_with_one_message_from_both_commands(capsys):
    # a simulated record would claim bytes that never moved; the wire sends whole bytes
    errors = []
    for command in (["simulate", "--bw", "1GBps", "--startup", "0s"], _MEASURE_RUN):
        code, out, err = run_cli(capsys, *command, "--size", "1000.6B", "--duration", "1s",
                                 "--concurrency", "3")
        assert (code, out) == (1, "")
        errors.append(err)
    assert errors == ["error: transfer_bytes must be whole bytes, got 1000.6\n"] * 2


@pytest.mark.parametrize("mode", ["simultaneous", "scheduled"])
@pytest.mark.parametrize("command", [["simulate", "--bw", "25Gbps"], _MEASURE_RUN])
def test_overflowing_client_count_exits_1(capsys, monkeypatch, command, mode):
    def no_list(self):
        raise AssertionError("spawn_times built a list")

    monkeypatch.setattr(LoadSpec, "spawn_times", no_list)
    code, out, err = run_cli(capsys, *command, "--size", "1GB", "--duration", "1e200s",
                             "--concurrency", "1e200", "--mode", mode)
    assert code == 1
    assert out == ""
    assert err == f"error: client count must be 1 to {MAX_CLIENTS}, got inf\n"


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


def test_measure_serve_sigterm_exits_0():
    # a background job has SIGINT ignored; SIGTERM must still stop the server cleanly
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
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0, proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()


def test_measure_run_unresolvable_server_logs_every_client_and_exits_2(
    capsys, tmp_path, monkeypatch
):
    def getaddrinfo(*args, **kwargs):
        raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

    monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
    out_path = tmp_path / "measured.jsonl"
    code, _, _ = run_cli(
        capsys,
        "measure", "run", "--server", "dtn.example.org", "--base-port", "5201",
        "--duration", "1s", "--concurrency", "2", "--parallel", "2", "--size", "1KB",
        "--out", str(out_path),
    )
    assert code == 2
    _, records = read_jsonl(out_path)
    assert records.client_id == (0, 1)
    expected = f"[Errno {socket.EAI_NONAME}] Name or service not known"
    assert records.error == (f"flow 0: {expected}; flow 1: {expected}",) * 2
    assert records.bytes.tolist() == [0, 0]


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


@pytest.mark.parametrize("flag", [["--json"], ["--out", "served.json"]])
def test_measure_serve_rejects_output_flags(flag):
    # serve writes no document; parse only, since running it serves until interrupted
    with pytest.raises(UsageError):
        build_parser().parse_args(["measure", "serve", "--base-port", "5201", *flag])


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


def test_cli_import_leaves_rare_path_stdlib_unloaded():
    # logging (only for the clamp warning), csv (only for the CSV writers) and typing (no
    # runtime use) cost each CLI child start-up time. -S: a site hook may preload typing
    import streamscore

    code = (
        "import sys; before = set(sys.modules); import streamscore.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(streamscore.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=30, check=True,
        env=env,
    )
    added = set(done.stdout.split())
    assert {"streamscore.cli", "streamscore.model", "json", "argparse"} <= added
    assert not added & {"logging", "csv", "typing", "traceback", "textwrap", "string"}
