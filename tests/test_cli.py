from __future__ import annotations

import gc
import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from streamscore import analysis, cli, fluidsim
from streamscore.cli import UsageError, build_parser, main
from streamscore.loadgen import ACK, pack_header
from streamscore.records import read_jsonl
from streamscore.schedule import MAX_CLIENTS, LoadSpec

from conftest import find_free_port_block, strict_json, traced_peak

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


def test_model_infeasible_without_a_local_rate_exits_2(capsys):
    # 1 GB every 0.1 s is 80 Gbps offered to a 1 Gbps link: infeasible, whatever the local rate
    argv = ["model", "--size", "1GB", "--bw", "1Gbps", "--interval", "0.1s"]
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (2, "")
    decision = strict_json(out)["decision"]
    assert (decision["choice"], decision["local_s"], decision["tier_achieved"]) == ("infeasible", None, None)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert "\ndecision        infeasible (gain 0): sustained rate 1e+10 B/s exceeds" in out


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
    "rates, message",
    [
        (["--remote-rate", "0TF"], "remote_rate must be > 0, got 0.0"),
        (["--local-rate", "0TF", "--remote-rate", "10TF", "--work", "10TFLOP"], "local_rate must be > 0, got 0.0"),
        (["--local-rate", "0TF"], "local_rate must be > 0, got 0.0"),
        # an effective link rate that underflows to 0 used to end in a ZeroDivisionError traceback
        (["--bw", "1e-300bps", "--alpha", "1e-300"], "alpha x bandwidth must be > 0, got 1e-300 x 1.25e-301"),
    ],
)
def test_model_zero_rate_is_rejected_by_name(capsys, rates, message):
    # a zero rate used to be replaced: by 1 FLOP/s, or locally by the remote rate
    code, out, err = run_cli(capsys, "model", "--size", "1GB", "--bw", "8Gbps", *rates)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("form", [[], ["--json"]])
@pytest.mark.parametrize("theta", ["1", "2"])
def test_model_names_an_overflowing_transfer_time(capsys, theta, form):
    # 1e300 B over 1e-10 B/s is inf s: theta 1 used to blame io_s (0 x inf is NaN), and theta 2
    # printed inf with exit 0 in text, while --json exited 1 from the strict encoder
    code, out, err = run_cli(capsys, "model", "--size", "1e300B", "--bw", "1e-10Bps", "--work", "1TFLOP",
                             "--remote-rate", "1TF", "--theta", theta, *form)
    assert (code, out, err) == (1, "", "error: transfer_s must be finite, got inf\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--size", "0B", "--remote-rate", "1TF"], "--work > 0 requires --size > 0"),
        (["--size", "1GB"], "--remote-rate is required when --work > 0"),
    ],
)
def test_model_work_needs_a_size_and_a_remote_rate(capsys, flags, message):
    code, out, err = run_cli(capsys, "model", "--bw", "8Gbps", "--work", "1TFLOP", *flags)
    assert (code, out, err) == (1, "", f"error: {message}\n")


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


@pytest.mark.parametrize("form", [[], ["--json"]])
@pytest.mark.parametrize("size", ["1e300B", "9223372036854775808B"])
def test_simulate_bytes_past_int64_exits_1_before_writing(capsys, tmp_path, size, form):
    # a record's bytes are int64: --out used to end in an OverflowError traceback from the column
    out_path = tmp_path / "sim.jsonl"
    code, out, err = run_cli(capsys, "simulate", "--bw", "1e-10Bps", "--duration", "1s", "--concurrency", "1",
                             "--size", size, "--out", str(out_path), *form)
    got = "1e+300" if size == "1e300B" else "9223372036854775808"  # a whole count is read exactly
    assert (code, out, err) == (1, "", f"error: transfer_bytes must be in [0, 2**63), got {got}\n")
    assert not out_path.exists()


@pytest.mark.parametrize("given", ["--size", "scenario literal", "scenario integer"])
@pytest.mark.parametrize("size", [2**53 + 1, 2**63 - 1])
def test_simulate_reads_a_whole_byte_count_exactly(capsys, tmp_path, given, size):
    # a float byte size rounded 2**53 + 1 down, and 2**63 - 1 up past the int64 bound
    scenario = tmp_path / "scenario.json"
    value = f'"{size}B"' if given == "scenario literal" else str(size)
    scenario.write_text('{"bandwidth": "1e30Bps", "duration": "1s", "concurrency": 1, "transfer_bytes": %s}' % value)
    flags = ["--bw", "1e30Bps", "--duration", "1s", "--concurrency", "1", "--size", f"{size}B"]
    out_path = tmp_path / "sim.jsonl"
    code, _, err = run_cli(capsys, "simulate", *(flags if given == "--size" else ["--scenario", str(scenario)]),
                           "--out", str(out_path))
    assert (code, err) == (0, "")
    meta, records = read_jsonl(out_path)
    assert meta["transfer_bytes"] == size
    assert records.bytes.tolist() == [size]


@pytest.mark.parametrize("form", [[], ["--json"]])
@pytest.mark.parametrize("argv, line", [
    (["simulate", "--bw", "25Gbps", "--duration", "1s", "--concurrency", "1", "--size", "1e400B"],
     "streamscore simulate: argument --size: quantity '1e400B' overflows to inf"),
    (["model", "--size", "1GB", "--bw", "1e400bps"],
     "streamscore model: argument --bw: quantity '1e400bps' overflows to inf"),
], ids=["simulate-size", "model-bw"])
def test_an_overflowing_flag_literal_exits_1_naming_its_cause(capsys, argv, line, form):
    # argparse used to name the parser function and drop the reason: invalid parse_byte_count value
    code, out, err = run_cli(capsys, *argv, *form)
    assert (code, out) == (1, "")
    assert err.count("error:") == 1 and "Traceback" not in err
    assert err.endswith(f"\n{line}\n")


def test_model_size_stays_a_float_magnitude(capsys):
    # model reads no byte count: a 1e300 B unit only takes 3.2e290 s to move
    code, out, _ = run_cli(capsys, "model", "--size", "1e300B", "--bw", "25Gbps")
    assert code == 0
    assert out.startswith("transfer        3.2e+290 s\n")


def test_simulate_out_stamps_the_start_before_the_run(capsys, tmp_path, monkeypatch):
    entered = []

    def slow(scenario):  # a run that takes 0.2 s; the header must say when it began
        entered.append(time.time() * 1000)
        time.sleep(0.2)
        return simulate(scenario)

    simulate = fluidsim.simulate
    monkeypatch.setattr(fluidsim, "simulate", slow)
    out_path = tmp_path / "sim.jsonl"
    code, _, _ = run_cli(capsys, "simulate", "--bw", "25Gbps", "--duration", "1s", "--concurrency", "2",
                         "--size", "0.5GB", "--out", str(out_path))
    meta, _ = read_jsonl(out_path)
    assert code == 0
    assert meta["started_unix_ms"] <= entered[0]


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


_FAILED_LOG = ('{"client_id": 0, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 0, '
               '"flows": 1, "status": "error", "error": "refused"}\n')
_COMPARE_RUN = ["simulate", "--bw", "25Gbps", "--duration", "2s", "--concurrency", "4", "--size", "0.5GB"]


@pytest.mark.parametrize("measured", ["missing", "all-failed"])
def test_simulate_failed_compare_writes_neither_log_nor_trace(capsys, tmp_path, measured):
    # the comparison is built before any file is written: a failed one used to leave both behind
    compare = tmp_path / "measured.jsonl"
    if measured == "all-failed":
        compare.write_text(_FAILED_LOG)
    log, trace = tmp_path / "sim.jsonl", tmp_path / "trace.csv"
    for form in ([], ["--json"]):
        code, out, err = run_cli(capsys, *_COMPARE_RUN, "--out", str(log), "--trace", str(trace),
                                 "--compare", str(compare), *form)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not log.exists() and not trace.exists()


def test_simulate_compare_with_its_own_out_log_compares_the_older_run(capsys, tmp_path):
    # --out and --compare naming one log: the comparison used to read the log
    # the run had just written, so every ratio was 1
    log, older = tmp_path / "m.jsonl", tmp_path / "older.jsonl"
    assert run_cli(capsys, *_COMPARE_RUN, "--startup", "16ms", "--out", str(log))[0] == 0
    older.write_bytes(log.read_bytes())
    code, out, _ = run_cli(capsys, *_COMPARE_RUN, "--startup", "0s", "--out", str(log),
                           "--compare", str(log), "--json")
    assert code == 0
    comparison = strict_json(out)["comparison"]
    assert comparison["ratios"]["max"] < 1.0
    # the measured side is the older run; the log now holds this one
    for path, label in ((older, "measured"), (log, "simulated")):
        code, out, _ = run_cli(capsys, "analyze", "--in", str(path), "--json")
        assert strict_json(out)["stats"] == comparison[label]


def test_simulate_compare_is_the_analyze_comparison_of_its_own_log(capsys, tmp_path, monkeypatch):
    # one function builds both blocks; simulate builds no report for it
    measured, own = tmp_path / "measured.jsonl", tmp_path / "own.jsonl"
    run_cli(capsys, *_COMPARE_RUN, "--parallel", "2", "--startup", "16ms", "--out", str(measured))

    def no_report(*args, **kwargs):
        raise AssertionError("simulate --compare built a report")

    monkeypatch.setattr(analysis, "build_report", no_report)
    code, out, _ = run_cli(capsys, *_COMPARE_RUN, "--startup", "0s", "--out", str(own),
                           "--compare", str(measured), "--json")
    assert code == 0
    simulated = strict_json(out)["comparison"]
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "analyze", "--in", str(own), "--compare", str(measured), "--json")
    analyzed = strict_json(out)["comparison"]
    assert list(simulated) == ["simulated", "measured", "ratios"]
    assert list(analyzed) == ["primary", "comparison", "ratios"]
    assert list(simulated.values()) == list(analyzed.values())
    assert simulated["ratios"]["max"] < 1.0


_SIM = ["simulate", "--bw", "25Gbps", "--duration", "2s", "--concurrency", "1", "--size", "0.5GB"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        ([*_SIM, "--sweep", ","], "--sweep"),
        ([*_SIM, "--sweep", ""], "--sweep"),
        ([*_SIM, "--sweep", "1,2", "--parallel-list", ""], "--parallel-list"),
        ([*_SIM, "--sweep", "1,2", "--parallel-list", " , "], "--parallel-list"),
        (["model", "--size", "1GB", "--bw", "1Gbps", "--tiers", ","], "--tiers"),
    ],
)
def test_an_empty_list_exits_1_naming_the_flag(capsys, argv, flag):
    # an empty list used to read as the flag left out: one plain run, or the
    # scenario's own flow count
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"argument {flag}: no values in " in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--sweep", "1,2", "--compare", "/nonexistent.jsonl"], "--compare does not apply to --sweep"),
        (["--parallel-list", "2,4"], "--parallel-list requires --sweep"),
        (["--sweep", "1,2", "--trace", "/nonexistent/trace.csv"], "--trace does not apply to --sweep"),
        # the --parallel value used to be dropped without a word
        (["--sweep", "1", "--parallel", "3", "--parallel-list", "1,2"],
         "--parallel does not apply with --parallel-list"),
    ],
)
def test_simulate_flag_its_mode_never_reads_exits_1(capsys, tmp_path, argv, message):
    out_path = tmp_path / "out"
    code, out, err = run_cli(capsys, *_SIM, *argv, "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"
    assert not out_path.exists()


@pytest.mark.parametrize("mode", ["simultaneous", "scheduled"])
def test_simulate_trace_csv_holds_every_interval_and_every_byte(capsys, tmp_path, mode):
    trace_path = tmp_path / "trace" / "alloc.csv"
    argv = ["simulate", "--bw", "25Gbps", "--duration", "20s", "--concurrency", "9", "--size", "0.5GB",
            "--mode", mode, "--json"]
    code, plain, _ = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, *argv, "--trace", str(trace_path))
    assert (code, out, err) == (0, plain, "")  # the trace changes nothing printed
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "start_s,end_s,first_client,end_client,rate_Bps"
    rows = [(float(a), float(b), int(lo), int(hi), float(rate))
            for a, b, lo, hi, rate in (line.split(",") for line in lines[1:])]
    result = fluidsim.simulate(fluidsim.scenario_from_mapping(
        {"bandwidth": "25Gbps", "duration": "20s", "concurrency": 9, "transfer_bytes": "0.5GB", "mode": mode}))
    replayed = []
    result.replay(replayed.append)
    assert rows == replayed and len(rows) > 30  # floats round-trip through their CSV text
    delivered = math.fsum(rate * (end - start) * (hi - lo) for start, end, lo, hi, rate in rows)
    assert delivered == pytest.approx(len(result.spawns) * 0.5e9, rel=1e-9, abs=0)


# In-process `simulate --trace` of 20,000 scheduled clients at load 1.12 (39,999 intervals) peaks
# at 30.9 B an interval on CPython 3.11, with each row written as the replayed loop makes it; it
# was 215 B when the whole trace was built as row tuples first. The budget is the measured figure
# plus 30%, so a trace built before it is written fails it.
TRACE_BUDGET_B = 40


def test_simulate_trace_writes_rows_as_they_are_made(capsys, tmp_path):
    clients, load = 20_000, 1.12
    concurrency = load * 25e9 / 8 / 0.5e9
    trace_path = tmp_path / "alloc.csv"
    argv = ["simulate", "--bw", "25Gbps", "--size", "0.5GB", "--duration", f"{clients / concurrency!r}s",
            "--concurrency", repr(concurrency), "--mode", "scheduled", "--json", "--trace", str(trace_path)]
    code, peak = traced_peak(lambda: main(argv))
    assert (code, capsys.readouterr().err) == (0, "")
    with open(trace_path, encoding="utf-8") as fh:
        intervals = sum(1 for _ in fh) - 1
    assert intervals > 1.9 * clients  # overloaded: about two intervals a client
    assert peak / intervals < TRACE_BUDGET_B, f"{peak / intervals:.1f} B per interval"


def test_sweep_parallel_list_replaces_the_scenario_flow_count(capsys, tmp_path):
    # the rule the sweep follows for concurrency: a sweep list replaces the scenario file's key
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("bandwidth = 25Gbps\nduration = 2s\nconcurrency = 1\ntransfer_bytes = 0.5GB\n"
                        "parallel_flows = 3\n")
    base = ["simulate", "--scenario", str(scenario), "--sweep", "1", "--json"]
    code, out, err = run_cli(capsys, *base, "--parallel-list", "1,2")
    assert (code, err) == (0, "")
    assert [row["parallel_flows"] for row in json.loads(out)] == [1, 2]
    code, out, err = run_cli(capsys, *base)
    assert (code, err) == (0, "")
    assert [row["parallel_flows"] for row in json.loads(out)] == [3]


def test_sweep_needs_no_concurrency_and_ignores_one_given(capsys, tmp_path):
    # a sweep used to require --concurrency (or a scenario's) and then ignore it
    base = ["simulate", "--bw", "25Gbps", "--duration", "2s", "--size", "0.5GB", "--json"]
    code, out, err = run_cli(capsys, *base, "--sweep", "1,2")
    assert (code, err) == (0, "")
    assert [row["concurrency"] for row in json.loads(out)] == [1.0, 2.0]
    code, given, err = run_cli(capsys, *base, "--sweep", "1,2", "--concurrency", "99")
    assert (code, given) == (0, out)
    assert err == "warning: --concurrency is ignored: --sweep sets the concurrency\n"
    # a scenario file's concurrency is replaced by the sweep too, and a bad sweep value still exits 1
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("bandwidth = 25Gbps\nduration = 2s\nconcurrency = 99\ntransfer_bytes = 0.5GB\n")
    code, from_file, _ = run_cli(capsys, "simulate", "--scenario", str(scenario), "--sweep", "1,2", "--json")
    assert (code, from_file) == (0, out)
    for values in ("0,2", "2,0"):
        code, out, err = run_cli(capsys, *base, "--sweep", values)
        assert (code, out, err) == (1, "", "error: concurrency must be finite and > 0, got 0.0\n")


# --- analyze ---


def test_analyze_empty_log_exits_1(capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text('{"run": {}}\n')
    code, _, err = run_cli(capsys, "analyze", "--in", str(empty))
    assert code == 1
    assert "no successful records" in err


def test_analyze_log_whose_header_is_not_an_object_exits_1(capsys, tmp_path):
    # the list used to be copied into report.json as inputs.run, with exit 0
    log, report = tmp_path / "list-header.jsonl", tmp_path / "report"
    log.write_text('{"run": [1, "x"]}\n{"client_id": 0, "spawn_s": 0.0, "complete_s": 1.0, '
                   '"fct_s": 1.0, "bytes": 9, "flows": 1}\n')
    code, out, err = run_cli(capsys, "analyze", "--in", str(log), "--out", str(report), "--json")
    assert (code, out) == (1, "")
    assert err.endswith("line 1: run header must be an object\n")
    assert not report.exists()


def test_analyze_all_failed_log_exits_1_naming_the_log(capsys, tmp_path):
    failed = tmp_path / "failed.jsonl"
    failed.write_text(
        '{"client_id": 0, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 0, '
        '"flows": 1, "status": "error", "error": "refused"}\n'
    )
    code, out, err = run_cli(capsys, "analyze", "--in", str(failed))
    assert (code, out) == (1, "")
    assert err == f"error: no successful records in {failed}\n"


@pytest.mark.parametrize("command", [_SIM, ["analyze", "--in", str(GOLDEN / "simulate_log.jsonl")]])
def test_compare_with_an_all_failed_log_exits_1(capsys, tmp_path, command):
    # fct_stats's empty-list check is the one guard: the percentiles and the CDF assume a success
    failed = tmp_path / "failed.jsonl"
    failed.write_text(
        '{"client_id": 0, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 0, '
        '"flows": 1, "status": "error", "error": "refused"}\n'
    )
    code, out, err = run_cli(capsys, *command, "--compare", str(failed))
    assert (code, out, err) == (1, "", "error: no successful records to summarize\n")


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


_OVERFLOWING_LINK = ["--bw", "5e-324Bps", "--duration", "2s", "--size", "1B", "--mode", "simultaneous"]


@pytest.mark.parametrize(
    "argv, figure",
    [
        (["simulate", *_OVERFLOWING_LINK, "--concurrency", "3"], "summary.max_fct"),  # text said worst fct inf s
        (["simulate", *_OVERFLOWING_LINK, "--sweep", "1,3"], "[0].offered_load"),  # text printed inf and nan rows
        (["model", "--size", "1GB", "--bw", "25Gbps", "--worst", "1e308s", "--theta", "3"], "breakdown.io_s"),
    ],
    ids=["simulate", "sweep", "model"],
)
def test_an_overflowed_figure_exits_1_in_both_forms(capsys, argv, figure):
    # each used to exit 0 in text and 1 with --json: the table is rendered from the checked document.
    # The error names the figure's key path, not the encoder's "not JSON compliant: inf"
    for form in ([], ["--json"]):
        code, out, err = run_cli(capsys, *argv, *form)
        assert (code, out, err) == (1, "", f"error: {figure} must be finite, got inf\n")


def test_casestudy_overflowed_offered_load_is_one_error_row_in_both_forms(capsys, tmp_path):
    # text said offered load inf / INFEASIBLE and exited 2; --json exited 1
    study = tmp_path / "study.json"
    study.write_text('{"workflows": [{"name": "big", "throughput": "1e300Bps", "compute": "1TFLOP"}], '
                     '"link": {"bandwidth": "1e-10Bps"}, "worst_fct_curve": [[0.5, "1s"]]}')
    message = "offered load must be finite, got inf (1e+300 B/s over 1e-10 B/s)"
    code, out, _ = run_cli(capsys, "casestudy", "--input", str(study))
    assert (code, out) == (2, f"big\n  throughput   1e+300 B/s\n  offered load inf\n  error        {message}\n")
    code, out, _ = run_cli(capsys, "casestudy", "--input", str(study), "--json")
    assert code == 2
    [row] = strict_json(out)
    assert (row["offered_load"], row["infeasible"], row["error"]) == (None, False, message)


@pytest.mark.parametrize("doc, message", [
    ({"a": [1.0, {"b": math.nan}], "c": math.inf}, "a[1].b must be finite, got nan"),
    ([{"x": 0.5, "y": (1.0, -math.inf)}], "[0].y[1] must be finite, got -inf"),
])
def test_the_encoder_error_names_the_first_non_finite_figure_by_its_key_path(doc, message):
    with pytest.raises(ValueError) as info:
        cli._json(doc)
    assert str(info.value) == message


def test_json_with_another_non_finite_figure_exits_1(capsys):
    # a 1e308 s worst case x theta 3 overflows the io time: fail, not "io_s": Infinity
    code, out, err = run_cli(capsys, "model", "--size", "1GB", "--bw", "25Gbps", "--worst", "1e308s",
                             "--theta", "3", "--json")
    assert (code, out, err) == (1, "", "error: breakdown.io_s must be finite, got inf\n")


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


@pytest.mark.parametrize("form", [[], ["--json"]])
def test_analyze_rtt_without_link_bw_exits_1(capsys, form):
    # the report reads the RTT only from a link, so without --link-bw it was dropped without a word
    log = str(GOLDEN / "simulate_log.jsonl")
    code, out, err = run_cli(capsys, "analyze", "--in", log, "--rtt", "16ms", *form)
    assert (code, out, err) == (1, "", "error: --rtt requires --link-bw\n")
    # with a link and no --rtt, the link spec's own default RTT of 0 holds
    reports = [run_cli(capsys, "analyze", "--in", log, "--link-bw", "10Gbps", *rtt, "--json")[1]
               for rtt in ([], ["--rtt", "0s"])]
    assert reports[0] == reports[1]
    assert strict_json(reports[0])["delay_model"]["propagation_only_s"] == 0.0


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
    # report.json holds the log's header under inputs.run, wall clock stamp and all
    stamp = re.compile(r',\n +"started_unix_ms": \d+')
    for text in ((out_dir / "report.json").read_text(encoding="utf-8"), out):
        unstamped, stamps = stamp.subn("", text)
        assert stamps == 1
        assert unstamped.encode("utf-8") == (GOLDEN / "report.json").read_bytes()
    assert (out_dir / "series_cdf.csv").read_bytes() == (GOLDEN / "series_cdf.csv").read_bytes()


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


def _doctor(doc) -> None:
    """Set every number in ``doc`` to 21 (an int) or 42.0 (a float) and every string to "S", in place.

    Keys, booleans and nulls stay, so the layout does not change; a tuple's items are
    doctored where they are containers.
    """
    for key, value in list(doc.items() if isinstance(doc, dict) else enumerate(doc)):
        if isinstance(value, (dict, list, tuple)):
            _doctor(value)
        elif isinstance(doc, tuple) or value is None or isinstance(value, bool):
            continue
        elif isinstance(value, (int, float, str)):
            doc[key] = {int: 21, float: 42.0, str: "S"}[type(value)]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--in", _GOLDEN_LOG, "--link-bw", "10Gbps", "--rtt", "7ms"],
        ["simulate", *_GOLDEN_RUN, "--alpha", "0.7", "--sweep", "1,2.5", "--parallel-list", "1,2"],
        ["casestudy"],
        ["simulate", *_GOLDEN_RUN, "--concurrency", "5.5", "--compare", _GOLDEN_LOG],
        ["model", "--size", "0.3GB", "--bw", "10Gbps", "--theta", "1.5", "--work", "10TFLOP",
         "--local-rate", "10TF", "--remote-rate", "40TF", "--worst", "1.2s"],
        ["measure", "run", "--server", "dtn.example.org", "--base-port", "5201", "--duration", "1s",
         "--concurrency", "2", "--size", "1KB"],
    ],
    ids=["analyze", "sweep", "casestudy", "compare", "model", "measure-run"],
)
def test_every_text_figure_comes_from_the_checked_document(capsys, monkeypatch, argv):
    # the check hands the table its document: doctored there, every figure the table prints
    # must read 21 or 42 (analyze's records is the count plus the failures: 21 + 21)
    def doctor_then_encode(doc):
        _doctor(doc)
        return encode(doc)

    def getaddrinfo(*args, **kwargs):
        raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

    encode = cli._json
    monkeypatch.setattr(cli, "_json", doctor_then_encode)
    monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
    _, out, _ = run_cli(capsys, *argv)
    # labels and input echoes hold digits of their own
    unlabelled = re.sub(r"p50/p90/p99|\bp\d\d=|^  Tier \d:|\(theta 1\.5\)", "", out, flags=re.M)
    figures = set(re.findall(r"\d[\d.e+-]*", unlabelled))
    assert figures and figures <= {"21", "42"}, out


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
    # inputs holds each log's header as the reader gives it
    headers = [read_jsonl(path)[0] for path in (log_a, log_b)]
    assert [report["inputs"]["run"], report["inputs"]["comparison_run"]] == headers
    assert [header["concurrency"] for header in headers] == [8.0, 4.0]


def test_analyze_compare_text_prints_the_json_ratios(capsys, tmp_path):
    # the text table used to print no comparison at all; now one row, after the rest
    measured = tmp_path / "measured.jsonl"
    run_cli(capsys, *_COMPARE_RUN, "--startup", "16ms", "--out", str(measured))
    argv = ["analyze", "--in", _GOLDEN_LOG, "--link-bw", "10Gbps"]
    code, out, _ = run_cli(capsys, *argv, "--compare", str(measured))
    assert code == 0
    code, json_out, _ = run_cli(capsys, *argv, "--compare", str(measured), "--json")
    ratios = strict_json(json_out)["comparison"]["ratios"]
    assert len(set(ratios.values())) > 1  # figures of their own, not all 1
    row = ", ".join(f"{name}={value:.6g}" for name, value in ratios.items())
    assert out.splitlines()[-1] == f"primary/comparison ratios: {row}"
    assert out.splitlines()[:-1] == run_cli(capsys, *argv)[1].splitlines()


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


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"workflows": []}, "case study needs at least one workflow"),
        ({"worst_fct_curve": []}, "worst-FCT curve needs at least one point"),
        ({"workflows": [{"name": "a", "throughput": 0, "compute": "1TF"}]}, "throughput must be > 0, got 0.0"),
        ({"workflows": [{"name": "a", "throughput": "1GBps", "compute": -1}]}, "compute must be >= 0, got -1.0"),
        ({"worst_fct_curve": [[0.32, -0.5]]}, "curve worst FCTs must be finite and >= 0: ((0.32, -0.5),)"),
        # an effective link rate that underflows to 0 used to end in a ZeroDivisionError traceback
        ({"link": {"bandwidth": 1e-300, "alpha": 1e-300}}, "alpha x bandwidth must be > 0, got 1e-300 x 1e-300"),
    ],
)
def test_casestudy_bad_input_exits_1_with_one_error_line(capsys, tmp_path, edit, message):
    study = tmp_path / "study.json"
    study.write_text(json.dumps({
        "workflows": [{"name": "a", "throughput": "1GBps", "compute": "1TF"}],
        "link": {"bandwidth": "25Gbps"}, "worst_fct_curve": [[0.32, "0.5s"]], **edit,
    }))
    code, out, err = run_cli(capsys, "casestudy", "--input", str(study))
    assert (code, out, err) == (1, "", f"error: {message}\n")


# each input overflows one row to inf: a steep curve's worst FCT extrapolated to load 0.1, or the
# rates of 1e300 FLOP per 1e-10 B; text used to print inf with exit 0, and --json to exit 1
@pytest.mark.parametrize(
    "broken, curve, fine_text, error_text",
    [({"throughput": "0.1GBps", "compute": "1TFLOP"}, [[0.5, 1e308], [0.5000001, 0]],
      "  worst fct    0 s (extrapolated)\n"
      "  Tier 1   (<1 s): budget 1 s, min remote rate 1e+12 FLOPS\n"
      "  Tier 2   (<10 s): budget 10 s, min remote rate 1e+11 FLOPS\n"
      "  Tier 3   (<60 s): budget 60 s, min remote rate 1.66667e+10 FLOPS\n",
      "  throughput   1e+08 B/s\n"
      "  offered load 0.1\n"
      "  error        worst FCT and required remote rates must be finite, got inf s and [None, None, None]\n"),
     # load 0.6 lies above this curve: its end segment gives 1 + (2 - 1) x (0.6 - 0.2) / 0.2 = 3 s
     ({"throughput": "1e-10Bps", "compute": "1e300FLOP"}, [[0.2, "1s"], [0.4, "2s"]],
      "  worst fct    3 s (extrapolated)\n"
      "  Tier 1   (<1 s): budget 0 s, min remote rate no budget remains\n"
      "  Tier 2   (<10 s): budget 7 s, min remote rate 1.42857e+11 FLOPS\n"
      "  Tier 3   (<60 s): budget 57 s, min remote rate 1.75439e+10 FLOPS\n",
      "  throughput   1e-10 B/s\n"
      "  offered load 1e-19\n"
      "  error        worst FCT and required remote rates must be finite, got 0.0 s and [inf, inf, inf]\n")],
    ids=["worst-fct", "remote-rate"],
)
def test_casestudy_text_shows_an_error_row_and_an_extrapolated_row(capsys, tmp_path, broken, curve, fine_text,
                                                                   error_text):
    study = tmp_path / "study.json"
    study.write_text(json.dumps({
        "workflows": [{"name": "fine", "throughput": "0.6GBps", "compute": "1TFLOP"}, {"name": "broken", **broken}],
        "link": {"bandwidth": "1GBps"}, "worst_fct_curve": curve,
    }))
    code, out, err = run_cli(capsys, "casestudy", "--input", str(study))
    assert (code, err) == (2, "")  # an error row blocks, as an infeasible one does
    assert out == "fine\n  throughput   6e+08 B/s\n  offered load 0.6\n" + fine_text + "broken\n" + error_text

    # --json shows the same two rows, with the same figures, and exits alike
    code, out, err = run_cli(capsys, "casestudy", "--input", str(study), "--json")
    assert (code, err) == (2, "")
    fine, bad = json.loads(out)
    assert fine["error"] is None and fine["extrapolated"]
    assert f"  worst fct    {fine['worst_fct_s']:.6g} s (extrapolated)\n" in fine_text
    assert len(fine["tiers"]) == 3
    for tier, line in zip(fine["tiers"], fine_text.splitlines()[1:]):
        assert f"budget {tier['budget_s']:.6g} s" in line
    assert error_text == (f"  throughput   {bad['throughput_bytes_per_s']:.6g} B/s\n"
                          f"  offered load {bad['offered_load']:.6g}\n"
                          f"  error        {bad['error']}\n")
    assert (bad["worst_fct_s"], bad["tiers"]) == (None, [])


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


@pytest.mark.parametrize(
    "flags, message",
    [(["--size", "1.5B"], "transfer_bytes must be whole bytes, got 1.5"),
     (["--size", "1KB", "--connect-timeout", "0s"], "timeouts must be > 0"),
     (["--size", "1KB", "--transfer-timeout", "0s"], "timeouts must be > 0"),
     # a size past a record's int64 bytes used to escape main as a struct.error from pack_header
     (["--size", "1e300B"], "transfer_bytes must be in [0, 2**63), got 1e+300"),
     (["--size", "9223372036854775808B"], "transfer_bytes must be in [0, 2**63), got 9223372036854775808")],
)
def test_measure_run_bad_load_or_timeout_exits_1_before_connecting(capsys, monkeypatch, flags, message):
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "socket", no_socket)
    monkeypatch.setattr(socket, "getaddrinfo", no_socket)
    code, out, err = run_cli(
        capsys,
        "measure", "run", "--server", "127.0.0.1", "--base-port", "5201",
        "--duration", "1s", "--concurrency", "1", *flags,
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


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


@pytest.mark.parametrize("size", [2**53 + 1, 2**63 - 1])
def test_measure_run_reads_a_whole_byte_count_exactly(capsys, monkeypatch, size):
    from streamscore import loadgen
    from streamscore.records import FlowTable

    built = []
    monkeypatch.setattr(loadgen, "run_clients", lambda config: built.append(config) or ({}, FlowTable()))
    code, _, _ = run_cli(capsys, "measure", "run", "--server", "dtn.example.org", "--base-port", "5201",
                         "--duration", "1s", "--concurrency", "1", "--size", f"{size}B")
    assert code == 2  # no client ran
    assert [config.transfer_bytes for config in built] == [size]


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


@pytest.mark.parametrize("reply, error", [(b"", "missing acknowledgment"),
                                          (b"\x15", "unexpected reply b'\\x15'")])
def test_measure_run_against_a_server_that_never_acks_exits_2(capsys, tmp_path, reply, error):
    # a stub server reads the whole transfer, then closes without the ack byte or answers another one
    import threading

    from streamscore.loadgen import HEADER_SIZE, parse_header

    def serve_one(listener: socket.socket) -> None:
        conn, _ = listener.accept()
        with conn:
            header = b""
            while len(header) < HEADER_SIZE:
                header += conn.recv(HEADER_SIZE - len(header))
            remaining = parse_header(header)
            while remaining:
                remaining -= len(conn.recv(min(remaining, 65536)))
            conn.sendall(reply)

    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        server = threading.Thread(target=serve_one, args=(listener,), daemon=True)
        server.start()
        out_path = tmp_path / "measured.jsonl"
        code, out, _ = run_cli(
            capsys,
            "measure", "run", "--server", "127.0.0.1", "--base-port", str(listener.getsockname()[1]),
            "--pool-size", "1", "--duration", "1s", "--concurrency", "1", "--size", "1KB",
            "--transfer-timeout", "10s", "--out", str(out_path), "--json",
        )
        server.join(timeout=10)
    assert code == 2
    assert json.loads(out) == {"records": 1, "failures": 1, "max_fct_s": None}
    _, records = read_jsonl(out_path)
    assert records.error == (f"flow 0: {error}",)
    assert records.bytes.tolist() == [0]


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
    assert records.client_id.tolist() == [0, 1]
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
    # runtime use) cost each CLI child start-up time; gc (only for the freeze at exit), imported
    # first, raises a large analyze's peak RSS. -S: a site hook may preload typing
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
    assert not added & {"logging", "csv", "typing", "traceback", "textwrap", "string", "gc"}


# --- the process entry point ---


def test_in_process_commands_leave_the_collector_unfrozen_and_no_finalizer_in_garbage(
    capsys, tmp_path, monkeypatch
):
    # cli.run freezes the collector so a CLI process exits without collecting; main
    # must not, since tests, perfbench's replay and library callers go on running.
    # What the exit skips must need no finalizer: the commands leave no uncollectable
    # garbage, and collecting theirs raises no ResourceWarning (an error here)
    from streamscore.loadgen import ServerConfig, TransferServer

    log, base = tmp_path / "sim.jsonl", find_free_port_block(2)
    commands = [
        (["model", "--size", "1GB", "--bw", "1Gbps", "--local-rate", "1TF", "--remote-rate", "1TF"], 0),
        ([*_SIM, "--out", str(log)], 0),
        ([*_SIM, "--sweep", "1,2", "--parallel-list", "1,2", "--out", str(tmp_path / "sweep.csv")], 0),
        (["analyze", "--in", str(log), "--link-bw", "25Gbps", "--out", str(tmp_path / "report")], 0),
        (["casestudy", "--json"], 2),  # the demo has an infeasible workflow
        (["measure", "run", "--server", "127.0.0.1", "--base-port", str(base), "--pool-size", "2",
          "--duration", "1s", "--concurrency", "2", "--size", "1KB", "--out", str(tmp_path / "m.jsonl")],
         0),
    ]
    frozen = gc.get_freeze_count()
    gc.collect()
    with TransferServer(ServerConfig(base_port=base, pool_size=2)):
        for argv, status in commands:
            assert main(argv) == status, capsys.readouterr().err
            assert gc.get_freeze_count() == frozen, argv[0]
            gc.collect()
            assert gc.garbage == [], argv[0]

    def interrupt(seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(time, "sleep", interrupt)
    assert main(["measure", "serve", "--base-port", str(base), "--pool-size", "2"]) == 0
    assert gc.get_freeze_count() == frozen
    gc.collect()
    assert gc.garbage == []


@pytest.mark.parametrize(
    "argv",
    [
        ["model", "--size", "1GB", "--bw", "1Gbps"],
        ["model", "--size", "1GB", "--bw", "1Gbps", "--theta", "0.5"],
        ["model", "--size", "1GB", "--bw", "1Gbps", "--work", "1TFLOP", "--interval", "1s",
         "--local-rate", "1TF", "--remote-rate", "1TF"],
    ],
)
def test_python_m_streamscore_exits_with_mains_code_and_a_frozen_heap(capsys, argv):
    expected = main(argv)
    capsys.readouterr()
    code = (
        "import gc, runpy, sys\n"
        f"sys.argv = ['streamscore', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('streamscore', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code, gc.get_freeze_count())\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, check=True)
    _, status, frozen = done.stdout.splitlines()[-1].split()
    assert int(status) == expected
    assert int(frozen) > 0


def test_help_exits_without_the_freeze():
    code = (
        "import gc, sys\n"
        "from streamscore import cli\n"
        "sys.argv = ['streamscore', '--help']\n"
        "try:\n"
        "    cli.run()\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code, gc.get_freeze_count())\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, check=True)
    assert done.stdout.splitlines()[-1] == "exit 0 0"


def test_installed_script_runs_the_process_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"streamscore": "streamscore.cli:run"}
