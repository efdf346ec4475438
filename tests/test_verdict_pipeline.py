"""The log-to-verdict pipeline end to end, as an external timing harness drives it.

``simulate --out`` -> ``analyze --out --json`` -> ``model --worst --json``
through ``cli.main``, on a simultaneous burst whose worst FCT has a closed
form. Besides the outputs, these tests pin the interfaces such a harness
reads: the layer functions it wraps by module and name, the parameter
names it reads from their calls, and the log layout it parses itself.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys

import pytest

from streamscore import cli, fluidsim
from streamscore.records import FlowTable, read_jsonl, write_jsonl

CLIENTS_PER_BATCH = 5
DURATION_S = 40
RECORDS = CLIENTS_PER_BATCH * DURATION_S  # one batch per second, each done before the next
SIZE = 503_517_133  # bytes; load about 0.8 of the link
RTT = 0.016
CAPACITY = 25e9 / 8  # bytes/s at alpha 1
WORST = RTT + CLIENTS_PER_BATCH * SIZE / CAPACITY  # startup RTT plus a 5-way equal share
VERDICT_FLAGS = ["--work", "34TFLOP", "--local-rate", "10TF", "--remote-rate", "34TF"]
RECORD_KEYS = {"client_id", "spawn_s", "complete_s", "fct_s", "bytes", "flows", "status"}

# (module, function) pairs a harness times by replacing them wherever a
# streamscore module binds them, so each must stay a module-level function
# that the CLI reaches through one of those bindings
LAYER_FUNCTIONS = (
    ("fluidsim", "simulate"),
    ("fluidsim", "sweep"),
    ("records", "write_jsonl"),
    ("records", "read_jsonl"),
    ("analysis", "build_report"),
    ("analysis", "write_report"),
    ("model", "decide"),
)


def _rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _commands(tmp_path) -> list[list[str]]:
    log, report = str(tmp_path / "log.jsonl"), str(tmp_path / "report")
    common = ["--size", f"{SIZE}B", "--rtt", f"{RTT!r}s"]
    return [
        ["simulate", "--bw", "25Gbps", *common, "--duration", f"{DURATION_S}s",
         "--concurrency", str(CLIENTS_PER_BATCH), "--mode", "simultaneous",
         "--out", log, "--json"],
        ["analyze", "--in", log, "--link-bw", "25Gbps", "--rtt", f"{RTT!r}s",
         "--out", report, "--json"],
        ["model", "--bw", "25Gbps", *common, *VERDICT_FLAGS, "--worst", f"{WORST!r}s", "--json"],
    ]


def _run(capsys, argv: list[str]) -> dict:
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv[0]
    return json.loads(out)


@pytest.fixture
def calls(monkeypatch) -> dict[str, list]:
    """Wrap every layer function wherever a loaded streamscore module binds it."""
    seen: dict[str, list] = {f"{m}.{f}": [] for m, f in LAYER_FUNCTIONS}
    modules = [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "streamscore" or name.startswith("streamscore."))
    ]
    for module_name, function_name in LAYER_FUNCTIONS:
        original = getattr(importlib.import_module(f"streamscore.{module_name}"), function_name)
        assert inspect.isfunction(original)
        key = f"{module_name}.{function_name}"

        def wrapper(*args, _original=original, _key=key, **kwargs):
            result = _original(*args, **kwargs)
            seen[_key].append((args, kwargs, result))
            return result

        for module in modules:
            for attr in [a for a, value in vars(module).items() if value is original]:
                monkeypatch.setattr(module, attr, wrapper)
    return seen


def test_pipeline_outputs_pass_the_burst_checks(capsys, tmp_path):
    simulated, printed, verdict = (_run(capsys, argv) for argv in _commands(tmp_path))

    assert simulated["clients"] == RECORDS
    stats = printed["stats"]
    assert stats["count"] + stats["failures"] == RECORDS and stats["failures"] == 0
    assert _rel_close(stats["max"], WORST), (stats["max"], WORST)
    assert printed["regime"]["regime"] == "low"
    on_disk = json.loads((tmp_path / "report" / "report.json").read_bytes())
    assert on_disk["stats"] == stats
    assert on_disk == printed
    assert (verdict.get("decision") or {}).get("choice") == "remote_stream"


def test_log_layout_is_a_run_header_then_schema_records(capsys, tmp_path):
    _run(capsys, _commands(tmp_path)[0])
    lines = (tmp_path / "log.jsonl").read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert list(header) == ["run"] and header["run"]["mode"] == "simultaneous"
    records = [json.loads(line) for line in lines[1:]]
    assert [r["client_id"] for r in records] == list(range(RECORDS))
    assert all(set(r) == RECORD_KEYS and r["status"] == "ok" for r in records)
    assert all(r["bytes"] == SIZE for r in records)

    meta, table = read_jsonl(tmp_path / "log.jsonl")
    assert meta == header["run"]
    assert len(table) == RECORDS
    assert isinstance(table, FlowTable)


def test_layer_functions_are_reached_by_name(capsys, tmp_path, calls):
    for argv in _commands(tmp_path):
        _run(capsys, argv)
    assert {key: len(made) for key, made in calls.items()} == {
        f"{m}.{f}": int(f != "sweep") for m, f in LAYER_FUNCTIONS
    }
    _run(capsys, ["simulate", "--bw", "25Gbps", "--size", "0.5GB", "--duration", "5s",
                  "--concurrency", "1", "--sweep", "1,2", "--json"])
    assert len(calls.pop("fluidsim.sweep")) == 1

    # what a harness reads from each call
    (args, kwargs, result), *_ = calls["fluidsim.simulate"]  # the pipeline's own call
    scenario = args[0] if args else kwargs["scenario"]
    assert isinstance(scenario, fluidsim.Scenario)
    assert sum(len(interval.client_ids) for interval in result.trace) > 0

    assert next(iter(inspect.signature(write_jsonl).parameters)) == "target"
    (args, kwargs, _), = calls["records.write_jsonl"]
    target = args[0] if args else kwargs["target"]
    assert target == str(tmp_path / "log.jsonl")

    (_, _, result), = calls["records.read_jsonl"]
    assert len(result[1]) == RECORDS
