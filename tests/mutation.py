"""Mutation check: apply each registered mutant to a copy of src/ and count the tests that kill it.

Run from the root of a checkout (stdlib only; pytest runs the tests):

    python3 tests/mutation.py --out mutation.json
    python3 tests/mutation.py --mutant status-error-agreement-dropped

Each mutant is one exact ``(file, old text, new text)`` edit under
``src/streamscore``; the old text must occur exactly once, so a registry that
has gone stale fails loudly instead of testing nothing. For each mutant the
script copies ``src/`` to a temporary directory, applies the edit, and runs
the ``tier1`` test subset from this checkout's ``tests/`` against the
copy (``PYTHONPATH`` points at it, so subprocesses the tests start import it
too). A test that fails or errors kills the mutant; the JSON counts them and
names each one. The unmutated copy runs the subset first: a test that fails
there is reported, and does not count as a kill. The method is DeMillo,
Lipton and Sayward, "Hints on Test Data Selection" (IEEE Computer, 1978).

The file name keeps it out of pytest's default collection (``test_*.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600  # a mutant that hangs the suite counts as killed by a timeout

# the two spawn-gap tests miss their 10 ms tolerance now and then on a busy
# host whatever the code; a kill must never be a timing miss
_SPAWN_GAP_TESTS = (
    "tests/test_acceptance.py::test_criterion_6_loadgen_loopback",
    "tests/test_loadgen.py::test_scheduled_spawn_gaps_within_10ms",
)
TIER1 = ["tests", *(f"--deselect={test}" for test in _SPAWN_GAP_TESTS)]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/streamscore
    old: str
    new: str
    origin: str  # the change whose notes list it


EXACT_LOAD = "one exact load: whole bytes, a bounded client count, a busy-period clock"
ONE_COPY = "one copy of each fact: the failure marker, the port pool, the remote total"
COLD_START = "a leaner cold start: rare-path imports deferred; finite theta, typed log numbers, strict JSON"
TYPED = "typed-array flow columns: 8 bytes a number; a null delay total and a strict report encoder"
ONE_NUMBER = "one definition per number: offered load, carried utilization, the remote total"
ONE_LOAD = "one load description, stated once: shared flags, spec-only defaults, one validation site"
ENTRY = "one process entry point: the heap frozen once the command is done; no flag silently dropped"
ONE_FCT = "one copy of each FCT: the CDF alone in report.json, the log headers beside it; no id set"
ACTIVE = "a simulator that keeps only what it returns: no per-client lists, the trace replayed on read"
SHARED = "record classes that compile one method: five shared frozen methods; a trace written as it is made"
COVERED = "every src line runs under Tier-1, or goes: each deleted re-check's earlier check, and the new guards"
ONE_IDIOM = "every bound in one idiom that NaN fails; an overflowed case-study row is an error row; one trace replay"
INT64 = "int64 client ids from the simulator and the log reader; int64 bytes in a load; a named transfer overflow"
ONE_DOC = "one document per command: each text table rendered from the checked document; exact byte counts"
ZERO_COPY = "a zero-copy live harness: the payload sent by sendfile and discarded by MSG_TRUNC; errors name their cause"
ONE_COMPARISON = "one run comparison for both --compare commands, built and checked before simulate writes a file"
_COMPARE_BLOCK = (
    "    if args.compare:  # read before --out is written, which may be the same file\n"
    "        measured = read_jsonl(args.compare)[1]\n"
    '        doc["comparison"] = analysis.compare_runs(result.records, measured, ("simulated", "measured"))\n'
)
_RENDER_LINE = "    output = _render(doc, _simulate_table, args)  # checked before any file: a log of inf FCTs is not JSON\n"
_LOG_WRITE = (
    "    if args.out:\n"
    '        write_jsonl(args.out, result.records, run_meta={**base.config_echo(), "started_unix_ms": started_unix_ms})\n'
)
_TRACE_WRITE = (
    "    if args.trace:\n"
    '        analysis.write_csv(args.trace, ("start_s", "end_s", "first_client", "end_client", "rate_Bps"),\n'
    "                           result.replay)\n"
)
MUTANTS = (
    # --- named in the notes of the change that made one definition per number ---
    Mutant("offered-load-over-raw-bandwidth", "model.py",
           "return rate / link.effective_rate", "return rate / link.bandwidth", ONE_NUMBER),
    Mutant("carried-utilization-over-effective-rate", "model.py",
           "capacity = link.bandwidth * last_complete_s", "capacity = link.effective_rate * last_complete_s",
           ONE_NUMBER),
    Mutant("utilization-not-clamped", "model.py",
           "return min(fraction, 1.0)", "return fraction", ONE_NUMBER),
    Mutant("overflowed-figure-kept", "analysis.py",
           "return value if math.isfinite(value) else None", "return value", ONE_NUMBER),
    Mutant("overflowed-mean-not-recomputed", "analysis.py",
           "if mean == math.inf:", "if False:", ONE_NUMBER),
    Mutant("fct-check-dropped", "records.py",
           "if not -slack <= fct_s - (complete_s - spawn_s) <= slack:", "if False:", ONE_NUMBER),
    Mutant("log-bytes-unbounded", "records.py",
           "if not 0 <= nbytes < 2**63:", "if not 0 <= nbytes:", ONE_NUMBER),
    Mutant("decide-feasibility-line-moved", "model.py",
           "offered_load(needed, link) > 1:", "offered_load(needed, link) > 1.1:", ONE_NUMBER),
    Mutant("case-study-feasibility-line-moved", "casestudy.py",
           "    if row.offered_load > 1:\n", "    if row.offered_load > 1.1:\n", ONE_NUMBER),
    Mutant("model-breakdown-ignores-worst", "cli.py",
           "decision = decide(workload, link, compute, io, args.tiers, worst_case_transfer=args.worst)",
           "decision = decide(workload, link, compute, io, args.tiers)", ONE_NUMBER),
    Mutant("simulated-bytes-counted-per-flow", "fluidsim.py",
           "float(scenario.transfer_bytes) * len(spawns),",
           "float(scenario.transfer_bytes) * len(spawns) * scenario.parallel_flows,", ONE_NUMBER),
    Mutant("sweep-load-over-raw-bandwidth", "fluidsim.py",
           "load = offered_load(concurrency * base.transfer_bytes, base.link)",
           "load = concurrency * base.transfer_bytes / base.link.bandwidth", ONE_NUMBER),
    # --- named in the notes of the change that stated one load description once ---
    Mutant("infinite-duration-or-concurrency-accepted", "schedule.py",
           "if not (value > 0 and math.isfinite(value)):", "if not value > 0:", ONE_LOAD),
    Mutant("infinite-transfer-bytes-accepted", "schedule.py",
           "if not 0 <= self.transfer_bytes < 2**63:", "if not 0 <= self.transfer_bytes:", ONE_LOAD),
    Mutant("clamp-warns-on-rounding", "model.py",
           "if fraction > 1.0 + 1e-9:", "if fraction > 1.0:", ONE_LOAD),
    Mutant("clamp-tolerance-1e-6", "model.py",
           "if fraction > 1.0 + 1e-9:", "if fraction > 1.0 + 1e-6:", ONE_LOAD),
    Mutant("clamp-fraction-fixed-point", "model.py",
           '"utilization %.10g exceeds', '"utilization %.4f exceeds', ONE_LOAD),
    Mutant("clamp-window-fixed-point", "model.py",
           "(window %.6gs)", "(window %.3fs)", ONE_LOAD),
    Mutant("missing-flag-check-off", "cli.py",
           "    if missing:\n        raise UsageError(", "    if False:\n        raise UsageError(", ONE_LOAD),
    Mutant("cli-default-on-pool-size", "cli.py",
           'pool.add_argument("--pool-size", type=int)', 'pool.add_argument("--pool-size", type=int, default=4)',
           ONE_LOAD),
    Mutant("cli-default-on-parallel", "cli.py",
           'load.add_argument("--parallel", type=int,', 'load.add_argument("--parallel", type=int, default=2,',
           ONE_LOAD),
    Mutant("cli-default-on-transfer-timeout", "cli.py",
           'p_run.add_argument("--transfer-timeout", type=_seconds)',
           'p_run.add_argument("--transfer-timeout", type=_seconds, default=60.0)', ONE_LOAD),
    Mutant("cli-default-on-bind", "cli.py",
           'p_serve.add_argument("--bind")', 'p_serve.add_argument("--bind", default="0.0.0.0")', ONE_LOAD),
    Mutant("scenario-reader-restates-load-defaults", "fluidsim.py",
           "    return Scenario(\n        link=link_from_mapping(flat),\n",
           '    flat = {"parallel_flows": 2, "mode": "scheduled", **flat}\n'
           "    return Scenario(\n        link=link_from_mapping(flat),\n", ONE_LOAD),
    Mutant("link-reader-restates-alpha-default", "model.py",
           "return LinkSpec(**{key: read(raw[key]) for key, read in readers.items() if key in raw})",
           'return LinkSpec(**{"alpha": 0.8, **{key: read(raw[key]) for key, read in readers.items() '
           "if key in raw}})", ONE_LOAD),
    Mutant("null-startup-read-as-zero", "fluidsim.py",
           "lambda value: None if value is None else coerce_quantity(value, parse_seconds)",
           "lambda value: coerce_quantity(value or 0, parse_seconds)", ONE_LOAD),
    Mutant("quantity-parsed-as-float", "quantities.py",
           "return _EXACT.multiply(Decimal(number), factor), dimension",
           "return Decimal(float(number) * float(factor)), dimension", ONE_LOAD),
    # --- named in the notes of the change that made one exact load ---
    Mutant("origin-not-reset-at-idle-restart", "fluidsim.py",
           "            origin = start = activation\n",
           "            start = activation\n", EXACT_LOAD),
    Mutant("fct-from-absolute-clock", "fluidsim.py",
           "add_fct(startup + (t - (spawns[lo] + startup - origin)))",
           "add_fct(startup + ((origin + t) - (spawns[lo] + startup)))", EXACT_LOAD),
    Mutant("client-ceiling-exclusive", "schedule.py",
           "(count := self.client_count) <= MAX_CLIENTS:",
           "(count := self.client_count) < MAX_CLIENTS:", EXACT_LOAD),
    Mutant("client-ceiling-plus-one", "schedule.py",
           "(count := self.client_count) <= MAX_CLIENTS:",
           "(count := self.client_count) <= MAX_CLIENTS + 1:", EXACT_LOAD),
    Mutant("whole-bytes-check-dropped", "schedule.py",
           "        if not float(self.transfer_bytes).is_integer():\n",
           "        if False:\n", EXACT_LOAD),
    Mutant("client-count-checked-after-spawn-times", "schedule.py",
           "        if not 1 <= (count := self.client_count) <= MAX_CLIENTS:\n",
           "        self.spawn_times()\n        if not 1 <= (count := self.client_count) <= MAX_CLIENTS:\n",
           EXACT_LOAD),
    # --- error alone marks a failure ---
    Mutant("status-error-agreement-dropped", "records.py",
           'if not (status == "ok" if error is None else status == "error" and isinstance(error, str)):',
           "if False:", ONE_COPY),
    Mutant("non-string-error-accepted", "records.py",
           'status == "error" and isinstance(error, str)', 'status == "error"', ONE_COPY),
    Mutant("failure-written-as-ok", "records.py",
           """'"ok"' if e is None else '"error", "error": '""",
           """'"ok"' if e is None else '"ok", "error": '""", ONE_COPY),
    Mutant("empty-error-counted-as-success", "records.py",
           "[error is None for error in self.error]", "[not error for error in self.error]",
           ONE_COPY),
    Mutant("analyze-empty-log-check-inverted", "cli.py",
           "if None not in records.error:", "if not records.error:", ONE_COPY),
    Mutant("measure-run-counts-no-failures", "cli.py",
           '"failures": len(records) - records.error.count(None),', '"failures": 0,', ONE_COPY),
    # --- one port pool ---
    Mutant("client-config-skips-port-pool-check", "loadgen.py",
           "        PortPool.__post_init__(self)\n", "", ONE_COPY),
    Mutant("every-client-on-the-first-port", "loadgen.py",
           "port = ports[client_id % len(ports)]", "port = ports[0]", ONE_COPY),
    # --- the remote total is computed ---
    Mutant("theta-nan-accepted", "model.py",
           "if not 1 <= self.theta < math.inf:", "if self.theta < 1 or self.theta == math.inf:",
           ONE_COPY),
    Mutant("breakdown-nan-part-accepted", "model.py",
           "if not getattr(self, name) >= 0:  # NaN too", "if getattr(self, name) < 0:  # NaN too", ONE_COPY),
    Mutant("breakdown-total-summed-in-another-order", "model.py",
           "self.transfer_s + self.io_s + self.remote_s", "self.transfer_s + self.remote_s + self.io_s",
           ONE_COPY),
    # --- whole numbers, overflow and the flow ceiling ---
    Mutant("log-counts-truncated", "records.py",
           "if (whole := int(value)) != value:", "if (whole := int(value)) is None:", ONE_COPY),
    Mutant("log-flows-unbounded", "records.py",
           "if not 1 <= flows <= MAX_FLOWS:", "if not 1 <= flows:", ONE_COPY),
    Mutant("fractional-flow-count-accepted", "schedule.py",
           " and flows == int(flows)):", "):", ONE_COPY),
    Mutant("flow-ceiling-exclusive", "schedule.py",
           "(flows := self.parallel_flows) <= MAX_FLOWS", "(flows := self.parallel_flows) < MAX_FLOWS",
           ONE_COPY),
    Mutant("overflow-not-caught", "quantities.py",
           "    except OverflowError:\n", "    except ZeroDivisionError:\n", ONE_COPY),
    # --- a leaner cold start ---
    Mutant("logging-imported-with-the-model", "model.py",
           "import math\nfrom dataclasses", "import logging\nimport math\nfrom dataclasses", COLD_START),
    Mutant("csv-imported-with-the-analysis", "analysis.py",
           "import json\nimport math\n", "import csv\nimport json\nimport math\n", COLD_START),
    Mutant("typing-imported-with-the-records", "records.py",
           "from io import TextIOBase\n", "from typing import IO as TextIOBase\n", COLD_START),
    Mutant("theta-inf-accepted", "model.py",
           "if not 1 <= self.theta < math.inf:", "if not self.theta >= 1:", COLD_START),
    Mutant("string-time-accepted", "records.py",
           "if value.__class__ is not int:", "if False:", COLD_START),
    Mutant("boolean-count-accepted", "records.py",
           "if value.__class__ is not float:", "if False:", COLD_START),
    Mutant("json-allows-nan", "cli.py",
           "json.dumps(doc, indent=2, allow_nan=False)", "json.dumps(doc, indent=2)", COLD_START),
    Mutant("model-sss-not-mapped-to-null", "cli.py",
           '"sss": None if sss_value is None else analysis.finite_or_none(sss_value),', '"sss": sss_value,',
           COLD_START),
    Mutant("simulate-sss-not-mapped-to-null", "cli.py",
           '{**summary, "sss": analysis.finite_or_none(summary["sss"])}', "summary", COLD_START),
    Mutant("compare-ratio-not-mapped-to-null", "analysis.py",
           "else finite_or_none(getattr(a_stats, name) / denom)", "else getattr(a_stats, name) / denom",
           COLD_START),
    Mutant("sweep-sss-not-mapped-to-null", "cli.py",
           '{**analysis.row_dict(row), "sss": analysis.finite_or_none(row.sss)}', "analysis.row_dict(row)",
           COLD_START),
    # --- typed-array flow columns ---
    Mutant("times-stored-as-float32", "records.py",
           '"spawn_s": "d", "complete_s": "d", "fct_s": "d"', '"spawn_s": "f", "complete_s": "f", "fct_s": "f"',
           TYPED),
    Mutant("simulated-fcts-stored-as-float32", "fluidsim.py",
           'fcts = array("d")  #', 'fcts = array("f")  #', TYPED),
    Mutant("typed-coercion-skipped", "records.py",
           "            elif not (column.__class__ is array and column.typecode == code):\n",
           "            elif False:\n", TYPED),
    Mutant("reader-columns-boxed", "records.py",
           "return meta, FlowTable(*columns)", "return meta, FlowTable(*map(tuple, columns))", TYPED),
    Mutant("simulated-fcts-kept-as-tuple", "fluidsim.py",
           "        fcts=fcts,\n", "        fcts=tuple(fcts),\n", TYPED),
    Mutant("fct-slack-ignores-negative-times", "records.py",
           "-complete_s if complete_s < -1.0 else 1.0", "1.0", TYPED),
    Mutant("fct-check-one-sided", "records.py",
           "if not -slack <= fct_s - (complete_s - spawn_s) <= slack:",
           "if not fct_s - (complete_s - spawn_s) <= slack:", TYPED),
    # --- the delay total and the report encoder ---
    Mutant("delay-total-not-mapped-to-null", "analysis.py",
           '"total_s": finite_or_none(total_delay(d)),', '"total_s": total_delay(d),', TYPED),
    Mutant("report-json-allows-nan", "analysis.py",
           '"cdf": "\\x00cdf"}, indent=2, allow_nan=False)', '"cdf": "\\x00cdf"}, indent=2)', TYPED),
    Mutant("report-json-fallback-allows-nan", "analysis.py",
           "return json.dumps(report, indent=2, allow_nan=False)", "return json.dumps(report, indent=2)",
           TYPED),
    Mutant("report-array-allows-nan", "analysis.py",
           "json.dumps(cdf[start:start + _CHUNK], allow_nan=False)",
           "json.dumps(cdf[start:start + _CHUNK])", TYPED),
    Mutant("report-chunks-joined-unindented", "analysis.py",
           'body = ("," + pad[1]).join(', 'body = ", ".join(', TYPED),
    Mutant("report-written-without-final-newline", "analysis.py",
           'fh.writelines((text, "\\n"))', "fh.writelines((text,))", TYPED),
    # --- one process entry point ---
    Mutant("freeze-in-main", "cli.py",
           "        return args.func(args)\n", "        status = args.func(args)\n        __import__(\"gc\").freeze()\n"
           "        return status\n", ENTRY),
    Mutant("run-skips-the-freeze", "cli.py",
           "    gc.freeze()\n    raise SystemExit(status)\n", "    raise SystemExit(status)\n", ENTRY),
    Mutant("gc-imported-with-the-cli", "cli.py",
           "import dataclasses\nimport json\n", "import dataclasses\nimport gc\nimport json\n", ENTRY),
    Mutant("python-m-calls-main", "__main__.py",
           "from .cli import run\n\nif __name__ == \"__main__\":\n    run()\n",
           "from .cli import main\n\nif __name__ == \"__main__\":\n    raise SystemExit(main())\n", ENTRY),
    # --- an empty list and a flag the mode never reads ---
    Mutant("empty-list-accepted", "cli.py",
           "    if not parts:\n", "    if False:\n", ENTRY),
    Mutant("sweep-list-skips-the-empty-check", "cli.py",
           "return [float(part) for part in _parts(text)]",
           'return [float(part) for part in text.split(",") if part.strip()]', ENTRY),
    Mutant("parallel-list-skips-the-empty-check", "cli.py",
           "return [int(part) for part in _parts(text)]",
           'return [int(part) for part in text.split(",") if part.strip()]', ENTRY),
    Mutant("tiers-skip-the-empty-check", "cli.py",
           "TierPolicy.from_deadlines([parse_seconds(part) for part in _parts(text)])",
           'TierPolicy.from_deadlines([parse_seconds(part) for part in text.split(",") if part.strip()])',
           ENTRY),
    Mutant("sweep-ignores-compare", "cli.py",
           'for flag in ("compare", "trace"):', 'for flag in ("trace",):', ENTRY),
    Mutant("parallel-list-without-sweep-dropped", "cli.py",
           "    if args.parallel_list is not None and args.sweep is None:\n", "    if False:\n", ENTRY),
    # --- one copy of each FCT, and the reader without its id set ---
    Mutant("reader-in-order-test-admits-equal", "records.py",
           "if client_id > last:", "if client_id >= last:", ONE_FCT),
    Mutant("reader-id-set-seeded-empty", "records.py",
           "seen, last = set(columns[0]), math.inf", "seen, last = set(), math.inf", ONE_FCT),
    Mutant("reader-id-set-skips-later-ascending-ids", "records.py",
           "seen, last = set(columns[0]), math.inf", "seen = set(columns[0])", ONE_FCT),
    Mutant("cdf-spliced-at-the-wrong-depth", "analysis.py",
           "for depth in (1, 2, 3)]", "for depth in (2, 3, 4)]", ONE_FCT),
    Mutant("report-drops-the-log-header", "cli.py",
           "run=run, comparison_run=compare_run)", "run=None, comparison_run=compare_run)", ONE_FCT),
    Mutant("report-drops-the-comparison-header", "cli.py",
           "run=run, comparison_run=compare_run)", "run=run, comparison_run=None)", ONE_FCT),
    Mutant("model-infeasible-without-local-rate-dropped", "cli.py",
           "if decision.choice is Choice.INFEASIBLE else None", "if False else None", ONE_FCT),
    Mutant("sweep-requires-concurrency", "cli.py",
           "        args.concurrency = args.sweep[0]", "        pass", ONE_FCT),
    Mutant("sweep-concurrency-ignored-silently", "cli.py",
           "        if args.concurrency is not None:  #", "        if False:  #", ONE_FCT),
    # --- the simulator keeps its columns and a count; the trace is replayed ---
    Mutant("activation-without-startup-in-fct", "fluidsim.py",
           "add_fct(startup + (t - (spawns[lo] + startup - origin)))",
           "add_fct(startup + (t - (spawns[lo] - origin)))", ACTIVE),
    Mutant("simultaneous-batch-not-rounded-up", "schedule.py",
           "repeat(math.ceil(self.concurrency))", "repeat(self.concurrency)", ACTIVE),
    Mutant("replay-drops-completion-rows", "fluidsim.py",
           "                emit((start, origin + t_finish, lo, hi, rate))\n",
           "                pass\n", ACTIVE),
    Mutant("trace-written-with-sweep", "cli.py",
           'for flag in ("compare", "trace"):', 'for flag in ("compare",):', ACTIVE),
    Mutant("parallel-with-parallel-list-dropped", "cli.py",
           "    if args.parallel_list is not None and args.parallel is not None:\n", "    if False:\n", ACTIVE),
    Mutant("run-header-not-checked-as-object", "records.py",
           "                if not isinstance(meta, dict):\n", "                if False:\n", ACTIVE),
    # --- the shared frozen methods, and the satellites that came with them ---
    Mutant("frozen-eq-without-class-test", "_frozen.py",
           "    if other.__class__ is not self.__class__:\n        return NotImplemented\n", "", SHARED),
    Mutant("frozen-hash-ignores-hash-false", "_frozen.py",
           "if (f.compare if f.hash is None else f.hash)", "if f.compare", SHARED),
    Mutant("frozen-setattr-allows-a-second-assignment", "_frozen.py",
           "if name in self.__dataclass_fields__ and name not in self.__dict__:",
           "if name in self.__dataclass_fields__:", SHARED),
    Mutant("frozen-repr-ignores-repr-flags", "_frozen.py",
           "for f in fields(self) if f.repr)", "for f in fields(self))", SHARED),
    Mutant("frozen-delattr-deletes", "_frozen.py",
           '    raise FrozenInstanceError(f"cannot delete field {name!r}")\n',
           "    object.__delattr__(self, name)\n", SHARED),
    Mutant("trace-built-before-it-is-written", "cli.py",
           "                           result.replay)",
           "                           [(i.start, i.end, i.client_ids.start, i.client_ids.stop, i.rate_per_client)"
           " for i in result.trace])", SHARED),
    Mutant("scenario-flow-count-wins-over-parallel-list", "cli.py",
           "parallel_values = args.parallel_list or [base.parallel_flows]",
           "parallel_values = [base.parallel_flows] if args.scenario else args.parallel_list or [base.parallel_flows]", SHARED),
    Mutant("breakdown-part-check-dropped", "model.py",
           "            if not getattr(self, name) >= 0:  # NaN too", "            if False:  # NaN too", SHARED),
    Mutant("casestudy-error-row-text-dropped", "cli.py",
           """            lines.append(f"  error        {row['error']}")\n""", "", SHARED),
    Mutant("casestudy-extrapolated-tag-dropped", "cli.py",
           '            worst += " (extrapolated)"', "            pass", SHARED),
    Mutant("closed-connection-taken-as-ack", "loadgen.py",
           "            if ack != ACK:", "            if ack and ack != ACK:", SHARED),
    Mutant("wrong-reply-reported-as-missing", "loadgen.py",
           '"missing acknowledgment" if not ack else f"unexpected reply {ack!r}"', '"missing acknowledgment"', SHARED),
    # --- the earlier checks the deleted re-checks relied on ---
    Mutant("fct-stats-empty-check-dropped", "analysis.py",
           "    if not sorted_fcts:\n", "    if False:\n", COVERED),
    Mutant("case-study-empty-curve-accepted", "casestudy.py",
           "        if not self.worst_fct_curve:\n", "        if False:\n", COVERED),
    Mutant("load-flow-lower-bound-dropped", "schedule.py",
           "if not (1 <= (flows := self.parallel_flows) <= MAX_FLOWS",
           "if not ((flows := self.parallel_flows) <= MAX_FLOWS", COVERED),
    Mutant("load-negative-bytes-accepted", "schedule.py",
           "if not 0 <= self.transfer_bytes < 2**63:", "if not self.transfer_bytes < 2**63:", COVERED),
    Mutant("check-row-negative-fct-accepted", "records.py",
           "if not 0 <= fct_s < math.inf:", "if not fct_s < math.inf:", COVERED),
    # --- a zero effective rate, NaN inputs and a cut payload ---
    Mutant("link-rate-underflow-accepted", "model.py",
           "        if not self.alpha * self.bandwidth > 0:", "        if False:", COVERED),
    Mutant("link-nan-bandwidth-accepted", "model.py",
           "if not self.bandwidth > 0:", "if self.bandwidth <= 0:", COVERED),
    Mutant("workflow-nan-throughput-accepted", "casestudy.py",
           "if not self.throughput > 0:", "if self.throughput <= 0:", COVERED),
    Mutant("workflow-nan-compute-accepted", "casestudy.py",
           "if not self.compute >= 0:", "if self.compute < 0:", COVERED),
    Mutant("curve-worst-fct-unchecked", "casestudy.py",
           "        if any(not 0 <= worst < math.inf for _, worst in self.worst_fct_curve):\n",
           "        if False:\n", COVERED),
    Mutant("cut-payload-acknowledged", "loadgen.py",
           "socket.MSG_TRUNC)\n                        if not got:\n                            return\n",
           "socket.MSG_TRUNC)\n                        if not got:\n                            break\n", COVERED),
    # --- each folded bound back in a form that NaN passes ---
    Mutant("workload-nan-size-accepted", "model.py",
           'for name in ("unit_size", "complexity"):\n            if not (value := getattr(self, name)) >= 0:',
           'for name in ("unit_size", "complexity"):\n            if (value := getattr(self, name)) < 0:', ONE_IDIOM),
    Mutant("compute-nan-rate-accepted", "model.py",
           'for name in ("remote_rate", "local_rate"):\n            if not (value := getattr(self, name)) > 0:',
           'for name in ("remote_rate", "local_rate"):\n            if (value := getattr(self, name)) <= 0:', ONE_IDIOM),
    Mutant("link-nan-rtt-accepted", "model.py",
           "if not self.rtt >= 0:", "if self.rtt < 0:", ONE_IDIOM),
    Mutant("delay-nan-part-accepted", "model.py",
           '"prop_s"):\n            if not getattr(self, name) >= 0:',
           '"prop_s"):\n            if getattr(self, name) < 0:', ONE_IDIOM),
    Mutant("tier-nan-deadline-accepted", "model.py",
           "if any(not d > 0 for d in deadlines):", "if any(d <= 0 for d in deadlines):", ONE_IDIOM),
    Mutant("scan-nan-field-accepted", "model.py",
           '"files"):\n            if not (value := getattr(self, name)) > 0:',
           '"files"):\n            if (value := getattr(self, name)) <= 0:', ONE_IDIOM),
    Mutant("scenario-nan-startup-accepted", "fluidsim.py",
           "and not self.startup_latency >= 0:", "and self.startup_latency < 0:", ONE_IDIOM),
    Mutant("port-pool-nan-size-accepted", "loadgen.py",
           "if not self.pool_size > 0:", "if self.pool_size <= 0:", ONE_IDIOM),
    Mutant("client-nan-timeout-accepted", "loadgen.py",
           "if not (self.connect_timeout > 0 and self.transfer_timeout > 0):",
           "if self.connect_timeout <= 0 or self.transfer_timeout <= 0:", ONE_IDIOM),
    # --- an overflowed case-study row, and the simulate header's clock ---
    Mutant("case-study-overflow-unchecked", "casestudy.py",
           "    if not all(map(math.isfinite, [worst, *filter(None, rates)])):\n", "    if False:\n", ONE_IDIOM),
    Mutant("case-study-rate-overflow-unchecked", "casestudy.py",
           "[worst, *filter(None, rates)]", "[worst]", ONE_IDIOM),
    Mutant("error-row-drops-its-offered-load", "casestudy.py",
           "results.append(replace(row, error=str(exc)))",
           "results.append(WorkflowResult(name=row.name, throughput=row.throughput, error=str(exc)))", ONE_IDIOM),
    Mutant("simulate-stamped-after-the-run", "cli.py",
           "    started_unix_ms = int(time.time() * 1000)  # before the run, as loadgen stamps before its first spawn\n"
           "    result = fluidsim.simulate(base)\n",
           "    result = fluidsim.simulate(base)\n"
           "    started_unix_ms = int(time.time() * 1000)  # before the run, as loadgen stamps before its first spawn\n",
           ONE_IDIOM),
    # --- int64 client ids, a load's bytes bounded as a record's, and an overflowing transfer named ---
    Mutant("client-id-column-boxed", "records.py", '"client_id": "q", ', "", INT64),
    Mutant("reader-id-bound-dropped", "records.py",
           "                if not 0 <= client_id < 2**63:  # an int64 column, as bytes\n",
           "                if False:\n", INT64),
    Mutant("reader-id-bound-inclusive", "records.py",
           "if not 0 <= client_id < 2**63:", "if not 0 <= client_id <= 2**63:", INT64),
    Mutant("reader-negative-id-accepted", "records.py",
           "if not 0 <= client_id < 2**63:", "if not client_id < 2**63:", INT64),
    Mutant("load-byte-bound-dropped", "schedule.py",
           "if not 0 <= self.transfer_bytes < 2**63:", "if not 0 <= self.transfer_bytes < math.inf:", INT64),
    Mutant("load-byte-bound-inclusive", "schedule.py",
           "if not 0 <= self.transfer_bytes < 2**63:", "if not 0 <= self.transfer_bytes <= 2**63:", INT64),
    Mutant("transfer-overflow-blamed-on-io", "model.py",
           "        if self.transfer_s == math.inf:", "        if False:", INT64),
    # --- one document per command, and exact byte counts ---
    Mutant("model-sss-rendered-outside-the-document", "cli.py",
           'rows.append(("sss", _fmt(doc["sss"])))',
           'rows.append(("sss", _fmt(args.worst / theoretical_transfer_time(args.size, LinkSpec(args.bw, args.alpha)))))',
           ONE_DOC),
    Mutant("text-form-unchecked", "cli.py",
           "    text = _json(doc)\n    return text if args.json else table(doc)\n",
           "    return _json(doc) if args.json else table(doc)\n", ONE_DOC),
    Mutant("model-text-unchecked", "cli.py",
           "_write_or_print(_render(doc, lambda doc: _model_table(doc, args), args), args.out)",
           "_write_or_print(_json(doc) if args.json else _model_table(doc, args), args.out)", ONE_DOC),
    Mutant("sweep-rows-unchecked-in-text", "cli.py",
           "output = _render(doc, _sweep_table, args)", "output = _json(doc) if args.json else _sweep_table(doc)",
           ONE_DOC),
    Mutant("simulate-log-written-before-the-check", "cli.py",
           _RENDER_LINE + _LOG_WRITE, _LOG_WRITE + _RENDER_LINE, ONE_DOC),
    Mutant("case-study-overflowed-load-kept", "casestudy.py",
           "offered_load=load if load < math.inf else None)", "offered_load=load)", ONE_DOC),
    Mutant("byte-count-read-as-a-float", "quantities.py",
           "return int(exact) if 0 <= exact < 2**64 and exact == int(exact) else size",
           "return int(size) if size == int(size) and size < 2**64 else size", ONE_DOC),
    # --- the payload out of a page-cache file and into no buffer; flag and figure errors named ---
    Mutant("pattern-offset-not-wrapped", "loadgen.py",
           "os.sendfile(sock.fileno(), pattern, sent % _CHUNK,", "os.sendfile(sock.fileno(), pattern, sent,",
           ZERO_COPY),
    Mutant("payload-copied-into-the-sink", "loadgen.py",
           "min(remaining, _CHUNK), socket.MSG_TRUNC)", "min(remaining, _CHUNK))", ZERO_COPY),
    Mutant("flag-error-reason-dropped", "cli.py",
           "            raise argparse.ArgumentTypeError(str(exc)) from None\n", "            raise\n", ZERO_COPY),
    Mutant("overflow-error-names-no-figure", "cli.py",
           """        raise ValueError(f"{path.lstrip('.')} must be finite, got {value}") from None\n""",
           "        raise\n", ZERO_COPY),
    Mutant("overflow-path-list-index-as-a-key", "cli.py",
           'f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"', 'f"{path}.{key}"', ZERO_COPY),
    # --- one comparison block for both --compare commands, built before simulate writes a file ---
    Mutant("simulate-compare-labels-swapped", "cli.py",
           '("simulated", "measured"))', '("measured", "simulated"))', ONE_COMPARISON),
    Mutant("comparison-stats-under-the-other-label", "analysis.py",
           "{labels[0]: asdict(a_stats), labels[1]: asdict(b_stats),",
           "{labels[1]: asdict(a_stats), labels[0]: asdict(b_stats),", ONE_COMPARISON),
    Mutant("analyze-ratios-row-dropped", "cli.py",
           '*tiers, *_ratios_row(report["comparison"])])', "*tiers])", ONE_COMPARISON),
    Mutant("simulate-log-written-before-the-comparison", "cli.py",
           _COMPARE_BLOCK + _RENDER_LINE + _LOG_WRITE, _LOG_WRITE + _COMPARE_BLOCK + _RENDER_LINE, ONE_COMPARISON),
    Mutant("simulate-trace-written-before-the-comparison", "cli.py",
           _COMPARE_BLOCK + _RENDER_LINE + _LOG_WRITE + _TRACE_WRITE,
           _TRACE_WRITE + _COMPARE_BLOCK + _RENDER_LINE + _LOG_WRITE, ONE_COMPARISON),
    Mutant("analyze-rtt-check-dropped", "cli.py",
           "    if args.link_bw is None and args.rtt is not None:\n", "    if False:\n", ONE_COMPARISON),
)


def mutated(mutant: Mutant, src: Path) -> str:
    """The mutant's file under ``src`` with its edit made; the old text must occur exactly once."""
    text = (src / "streamscore" / mutant.file).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"mutant {mutant.name}: old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def run_tier1(src: Path, report: Path) -> dict:
    """Run ``TIER1`` against ``src``; the tests that failed or errored, and how many ran."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            f"--junitxml={report}", *TIER1]
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ran": None, "failed": ["<timeout>"], "exit": None,
                "seconds": round(time.monotonic() - started, 1)}
    failed, ran = [], 0
    if report.exists():
        for case in ET.parse(report).getroot().iter("testcase"):
            ran += 1
            if case.find("failure") is not None or case.find("error") is not None:
                failed.append(f"{case.get('classname')}::{case.get('name')}")
    elif proc.returncode:
        failed.append(f"<pytest exit {proc.returncode}: {proc.stderr.strip()[-300:]}>")
    return {"ran": ran, "failed": failed, "exit": proc.returncode,
            "seconds": round(time.monotonic() - started, 1)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the JSON here (default: stdout)")
    parser.add_argument("--mutant", action="append", help="run only this mutant (repeatable)")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.mutant or m.name in args.mutant]
    unknown = set(args.mutant or ()) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")

    with tempfile.TemporaryDirectory(prefix="streamscore-mutation-") as tmp:
        work = Path(tmp)
        clean = work / "clean"
        shutil.copytree(ROOT / "src", clean, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        for mutant in chosen:  # every registered edit must still apply before any run
            mutated(mutant, clean)
        baseline = run_tier1(clean, work / "clean.xml")
        print(f"baseline: {baseline['ran']} tests, {len(baseline['failed'])} failed "
              f"in {baseline['seconds']} s", file=sys.stderr)
        flaky = set(baseline["failed"])

        results = []
        for mutant in chosen:
            copy = work / "mutant"
            shutil.copytree(clean, copy)
            (copy / "streamscore" / mutant.file).write_text(mutated(mutant, clean), encoding="utf-8")
            outcome = run_tier1(copy, work / "mutant.xml")
            shutil.rmtree(copy)
            (work / "mutant.xml").unlink(missing_ok=True)
            killers = [test for test in outcome["failed"] if test not in flaky]
            results.append({
                "name": mutant.name, "origin": mutant.origin, "file": f"src/streamscore/{mutant.file}",
                "old": mutant.old, "new": mutant.new,
                "tests_run": outcome["ran"], "killed_by": len(killers), "killing_tests": killers,
                "seconds": outcome["seconds"],
            })
            print(f"{mutant.name}: killed by {len(killers)}", file=sys.stderr)

    survivors = [r["name"] for r in results if not r["killed_by"]]
    doc = {
        "method": "each mutant applied alone to a fresh copy of src/; a test that fails or errors "
                  "in the tier1 subset kills it; tests failing on the unmutated copy are not counted",
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation()},
        "subset": {"name": "tier1", "pytest_args": TIER1},
        "baseline": baseline,
        "mutants": results,
        "summary": {"mutants": len(results), "killed": len(results) - len(survivors),
                    "survivors": survivors,
                    "single_kill": [r["name"] for r in results if r["killed_by"] == 1]},
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
