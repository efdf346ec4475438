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
MUTANTS = (
    # --- named in the notes of the change that made one exact load ---
    Mutant("origin-not-reset-at-idle-restart", "fluidsim.py",
           "            origin = start = activations[hi]\n",
           "            start = activations[hi]\n", EXACT_LOAD),
    Mutant("fct-from-absolute-clock", "fluidsim.py",
           "fcts[lo] = startup + (t - (activations[lo] - origin))",
           "fcts[lo] = startup + ((origin + t) - activations[lo])", EXACT_LOAD),
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
           "failures = len(records) - records.error.count(None)", "failures = 0", ONE_COPY),
    # --- one port pool ---
    Mutant("client-config-skips-port-pool-check", "loadgen.py",
           "        PortPool.__post_init__(self)\n", "", ONE_COPY),
    Mutant("every-client-on-the-first-port", "loadgen.py",
           "port = ports[client_id % len(ports)]", "port = ports[0]", ONE_COPY),
    # --- the remote total is computed ---
    Mutant("theta-nan-accepted", "model.py",
           "if not self.theta >= 1:", "if self.theta < 1:", ONE_COPY),
    Mutant("breakdown-nan-part-accepted", "model.py",
           "if not getattr(self, name) >= 0:", "if getattr(self, name) < 0:", ONE_COPY),
    Mutant("breakdown-total-summed-in-another-order", "model.py",
           "self.transfer_s + self.io_s + self.remote_s", "self.transfer_s + self.remote_s + self.io_s",
           ONE_COPY),
    # --- whole numbers, overflow and the flow ceiling ---
    Mutant("log-counts-truncated", "records.py",
           "if client_id != raw_id or nbytes != raw_bytes or flows != raw_flows:", "if False:",
           ONE_COPY),
    Mutant("log-flows-unbounded", "records.py",
           "if not 1 <= flows <= MAX_FLOWS:", "if not 1 <= flows:", ONE_COPY),
    Mutant("fractional-flow-count-accepted", "schedule.py",
           " and flows == int(flows)):", "):", ONE_COPY),
    Mutant("flow-ceiling-exclusive", "schedule.py",
           "(flows := self.parallel_flows) <= MAX_FLOWS", "(flows := self.parallel_flows) < MAX_FLOWS",
           ONE_COPY),
    Mutant("overflow-not-caught", "quantities.py",
           "    except OverflowError:\n", "    except ZeroDivisionError:\n", ONE_COPY),
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
