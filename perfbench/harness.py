"""Process, statistics and provenance helpers shared by the workloads.

Every program run is ``python -m streamscore`` with ``src/`` of the
checkout on ``PYTHONPATH``, started and reaped by launcher.py with
``os.wait4``, so each one's CPU time and peak RSS come from the kernel's own
accounting, not from sampling.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

CHILD_TIMEOUT_S = 120.0


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark; no result is printed."""


def check_checkout() -> None:
    if not (SRC / "streamscore" / "__init__.py").is_file():
        raise SetupError(
            f"no streamscore sources under {SRC}; run from the root of a checkout"
        )


@dataclass
class Proc:
    """One finished (or still running) child of the benchmark."""

    label: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    rc: int | None = None
    failed_check: bool = False
    timed_out: bool = False
    out: Path | None = None
    err: Path | None = None
    index: int = -1
    pid: int = 0
    line: str | None = None  # first stdout line, when it was waited for
    line_s: float | None = None  # from spawn to that line

    @property
    def failed(self) -> bool:
        return self.failed_check or self.timed_out or self.rc != 0


@dataclass
class Checks:
    """Output checks, aggregated by name; a failure marks the checked child."""

    results: dict[str, list] = field(default_factory=dict)  # name -> [passed, total, first failure]
    unattached_failures: int = 0

    def record(self, name: str, ok: bool, detail: str = "", proc: Proc | None = None) -> bool:
        entry = self.results.setdefault(name, [0, 0, ""])
        entry[1] += 1
        if ok:
            entry[0] += 1
        else:
            entry[2] = entry[2] or detail
            if proc is not None:
                proc.failed_check = True
            else:
                self.unattached_failures += 1
        return ok

    @property
    def all_passed(self) -> bool:
        return all(passed == total for passed, total, _ in self.results.values())


def _program(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "streamscore", *argv]


class Runner:
    """Starts ``streamscore`` children through launcher.py and keeps every one.

    Wall, spawn, CPU and RSS figures are taken inside the launcher, so the
    round trip to it is not part of any of them.
    """

    def __init__(self, work: Path):
        self.work = work
        self.work.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.env = env
        self.procs: list[Proc] = []
        self.commands: list[str] = []
        self._launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=work, env=env, text=True,
        )

    def _call(self, request: dict) -> dict:
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        return json.loads(reply)

    def _request(self, op: str, label: str, command: list[str], **extra) -> tuple[Proc, dict]:
        if shlex.join(command) not in self.commands:
            self.commands.append(shlex.join(command))
        proc = Proc(label=label, err=self.work / f"{label}.err")
        if not extra.pop("pipe_stdout", False):
            proc.out = self.work / f"{label}.out"
        reply = self._call({
            "op": op, "id": len(self.procs), "argv": command,
            "stdout": None if proc.out is None else str(proc.out),
            "stderr": str(proc.err), **extra,
        })
        proc.index = len(self.procs)
        proc.pid = reply["pid"]
        proc.line, proc.line_s = reply["line"], reply["line_s"]
        self.procs.append(proc)
        return proc, reply

    @staticmethod
    def _reaped(proc: Proc, reply: dict) -> Proc:
        proc.rc = reply["rc"]
        proc.wall_s = reply["wall_s"]
        proc.cpu_s = reply["cpu_s"]
        proc.rss_mb = reply["rss_kib"] * 1024 / 1e6
        proc.timed_out = reply["timed_out"]
        return proc

    def run(self, label: str, argv: list[str]) -> Proc:
        """Run ``streamscore`` with these arguments to completion."""
        return self._reaped(*self._request("run", label, _program(argv), timeout=CHILD_TIMEOUT_S))

    def run_reference(self) -> Proc:
        """Run reference.py, the host-speed yardstick, to completion."""
        command = [sys.executable, str(Path(__file__).with_name("reference.py"))]
        return self._reaped(*self._request("run", "reference", command, timeout=CHILD_TIMEOUT_S))

    def spawn(self, label: str, argv: list[str], first_line_timeout: float | None = None) -> Proc:
        """Start ``streamscore``; with a timeout, wait for its first stdout line."""
        proc, _ = self._request(
            "spawn", label, _program(argv),
            pipe_stdout=first_line_timeout is not None,
            first_line_timeout=first_line_timeout,
        )
        return proc

    def signal(self, proc: Proc, signum: int) -> None:
        self._call({"op": "signal", "id": proc.index, "signal": signum})

    def finish(self, proc: Proc, timeout: float = CHILD_TIMEOUT_S) -> Proc:
        return self._reaped(proc, self._call({"op": "wait", "id": proc.index, "timeout": timeout}))

    def close(self) -> None:
        """End the launcher, which kills and reaps any child still running."""
        self._launcher.stdin.close()
        try:
            self._launcher.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._launcher.kill()
            self._launcher.wait()
        self._launcher.stdout.close()

    def stderr_tail(self, proc: Proc, lines: int = 3) -> str:
        try:
            text = proc.err.read_text(errors="replace").strip().splitlines()
        except OSError:
            return ""
        return " | ".join(text[-lines:])


class ThreadSampler(threading.Thread):
    """Polls ``Threads:`` in /proc/<pid>/status and keeps each pid's peak."""

    PERIOD_S = 0.005  # a loopback transfer takes 10-40 ms

    def __init__(self, pids: dict[str, int]):
        super().__init__(daemon=True)
        self.paths = {name: f"/proc/{pid}/status" for name, pid in pids.items()}
        self.peaks = {name: 0 for name in pids}
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(self.PERIOD_S):
            for name, path in self.paths.items():
                try:
                    with open(path) as fh:
                        for line in fh:
                            if line.startswith("Threads:"):
                                self.peaks[name] = max(self.peaks[name], int(line.split()[1]))
                                break
                except OSError:
                    pass  # the child already exited

    def stop(self) -> dict[str, int]:
        self._done.set()
        self.join(timeout=5.0)
        return self.peaks


def nearest_rank(ordered: list[float], percentile: float) -> float:
    return ordered[max(1, math.ceil(percentile * len(ordered) / 100)) - 1]


def tail(values: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile >= 50 with at least 10 samples beyond it.

    Returns (value, percentile, n). A sample too small for any such
    percentile reports its median, labelled p50.
    """
    ordered = sorted(values)
    n = len(ordered)
    for percentile in range(99, 49, -1):
        if n - math.ceil(percentile * n / 100) >= 10:
            return nearest_rank(ordered, percentile), percentile, n
    return statistics.median(ordered), 50, n


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def package_version() -> str | None:
    text = (SRC / "streamscore" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__\s*=\s*"([^"]+)"', text, re.MULTILINE)
    return match.group(1) if match else None


def provenance() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "package_version": package_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
