"""Line coverage of src/streamscore under the Tier-1 selection, the CLI children included.

Run from the root of a checkout (stdlib only; pytest runs the tests):

    python3 tests/coverage.py --out coverage.json

One line collector records each line of ``src/streamscore`` that runs:
``sys.settrace`` for the main thread and ``threading.settrace`` for every
thread started later. pytest runs the ``TIER1`` selection of
``tests/mutation.py`` in this process, so the two tools test the same
subset. Each Python child the tests start (``python -m streamscore``,
``python -c ...``) inherits a ``PYTHONPATH`` whose first entry holds a
generated ``sitecustomize.py``: it loads this file, starts the same
collector, and writes the child's hits at exit through ``atexit``, which
``cli.run``'s ``gc.freeze()`` leaves in place. A child started with ``-S``
skips ``site`` and is not followed.

A file's executable lines are the line starts of its compiled code objects;
a missed line is one that no process ran. Every missed line must be listed
in ``LISTED`` with its class and reason, and every listed line must be
missed; a ``LISTED`` key names a function and the text of one line in it,
and must match exactly one executable line. The script exits 1 when a
line breaks either rule, when a test fails, or when the collector is no
longer the installed tracer at the end (another tracer, such as
Hypothesis's explain phase, replaced it, so its hits are incomplete).

The file name keeps it out of pytest's default collection (``test_*.py``).
"""

from __future__ import annotations

import dis
import json
import os
import sys
import threading

# each line that no Tier-1 test runs, by file, function (co_qualname) and text: (class, reason)
_ACCEPT_FAILS = ("accept() fails only when the peer resets before the server accepts it, or when the "
                 "process has no descriptor free; neither can be made on loopback without lowering the "
                 "test process's descriptor limit, which every other test shares")
LISTED: dict[tuple[str, str, str], tuple[str, str]] = {
    ("loadgen.py", "TransferServer._accept", "except OSError:"): ("host-fault", _ACCEPT_FAILS),
    ("loadgen.py", "TransferServer._accept",
     "continue  # the peer left first, or no descriptor is free until one closes"): ("host-fault", _ACCEPT_FAILS),
}


class Collector:
    """Line hits of the code objects whose file lies under ``root``."""

    def __init__(self, root: str):
        self.root = root
        self.hits: dict[str, set[int]] = {}
        self._left: dict = {}  # code object -> its line starts not yet hit

    def _trace_call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.root):
            return None
        left = self._left.get(code)
        if left is None:
            left = self._left[code] = {line for _, line in dis.findlinestarts(code) if line is not None}
        if not left:  # every line of this code has run: trace its frames no more
            return None
        self._hit(code, frame.f_lineno, left)
        return self._trace_line

    def _trace_line(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            left = self._left[code]
            self._hit(code, frame.f_lineno, left)
            if not left:
                return None
        return self._trace_line

    def _hit(self, code, line: int, left: set) -> None:
        left.discard(line)
        self.hits.setdefault(code.co_filename, set()).add(line)

    def start(self) -> None:
        threading.settrace(self._trace_call)
        sys.settrace(self._trace_call)

    def installed(self) -> bool:
        """Whether this collector is still the tracer of this thread and of new threads."""
        mine = self._trace_call
        return sys.gettrace() == mine and threading.gettrace() == mine

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


def follow_child(root: str, out_dir: str) -> None:
    """Start a collector in this (child) process and write its hits to ``out_dir`` at exit."""
    import atexit

    collector = Collector(root)

    def dump() -> None:
        doc = {
            "pid": os.getpid(),
            "argv": sys.argv,
            "tracer_installed": collector.installed(),
            "hits": {name: sorted(lines) for name, lines in collector.hits.items()},
        }
        path = os.path.join(out_dir, f"child-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    atexit.register(dump)
    collector.start()


_SITECUSTOMIZE = """\
import importlib.util
_spec = importlib.util.spec_from_file_location("_streamscore_coverage", {tool!r})
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
_module.follow_child({root!r}, {out_dir!r})
"""


def executable_lines(path: str) -> dict[int, str]:
    """The line starts of every code object compiled from ``path``, each with the
    qualified name of the innermost code object that holds it (a ``def`` line
    starts both the enclosing code and the function's own)."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    owner: dict[int, tuple[int, str]] = {}  # line -> (first line of its code, qualname)
    while todo:
        code = todo.pop()
        for _, line in dis.findlinestarts(code):
            if line is not None and owner.get(line, (-1,))[0] < code.co_firstlineno:
                owner[line] = (code.co_firstlineno, code.co_qualname)
        todo.extend(const for const in code.co_consts if isinstance(const, type(code)))
    return {line: qualname for line, (_, qualname) in owner.items()}


class _Outcomes:
    """A pytest plugin that counts the test outcomes of the run."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.failed: list[str] = []

    def pytest_runtest_logreport(self, report):
        if report.when == "call" or report.outcome != "passed":
            self.counts[report.outcome] = self.counts.get(report.outcome, 0) + 1
            if report.failed:
                self.failed.append(report.nodeid)


def main(argv: list[str] | None = None) -> int:
    import argparse
    import contextlib
    import platform
    import tempfile
    import time
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the JSON here (default: stdout)")
    args = parser.parse_args(argv)
    out = Path(args.out).resolve() if args.out else None  # before the chdir below

    root_dir = Path(__file__).resolve().parent.parent
    src = root_dir / "src"
    package = str(src / "streamscore") + os.sep
    sys.path.insert(0, str(root_dir / "tests"))
    from mutation import TIER1

    os.chdir(root_dir)
    sys.path.insert(0, str(src))
    with tempfile.TemporaryDirectory(prefix="streamscore-coverage-") as tmp:
        site_dir, dump_dir = Path(tmp, "site"), Path(tmp, "children")
        site_dir.mkdir()
        dump_dir.mkdir()
        (site_dir / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(
            tool=str(Path(__file__).resolve()), root=package, out_dir=str(dump_dir)), encoding="utf-8")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(site_dir), str(src), os.environ.get("PYTHONPATH"))))

        import pytest

        outcomes = _Outcomes()
        collector = Collector(package)
        started = time.monotonic()
        collector.start()
        try:
            with contextlib.redirect_stdout(sys.stderr):  # stdout is the JSON's
                status = pytest.main(["-q", "-p", "no:cacheprovider", *TIER1], plugins=[outcomes])
        finally:
            installed = collector.installed()
            collector.stop()
        seconds = round(time.monotonic() - started, 1)

        hits = {name: set(lines) for name, lines in collector.hits.items()}
        children = []
        for dump in sorted(dump_dir.iterdir()):
            child = json.loads(dump.read_text(encoding="utf-8"))
            children.append(child)
            for name, lines in child["hits"].items():
                hits.setdefault(name, set()).update(lines)

    files, missed, unlisted = {}, [], []
    matches = dict.fromkeys(LISTED, 0)  # executable lines that each listed key names
    seen_listed = set()
    for path in sorted(Path(package).glob("*.py")):
        lines = executable_lines(str(path))
        ran = hits.get(str(path), set()) & lines.keys()
        files[path.name] = {"executable": len(lines), "ran": len(ran)}
        text = path.read_text(encoding="utf-8").splitlines()
        for line, qualname in lines.items():
            key = (path.name, qualname, text[line - 1].strip())
            if key in matches:
                matches[key] += 1
        for line in sorted(lines.keys() - ran):
            key = (path.name, lines[line], text[line - 1].strip())
            kind, reason = LISTED.get(key, ("unlisted", None))
            if key in LISTED:
                seen_listed.add(key)
            else:
                unlisted.append(f"{path.name}:{line}")
            missed.append({"file": f"src/streamscore/{path.name}", "line": line, "function": key[1],
                           "text": key[2], "class": kind, "reason": reason})
    stale = [f"{name}: {qualname}: {text}" for name, qualname, text in LISTED
             if (name, qualname, text) not in seen_listed]
    stale.extend(f"{name}: {qualname}: {text} (listed line found {count} times)"
                 for (name, qualname, text), count in matches.items() if count != 1)
    children_lost = [child["argv"] for child in children if not child["tracer_installed"]]

    doc = {
        "method": "one sys.settrace/threading.settrace line collector over src/streamscore while "
                  "pytest runs the tier1 subset in-process; each Python child the tests start loads "
                  "the same collector from a generated sitecustomize.py and writes its hits at exit",
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation()},
        "subset": {"name": "tier1", "pytest_args": TIER1},
        "tests": {"exit": int(status), "outcomes": outcomes.counts, "failed": outcomes.failed,
                  "seconds": seconds},
        "tracer_installed_at_end": installed,
        "children": {"followed": len(children),
                     "ran_streamscore": sum(1 for child in children if child["hits"]),
                     "tracer_lost": children_lost},
        "files": files,
        "summary": {"executable": sum(f["executable"] for f in files.values()),
                    "ran": sum(f["ran"] for f in files.values()),
                    "missed": len(missed), "unlisted": unlisted, "stale_listed": stale},
        "missed": missed,
    }
    text = json.dumps(doc, indent=1) + "\n"
    if out:
        out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    problems = []
    if status != 0:
        problems.append(f"the tests did not pass (pytest exit {int(status)})")
    if not installed:
        problems.append("the collector was replaced as the tracer before the tests ended")
    if children_lost:
        problems.append(f"{len(children_lost)} children lost the collector")
    if unlisted:
        problems.append(f"missed lines not listed: {unlisted}")
    if stale:
        problems.append(f"listed lines that ran or are gone: {stale}")
    for problem in problems:
        print(f"coverage: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
