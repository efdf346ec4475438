"""Replays streamscore CLI commands in one fresh process, timing every layer.

Started by workloads.Bench.replay in a workload's directory, with ``src/``
on PYTHONPATH. Reads ``[[label, argv], ...]`` as JSON on stdin and writes
``{"rcs": [...], "spans": [...]}`` on stdout. A fresh process keeps the
library's heap and caches as cold as in the CLI child it is compared with.
With ``--alloc`` every command runs under tracemalloc, which slows it, so
those spans are used for peak allocation only.
"""

import contextlib
import dataclasses
import io
import json
import sys
import tracemalloc

from spans import CLI_SPAN, Recorder, instrument
from streamscore import cli


def main() -> None:
    alloc = "--alloc" in sys.argv[1:]
    recorder = Recorder()
    rcs = []
    with instrument(recorder):
        for label, argv in json.load(sys.stdin):
            if alloc:
                tracemalloc.start()
            try:
                with recorder.span(CLI_SPAN, command=label), contextlib.redirect_stdout(io.StringIO()):
                    rcs.append(cli.main(argv))
            finally:
                if alloc:
                    tracemalloc.stop()
    spans = [dataclasses.asdict(span) for span in recorder.spans]
    json.dump({"rcs": rcs, "spans": spans}, sys.stdout)


if __name__ == "__main__":
    main()
