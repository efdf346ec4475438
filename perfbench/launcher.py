"""Starts, signals and reaps the benchmark's program children.

A child's ``ru_maxrss`` starts at the resident size of the process that
started it, so the driver, which parses large outputs and replays commands
in-process, would inflate every child's peak RSS. This small process does
the fork, exec and ``wait4`` instead and reports the kernel's figures.

Protocol: one JSON request per stdin line, one JSON reply per stdout line.

    {"op": "spawn", "id": k, "argv": [...], "stdout": path|null, "stderr": path,
     "first_line_timeout": s|null}   -> {"pid", "line", "line_s"}
    {"op": "run", ...same as spawn, "timeout": s}  -> spawn and wait replies merged
    {"op": "signal", "id": k, "signal": n}         -> {}
    {"op": "wait", "id": k, "timeout": s}          -> {"rc", "wall_s", "cpu_s", "rss_kib", "timed_out"}

On end of input every child still running is killed and reaped.
"""

import json
import os
import select
import subprocess
import sys
import threading
import time

children = {}  # id -> (Popen, start time)


def spawn(request):
    out = subprocess.PIPE if request["stdout"] is None else open(request["stdout"], "wb")
    with open(request["stderr"], "wb") as err:
        started = time.perf_counter()
        popen = subprocess.Popen(request["argv"], stdout=out, stderr=err)
    if out is not subprocess.PIPE:
        out.close()
    children[request["id"]] = (popen, started)
    reply = {"pid": popen.pid, "line": None, "line_s": None}
    if request.get("first_line_timeout") is not None:
        ready, _, _ = select.select([popen.stdout], [], [], request["first_line_timeout"])
        reply["line"] = popen.stdout.readline().decode(errors="replace") if ready else ""
        reply["line_s"] = time.perf_counter() - started
    return reply


def wait(request):
    popen, started = children.pop(request["id"])
    expired = threading.Event()

    def kill():
        expired.set()
        popen.kill()

    timer = threading.Timer(request["timeout"], kill)
    timer.start()
    try:
        _, status, usage = os.wait4(popen.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - started
    popen.returncode = os.waitstatus_to_exitcode(status)
    if popen.stdout is not None:
        popen.stdout.close()
    return {
        "rc": popen.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kib": usage.ru_maxrss,
        "timed_out": expired.is_set(),
    }


def main():
    for line in sys.stdin:
        request = json.loads(line)
        op = request["op"]
        if op == "spawn":
            reply = spawn(request)
        elif op == "run":
            reply = spawn(request)
            reply.update(wait(request))
        elif op == "signal":
            children[request["id"]][0].send_signal(request["signal"])
            reply = {}
        elif op == "wait":
            reply = wait(request)
        else:
            reply = {"error": f"unknown op {op!r}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    for popen, _ in children.values():
        popen.kill()
        popen.wait()


if __name__ == "__main__":
    main()
