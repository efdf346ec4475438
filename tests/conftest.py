from __future__ import annotations

import socket
from contextlib import closing

from hypothesis import settings

# fixed examples and no per-example deadline: property tests give the same
# verdict on every run and on every machine
settings.register_profile("streamscore", derandomize=True, max_examples=100, deadline=None)
settings.load_profile("streamscore")


def find_free_port_block(count: int, start: int = 15201, end: int = 64000) -> int:
    """First base port such that [base, base+count) are all bindable."""
    base = start
    while base + count < end:
        ok = True
        for port in range(base, base + count):
            with closing(socket.socket(socket.AF_INET, socket.SOCK_STREAM)) as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                try:
                    sock.bind(("127.0.0.1", port))
                except OSError:
                    ok = False
                    break
        if ok:
            return base
        base += count + 1
    raise RuntimeError("no free port block found")
