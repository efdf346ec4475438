"""In-memory spans, and wrappers that time streamscore's public functions.

Spans are recorded from the benchmark's own files only: ``instrument``
replaces each layer function named in ``LAYER_FUNCTIONS`` wherever a
streamscore module binds it (``cli`` imports some names directly), so a
traced call of ``streamscore.cli.main`` (see replay.py) yields one span per
library call below one span per CLI command. Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field, replace, fields
from pathlib import Path

LAYER_FUNCTIONS = (
    ("fluidsim", "simulate"),
    ("fluidsim", "sweep"),
    ("records", "write_jsonl"),
    ("records", "read_jsonl"),
    ("analysis", "build_report"),
    ("analysis", "write_report"),
    ("model", "decide"),
)

CLI_SPAN = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    root: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one benchmark run; they share the run id."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else None
        span = Span(name, time.perf_counter(), parent, root, attrs=dict(attrs))
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans recorded by another process below span ``parent``.

        ``time.perf_counter`` is the system-wide monotonic clock on Linux, so
        the other process's times need no shift.
        """
        offset = len(self.spans)
        root = self.spans[parent].root if self.spans[parent].root is not None else parent
        for span in spans:
            own_parent = span["parent"]
            self.spans.append(Span(
                name=span["name"],
                start=span["start"],
                end=span["end"],
                parent=parent if own_parent is None else offset + own_parent,
                root=root,
                attrs=span["attrs"],
            ))

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def to_json(self) -> list[dict]:
        return [
            {
                "run_id": self.run_id,
                "id": index,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                **span.attrs,
            }
            for index, span in enumerate(self.spans)
        ]


def _interval_ids(interval) -> int:
    ids = getattr(interval, "client_ids", None)
    if ids is not None:
        return len(ids)
    return interval.last_id - interval.first_id + 1  # (first_id, last_id) range form


def _bottleneck_key(scenario) -> str:
    # parallel flows split a client's share without changing the bottleneck
    if any(f.name == "parallel_flows" for f in fields(scenario)):
        scenario = replace(scenario, parallel_flows=1)
    return repr(scenario)


def _observe(name: str, span: Span, args: tuple, kwargs: dict, result) -> None:
    if name == "fluidsim.simulate":
        span.attrs["intervals"] = len(result.trace)
        span.attrs["trace_ids"] = sum(_interval_ids(iv) for iv in result.trace)
        span.attrs["scenario"] = _bottleneck_key(args[0] if args else kwargs["scenario"])
    elif name == "records.write_jsonl":
        target = args[0] if args else kwargs["target"]
        if isinstance(target, (str, Path)):
            span.attrs["bytes"] = os.path.getsize(target)
    elif name == "records.read_jsonl":
        span.attrs["records"] = len(result[1])


def _wrap(recorder: Recorder, name: str, fn):
    measure_alloc = name == "fluidsim.simulate"

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        alloc = measure_alloc and tracemalloc.is_tracing()
        if alloc:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
        if alloc:
            span.attrs["peak_alloc_mb"] = (tracemalloc.get_traced_memory()[1] - before) / 1e6
        _observe(name, span, args, kwargs, result)
        return result

    return timed


@contextmanager
def instrument(recorder: Recorder):
    """Time every layer function while the block runs, then restore them."""
    importlib.import_module("streamscore.cli")
    modules = [
        module
        for module_name, module in list(sys.modules.items())
        if module is not None and (module_name == "streamscore" or module_name.startswith("streamscore."))
    ]
    patches = []
    for module_name, function_name in LAYER_FUNCTIONS:
        original = getattr(importlib.import_module(f"streamscore.{module_name}"), function_name)
        wrapper = _wrap(recorder, f"{module_name}.{function_name}", original)
        for module in modules:
            for attr in [a for a, value in vars(module).items() if value is original]:
                patches.append((module, attr, original))
                setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)


def replay_totals(recorder: Recorder, root: int) -> dict:
    """Per-layer sums over the spans below one replay root span."""
    own = recorder.self_times()
    totals: dict = {"library_s": 0.0, "scenarios": set()}
    for index, span in enumerate(recorder.spans):
        if span.root != root:
            continue
        parent = recorder.spans[span.parent] if span.parent is not None else None
        if parent is not None and parent.name == CLI_SPAN:
            totals["library_s"] += span.duration
        if span.name == CLI_SPAN:
            continue
        key = span.name
        totals[f"{key}.calls"] = totals.get(f"{key}.calls", 0) + 1
        totals[f"{key}.self_s"] = totals.get(f"{key}.self_s", 0.0) + own[index]
        for attr, value in span.attrs.items():
            if attr == "scenario":
                totals["scenarios"].add(value)
            elif isinstance(value, (int, float)):
                if attr == "peak_alloc_mb":
                    totals[f"{key}.{attr}"] = max(totals.get(f"{key}.{attr}", 0.0), value)
                else:
                    totals[f"{key}.{attr}"] = totals.get(f"{key}.{attr}", 0) + value
    return totals
