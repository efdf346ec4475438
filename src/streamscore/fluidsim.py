"""Deterministic fluid simulation of a single bottleneck link.

A ``Scenario`` is the shared ``schedule.LoadSpec`` plus a link and a startup
latency. Clients spawn on its schedule, wait out the startup, then share the
link's effective capacity equally (max-min fair at client granularity;
a client's parallel flows split its allocation, so they change nothing at
the bottleneck). Events are client activations and completions. The client
population is finite, so the run terminates even under overload.

Every client carries the same bytes and gets the same share, so clients
finish in activation order and the active set is always a contiguous id
range ``[lo, hi)``. The loop therefore keeps one service clock instead of
per-client residuals (generalized processor sharing virtual time): ``served``
counts the bytes every active client has received so far, an admitted client
is done when the clock reaches ``served + transfer_bytes`` at its admission,
and the next completion is always client ``lo``. Each event costs O(1), each
trace interval stores its clients as an id range, and a run costs
O(N + intervals) time and O(N) memory for N clients. Both clocks restart
when the link idles: ``t`` counts seconds from ``origin``, the activation
that opened the busy period, and an FCT is
``startup + (t_done - (activation - origin))``, so a client served alone
gets exactly ``startup + S/C`` at any spawn time.

``simulate`` keeps only what it returns: spawn and FCT times per client
(float64 arrays of 8 bytes a client) and the ``utilization``
(``model.carried_utilization`` of the records, as ``analyze`` reports it)
and ``max_fct`` summary. The loop holds only the
active clients' clock readings, in a deque, and computes a client's
activation from its spawn time when its turn comes, so its memory follows
the active set, not the run: 16.3 B a client at load 0.8 and 21.5 B at
load 1.12 (tracemalloc peak, 10^5 scheduled clients, CPython 3.11).
``SimResult.records`` (a ``FlowTable`` over the two columns, with no row
objects) is built on first read. ``SimResult.replay`` reruns the
deterministic loop and hands each absolute ``(start, end, lo, hi, rate)``
row to a sink as it is made, keeping none; ``SimResult.trace`` is one such
replay, kept as ``AllocationInterval`` objects on first read.
``sweep``, which reads only the summary, builds none of them.

Identical scenario inputs produce bit-identical results: the event loop is
single-threaded, events are ordered, and simultaneous completions resolve
in client-id order.
"""

from __future__ import annotations

import json
import math
import operator
from array import array
from collections import deque
from dataclasses import field, fields, replace
from functools import cached_property, partial
from pathlib import Path

from ._frozen import frozen
from .model import (LinkSpec, carried_utilization, link_from_mapping, offered_load,
                    streaming_speed_score, theoretical_transfer_time)
from .quantities import coerce_quantity, parse_byte_count, parse_seconds
from .records import FlowTable
from .schedule import LoadSpec, SpawnMode

# events closer than this are processed at the same instant
_EVENT_EPS = 1e-12


@frozen(kw_only=True)
class Scenario(LoadSpec):
    """One simulated load-generation run against a bottleneck link."""

    link: LinkSpec
    startup_latency: float | None = None  # None: one RTT, approximating connection setup

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.transfer_bytes <= 0:
            raise ValueError(f"transfer_bytes must be > 0, got {self.transfer_bytes}")
        if self.startup_latency is not None and not self.startup_latency >= 0:
            raise ValueError(f"startup_latency must be >= 0, got {self.startup_latency}")

    @property
    def startup(self) -> float:
        return self.link.rtt if self.startup_latency is None else self.startup_latency

    def config_echo(self) -> dict:
        return {
            "source": "fluidsim",
            "bandwidth": self.link.bandwidth,
            "alpha": self.link.alpha,
            "rtt": self.link.rtt,
            **self.load_echo(),
            "startup_latency": self.startup,
        }


@frozen
class AllocationInterval:
    """A span during which a fixed client set shared the link equally."""

    start: float
    end: float
    client_ids: range
    rate_per_client: float  # bytes/s


@frozen
class SimResult:
    """The event loop's columns and summary; record table and trace on demand.

    ``records`` and ``trace`` are built on first read and cached: ``trace``
    replays the deterministic loop, which returns the same rows on every
    run. Equality and hashing use the fields, not these views, and hashing
    skips the two arrays (the rest fixes them). A sweep reads neither view.
    """

    scenario: Scenario
    spawns: array[float] = field(hash=False)  # per client id
    fcts: array[float] = field(hash=False)
    utilization: float  # model.carried_utilization of the records
    max_fct: float

    @cached_property
    def records(self) -> FlowTable:
        n = len(self.spawns)
        return FlowTable(
            range(n), self.spawns, array("d", map(operator.add, self.spawns, self.fcts)), self.fcts,
            array("q", [self.scenario.transfer_bytes]) * n,
            array("q", [self.scenario.parallel_flows]) * n, (None,) * n,
        )

    def replay(self, emit) -> None:
        """Pass ``emit`` each ``(start, end, lo, hi, rate)`` row as the replayed loop makes it:
        clients ``range(lo, hi)`` at ``rate`` B/s each."""
        _run(self.scenario, emit)

    @cached_property
    def trace(self) -> tuple[AllocationInterval, ...]:
        trace: list[AllocationInterval] = []
        self.replay(lambda row: trace.append(AllocationInterval(row[0], row[1], range(row[2], row[3]), row[4])))
        return tuple(trace)

    def summary(self) -> dict:
        return {
            "utilization": self.utilization,
            "max_fct": self.max_fct,
            "sss": streaming_speed_score(
                self.max_fct,
                theoretical_transfer_time(self.scenario.transfer_bytes, self.scenario.link),
            ),
        }


def _run(scenario: Scenario, emit=None) -> tuple[array, array]:
    """The event loop's spawn and FCT columns; ``emit``, if given, gets each row."""
    spawns = scenario.spawn_times()
    capacity = scenario.link.effective_rate
    size = float(scenario.transfer_bytes)  # the loop's clock arithmetic stays in floats
    residual_eps = size * 1e-12
    startup = scenario.startup
    total = len(spawns)
    # service-clock readings at which the active clients are done, client lo first
    finish_at: deque[float] = deque()
    admit, retire = finish_at.append, finish_at.popleft
    fcts = array("d")  # clients complete in id order
    add_fct = fcts.append

    lo = hi = 0  # the active clients are range(lo, hi)
    # offsets are non-decreasing, so client ids are in activation order
    activation = spawns[0] + startup  # client hi's; inf once every client is admitted
    origin = start = t = served = 0.0  # start: origin + t; served: bytes each active client has had
    while lo < total:
        if lo == hi:  # idle link: a busy period opens, and both clocks restart at zero
            origin = start = activation
            t = served = 0.0
        while activation - origin <= t + _EVENT_EPS:
            admit(served + size)
            hi += 1
            activation = spawns[hi] + startup if hi < total else math.inf

        n = hi - lo
        rate = capacity / n
        # multiply before dividing keeps equal-share completions exact
        t_finish = t + (finish_at[0] - served) * n / capacity
        t_arrival = activation - origin

        if t_arrival < t_finish - _EVENT_EPS:
            served += capacity * (t_arrival - t) / n
            if emit is not None:
                emit((start, origin + t_arrival, lo, hi, rate))
            start = origin + t_arrival
            t = t_arrival
        else:
            served = finish_at[0]
            if emit is not None:
                emit((start, origin + t_finish, lo, hi, rate))
            start = origin + t_finish
            t = t_finish
            while lo < hi and finish_at[0] - served <= residual_eps:
                retire()
                add_fct(startup + (t - (spawns[lo] + startup - origin)))
                lo += 1
    return spawns, fcts


def simulate(scenario: Scenario) -> SimResult:
    """Run the event loop to the last completion and keep its columns and summary."""
    spawns, fcts = _run(scenario)
    return SimResult(
        scenario=scenario,
        spawns=spawns,
        fcts=fcts,
        # clients complete in id order, so the last one finishes the run
        utilization=carried_utilization(
            float(scenario.transfer_bytes) * len(spawns), spawns[-1] + fcts[-1], scenario.link
        ),
        max_fct=max(fcts),
    )


@frozen
class SweepRow:
    """One sweep point: a concurrency and flow count, and its simulated outcome."""

    concurrency: float
    parallel_flows: int
    mode: SpawnMode
    offered_load: float  # model.offered_load: offered bytes/s over alpha x B
    worst_fct: float
    sss: float
    utilization: float


def sweep(
    base: Scenario,
    concurrency_values: list[float],
    parallel_values: list[int],
) -> list[SweepRow]:
    """Simulate every concurrency x parallel-flows combination of a scenario.

    Parallel flows split a client's share without changing bottleneck
    sharing, so each distinct concurrency is simulated once and its outcome
    fills the rows of every flow count. Rows come back in input order
    (concurrency outer, parallel inner).
    """
    for flows in parallel_values:
        replace(base, parallel_flows=flows)  # the load spec rejects a bad flow count
    summaries: dict[float, dict] = {}
    rows = []
    for concurrency in concurrency_values:
        if concurrency not in summaries:
            summaries[concurrency] = simulate(replace(base, concurrency=concurrency)).summary()
        summary = summaries[concurrency]
        load = offered_load(concurrency * base.transfer_bytes, base.link)
        rows.extend(
            SweepRow(concurrency=concurrency, parallel_flows=flows, mode=base.mode, offered_load=load,
                     worst_fct=summary["max_fct"], sss=summary["sss"], utilization=summary["utilization"])
            for flows in parallel_values
        )
    return rows


# a scenario file holds the link's fields beside the scenario's own
_SCENARIO_KEYS = {f.name for f in fields(LinkSpec)} | (
    {f.name for f in fields(Scenario)} - {"link"}
)
_LOAD_READERS = {
    "duration": partial(coerce_quantity, parser=parse_seconds),
    "concurrency": coerce_quantity,
    "transfer_bytes": parse_byte_count,
    "parallel_flows": coerce_quantity,  # LoadSpec checks it is whole and in range
    "mode": SpawnMode.parse,
    # null, like a missing key, means one RTT
    "startup_latency": lambda value: None if value is None else coerce_quantity(value, parse_seconds),
}


def scenario_from_mapping(raw: dict, **overrides) -> Scenario:
    """Build a Scenario from parsed config data.

    Accepts nested {"link": {...}} or flattened link fields (a nested one
    wins); ``overrides`` win over both. String values go through the unit
    grammar, bare numbers are taken as SI, and a key left out takes its
    field's default.
    """
    flat = dict(raw)
    link_part = flat.pop("link", {})
    if not isinstance(link_part, dict):
        raise ValueError("'link' must be an object of link fields")
    flat.update(link_part, **overrides)

    unknown = set(flat) - _SCENARIO_KEYS
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    missing = {"bandwidth", "duration", "concurrency", "transfer_bytes"} - set(flat)
    if missing:
        raise ValueError(f"scenario is missing required fields: {sorted(missing)}")

    return Scenario(
        link=link_from_mapping(flat),
        **{key: read(flat[key]) for key, read in _LOAD_READERS.items() if key in flat},
    )


def read_scenario_file(path: Path | str) -> dict:
    """The raw mapping of a JSON or flat ``key = value`` scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        return json.loads(text)

    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        raw[key] = value
    return raw
