"""Small-N reference oracle for the fluid simulator.

This is the original O(active)-per-event loop: it drains every active
client's residual bytes at each event and stores the sorted active id tuple
in every interval. It is slow under overload but obviously correct, so the
property tests check the linear-time core in ``streamscore.fluidsim``
against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from streamscore.fluidsim import _EVENT_EPS, AllocationInterval, Scenario
from streamscore.records import FlowTable


@dataclass(frozen=True)
class ReferenceResult:
    records: FlowTable
    trace: tuple[AllocationInterval, ...]
    utilization: float
    max_fct: float


def simulate_reference(scenario: Scenario) -> ReferenceResult:
    """Run the event loop to the last completion and collect flow records.

    The clock ``t`` counts seconds from ``origin``, the activation that
    opened the current busy period, as the fast loop's does; a client's FCT
    is ``startup + (t_done - (activation - origin))``.
    """
    spawns = scenario.spawn_times()
    capacity = scenario.link.effective_rate
    startup = scenario.startup
    residual_eps = scenario.transfer_bytes * 1e-12

    # (activation, client_id); offsets are already non-decreasing
    pending: list[tuple[float, int]] = [
        (spawn + startup, cid) for cid, spawn in enumerate(spawns)
    ]
    next_pending = 0
    active: dict[int, float] = {}
    fcts: dict[int, float] = {}
    trace: list[AllocationInterval] = []

    origin, t = pending[0][0], 0.0

    def admit(now: float) -> None:
        nonlocal next_pending
        while next_pending < len(pending) and pending[next_pending][0] - origin <= now + _EVENT_EPS:
            active[pending[next_pending][1]] = scenario.transfer_bytes
            next_pending += 1

    admit(t)
    while active or next_pending < len(pending):
        if not active:
            # idle link: the next activation opens a busy period
            origin, t = pending[next_pending][0], 0.0
            admit(t)
            continue

        n = len(active)
        rate = capacity / n
        min_residual = min(active.values())
        # multiply before dividing keeps equal-share completions exact
        finish_dt = min_residual * n / capacity
        t_finish = t + finish_dt
        t_arrival = pending[next_pending][0] - origin if next_pending < len(pending) else math.inf

        ids = tuple(sorted(active))
        if t_arrival < t_finish - _EVENT_EPS:
            drained = capacity * (t_arrival - t) / n
            for cid in active:
                active[cid] -= drained
            trace.append(AllocationInterval(origin + t, origin + t_arrival, ids, rate))
            t = t_arrival
            admit(t)
        else:
            for cid in active:
                active[cid] -= min_residual
            trace.append(AllocationInterval(origin + t, origin + t_finish, ids, rate))
            t = t_finish
            done = sorted(cid for cid, left in active.items() if left <= residual_eps)
            for cid in done:
                fcts[cid] = startup + (t - (pending[cid][0] - origin))
                del active[cid]
            admit(t)

    n = len(spawns)
    fct = tuple(fcts[cid] for cid in range(n))
    records = FlowTable(
        client_id=tuple(range(n)),
        spawn_s=tuple(spawns),
        complete_s=tuple(spawn + done for spawn, done in zip(spawns, fct)),
        fct_s=fct,
        bytes=(scenario.transfer_bytes,) * n,
        flows=(scenario.parallel_flows,) * n,
        error=(None,) * n,
    )

    # carried utilization: the records' bytes over raw bandwidth x [0, last completion]
    last_complete = max(records.complete_s)
    utilization = min(1.0, sum(records.bytes) / (scenario.link.bandwidth * last_complete))

    return ReferenceResult(
        records=records,
        trace=tuple(trace),
        utilization=utilization,
        max_fct=max(records.fct_s),
    )
