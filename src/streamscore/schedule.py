"""The offered load shared by the simulator and the live harness.

``LoadSpec`` (spawn window and rate, bytes and flows per client, spawn mode)
is the base of ``fluidsim.Scenario`` and ``loadgen.ClientRunConfig`` and the
one place a load is defaulted and validated, so a simulated and a measured run
of one load spawn on the same offsets and echo the same load keys. It alone
fixes the whole bytes per client, a client count bounded by ``MAX_CLIENTS``
and a whole flow count bounded by ``MAX_FLOWS``.
"""

from __future__ import annotations

import math
from array import array
from enum import Enum
from itertools import repeat
from operator import floordiv, truediv

from ._frozen import frozen

# a simulated client costs ~16 B of peak RSS below load 1 and ~24 B over it (10^6 scheduled clients peak at
# 32 MB at load 0.8 and 40 MB at load 1.12), so a run at the ceiling peaks near 95 MB, or 130 MB overloaded
MAX_CLIENTS = 5_000_000
MAX_FLOWS = 1024  # a sanity bound on flows per client: a larger count is a typo, not a load


class SpawnMode(Enum):
    SIMULTANEOUS = "simultaneous"  # whole batches at each second: congestion spikes
    SCHEDULED = "scheduled"  # evenly spaced clients: reservation-like smoothness

    @classmethod
    def parse(cls, value: str | SpawnMode) -> SpawnMode:
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            raise ValueError(
                f"mode must be 'simultaneous' or 'scheduled', got {value!r}"
            ) from None


@frozen(kw_only=True)
class LoadSpec:
    """One run's offered load; both backends take it as their base."""

    duration: float  # seconds of client spawning
    concurrency: float  # clients per second
    transfer_bytes: int  # whole bytes per client; an integral float is stored as an int
    parallel_flows: int = 1  # whole flows per client; an integral float is stored as an int
    mode: SpawnMode = SpawnMode.SIMULTANEOUS

    def __post_init__(self) -> None:
        for name in ("duration", "concurrency"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0 <= self.transfer_bytes < 2**63:  # a record's int64 bytes (records.check_row)
            raise ValueError(f"transfer_bytes must be in [0, 2**63), got {self.transfer_bytes}")
        if not float(self.transfer_bytes).is_integer():
            raise ValueError(f"transfer_bytes must be whole bytes, got {self.transfer_bytes}")
        object.__setattr__(self, "transfer_bytes", int(self.transfer_bytes))
        if not (1 <= (flows := self.parallel_flows) <= MAX_FLOWS and flows == int(flows)):
            raise ValueError(f"parallel_flows must be a whole number in [1, {MAX_FLOWS}], got {flows}")
        object.__setattr__(self, "parallel_flows", int(flows))
        if not 1 <= (count := self.client_count) <= MAX_CLIENTS:
            raise ValueError(f"client count must be 1 to {MAX_CLIENTS}, got {count:.10g}")

    @property
    def client_count(self) -> int | float:
        """ceil(concurrency) clients at each whole second in [0, duration) when
        simultaneous, one every 1/concurrency s when scheduled; inf on overflow."""
        if self.mode is SpawnMode.SIMULTANEOUS:
            # float factors: an overflowing product is inf, not a huge int
            span = float(math.ceil(self.concurrency)) * math.ceil(self.duration - 1e-9)
        else:
            span = self.duration * self.concurrency - 1e-9
        return math.ceil(span) if span < math.inf else span

    def spawn_times(self) -> array[float]:
        """Spawn times (seconds from run start) for every client in the run, as float64.

        Client k spawns at ``k // ceil(concurrency)`` when simultaneous and at
        ``k / concurrency`` when scheduled; the map runs in C, with no list of boxed floats.
        """
        ids = range(self.client_count)
        if self.mode is SpawnMode.SIMULTANEOUS:
            return array("d", map(float, map(floordiv, ids, repeat(math.ceil(self.concurrency)))))
        return array("d", map(truediv, ids, repeat(self.concurrency)))

    def load_echo(self) -> dict:
        """The load keys every run header carries, in log order."""
        return {
            "duration": self.duration,
            "concurrency": self.concurrency,
            "parallel_flows": self.parallel_flows,
            "transfer_bytes": self.transfer_bytes,
            "mode": self.mode.value,
        }
