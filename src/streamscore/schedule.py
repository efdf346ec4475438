"""The offered load shared by the simulator and the live harness.

``LoadSpec`` (spawn window and rate, bytes and flows per client, spawn mode)
is the base of ``fluidsim.Scenario`` and ``loadgen.ClientRunConfig``, so a
simulated and a measured run of one load spawn on the same offsets and echo
the same load keys: they are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class SpawnMode(Enum):
    SIMULTANEOUS = "simultaneous"  # whole batches at each second: congestion spikes
    SCHEDULED = "scheduled"  # evenly spaced clients: reservation-like smoothness

    @classmethod
    def parse(cls, text: str) -> SpawnMode:
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(
                f"mode must be 'simultaneous' or 'scheduled', got {text!r}"
            ) from None


def spawn_offsets(mode: SpawnMode, concurrency: float, duration: float) -> list[float]:
    """Spawn times (seconds from run start) for every client in a run.

    Simultaneous mode launches ceil(concurrency) clients at each whole second
    in [0, duration); scheduled mode spaces single clients 1/concurrency
    apart over the same window.
    """
    if concurrency <= 0:
        raise ValueError(f"concurrency must be > 0, got {concurrency}")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    if not (math.isfinite(concurrency) and math.isfinite(duration)):
        raise ValueError(f"concurrency and duration must be finite, got {concurrency}, {duration}")

    if mode is SpawnMode.SIMULTANEOUS:
        batch = math.ceil(concurrency)
        n_batches = math.ceil(duration - 1e-9)
        return [float(second) for second in range(n_batches) for _ in range(batch)]

    count = math.ceil(duration * concurrency - 1e-9)
    return [k / concurrency for k in range(count)]


@dataclass(frozen=True, kw_only=True)
class LoadSpec:
    """One run's offered load; both backends take it as their base."""

    duration: float  # seconds of client spawning
    concurrency: float  # clients per second
    transfer_bytes: float  # bytes per client
    parallel_flows: int = 1
    mode: SpawnMode = SpawnMode.SIMULTANEOUS

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if self.concurrency <= 0:
            raise ValueError(f"concurrency must be > 0, got {self.concurrency}")
        if self.transfer_bytes < 0:
            raise ValueError(f"transfer_bytes must be >= 0, got {self.transfer_bytes}")
        if self.parallel_flows <= 0:
            raise ValueError(f"parallel_flows must be > 0, got {self.parallel_flows}")

    def spawn_times(self) -> list[float]:
        return spawn_offsets(self.mode, self.concurrency, self.duration)

    def load_echo(self) -> dict:
        """The load keys every run header carries, in log order."""
        return {
            "duration": self.duration,
            "concurrency": self.concurrency,
            "parallel_flows": self.parallel_flows,
            "transfer_bytes": self.transfer_bytes,
            "mode": self.mode.value,
        }
