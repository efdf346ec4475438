"""Client spawn schedules shared by the simulator and the live harness.

Both consume the same offsets so a simulated run and a measured run of the
same config are directly comparable.
"""

from __future__ import annotations

import math
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
