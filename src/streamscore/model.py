"""Completion-time model for the local-vs-remote processing decision.

Pure functions over immutable specs: transfer and compute times, the file
I/O overhead coefficient, the Streaming Speed Score, deadline tiers, and the
stream-vs-file-transfer comparison, offered load and carried utilization.
All quantities are SI (bytes, bytes/s, FLOP, FLOP/s, seconds), and a
``LinkSpec`` read from config data takes its own defaults. A ``TimeBreakdown``
computes its total from its parts, so no stored total can disagree with
them. No shared state and no I/O but the ``logging`` warning of a
utilization clamped past rounding, the one place that imports ``logging``.
"""

from __future__ import annotations

import math
from dataclasses import field
from enum import Enum
from functools import partial

from ._frozen import frozen
from .quantities import coerce_quantity, parse_rate, parse_seconds

DEFAULT_TIERS: tuple[tuple[str, float], ...] = (
    ("Tier 1", 1.0),
    ("Tier 2", 10.0),
    ("Tier 3", 60.0),
)


@frozen
class WorkloadSpec:
    """One data unit produced by an instrument and the compute it demands."""

    unit_size: float  # bytes per data unit
    complexity: float = 0.0  # FLOP per byte
    generation_interval: float | None = None  # seconds between units

    def __post_init__(self) -> None:
        for name in ("unit_size", "complexity"):
            if not (value := getattr(self, name)) >= 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.generation_interval is not None and not self.generation_interval > 0:
            raise ValueError(f"generation_interval must be > 0, got {self.generation_interval}")

    @property
    def work(self) -> float:
        """Total compute demand per data unit, in FLOP."""
        return self.complexity * self.unit_size

    @property
    def required_stream_rate(self) -> float | None:
        """Sustained bytes/s needed to keep up with generation, if paced."""
        if self.generation_interval is None:
            return None
        return self.unit_size / self.generation_interval


@frozen
class ComputeSpec:
    """Local and remote processing rates, FLOP/s."""

    local_rate: float
    remote_rate: float

    def __post_init__(self) -> None:
        # remote first: the CLI's default local rate is the remote one
        for name in ("remote_rate", "local_rate"):
            if not (value := getattr(self, name)) > 0:
                raise ValueError(f"{name} must be > 0, got {value}")


@frozen
class LinkSpec:
    """Network path: raw bandwidth (bytes/s), efficiency, and RTT."""

    bandwidth: float  # bytes/s
    alpha: float = 1.0  # achieved-rate fraction of bandwidth, in (0, 1]
    rtt: float = 0.0  # seconds

    def __post_init__(self) -> None:
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not self.alpha * self.bandwidth > 0:  # every rate and load divides by it
            raise ValueError(f"alpha x bandwidth must be > 0, got {self.alpha} x {self.bandwidth}")
        if not self.rtt >= 0:
            raise ValueError(f"rtt must be >= 0, got {self.rtt}")

    @property
    def effective_rate(self) -> float:
        """Achievable transfer rate in bytes/s."""
        return self.alpha * self.bandwidth


def offered_load(rate: float, link: LinkSpec) -> float:
    """Offered bytes/s over the effective capacity alpha x B; above 1 is infeasible."""
    return rate / link.effective_rate


def carried_utilization(delivered_bytes: int, last_complete_s: float, link: LinkSpec) -> float | None:
    """Bytes of successful transfers over raw B x [0, last successful completion].

    None when that span holds no capacity. Above 1 the figure is clamped to 1,
    with a warning once it exceeds 1 by more than float rounding (1e-9).
    """
    capacity = link.bandwidth * last_complete_s
    if not capacity > 0:
        return None
    fraction = delivered_bytes / capacity
    if fraction > 1.0 + 1e-9:
        import logging  # here only: a run that never clamps never loads it
        logging.getLogger(__name__).warning(
            "utilization %.10g exceeds 1.0 (window %.6gs); clamping - the link bandwidth "
            "figure is likely below the achieved rate", fraction, last_complete_s)
    return min(fraction, 1.0)


def link_from_mapping(raw) -> LinkSpec:
    """A LinkSpec from the link keys present in config data (unit literals or SI numbers)."""
    readers = {
        "bandwidth": partial(coerce_quantity, parser=parse_rate),
        "alpha": coerce_quantity,
        "rtt": partial(coerce_quantity, parser=parse_seconds),
    }
    return LinkSpec(**{key: read(raw[key]) for key, read in readers.items() if key in raw})


@frozen
class IoOverhead:
    """File-staging overhead as a multiplier on transfer time (theta >= 1)."""

    theta: float = 1.0

    def __post_init__(self) -> None:
        # theta = 1 means pure streaming; < 1 would imply negative I/O time; NaN and inf are no theta
        if not 1 <= self.theta < math.inf:
            raise ValueError(f"theta must be >= 1 and finite, got {self.theta}")


@frozen
class TimeBreakdown:
    """Remote-path completion time split into its additive parts and their total."""

    transfer_s: float
    io_s: float
    remote_s: float
    total_s: float = field(init=False)  # transfer_s + io_s + remote_s, in that order

    def __post_init__(self) -> None:
        if self.transfer_s == math.inf:  # an overflowed size / rate, which would make io_s 0 x inf = NaN
            raise ValueError("transfer_s must be finite, got inf")
        for name in ("transfer_s", "remote_s", "io_s"):
            if not getattr(self, name) >= 0:  # NaN too: inf x 0 s of transfer has no I/O time
                raise ValueError(f"{name} must be >= 0")
        object.__setattr__(self, "total_s", self.transfer_s + self.io_s + self.remote_s)


@frozen
class DelayDecomposition:
    """Per-packet delay components, each in seconds."""

    proc_s: float = 0.0
    queue_s: float = 0.0
    trans_s: float = 0.0
    prop_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("proc_s", "queue_s", "trans_s", "prop_s"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")


@frozen
class TierPolicy:
    """Ordered completion-time deadlines, most stringent first."""

    tiers: tuple[tuple[str, float], ...] = DEFAULT_TIERS

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("tier policy must contain at least one tier")
        deadlines = [d for _, d in self.tiers]
        if any(not d > 0 for d in deadlines):
            raise ValueError("tier deadlines must be > 0")
        if any(b <= a for a, b in zip(deadlines, deadlines[1:])):
            raise ValueError(f"tier deadlines must be strictly increasing: {deadlines}")

    @classmethod
    def from_deadlines(cls, deadlines: list[float]) -> TierPolicy:
        return cls(tuple((f"Tier {i + 1}", d) for i, d in enumerate(deadlines)))

    @property
    def deadlines(self) -> tuple[float, ...]:
        return tuple(d for _, d in self.tiers)


DEFAULT_TIER_POLICY = TierPolicy()


class Choice(Enum):
    LOCAL = "local"
    REMOTE_STREAM = "remote_stream"
    INFEASIBLE = "infeasible"


@frozen
class Decision:
    """Outcome of the local-vs-remote comparison."""

    choice: Choice
    gain: float  # local time over remote total; > 1 favors streaming
    tier_achieved: str | None
    rationale: str
    remote: TimeBreakdown  # the remote path, modelled or at the given worst case
    local_s: float | None = None


@frozen
class ScanSpec:
    """A scan of fixed-size frames, optionally aggregated into files."""

    frame_bytes: float
    frame_count: int
    frame_interval: float  # seconds between frames
    files: int = 1
    per_file_overhead: float = 0.0  # fixed staging/metadata seconds per file

    def __post_init__(self) -> None:
        for name in ("frame_bytes", "frame_count", "frame_interval", "files"):
            if not (value := getattr(self, name)) > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.files > self.frame_count:
            raise ValueError(f"files ({self.files}) cannot exceed frame_count ({self.frame_count})")
        if not self.per_file_overhead >= 0:
            raise ValueError(f"per_file_overhead must be >= 0, got {self.per_file_overhead}")

    @property
    def total_bytes(self) -> float:
        return self.frame_bytes * self.frame_count

    @property
    def generation_time(self) -> float:
        return self.frame_interval * self.frame_count


@frozen
class FileStreamComparison:
    """Stream-while-generating versus stage-then-transfer completion times."""

    stream_s: float
    file_s: float
    reduction: float  # 1 - stream_s / file_s


def local_processing_time(workload: WorkloadSpec, compute: ComputeSpec) -> float:
    """Seconds to process one data unit on local compute."""
    return workload.work / compute.local_rate


def transfer_time(workload: WorkloadSpec, link: LinkSpec) -> float:
    """Seconds to move one data unit at the link's effective rate."""
    return workload.unit_size / link.effective_rate


def remote_processing_time(workload: WorkloadSpec, compute: ComputeSpec) -> float:
    """Seconds to process one data unit on remote compute (excludes transfer)."""
    return workload.work / compute.remote_rate


def breakdown_from_parts(transfer_s: float, remote_s: float, io: IoOverhead) -> TimeBreakdown:
    """Assemble a remote-path breakdown; io time is (theta - 1) x transfer. TimeBreakdown checks the parts."""
    return TimeBreakdown(transfer_s=transfer_s, io_s=(io.theta - 1.0) * transfer_s, remote_s=remote_s)


def remote_completion(
    workload: WorkloadSpec,
    link: LinkSpec,
    compute: ComputeSpec,
    io: IoOverhead = IoOverhead(),
) -> TimeBreakdown:
    """Total remote completion time: overhead-scaled transfer plus compute."""
    return breakdown_from_parts(
        transfer_time(workload, link), remote_processing_time(workload, compute), io
    )


def io_overhead_from_times(io_s: float, transfer_s: float) -> IoOverhead:
    """Fit theta from a measured I/O time and its matching transfer time."""
    if not transfer_s > 0:
        raise ValueError(f"transfer_s must be > 0 to fit theta, got {transfer_s}")
    if not io_s >= 0:
        raise ValueError(f"io_s must be >= 0, got {io_s}")
    return IoOverhead((io_s + transfer_s) / transfer_s)


def streaming_speed_score(worst_s: float, theoretical_s: float) -> float:
    """Worst observed transfer time over the ideal transmission-only time.

    The theoretical reference is size / raw bandwidth, so protocol
    inefficiency and congestion both inflate the score; 1.0 is a perfect
    network.
    """
    if not (worst_s > 0 and theoretical_s > 0):
        raise ValueError(f"times must be > 0, got worst={worst_s}, theoretical={theoretical_s}")
    return worst_s / theoretical_s


def theoretical_transfer_time(size_bytes: float, link: LinkSpec) -> float:
    """Transmission-delay-only reference time: size over raw bandwidth."""
    if not size_bytes >= 0:
        raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
    return size_bytes / link.bandwidth


def transfer_budget(deadline_s: float, worst_transfer_s: float) -> float:
    """Compute time left inside a deadline after the worst-case transfer.

    Zero means no compute budget remains at that tier.
    """
    if not deadline_s > 0:
        raise ValueError(f"deadline must be > 0, got {deadline_s}")
    if not worst_transfer_s >= 0:
        raise ValueError(f"worst_transfer_s must be >= 0, got {worst_transfer_s}")
    return max(0.0, deadline_s - worst_transfer_s)


def required_remote_rate(workload: WorkloadSpec, budget_s: float) -> float:
    """Minimum remote FLOP/s that finishes the unit's work within the budget."""
    if not budget_s > 0:
        raise ValueError(f"budget must be > 0, got {budget_s}")
    return workload.work / budget_s


def classify_tier(t_s: float, policy: TierPolicy = DEFAULT_TIER_POLICY) -> str | None:
    """Most stringent tier whose deadline strictly exceeds t_s, if any."""
    if not t_s >= 0:
        raise ValueError(f"time must be >= 0, got {t_s}")
    for name, deadline in policy.tiers:
        if t_s < deadline:
            return name
    return None


def total_delay(d: DelayDecomposition) -> float:
    """Sum of processing, queuing, transmission, and propagation delay."""
    return d.proc_s + d.queue_s + d.trans_s + d.prop_s


def propagation_only_delay(d: DelayDecomposition) -> float:
    """Propagation-delay-only approximation.

    This drops queuing entirely, so any report carrying it must label the
    value "optimistic baseline" rather than presenting it as an estimate.
    """
    return d.prop_s


def decide(
    workload: WorkloadSpec,
    link: LinkSpec,
    compute: ComputeSpec,
    io: IoOverhead = IoOverhead(),
    policy: TierPolicy = DEFAULT_TIER_POLICY,
    worst_case_transfer: float | None = None,
) -> Decision:
    """Choose local processing or remote streaming for a workload.

    When ``worst_case_transfer`` is given (a measured or simulated worst
    transfer time), it replaces the modelled transfer time so the decision is
    made against the pessimistic case; ``Decision.remote`` holds that
    breakdown either way. Streaming is infeasible outright when the
    workload's sustained generation rate is an offered load above 1.
    """
    if worst_case_transfer is not None:
        if not worst_case_transfer >= 0:
            raise ValueError("worst_case_transfer must be >= 0")
        t_transfer = worst_case_transfer
    else:
        t_transfer = transfer_time(workload, link)
    remote = breakdown_from_parts(
        t_transfer, remote_processing_time(workload, compute), io
    )
    local_s = local_processing_time(workload, compute)
    needed = workload.required_stream_rate
    if needed is not None and offered_load(needed, link) > 1:
        return Decision(
            choice=Choice.INFEASIBLE,
            gain=0.0,
            tier_achieved=None,
            rationale=(
                f"sustained rate {needed:.6g} B/s exceeds effective link "
                f"capacity {link.effective_rate:.6g} B/s"
            ),
            local_s=local_s,
            remote=remote,
        )

    if local_s == 0.0 and remote.total_s == 0.0:
        gain = 1.0
    elif remote.total_s == 0.0:
        gain = math.inf
    else:
        gain = local_s / remote.total_s

    # tie goes to local: equal cost with no network dependency
    if local_s <= remote.total_s:
        choice, chosen_s = Choice.LOCAL, local_s
        rationale = (
            f"local {local_s:.6g} s <= remote total {remote.total_s:.6g} s"
        )
    else:
        choice, chosen_s = Choice.REMOTE_STREAM, remote.total_s
        rationale = (
            f"remote total {remote.total_s:.6g} s < local {local_s:.6g} s"
        )
    return Decision(
        choice=choice,
        gain=gain,
        tier_achieved=classify_tier(chosen_s, policy),
        rationale=rationale,
        local_s=local_s,
        remote=remote,
    )


def file_vs_stream(scan: ScanSpec, link: LinkSpec) -> FileStreamComparison:
    """Compare streaming frames as generated against staging files first.

    Streaming overlaps transmission with generation, paying only a one-frame
    pipeline drain at the end. The file path serializes: generation finishes,
    every file pays its fixed staging overhead, then the whole scan moves.
    """
    rate = link.effective_rate
    per_frame = scan.frame_bytes / rate
    transfer_total = scan.total_bytes / rate
    stream_s = max(scan.generation_time, transfer_total) + per_frame
    file_s = scan.generation_time + scan.files * scan.per_file_overhead + transfer_total
    return FileStreamComparison(
        stream_s=stream_s,
        file_s=file_s,
        reduction=1.0 - stream_s / file_s,
    )
