"""Local-vs-remote streaming feasibility toolkit.

Models total completion time for processing instrument data remotely
(transfer, file I/O overhead, remote compute) against local processing,
scores network tail latency with the Streaming Speed Score, and
parameterizes the model from either live measurements or a deterministic
bottleneck-link simulation.
"""

from .model import (
    Choice,
    ComputeSpec,
    Decision,
    DelayDecomposition,
    FileStreamComparison,
    IoOverhead,
    LinkSpec,
    ScanSpec,
    TierPolicy,
    TimeBreakdown,
    WorkloadSpec,
    classify_tier,
    decide,
    file_vs_stream,
    io_overhead_from_times,
    local_processing_time,
    propagation_only_delay,
    remote_completion,
    remote_processing_time,
    required_remote_rate,
    streaming_speed_score,
    theoretical_transfer_time,
    total_delay,
    transfer_budget,
    transfer_time,
)
from .records import FlowTable, read_jsonl, write_jsonl
from .schedule import SpawnMode

__version__ = "0.1.0"

__all__ = [
    "Choice",
    "ComputeSpec",
    "Decision",
    "DelayDecomposition",
    "FileStreamComparison",
    "FlowTable",
    "IoOverhead",
    "LinkSpec",
    "ScanSpec",
    "SpawnMode",
    "TierPolicy",
    "TimeBreakdown",
    "WorkloadSpec",
    "classify_tier",
    "decide",
    "file_vs_stream",
    "io_overhead_from_times",
    "local_processing_time",
    "propagation_only_delay",
    "read_jsonl",
    "remote_completion",
    "remote_processing_time",
    "required_remote_rate",
    "streaming_speed_score",
    "theoretical_transfer_time",
    "total_delay",
    "transfer_budget",
    "transfer_time",
    "write_jsonl",
    "__version__",
]
