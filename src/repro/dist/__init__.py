"""Distributed-execution substrate: AVS-level range partitioning (Fig. 6),
the supervised scatter of vertex ranges to files, and resumable runs."""

from .checkpoint import CheckpointedRun, CheckpointState
from .faults import RetryPolicy, TaskAttempt, pick_start_method, run_tasks
from .merge_parts import merge_parts
from .partition import Bin, range_partition, repartition
from .runner import ClusterSpec, DistributedResult, LocalCluster, WorkerResult

__all__ = [
    "CheckpointedRun", "CheckpointState",
    "RetryPolicy", "TaskAttempt",
    "pick_start_method", "run_tasks",
    "Bin", "range_partition", "repartition", "merge_parts",
    "ClusterSpec", "DistributedResult", "LocalCluster", "WorkerResult",
]
