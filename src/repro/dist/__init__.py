"""Distributed-execution substrate: AVS-level range partitioning (Fig. 6),
hash shuffle, external sort, and the local multiprocessing cluster."""

from .checkpoint import CheckpointedRun, CheckpointState
from ..util.external_sort import (external_sort_unique, iter_unique_keys,
                                  write_run)
from .faults import RetryPolicy, TaskAttempt, pick_start_method, run_tasks
from .merge_parts import merge_parts
from .partition import Bin, range_partition, repartition
from .runner import ClusterSpec, DistributedResult, LocalCluster, WorkerResult
from ..util.shuffle import hash_partition, mix64, partition_sizes
from .wesp_runner import WespDistributedResult, run_wesp_distributed

__all__ = [
    "CheckpointedRun", "CheckpointState",
    "external_sort_unique", "iter_unique_keys", "write_run",
    "RetryPolicy", "TaskAttempt",
    "pick_start_method", "run_tasks",
    "Bin", "range_partition", "repartition", "merge_parts",
    "ClusterSpec", "DistributedResult", "LocalCluster", "WorkerResult",
    "hash_partition", "mix64", "partition_sizes",
    "WespDistributedResult", "run_wesp_distributed",
]
