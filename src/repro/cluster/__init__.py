"""Cluster cost model: the paper-scale substitute for the 10-PC testbed."""

from .costmodel import OOM, CostEstimate, CostModel, single_pc_model
from .hardware import (GIGABIT_ETHERNET, INFINIBAND_EDR, PAPER_CLUSTER,
                       PAPER_CLUSTER_IB, PAPER_PC, SINGLE_PC,
                       ClusterHardware, MachineSpec, NetworkSpec)
from .planner import (CapacityReport, capacity_report,
                      machines_needed, max_feasible_scale)

__all__ = [
    "OOM", "CostEstimate", "CostModel", "single_pc_model",
    "GIGABIT_ETHERNET", "INFINIBAND_EDR", "PAPER_CLUSTER",
    "PAPER_CLUSTER_IB", "PAPER_PC", "SINGLE_PC", "ClusterHardware",
    "MachineSpec", "NetworkSpec", "CapacityReport", "capacity_report",
    "machines_needed", "max_feasible_scale",
]
