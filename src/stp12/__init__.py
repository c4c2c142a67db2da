"""Steiner tree algorithms for metrics with distances 1 and 2."""

from stp12.core import (
    CapExceeded,
    Connection,
    ContractViolation,
    InputError,
    Instance,
    PartitionState,
    Solution,
    collapse,
    connection,
    cost,
    induced_graph,
    is_valid_solution,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "Connection",
    "ContractViolation",
    "InputError",
    "Instance",
    "PartitionState",
    "Solution",
    "collapse",
    "connection",
    "cost",
    "induced_graph",
    "is_valid_solution",
    "__version__",
]
