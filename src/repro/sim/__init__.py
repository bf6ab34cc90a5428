"""Trace-driven simulators (native and virtualized) and their statistics.

Paper cross-references: §4 (methodology: steady-state measurement after
warmup, average walk latency as the primary metric), §5.3 (infinite-TLB
runs behind Table 6's critical-path fraction), Figure 2/Table 6
(execution-time fractions from the simple core model).
"""

from repro.sim.runner import (
    Scale,
    build_vm,
    make_trace,
    run_native,
    run_virtualized,
)
from repro.sim.simulator import NativeSimulation, build_native_descriptors
from repro.sim.stats import SERVICE_LABELS, ServiceDistribution, SimStats
from repro.sim.virt import (
    VirtualizedSimulation,
    build_guest_descriptors,
    build_host_descriptor,
)

__all__ = [
    "NativeSimulation",
    "SERVICE_LABELS",
    "Scale",
    "ServiceDistribution",
    "SimStats",
    "VirtualizedSimulation",
    "build_guest_descriptors",
    "build_host_descriptor",
    "build_native_descriptors",
    "build_vm",
    "make_trace",
    "run_native",
    "run_virtualized",
]
