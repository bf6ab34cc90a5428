"""The virtualized (2D) trace-driven simulator (§3.6, Figures 10 and 12).

The native simulator's record loop (`repro.sim.simulator.
TraceSimulation`), but a TLB miss triggers a nested 2D walk through the
guest and host page tables, and the translation scheme (`repro.schemes`)
can act per dimension.  ASAP configures guest/host prefetchers
independently: the guest prefetcher's descriptors carry *host-physical*
bases (valid because the hypervisor backs the guest PT regions
contiguously), and the host prefetcher uses a single descriptor covering
the VM's entire guest-physical space — one host VMA per VM, the
Linux/KVM observation of §3.6.  Alternative schemes hook the
same dispatch points: Victima parks gVA→host-frame victims in the L2
data cache; Revelator speculates on the end-to-end translation while the
nested walk verifies.
"""

from __future__ import annotations

from repro.core.config import AsapConfig, BASELINE
from repro.core.prefetcher import AsapPrefetcher
from repro.core.range_registers import VmaDescriptor
from repro.kernelsim.hypervisor import VirtualMachine
from repro.mem.hierarchy import CacheHierarchy
from repro.pagetable.nested import NestedPageWalker
from repro.pagetable.pwc import SplitPwc
from repro.params import DEFAULT_MACHINE, MachineParams
from repro.schemes import SchemeSpec, build_scheme
from repro.sim.order import streaming_first_touch_order
from repro.sim.simulator import TraceSimulation
from repro.traces.source import iter_trace_chunks
from repro.tlb.hierarchy import TlbHierarchy
from repro.workloads.corunner import Corunner


def build_guest_descriptors(
    vm: VirtualMachine, max_count: int
) -> list[VmaDescriptor]:
    """Guest VMA descriptors with host-physical bases (§3.6)."""
    descriptors = []
    for vma in vm.guest.vmas.largest(max_count):
        bases = vm.guest_descriptor_bases(vma)
        if bases:
            descriptors.append(
                VmaDescriptor(
                    start=vma.start,
                    end=vma.end,
                    level_bases=tuple(sorted(bases.items())),
                )
            )
    return descriptors


def build_host_descriptor(vm: VirtualMachine) -> VmaDescriptor | None:
    """The single host descriptor covering the whole guest-physical space."""
    bases = vm.host_descriptor_bases()
    if not bases:
        return None
    return VmaDescriptor(
        start=vm.host_vma.start,
        end=vm.host_vma.end,
        level_bases=tuple(sorted(bases.items())),
    )


class VirtualizedSimulation(TraceSimulation):
    """Drives a guest trace through the nested (2D) machine model."""

    probe_kind = "virt"

    def __init__(
        self,
        vm: VirtualMachine,
        machine: MachineParams = DEFAULT_MACHINE,
        asap: AsapConfig = BASELINE,
        infinite_tlb: bool = False,
        corunner: Corunner | None = None,
        scheme: SchemeSpec | None = None,
        hierarchy: CacheHierarchy | None = None,
        tlbs: TlbHierarchy | None = None,
        guest_pwc: SplitPwc | None = None,
        host_pwc: SplitPwc | None = None,
        walker: NestedPageWalker | None = None,
        asid: int = 0,
        kernel: str = "columnar",
    ) -> None:
        """The optional structure arguments let the multi-tenant driver
        (`repro.sim.multitenant`) run several VMs against one shared set
        of hardware structures; ``asid`` doubles as the VMID tagging this
        VM's entries in the shared TLBs and in both PWC dimensions (0 —
        the single-tenant default — changes nothing, bit for bit).

        ``kernel`` selects the record-loop engine, as on the native
        simulator: ``"columnar"`` (the default) runs each ``run()``
        through the compiled chunk kernel of `repro.sim.columnar`, which
        replays the nested walk, wherever its ``engine_mode`` allows, and
        through the scalar loop otherwise; ``"scalar"`` forces that
        loop, the differential oracle.  Both are byte-identical."""
        if asid and infinite_tlb:
            raise ValueError(
                "ASID-tagged simulations do not compose with infinite TLBs")
        if kernel not in ("scalar", "columnar"):
            raise ValueError(f"unknown simulation kernel {kernel!r}")
        self.vm = vm
        self.machine = machine
        self.asap = asap
        self.hierarchy = hierarchy or CacheHierarchy(machine.hierarchy)
        self.tlbs = tlbs or TlbHierarchy(machine.tlb, infinite=infinite_tlb)
        self.guest_pwc = guest_pwc or SplitPwc(
            machine.pwc, top_level=vm.guest.page_table.levels)
        self.host_pwc = host_pwc or SplitPwc(machine.pwc, top_level=4)
        #: Guest PWC keyed by gVA, host PWC by gPA; both take the VMID
        #: bias.
        self.pwcs = (self.guest_pwc, self.host_pwc)
        self.walker = walker or NestedPageWalker(
            self.hierarchy, self.guest_pwc, self.host_pwc)
        self.corunner = corunner
        self.asid = asid
        self.kernel = kernel
        self._page_table = vm.guest.page_table
        #: Per-vpn nested walk paths; instance state for the same reasons
        #: as the native simulator's flat paths (quantum splitting and
        #: coherent flushing).
        self._walk_paths: dict[int, tuple] = {}
        #: The columnar kernel's nested-row cache (same role as the dict
        #: above, owned by `repro.sim.columnar`); lazily built.
        self._columnar_paths = None
        #: Set by AsapScheme.bind_virtualized for introspection/back-compat.
        self.guest_prefetcher: AsapPrefetcher | None = None
        self.host_prefetcher: AsapPrefetcher | None = None
        self.scheme = build_scheme(scheme, asap)
        self.scheme.bind_virtualized(self)

    # ------------------------------------------------------------------
    def populate(self, trace, order: str = "sequential") -> int:
        """Pre-fault guest pages (and their host backing); in infinite-TLB
        mode the gVA -> host-frame translations are pre-installed too.
        Accepts an ndarray or a chunk-streaming TraceSource (see the
        native simulator)."""
        ordered = streaming_first_touch_order(
            (chunk >> 12 for chunk in iter_trace_chunks(trace)), order)
        faults = 0
        for vpn in ordered.tolist():
            if self.vm.touch(int(vpn) << 12).faulted:
                faults += 1
        if self.tlbs.infinite:
            for vpn in ordered.tolist():
                path = self.vm.nested_path(int(vpn) << 12)
                self.tlbs.fill(int(vpn), path.data_frame)
        return faults

    # ------------------------------------------------------------------
    def _miss_walk(self, collect_service: bool):
        """The nested 2D walk: the page's cached nested path (the guest
        and host page tables cannot change mid-run, so repeat walks skip
        the Figure 7 schedule reconstruction), priced by
        ``NestedPageWalker.walk`` with the scheme's host prefetcher."""
        nested_paths = self._walk_paths
        nested_path = self.vm.nested_path
        nested_walk = self.walker.walk
        host_prefetcher = self.scheme.host_prefetcher

        def walk(va, vpn, start, prefetches):
            cached = nested_paths.get(vpn)
            if cached is None:
                path = nested_path(va)
                cached = nested_paths[vpn] = (
                    path, path.data_frame, path.guest_leaf_level >= 2)
            path, frame, large = cached
            outcome = nested_walk(path, start, guest_prefetches=prefetches,
                                  host_prefetcher=host_prefetcher,
                                  collect=collect_service)
            return frame, large, None, outcome.latency, outcome.records

        return walk
