"""Nested paging: a guest VM behind a host page table (§3.6, Figure 7).

From the host OS's point of view an entire guest VM is one process whose
"virtual" space is the guest-physical space, mapped by the host page table
(hPT) — Linux/KVM's model, which is why a *single* host VMA descriptor
suffices for host-side ASAP.

The class wires together:

* a guest :class:`ProcessAddressSpace` (its "physical" frames are
  guest-physical, handed out by a guest-side buddy allocator),
* the hPT, a second radix tree translating gPA → host-physical, populated
  lazily as guest frames appear, with 4KB or 2MB host pages (Figure 12),
* optional host-side ASAP layout (sorted hPT PL1/PL2 regions over the one
  host VMA),
* optional *contiguous host backing* for the guest's reserved PT regions —
  the vmcall contract of §3.6 that guest-side ASAP needs so its
  base-plus-offset targets are valid host-physical addresses.
"""

from __future__ import annotations

from repro.kernelsim.buddy import BuddyAllocator
from repro.kernelsim.phys import PhysicalMemory
from repro.kernelsim.process import ProcessAddressSpace, TouchResult
from repro.kernelsim.pt_layout import AsapPtLayout, PtNodePlacer
from repro.kernelsim.vma import Vma, VmaKind
from repro.pagetable import constants as c
from repro.pagetable.nested import NestedStep, NestedWalkPath
from repro.pagetable.radix import RadixPageTable, WalkStep


class VirtualMachine:
    """A guest address space nested behind a host page table."""

    def __init__(
        self,
        guest: ProcessAddressSpace,
        guest_mem_bytes: int,
        host_buddy: BuddyAllocator | None = None,
        host_page_level: int = 1,
        host_asap_levels: tuple[int, ...] = (),
        back_guest_pt_contiguously: bool = False,
        seed: int = 0,
    ) -> None:
        if host_page_level not in (1, 2):
            raise ValueError("host pages are 4KB (1) or 2MB (2)")
        self.guest = guest
        self.guest_mem_bytes = guest_mem_bytes
        host_bytes = max(4 * guest_mem_bytes, 1 << 41)  # >= 2TB host
        self.host_buddy = host_buddy or BuddyAllocator(
            PhysicalMemory(host_bytes), seed=seed + 7
        )
        self.host_page_level = host_page_level
        size = -(-guest_mem_bytes // c.HUGE_PAGE_SIZE) * c.HUGE_PAGE_SIZE
        self.host_vma = Vma(start=0, size=size, kind=VmaKind.OTHER,
                            name="vm-guest-physical")
        self.host_asap_layout: AsapPtLayout | None = None
        if host_asap_levels:
            self.host_asap_layout = AsapPtLayout(
                self.host_buddy, levels=host_asap_levels, seed=seed + 11
            )
            self.host_asap_layout.register_vma(self.host_vma)
        self.back_guest_pt_contiguously = back_guest_pt_contiguously
        self.hpt = RadixPageTable(4, node_placer=PtNodePlacer(
            self.host_buddy, "hpt", self.host_asap_layout, self.host_vma))
        self._host_chain_cache: dict[int, tuple[tuple[WalkStep, ...], int]] = {}
        self._backed_ranges: list[tuple[int, int]] = []  # (gframe, count)
        if back_guest_pt_contiguously and guest.asap_layout is not None:
            # Regions already registered before the VM existed (e.g. the
            # guest booted first) get backed now.
            for vma in guest.vmas:
                self._back_vma_regions(vma)

    # ------------------------------------------------------------------
    # host-side placement
    # ------------------------------------------------------------------
    def _map_gpa_page(self, gframe: int) -> None:
        gpa = gframe << c.PAGE_SHIFT
        if self.hpt.lookup(gpa) is not None:
            return
        if self.host_page_level == 1:
            hframe = self.host_buddy.alloc_frame("vm-data")
            self.hpt.map_page(gpa, hframe, 1)
        else:
            large_base = (gframe >> c.LEVEL_BITS) << c.LEVEL_BITS
            hbase = self.host_buddy.alloc_run(
                c.ENTRIES_PER_NODE, pool="vm-data", aligned=True
            )
            self.hpt.map_page(large_base << c.PAGE_SHIFT, hbase, 2)

    def translate_gpa(self, gpa: int) -> int:
        """gPA → host-physical byte address, mapping lazily on first use."""
        hit = self.hpt.lookup(gpa)
        if hit is None:
            self._map_gpa_page(gpa >> c.PAGE_SHIFT)
            hit = self.hpt.lookup(gpa)
            assert hit is not None
        return (hit[0] << c.PAGE_SHIFT) | (gpa & (c.PAGE_SIZE - 1))

    # ------------------------------------------------------------------
    # guest-side interface
    # ------------------------------------------------------------------
    def mmap(self, *args, **kwargs) -> Vma:
        """mmap in the guest; honours the §3.6 vmcall contiguity contract."""
        vma = self.guest.mmap(*args, **kwargs)
        self._back_vma_regions(vma)
        return vma

    def _back_vma_regions(self, vma: Vma) -> None:
        layout = self.guest.asap_layout
        if not self.back_guest_pt_contiguously or layout is None:
            return
        for level in layout.levels:
            region = layout.region(vma, level)
            if region is None:
                continue
            self._back_range_contiguously(region.base_frame,
                                          region.reserved_total)

    def _back_range_contiguously(self, gframe: int, count: int) -> None:
        """Map [gframe, gframe+count) to contiguous host frames."""
        if self.host_page_level == 1:
            hbase = self.host_buddy.reserve_contiguous(count)
            self.hpt.map_contiguous(gframe, hbase, count)
        else:
            first_large = gframe >> c.LEVEL_BITS
            last_large = (gframe + count - 1) >> c.LEVEL_BITS
            spans = last_large - first_large + 1
            hbase = self.host_buddy.reserve_contiguous(
                spans * c.ENTRIES_PER_NODE, align=c.ENTRIES_PER_NODE
            )
            for j in range(spans):
                gpa = (first_large + j) << c.LARGE_PAGE_SHIFT
                if self.hpt.lookup(gpa) is None:
                    self.hpt.map_page(gpa, hbase + j * c.ENTRIES_PER_NODE, 2)
        self._backed_ranges.append((gframe, count))

    def touch(self, va: int) -> TouchResult:
        """Demand-page ``va`` in the guest and back everything in the host."""
        result = self.guest.touch(va)
        if result.faulted:
            for _level, _tag, base in result.created_nodes:
                self.translate_gpa(base)
            self.translate_gpa(result.frame << c.PAGE_SHIFT)
        return result

    # ------------------------------------------------------------------
    # 2D walk paths
    # ------------------------------------------------------------------
    def _host_chain(self, gpa: int) -> tuple[tuple[WalkStep, ...], int]:
        """Host 1D walk steps for ``gpa``'s page, plus the page's hPA base."""
        page = gpa >> c.PAGE_SHIFT
        cached = self._host_chain_cache.get(page)
        if cached is None:
            self.translate_gpa(gpa)
            hpath = self.hpt.walk_path(gpa)
            cached = (hpath.steps, hpath.frame << c.PAGE_SHIFT)
            self._host_chain_cache[page] = cached
        return cached

    def nested_path(self, va: int) -> NestedWalkPath:
        gpath = self.guest.walk_path(va)
        steps = []
        for gstep in gpath.steps:
            host_steps, page_hpa = self._host_chain(gstep.entry_addr)
            entry_hpa = page_hpa | (gstep.entry_addr & (c.PAGE_SIZE - 1))
            steps.append(
                NestedStep(guest_level=gstep.level, gpa=gstep.entry_addr,
                           host_steps=host_steps, entry_host_addr=entry_hpa)
            )
        data_gpa = (gpath.frame << c.PAGE_SHIFT) | (va & (c.PAGE_SIZE - 1))
        host_steps, page_hpa = self._host_chain(data_gpa)
        steps.append(
            NestedStep(guest_level=0, gpa=data_gpa, host_steps=host_steps,
                       entry_host_addr=None)
        )
        data_hpa = page_hpa | (va & (c.PAGE_SIZE - 1))
        return NestedWalkPath(
            va=va,
            steps=tuple(steps),
            data_host_addr=data_hpa,
            guest_leaf_level=gpath.leaf_level,
            host_leaf_level=self.host_page_level,
        )

    # ------------------------------------------------------------------
    # descriptors for ASAP (computed the way the OS/hypervisor would)
    # ------------------------------------------------------------------
    def host_descriptor_bases(self) -> dict[int, int]:
        """Range-register bases for the single host VMA (host dimension)."""
        if self.host_asap_layout is None:
            return {}
        return self.host_asap_layout.descriptor_bases(self.host_vma)

    def guest_descriptor_bases(self, vma: Vma) -> dict[int, int]:
        """Host-physical range-register bases for a *guest* VMA.

        Valid only because the guest PT regions are contiguously backed:
        hPA(entry) = hPA(region base) + (entry gPA - region base gPA).
        """
        layout = self.guest.asap_layout
        if layout is None or not self.back_guest_pt_contiguously:
            return {}
        bases = {}
        for level in layout.levels:
            region = layout.region(vma, level)
            if region is None:
                continue
            host_base = self.translate_gpa(region.base_addr)
            bases[level] = host_base - region.first_tag * c.NODE_BYTES
        return bases
