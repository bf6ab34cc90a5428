"""The ASAP prefetch engine (§3.4).

On a TLB miss the triggering VA is checked against the range registers; on
a hit, the target physical addresses in the prefetch-target PT levels are
computed with base-plus-offset arithmetic and best-effort prefetches are
issued into the L1-D (dropped when no MSHR is free).

The same class serves all three dimensions:

* native walks — descriptors over guest==host virtual VMAs;
* the guest dimension of nested walks — descriptors whose bases are
  *host-physical* addresses of the contiguously backed guest PT regions;
* the host dimension — a single descriptor over the VM's guest-physical
  space, consulted with gPAs at every host 1D walk start.

A prefetch can be *useless* without being harmful: if the node sits in a
layout hole (§3.7.2) the computed line is fetched anyway (pollution, which
the caches model) but no completion is reported, so the walker overlaps
nothing — matching the paper's "walks that target holes are simply not
accelerated".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.mem.hierarchy import CacheHierarchy
from repro.core.range_registers import RangeRegisterFile

#: hole_checker(va, level) -> True when the computed address will NOT
#: contain the real PT node (region hole or out-of-region growth).
HoleChecker = Callable[[int, int], bool]


@dataclass
class PrefetchStats:
    issued: int = 0
    useful: int = 0
    dropped_no_mshr: int = 0
    no_descriptor: int = 0
    wasted_on_hole: int = 0

    @property
    def accuracy(self) -> float:
        if not self.issued:
            return 0.0
        return self.useful / self.issued


class AsapPrefetcher:
    """Issues base-plus-offset PT prefetches for one walk dimension."""

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        registers: RangeRegisterFile,
        levels: tuple[int, ...],
        hole_checker: HoleChecker | None = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.registers = registers
        self.levels = tuple(sorted(levels))
        self.hole_checker = hole_checker
        self.stats = PrefetchStats()

    def on_tlb_miss(self, va: int, now: int) -> dict[int, int]:
        """Issue prefetches for ``va``; returns level -> completion time
        for the *useful* ones (the walker's overlap input)."""
        if not self.levels:
            return {}
        descriptor = self.registers.lookup(va)
        if descriptor is None:
            self.stats.no_descriptor += 1
            return {}
        completions: dict[int, int] = {}
        for level in self.levels:
            target = descriptor.entry_addr(va, level)
            if target is None:
                continue
            completion = self.hierarchy.prefetch_line(target >> 6, now)
            if completion is None:
                self.stats.dropped_no_mshr += 1
                continue
            self.stats.issued += 1
            if self.hole_checker is not None and self.hole_checker(va, level):
                # The line was fetched (pollution) but the real node lives
                # elsewhere: no overlap benefit for the walker.
                self.stats.wasted_on_hole += 1
                continue
            self.stats.useful += 1
            completions[level] = completion
        return completions
