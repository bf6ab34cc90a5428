"""The 2D nested page walker (Figure 7) with per-dimension ASAP.

A nested walk interleaves up to five host 1D walks (translating the
guest-physical address of each guest PT node, then of the data page) with
four guest PT entry accesses — up to 24 memory accesses.  Each dimension
has its own split PWC (Table 5); the host PWC is tagged by guest-physical
addresses, the guest PWC by guest-virtual ones.

ASAP applies independently per dimension (§3.6):

* *guest* prefetches are issued once, at 2D-walk start, targeting the
  host-physical lines of the guest PL2/PL1 entries (valid because the
  hypervisor backs the guest PT regions contiguously);
* *host* prefetches are issued at the start of every host 1D walk,
  targeting the host PL2/PL1 entries for that walk's gPA.

Service records are keyed ``"g<level>"`` for guest entry accesses and
``"h<level>"`` for host walk accesses, with the data translation's host
walk counted like any other host walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.mem.hierarchy import CacheHierarchy
from repro.pagetable import constants as c
from repro.pagetable.pwc import SplitPwc
from repro.pagetable.radix import WalkStep
from repro.pagetable.walker import PWC_LABEL, WalkOutcome


@dataclass(frozen=True)
class NestedStep:
    """One guest-dimension step of a 2D walk: the host 1D walk that
    translates ``gpa`` plus (for PT steps) the guest-entry access itself."""

    guest_level: int  # 4..1 for guest PT levels, 0 for the data address
    gpa: int
    host_steps: tuple[WalkStep, ...]
    entry_host_addr: int | None  # None for the final data translation


@dataclass(frozen=True)
class NestedWalkPath:
    """The full Figure 7 schedule for one guest virtual address."""

    va: int
    steps: tuple[NestedStep, ...]
    data_host_addr: int
    guest_leaf_level: int
    host_leaf_level: int

    @property
    def vpn(self) -> int:
        return self.va >> c.PAGE_SHIFT

    @property
    def data_frame(self) -> int:
        return self.data_host_addr >> c.PAGE_SHIFT


class HostPrefetcher(Protocol):
    """Issued at each host 1D walk start; returns level -> completion."""

    def on_tlb_miss(self, address: int, now: int) -> dict[int, int]: ...


class NestedPageWalker:
    """Prices Figure 7 schedules against the shared memory hierarchy."""

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        guest_pwc: SplitPwc,
        host_pwc: SplitPwc,
    ) -> None:
        self.hierarchy = hierarchy
        self.guest_pwc = guest_pwc
        self.host_pwc = host_pwc
        self.walks = 0
        self.total_latency = 0
        self.total_accesses = 0

    # ------------------------------------------------------------------
    def _host_walk(
        self,
        step_gpa: int,
        host_steps,
        t: int,
        records: list[tuple[str, str]] | None,
        host_prefetcher: HostPrefetcher | None,
    ) -> int:
        """Price one host 1D walk starting at ``t``; returns finish time.

        ``records`` may be None (measurement-off fast path): pricing and
        stats are identical, only the service labels are skipped.
        """
        t += self.host_pwc.latency
        skip_from = self.host_pwc.probe(step_gpa)
        start = 0
        if skip_from is not None:
            for index, hstep in enumerate(host_steps):
                if hstep.level >= skip_from:
                    if records is not None:
                        records.append((f"h{hstep.level}", PWC_LABEL))
                    start = index + 1
                else:
                    break
        prefetches: dict[int, int] = {}
        if host_prefetcher is not None:
            prefetches = host_prefetcher.on_tlb_miss(step_gpa, t)
        access = self.hierarchy.access
        last_level = self.hierarchy.last_level
        for hstep in host_steps[start:]:
            latency = access(hstep.line, t)
            finish = t + latency
            completion = prefetches.get(hstep.level)
            if completion is not None and completion > finish:
                finish = completion
            if records is not None:
                records.append((f"h{hstep.level}", last_level[0]))
            t = finish
            self.total_accesses += 1
        host_leaf = host_steps[-1].level if host_steps else 1
        self.host_pwc.insert(step_gpa, host_leaf)
        return t

    def walk(
        self,
        path: NestedWalkPath,
        now: int = 0,
        guest_prefetches: dict[int, int] | None = None,
        host_prefetcher: HostPrefetcher | None = None,
        collect: bool = True,
    ) -> WalkOutcome:
        """Price the 2D walk for ``path`` starting at ``now``.

        ``guest_prefetches`` maps guest PT level -> completion time of the
        guest-dimension ASAP prefetches issued at walk start.  With
        ``collect=False`` the per-step service records are skipped (the
        returned outcome carries an empty list); pricing is unchanged.
        """
        self.hierarchy.drop_images()
        records: list[tuple[str, str]] | None = [] if collect else None
        t = now + self.guest_pwc.latency
        skip_from = self.guest_pwc.probe(path.va)
        steps = path.steps
        start = 0
        if skip_from is not None:
            for index, step in enumerate(steps):
                if step.guest_level >= skip_from and step.guest_level != 0:
                    if records is not None:
                        records.append((f"g{step.guest_level}", PWC_LABEL))
                    start = index + 1
                else:
                    break
        access = self.hierarchy.access
        last_level = self.hierarchy.last_level
        for step in steps[start:]:
            t = self._host_walk(step.gpa, step.host_steps, t, records,
                                host_prefetcher)
            if step.entry_host_addr is None:
                continue  # the final data translation has no entry access
            latency = access(step.entry_host_addr >> 6, t)
            finish = t + latency
            if guest_prefetches:
                completion = guest_prefetches.get(step.guest_level)
                if completion is not None and completion > finish:
                    finish = completion
            if records is not None:
                records.append((f"g{step.guest_level}", last_level[0]))
            t = finish
            self.total_accesses += 1
        self.guest_pwc.insert(path.va, path.guest_leaf_level)
        latency = t - now
        self.walks += 1
        self.total_latency += latency
        return WalkOutcome(latency=latency,
                           records=records if records is not None else [])

    @property
    def average_latency(self) -> float:
        if not self.walks:
            return 0.0
        return self.total_latency / self.walks
