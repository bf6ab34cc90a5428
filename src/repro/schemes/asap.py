"""ASAP behind the scheme interface (the source paper's design, §3).

This wraps the existing prefetcher/range-register machinery —
:class:`~repro.core.prefetcher.AsapPrefetcher` riding on the reserved
contiguous PT layout — without re-implementing any of it: binding builds
the same descriptor files the simulators used to build inline, and the
walk-start hook *is* the prefetcher's bound ``on_tlb_miss`` (no extra
call layer on the hot path, so ASAP-through-the-interface is
instruction-identical to the pre-scheme dispatch).
"""

from __future__ import annotations

from repro.core.config import AsapConfig
from repro.core.prefetcher import AsapPrefetcher
from repro.core.range_registers import RangeRegisterFile
from repro.kernelsim.pt_layout import VmaHoleChecker
from repro.schemes.base import SchemeSpec, TranslationScheme, WalkStartHook


class AsapScheme(TranslationScheme):
    """Range-register-guided PT prefetching racing the page walk."""

    def __init__(self, spec: SchemeSpec, config: AsapConfig) -> None:
        super().__init__(spec)
        self.config = config
        self.name = f"ASAP {config.name}" if config.enabled else "ASAP"
        self._walk_start: WalkStartHook | None = None
        self._prefetchers: list[AsapPrefetcher] = []

    # ------------------------------------------------------------------
    def bind_native(self, sim) -> None:
        from repro.sim.simulator import build_native_descriptors

        config = self.config
        if not config.native_levels:
            return
        process = sim.process
        if process.asap_layout is None:
            raise ValueError(
                "ASAP configs need a process built with the ASAP PT "
                "layout (asap_levels=...)"
            )
        registers = RangeRegisterFile(sim.machine.asap.range_registers)
        registers.load(
            build_native_descriptors(process,
                                     sim.machine.asap.range_registers)
        )
        prefetcher = AsapPrefetcher(
            sim.hierarchy,
            registers,
            levels=config.native_levels,
            hole_checker=VmaHoleChecker(process.vmas, process.asap_layout),
        )
        sim.prefetcher = prefetcher
        self._prefetchers.append(prefetcher)
        self._walk_start = prefetcher.on_tlb_miss

    # ------------------------------------------------------------------
    def bind_virtualized(self, sim) -> None:
        from repro.sim.virt import build_guest_descriptors, \
            build_host_descriptor

        config = self.config
        vm = sim.vm
        if config.guest_levels:
            registers = RangeRegisterFile(sim.machine.asap.range_registers)
            descriptors = build_guest_descriptors(
                vm, sim.machine.asap.range_registers
            )
            if not descriptors:
                raise ValueError(
                    "guest ASAP needs a guest built with the ASAP layout "
                    "and a VM backing guest PT regions contiguously"
                )
            registers.load(descriptors)
            guest = vm.guest
            guest_prefetcher = AsapPrefetcher(
                sim.hierarchy,
                registers,
                levels=config.guest_levels,
                hole_checker=VmaHoleChecker(guest.vmas, guest.asap_layout),
            )
            sim.guest_prefetcher = guest_prefetcher
            self._prefetchers.append(guest_prefetcher)
            self._walk_start = guest_prefetcher.on_tlb_miss

        if config.host_levels:
            descriptor = build_host_descriptor(vm)
            if descriptor is None:
                raise ValueError(
                    "host ASAP needs a VM built with host_asap_levels"
                )
            registers = RangeRegisterFile(1)
            registers.load([descriptor])
            host_prefetcher = AsapPrefetcher(
                sim.hierarchy,
                registers,
                levels=config.host_levels,
            )
            sim.host_prefetcher = host_prefetcher
            self._prefetchers.append(host_prefetcher)
            self.host_prefetcher = host_prefetcher

    # ------------------------------------------------------------------
    def walk_start_hook(self) -> WalkStartHook | None:
        return self._walk_start

    def scheme_stats(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for prefetcher in self._prefetchers:
            s = prefetcher.stats
            out["prefetches_issued"] = out.get("prefetches_issued", 0) \
                + s.issued
            out["prefetches_useful"] = out.get("prefetches_useful", 0) \
                + s.useful
            out["wasted_on_hole"] = out.get("wasted_on_hole", 0) \
                + s.wasted_on_hole
        return out

    def finalize(self, stats) -> None:
        super().finalize(stats)
        for prefetcher in self._prefetchers:
            stats.prefetches_issued += prefetcher.stats.issued
            stats.prefetches_useful += prefetcher.stats.useful
            stats.prefetches_dropped += prefetcher.stats.dropped_no_mshr
