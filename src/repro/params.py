"""Machine-model parameters for the ASAP reproduction.

The defaults mirror Table 5 of the paper (an Intel Broadwell-like memory
hierarchy) plus the ASAP-specific architectural parameters from Section 3.4.
Everything is a frozen dataclass so experiment configurations are hashable,
comparable and safe to share between simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CacheParams:
    """Geometry and access latency of one cache level."""

    size_bytes: int
    ways: int
    latency: int
    line_bytes: int = 64

    @property
    def lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def sets(self) -> int:
        return self.lines // self.ways

    def __post_init__(self) -> None:
        if self.size_bytes % self.line_bytes:
            raise ValueError("cache size must be a multiple of the line size")
        if self.lines % self.ways:
            raise ValueError("line count must be a multiple of associativity")


@dataclass(frozen=True)
class HierarchyParams:
    """The three-level cache hierarchy plus main memory of Table 5."""

    l1: CacheParams = CacheParams(size_bytes=32 * 1024, ways=8, latency=4)
    l2: CacheParams = CacheParams(size_bytes=256 * 1024, ways=8, latency=12)
    l3: CacheParams = CacheParams(size_bytes=20 * 1024 * 1024, ways=20, latency=40)
    memory_latency: int = 191
    mshr_entries: int = 10

    @property
    def line_bytes(self) -> int:
        return self.l1.line_bytes


@dataclass(frozen=True)
class TlbParams:
    """Geometry of one TLB structure."""

    entries: int
    ways: int

    @property
    def sets(self) -> int:
        return self.entries // self.ways

    def __post_init__(self) -> None:
        if self.entries % self.ways:
            raise ValueError("TLB entries must be a multiple of associativity")


@dataclass(frozen=True)
class TlbHierarchyParams:
    """L1 D-TLB plus the unified second-level TLB (Table 5)."""

    l1: TlbParams = TlbParams(entries=64, ways=8)
    l2: TlbParams = TlbParams(entries=1536, ways=6)


@dataclass(frozen=True)
class PwcParams:
    """Split page-walk caches, per Table 5 (similar to Intel Core i7).

    ``pl4``/``pl3``/``pl2`` give (entries, ways); a PWC entry for level L
    caches the pointer produced by the level-L lookup, letting the walker
    resume directly below it.
    """

    latency: int = 2
    pl4_entries: int = 2
    pl4_ways: int = 2  # fully associative
    pl3_entries: int = 4
    pl3_ways: int = 4  # fully associative
    pl2_entries: int = 32
    pl2_ways: int = 4

    def scaled(self, factor: int) -> "PwcParams":
        """Return a copy with every PWC level ``factor``x larger.

        Used by the PWC-capacity ablation (Section 5.1.1 of the paper reports
        that doubling PWCs buys only 2-3%).
        """
        return replace(
            self,
            pl4_entries=self.pl4_entries * factor,
            pl4_ways=self.pl4_ways * factor,
            pl3_entries=self.pl3_entries * factor,
            pl3_ways=self.pl3_ways * factor,
            pl2_entries=self.pl2_entries * factor,
            pl2_ways=self.pl2_ways * factor,
        )


@dataclass(frozen=True)
class AsapParams:
    """Architectural parameters of the ASAP extension (Section 3.4)."""

    #: Number of VMA descriptors (range-register sets) per hardware thread.
    #: The paper finds 8-16 suffice to cover 99% of the footprint.
    range_registers: int = 16


@dataclass(frozen=True)
class CoreParams:
    """Minimal core cost model used only for execution-time fractions.

    Each trace record (one memory operation) costs ``base_cycles`` of
    non-memory work plus its data-access latency plus any translation
    overhead.  This is intentionally simple: the paper's primary metric is
    page-walk latency; fractions of execution time (Figure 2, Table 6) only
    need a consistent denominator.
    """

    base_cycles: int = 2


@dataclass(frozen=True)
class MachineParams:
    """Everything the simulator needs to price one memory access."""

    hierarchy: HierarchyParams = HierarchyParams()
    tlb: TlbHierarchyParams = TlbHierarchyParams()
    pwc: PwcParams = PwcParams()
    asap: AsapParams = AsapParams()
    core: CoreParams = CoreParams()

    def with_pwc_scale(self, factor: int) -> "MachineParams":
        return replace(self, pwc=self.pwc.scaled(factor))


DEFAULT_MACHINE = MachineParams()
