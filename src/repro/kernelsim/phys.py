"""Physical memory abstraction.

The simulator never stores memory contents; physical memory is just a frame
number space with a little address arithmetic.  Frame numbers are assigned
by the buddy allocator; byte addresses are ``frame << 12``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pagetable.constants import PAGE_SHIFT, PAGE_SIZE


@dataclass(frozen=True)
class PhysicalMemory:
    """A machine's physical frame space."""

    total_bytes: int = 1 << 40  # 1 TB default, per Table 4's big-memory host

    @property
    def total_frames(self) -> int:
        return self.total_bytes >> PAGE_SHIFT

    def __post_init__(self) -> None:
        if self.total_bytes % PAGE_SIZE:
            raise ValueError("physical memory must be page aligned")
