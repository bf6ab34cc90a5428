"""Virtual Memory Areas and the per-process VMA tree (§3.2).

A VMA is one contiguous range of allocated virtual addresses (heap, stack,
a memory-mapped file, a shared library...).  The paper observes that a small
number of large VMAs cover 99% of an application's footprint (Table 2) and
uses the VMA as the unit of ASAP acceleration: each tracked VMA gets one
range-register descriptor.

The tree is a sorted list with bisection lookup — Linux uses an rbtree (now
a maple tree); the observable behaviour (ordered, non-overlapping ranges
with O(log n) lookup) is the same.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np


class VmaKind(Enum):
    HEAP = "heap"
    STACK = "stack"
    MMAP = "mmap"
    LIBRARY = "library"
    OTHER = "other"


@dataclass
class Vma:
    """One contiguous virtual range. ``end`` is exclusive."""

    start: int
    size: int
    kind: VmaKind = VmaKind.MMAP
    name: str = ""
    growable: bool = False

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, va: int) -> bool:
        return self.start <= va < self.end

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Vma {self.name or self.kind.value}"
            f" [{self.start:#x}, {self.end:#x}) {self.size >> 20}MB>"
        )


class VmaOverlapError(ValueError):
    """A new VMA would overlap an existing one."""


class VmaTree:
    """Ordered, non-overlapping set of VMAs with bisection lookup."""

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._vmas: list[Vma] = []

    def __len__(self) -> int:
        return len(self._vmas)

    def __iter__(self):
        return iter(self._vmas)

    def insert(self, vma: Vma) -> Vma:
        idx = bisect_right(self._starts, vma.start)
        prev_vma = self._vmas[idx - 1] if idx > 0 else None
        next_vma = self._vmas[idx] if idx < len(self._vmas) else None
        if prev_vma is not None and prev_vma.end > vma.start:
            raise VmaOverlapError(f"{vma} overlaps {prev_vma}")
        if next_vma is not None and vma.end > next_vma.start:
            raise VmaOverlapError(f"{vma} overlaps {next_vma}")
        self._starts.insert(idx, vma.start)
        self._vmas.insert(idx, vma)
        return vma

    def find(self, va: int) -> Vma | None:
        """The VMA containing ``va``, or None (an unmapped address)."""
        idx = bisect_right(self._starts, va) - 1
        if idx < 0:
            return None
        vma = self._vmas[idx]
        return vma if vma.contains(va) else None

    def locate(self, vas: np.ndarray) -> np.ndarray:
        """:meth:`find` over an int64 array of addresses: each one's
        VMA as its index in tree order, or -1 outside every VMA."""
        starts = np.array(self._starts, dtype=np.int64)
        ends = np.array([vma.end for vma in self._vmas], dtype=np.int64)
        index = np.searchsorted(starts, vas, side="right") - 1
        inside = index >= 0
        inside[inside] = vas[inside] < ends[index[inside]]
        return np.where(inside, index, -1)

    def extend(self, vma: Vma, delta: int) -> None:
        """Grow ``vma`` upward by ``delta`` bytes (brk/sbrk, §3.7.2)."""
        if not vma.growable:
            raise ValueError(f"{vma} is not growable")
        if delta <= 0:
            raise ValueError("extension must be positive")
        idx = bisect_right(self._starts, vma.start) - 1
        if idx < 0 or self._vmas[idx] is not vma:
            raise KeyError("VMA is not part of this tree")
        next_vma = self._vmas[idx + 1] if idx + 1 < len(self._vmas) else None
        if next_vma is not None and vma.end + delta > next_vma.start:
            raise VmaOverlapError("extension collides with the next VMA")
        vma.size += delta

    # ------------------------------------------------------------------
    # footprint statistics for Table 2
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(v.size for v in self._vmas)

    def count_for_coverage(self, fraction: float = 0.99) -> int:
        """Fewest VMAs (largest first) covering ``fraction`` of the footprint.

        This is the paper's "VMAs for 99% footprint coverage" metric
        (Table 2), which sizes the range-register file.
        """
        if not self._vmas:
            return 0
        target = self.total_bytes * fraction
        covered = 0
        for count, vma in enumerate(
            sorted(self._vmas, key=lambda v: v.size, reverse=True), start=1
        ):
            covered += vma.size
            if covered >= target:
                return count
        return len(self._vmas)

    def largest(self, count: int) -> list[Vma]:
        """The ``count`` largest VMAs — the ones ASAP should track."""
        ranked = sorted(self._vmas, key=lambda v: v.size, reverse=True)
        return ranked[:count]
