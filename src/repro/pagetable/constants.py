"""x86-64 radix page-table geometry (Figure 1 of the paper).

A 48-bit virtual address splits into four 9-bit radix indices plus a 12-bit
page offset; the optional fifth level (Intel's 5-level paging white paper,
reference [3] of the paper) adds another 9-bit index for 57-bit addresses.

Levels are numbered as in the paper: PL4 is the root, PL1 holds the leaf
PTEs.  With five-level paging the root becomes PL5.
"""

from __future__ import annotations

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT

#: Bits of virtual address consumed by one radix level.
LEVEL_BITS = 9
#: Fan-out of every intermediate node.
ENTRIES_PER_NODE = 1 << LEVEL_BITS
#: Size of one page-table entry in bytes.
ENTRY_BYTES = 8
#: A PT node occupies exactly one page.
NODE_BYTES = ENTRIES_PER_NODE * ENTRY_BYTES

#: 2MB large page: one PL2 entry maps 512 base pages (Section 2.3).
LARGE_PAGE_SHIFT = PAGE_SHIFT + LEVEL_BITS
LARGE_PAGE_SIZE = 1 << LARGE_PAGE_SHIFT
#: 1GB huge page: one PL3 entry maps 512 large pages.
HUGE_PAGE_SHIFT = LARGE_PAGE_SHIFT + LEVEL_BITS
HUGE_PAGE_SIZE = 1 << HUGE_PAGE_SHIFT

#: Canonical four-level walk order, root first.
FOUR_LEVELS = (4, 3, 2, 1)
FIVE_LEVELS = (5, 4, 3, 2, 1)

VA_BITS_4LEVEL = 48
VA_BITS_5LEVEL = 57

LINE_SHIFT = 6
LINE_BYTES = 1 << LINE_SHIFT


def level_shift(level: int) -> int:
    """Bit position where the radix index of ``level`` starts.

    PL1 indexes with bits [12, 21), PL2 with [21, 30), and so on.
    """
    if level < 1:
        raise ValueError(f"page-table levels are numbered from 1, got {level}")
    return PAGE_SHIFT + LEVEL_BITS * (level - 1)


def level_index(va: int, level: int) -> int:
    """Radix index of virtual address ``va`` at page-table ``level``."""
    return (va >> level_shift(level)) & (ENTRIES_PER_NODE - 1)


def level_tag(va: int, level: int) -> int:
    """All VA bits above (and including) ``level``'s index field.

    Two addresses share the same level-L node iff they share the tag of
    level L: the node is selected by every index above it.
    """
    return va >> level_shift(level)


def node_tag(va: int, level: int) -> int:
    """Identity of the level-``level`` node that translates ``va``.

    The node reached at level L is selected by the indices of all levels
    *above* L, i.e. by the VA bits from ``level_shift(level) + LEVEL_BITS``
    upward.
    """
    return va >> (level_shift(level) + LEVEL_BITS)


def pages_mapped_by(level: int) -> int:
    """Number of 4KB pages reachable through a single level-``level`` entry."""
    return 1 << (LEVEL_BITS * (level - 1))


def vpn(va: int) -> int:
    return va >> PAGE_SHIFT


def line_of(phys_addr: int) -> int:
    """Cache-line number of a physical byte address."""
    return phys_addr >> LINE_SHIFT


def entry_phys_addr(node_phys_base: int, index: int) -> int:
    """Physical byte address of entry ``index`` inside a PT node."""
    if not 0 <= index < ENTRIES_PER_NODE:
        raise ValueError(f"PT node index out of range: {index}")
    return node_phys_base + index * ENTRY_BYTES
