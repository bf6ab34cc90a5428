"""Unit tests for the radix page table and walk paths."""

import pytest

from repro.pagetable import constants as c
from repro.pagetable.radix import PageFault, RadixPageTable

VA = 0x5555_0000_0000


def test_root_exists_at_creation():
    pt = RadixPageTable()
    assert pt.node_count() == 1
    assert pt.node_count(4) == 1


def test_map_and_lookup_small_page():
    pt = RadixPageTable()
    pt.map_page(VA, frame=777)
    assert pt.lookup(VA) == (777, 1)
    assert pt.lookup(VA + 100) == (777, 1)  # same page
    assert pt.lookup(VA + c.PAGE_SIZE) is None


def test_map_creates_interior_nodes_once():
    pt = RadixPageTable()
    created = pt.map_page(VA, frame=1)
    assert [lvl for lvl, _, _ in created] == [3, 2, 1]
    created = pt.map_page(VA + c.PAGE_SIZE, frame=2)
    assert created == []  # same PL1 node covers both pages
    assert pt.node_count() == 4  # root + PL3 + PL2 + PL1


def test_walk_path_structure():
    pt = RadixPageTable()
    pt.map_page(VA, frame=42)
    path = pt.walk_path(VA)
    assert [s.level for s in path.steps] == [4, 3, 2, 1]
    assert path.frame == 42
    assert path.leaf_level == 1
    assert not path.is_large


def test_walk_path_entry_addresses_are_within_nodes():
    pt = RadixPageTable()
    pt.map_page(VA, frame=42)
    for step in pt.walk_path(VA).steps:
        offset = step.entry_addr % c.NODE_BYTES
        assert offset == c.level_index(VA, step.level) * c.ENTRY_BYTES


def test_adjacent_pages_share_pl1_line():
    # Eight consecutive pages have PTEs in one 64-byte line — the property
    # both PT-walk locality and Clustered TLB coalescing rely on.
    pt = RadixPageTable()
    base = VA & ~(8 * c.PAGE_SIZE - 1)
    for i in range(8):
        pt.map_page(base + i * c.PAGE_SIZE, frame=100 + i)
    lines = {pt.walk_path(base + i * c.PAGE_SIZE).steps[-1].line
             for i in range(8)}
    assert len(lines) == 1


def test_unmapped_lookup_raises_on_walk():
    pt = RadixPageTable()
    with pytest.raises(PageFault):
        pt.walk_path(VA)


def test_large_page_mapping():
    pt = RadixPageTable()
    base = VA & ~(c.LARGE_PAGE_SIZE - 1)
    pt.map_page(base, frame=512 * 9, leaf_level=2)
    frame, leaf = pt.lookup(base + 5 * c.PAGE_SIZE)
    assert leaf == 2
    assert frame == 512 * 9 + 5  # frame within the large page
    path = pt.walk_path(base)
    assert [s.level for s in path.steps] == [4, 3, 2]
    assert path.is_large


def test_large_page_requires_alignment():
    pt = RadixPageTable()
    with pytest.raises(ValueError):
        pt.map_page(VA & ~(c.LARGE_PAGE_SIZE - 1), frame=7, leaf_level=2)


def test_five_level_tree():
    pt = RadixPageTable(levels=5)
    va = 1 << 52  # needs the fifth level
    pt.map_page(va, frame=3)
    path = pt.walk_path(va)
    assert [s.level for s in path.steps] == [5, 4, 3, 2, 1]


def test_invalid_level_count():
    with pytest.raises(ValueError):
        RadixPageTable(levels=3)


def test_fault_path_missing_everything_below_root():
    pt = RadixPageTable()
    fault = pt.fault_path(VA)
    # Only the root exists; its entry is readable, the PL3 node is missing.
    assert [s.level for s in fault.resolved_steps] == [4]
    assert fault.missing_level == 3


def test_fault_path_with_sibling_mapping():
    pt = RadixPageTable()
    pt.map_page(VA, frame=1)
    # A page in the same PL1 node but unmapped: all nodes exist, the PTE
    # slot is empty.
    fault = pt.fault_path(VA + c.PAGE_SIZE)
    assert [s.level for s in fault.resolved_steps] == [4, 3, 2, 1]
    assert fault.missing_level == 0


def test_fault_path_rejects_mapped_addresses():
    pt = RadixPageTable()
    pt.map_page(VA, frame=1)
    with pytest.raises(ValueError):
        pt.fault_path(VA)


def test_unmap_page():
    pt = RadixPageTable()
    pt.map_page(VA, frame=1)
    assert pt.unmap_page(VA)
    assert pt.lookup(VA) is None
    assert not pt.unmap_page(VA)


def test_cluster_frames():
    pt = RadixPageTable()
    vpn = (VA >> c.PAGE_SHIFT) & ~7
    pt.map_page(vpn << c.PAGE_SHIFT, frame=50)
    pt.map_page((vpn + 3) << c.PAGE_SHIFT, frame=53)
    frames = pt.cluster_frames(vpn + 1)
    assert frames[0] == 50
    assert frames[3] == 53
    assert frames[1] is None


def test_mapped_pages_counts_large_as_512():
    pt = RadixPageTable()
    pt.map_page(VA, frame=1)
    base = (VA + (1 << 30)) & ~(c.LARGE_PAGE_SIZE - 1)
    pt.map_page(base, frame=1024, leaf_level=2)
    assert pt.mapped_pages == 1 + 512


def test_node_placer_receives_level_and_tag():
    seen = []

    def placer(level, tag):
        seen.append((level, tag))
        return (len(seen) + 1000) * c.NODE_BYTES

    pt = RadixPageTable(node_placer=placer)
    pt.map_page(VA, frame=1)
    levels = [lvl for lvl, _ in seen]
    assert levels == [4, 3, 2, 1]  # root first, then the fault path


def test_map_contiguous_equals_map_page_per_unmapped_page():
    """Same nodes, placer calls (in order), leaf entries and leaf-map
    insertion order as the per-page loop it replaces — across leaf-node
    boundaries, around pages already mapped at 4KB and inside a 2MB
    mapping."""
    first_vpn = (VA >> c.PAGE_SHIFT) + 500
    count = 3 * c.ENTRIES_PER_NODE

    def build():
        calls = []

        def placer(level, tag):
            calls.append((level, tag))
            return (len(calls) + 1) * c.NODE_BYTES

        pt = RadixPageTable(node_placer=placer)
        pt.map_page((first_vpn + 3) << c.PAGE_SHIFT, frame=9)
        pt.map_page((first_vpn + 700) << c.PAGE_SHIFT, frame=11)
        large_vpn = (first_vpn + c.ENTRIES_PER_NODE) & ~(c.ENTRIES_PER_NODE - 1)
        pt.map_page(large_vpn << c.PAGE_SHIFT, frame=1 << 20, leaf_level=2)
        return pt, calls

    one, one_calls = build()
    for i in range(count):
        va = (first_vpn + i) << c.PAGE_SHIFT
        if one.lookup(va) is None:
            one.map_page(va, 5000 + i, 1)
    bulk, bulk_calls = build()
    bulk.map_contiguous(first_vpn, 5000, count)

    assert bulk_calls == one_calls
    assert bulk._nodes_by_level == one._nodes_by_level
    assert list(bulk._pages.items()) == list(one._pages.items())
    assert bulk._large == one._large
