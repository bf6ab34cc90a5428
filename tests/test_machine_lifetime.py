"""A finished cell frees its simulated machine without the cycle collector.

Each run builds a process (page tables, buddy allocator), cache and TLB
hierarchies and a walker; a compiled run adds its path-row tables and
its resident cache images.  None of them may sit in a reference cycle —
placer callbacks, walker and TLB closures and scheme hooks all hold
their state on objects that do not point back — so reference counting
alone frees them once the run returns, instead of at the next full
garbage collection (which multi-cell passes reach with several dead
machines still resident).
"""

import gc
import weakref

import pytest

from repro.core.config import BASELINE, P1_P2
from repro.kernelsim.buddy import BuddyAllocator
from repro.kernelsim.hypervisor import VirtualMachine
from repro.kernelsim.process import ProcessAddressSpace
from repro.mem.hierarchy import CacheHierarchy
from repro.pagetable.nested import NestedPageWalker
from repro.pagetable.radix import RadixPageTable
from repro.pagetable.walker import PageWalker
from repro.runtime.job import PT_INVENTORY, Job, _pt_inventory
from repro.schemes import SchemeSpec
from repro.sim import columnar
from repro.sim.multitenant import MultiTenantSpec, run_native_mt
from repro.sim.runner import Scale, run_native, run_virtualized
from repro.tlb.hierarchy import TlbHierarchy

SCALE = Scale(trace_length=2_000, warmup=400, seed=3)

TRACKED = (ProcessAddressSpace, RadixPageTable, BuddyAllocator,
           CacheHierarchy, TlbHierarchy, PageWalker, NestedPageWalker,
           VirtualMachine, columnar._PathTable)

#: Compiled-kernel state without a weak-reference slot, tracked through
#: the array it alone owns.
TRACKED_BY_ARRAY = {columnar._CacheImage: "lines"}

VICTIMA = SchemeSpec(kind="victima")

CELLS = {
    **{f"native-{name}-{kernel}": (
        lambda config=config, scheme=scheme, kernel=kernel: run_native(
            "mcf", config, scale=SCALE, scheme=scheme, kernel=kernel))
       for name, config, scheme in (("baseline", BASELINE, None),
                                    ("asap", P1_P2, None),
                                    ("victima", BASELINE, VICTIMA))
       for kernel in ("scalar", "columnar")},
    "native-mt": lambda: run_native_mt(
        "mix-server", BASELINE, MultiTenantSpec(tenants=2, quantum=500),
        scale=SCALE),
    "virtualized": lambda: run_virtualized("mcf", scale=SCALE),
    "virtualized-scalar": lambda: run_virtualized("mcf", scale=SCALE,
                                                  kernel="scalar"),
    "pt-inventory": lambda: _pt_inventory(
        Job(kind=PT_INVENTORY, workload="mcf", scale=SCALE)),
}


@pytest.fixture
def built(monkeypatch):
    """``(type name, weak reference)`` for every tracked object
    constructed meanwhile."""
    refs = []
    for cls in TRACKED:
        def init(self, *args, __init=cls.__init__, **kwargs):
            __init(self, *args, **kwargs)
            refs.append((type(self).__name__, weakref.ref(self)))
        monkeypatch.setattr(cls, "__init__", init)
    for cls, attr in TRACKED_BY_ARRAY.items():
        def init(self, *args, __init=cls.__init__, __attr=attr, **kwargs):
            __init(self, *args, **kwargs)
            refs.append((type(self).__name__,
                         weakref.ref(getattr(self, __attr))))
        monkeypatch.setattr(cls, "__init__", init)
    return refs


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_finished_cell_frees_its_machine(cell, built):
    gc.collect()
    gc.disable()
    try:
        CELLS[cell]()
        alive = [name for name, ref in built if ref() is not None]
    finally:
        gc.enable()
    assert built, "the cell built nothing the test tracks"
    assert alive == []
    if cell == "virtualized" and columnar.columnar_available():
        # The compiled nested walk ran: its row tables and cache images
        # were among what the run freed.
        names = {name for name, _ in built}
        assert {"_NestedRows", "_HostChains", "_CacheImage"} <= names
