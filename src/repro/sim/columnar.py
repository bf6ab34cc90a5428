"""Columnar chunk kernel: the scalar record loop recast as a C loop.

Both simulators share one scalar record loop (``TraceSimulation.run``
in `repro.sim.simulator`).  Its plain-pipeline case,
``_fast_native_sweep``, is a pure function of the flat-array
TLB/PWC/cache state plus the page table's translation for each VPN.
This module compiles an exact transliteration of that sweep, extended
with the nested walk and the scheme hooks below (via cffi's ABI mode
and the system C compiler), and drives it one TraceSource chunk at a
time.  It is the default engine of every ``run()`` it can replay, and
the scalar loop is its oracle:

* Python precomputes, per chunk, a *path row* for every distinct VPN —
  the page-table node cache lines the walker would touch, the three PWC
  tags, the leaf level and frame — with whole-array numpy passes over
  the radix table's leaf and node maps.  Rows are cached across chunks
  in a :class:`_PathTable` (the page table cannot change mid-run).
* The C kernel then replays the per-record state machine: L1/L2 TLB
  probe with LRU promotion, PWC probe/insert, per-level cache walk
  steps, TLB fill, and the data access — mutating images of the same
  flat arrays the scalar path uses and accumulating the same counters,
  which are written back at the end of every ``run()`` call.

The nested walk.  A VirtualizedSimulation's chunks run through the same
loop with Figure 7's 2D walk in place of the radix walk.  Its rows
(:class:`_NestedRows`, one per guest page) hold the guest PWC tags, the
guest leaf level, the large-page flag, the guest-physical line of each
guest entry and the guest ASAP columns, and point each nested step —
guest levels 4 down to the leaf, then the data page — at a *host
chain*: a native path row over the VM's host page table, one per
guest-physical page (:class:`_HostChains`), which gives the host PWC
tags, the host walk's node lines, the host frame (hence the guest
entry's host line and the data frame) and the host ASAP columns.  Both
tables come from the same bulk passes as native rows.  The one page
populate leaves unbacked, the guest root node's, is mapped by the
scalar loop at the first walk that needs it, drawing a host frame; the
kernel stops before such a walk, ``VirtualMachine.nested_path`` maps
the page at that point of the host buddy's sequence, and the kernel
resumes (ARCHITECTURE.md §12).

The co-runner.  A colocated run hands the kernel the SMT co-runner's
drawn stream (`repro.workloads.corunner`): its int64 line groups, each
group's line count, the two cursors, ``intensity`` and the step count.
After each record's data access and clock update the kernel issues the
record's ``intensity`` groups through the same cache access, at the new
clock, where the scalar loop calls ``Corunner.step``.  It stops before
a record whose groups are not drawn yet; ``run_columnar`` draws the
next batch with ``Corunner._draw_ahead`` (the same generator draws, in
the same order, as the scalar step's) and resumes at that record.

Resident cache images.  A multi-tenant schedule makes one ``run()``
call per quantum, and converting the L3 (16,384 sets x 21 slots) to
numpy and back on every call would cost far more than the few hundred
records a quantum replays.  So each ``SetAssociativeCache`` keeps its
int64 image as ``cache.image`` between calls, and the kernel raises a
per-set touched flag whenever it changes a set; the write-back copies
only the flagged sets into the lists.  The invariant: **the Python
lists stay the source of truth, and an image, whenever one exists,
equals its lists.**  Every Python write to the lists outside this
write-back therefore drops the image (``cache.image = None``; the next
call rebuilds it):

* the ``SetAssociativeCache`` mutators ``lookup``, ``install``,
  ``invalidate`` and ``flush``;
* ``CacheHierarchy.access_line``, and through the cache mutators
  ``prefetch_line``, ``warm`` and ``flush``;
* the start of every scalar record loop — the scalar branch of
  ``TraceSimulation.run`` — whose inlined ``access`` closure writes
  the lists directly, and the public walker entry points
  (``PageWalker.walk``/``walk_to_fault``, ``NestedPageWalker.walk``).

Victima's parked maps follow the same rule: each scheme keeps its C
pool as ``scheme.park_image``, its Python mutators (``_park``,
``_probe``, ``on_translation_flush``) drop it, and the write-back
replays only the entries the call removed, added or re-framed.

The TLBs, PWCs (about 4k slots together, flushed between quanta), the
MSHR file and every counter are still loaded and written back whole on
each call.

Byte-identity with the scalar path is a hard invariant (the scalar
kernel is the differential oracle; see tests/test_columnar_differential
and ARCHITECTURE.md §12).  The kernel engages in one of four modes —
``plain`` (no scheme hooks; the original fast-sweep configuration),
``asap`` (the only hooks are AsapPrefetchers — the walk-start one and,
in a nested walk, the host one: the prefetch issue/completion state
machine is compiled into the chunk loop, with the range-register
outcome, per-level target lines and hole flags precomputed per page
into the path rows), ``victima`` (the
probe is a Victima scheme's and the L2-TLB-eviction hook is a Victima
park, directly or through the multi-tenant victim router: each
scheme's parked-entry map is carried as a C hash + FIFO pool, the
TLB-fill victim filter runs inline and parks each victim in its
owner's pool) and ``revelator`` (the only hook is a RevelatorLike's
walk end: after each walk, native or nested, the kernel replays its
speculate-and-verify step, with the CRC-32 placement lottery over the
ASID-biased vpn and the wrong-path access computed in C, so there are
no extra row columns).  Every scheme of the comparison roster thus
compiles, with or without a co-runner.  All other configurations
(``Corunner`` subclasses, infinite or clustered TLBs, 5-level page
tables, custom hooks, non-power-of-two geometries) fall back to the
scalar loop, so every cell still runs.
MSHR state is
round-tripped in every mode and the C ``cache_access`` has the merge
branch, so in-flight prefetches straddle chunk seams byte-identically.

The node-constancy rule.  ``asap`` rows carry the prefetcher's hole
verdict per target level, and ``_PathTable`` evaluates it once per
(descriptor, level, page-table node), not once per page.  That is exact
only if the verdict is the same for every page of one descriptor that
shares a node.  It holds for the :class:`~repro.kernelsim.pt_layout.
VmaHoleChecker` that ``AsapScheme`` binds: its verdict reads only the
VMA and the node tag, and a descriptor that lies inside one VMA sees
that VMA for all of its pages.  ``engine_mode`` enforces the rule: any
other checker, or a descriptor that is not page-aligned or not inside
one VMA of the checker's tree, keeps the run on the scalar loop.

Native and virtualized simulations use this kernel by default;
``kernel="scalar"`` forces the scalar loop, the differential oracle.
The backend is
optional: without a C compiler or cffi every run silently stays
scalar.  Set ``REPRO_REQUIRE_CCORE=1`` to turn backend unavailability
into an error (CI does this wherever a job checks compiled runs).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import threading
from collections import deque
from itertools import repeat

import numpy as np

from repro.kernelsim.pt_layout import VmaHoleChecker
from repro.mem.cache import EMPTY
from repro.pagetable.constants import node_tag
from repro.pagetable.nested import NestedPageWalker
from repro.sim.order import run_starts
from repro.tlb.tlb import ASID_SHIFT, asid_bias
from repro.traces.source import kernel_chunk
from repro.workloads.corunner import Corunner

#: Valid values of the simulators' ``kernel=`` selector.
KERNELS = ("scalar", "columnar")

# --- geometry / counter slot layout (mirrors the C enums) -------------

_G_T = 0          # L1 TLB nsets, stride, ways
_G_U = 3          # L2 TLB
_G_P2 = 6         # PWC PL2, PL3, PL4 (6-14)
_G_C1 = 15        # L1 cache
_G_C2 = 18        # L2 cache
_G_C3 = 21        # L3 cache
_G_LAT1 = 24
_G_LAT2 = 25
_G_LAT3 = 26
_G_LATM = 27
_G_PWC_LAT = 28
_G_BASE_CYCLES = 29
_G_VBIAS = 30
_G_PROBE_LARGE = 31
_G_MODE = 32        # 0 plain, 1 asap, 2 victima, 3 revelator
_G_REQ_MSHR = 33    # asap: require a free MSHR per prefetch
_G_MSHR_CAP = 34
_G_PF_N = 35        # asap: number of prefetch-target levels
_G_PF_L = 36        # asap: the levels themselves (4 slots, 36-39)
_G_PROBE_LAT = 40   # victima: probe latency (L2 by construction)
_G_PARK_SELF = 41   # victima: the running scheme's pool (its probes)
_G_H2 = 42          # nested: host PWC PL2, PL3, PL4 (42-50)
_G_HPWC_LAT = 51
_G_NESTED = 52      # 1 for a VirtualizedSimulation's nested rows
_G_HPF_N = 53       # nested asap: the host prefetcher's levels (54-57)
_G_HPF_L = 54
_G_HREQ_MSHR = 58
_G_REV_COVERAGE = 59  # revelator: placement coverage, in 1/10,000
_G_REV_SPEC = 60      # revelator: speculation latency
_G_REV_PENALTY = 61   # revelator: misprediction squash penalty
_GEOM_SLOTS = 62

# park meta slots (mirror the C PM_* enum): count, FIFO head and tail,
# free-list head, hash tombstones, bound (= capacity), hash capacity,
# the scheme's `parked` counter, changed flag, removal-log length
(_PM_COUNT, _PM_HEAD, _PM_TAIL, _PM_FREE, _PM_TOMBS, _PM_MAX, _PM_HCAP,
 _PM_PARKED, _PM_DIRTY, _PM_LOGGED) = range(10)
_PM_SLOTS = 10
_PARK_SLOT = 5    # pool slot fields: vpn, frame, prev, next, mark

(K_TH, K_TM, K_L1H, K_L2H, K_LS_H, K_LS_M, K_US_H, K_US_M,
 K_PWC_PROBES, K_PWC_HITS, K_P2_H, K_P2_M, K_P3_H, K_P3_M,
 K_P4_H, K_P4_M, K_WALKS, K_WALK_CYCLES,
 K_C1_H, K_C1_M, K_C1_E, K_C2_H, K_C2_M, K_C2_E,
 K_C3_H, K_C3_M, K_C3_E,
 K_SRV_L1, K_SRV_L2, K_SRV_L3, K_SRV_MEM,
 K_RR_H, K_RR_M, K_PF_ISSUED, K_PF_USEFUL, K_PF_DROPNM,
 K_PF_NODESC, K_PF_HOLE, K_H_PF_ISSUED, K_H_PF_DROP,
 K_MSHR_ALLOC, K_MSHR_REJ, K_MSHR_MERGE,
 K_V_PROBE_H, K_V_PROBE_M, K_V_LOST,
 K_HRR_H, K_HRR_M, K_HPF_ISSUED, K_HPF_USEFUL, K_HPF_DROPNM,
 K_HPF_NODESC, K_HPF_HOLE,
 K_HPWC_PROBES, K_HPWC_HITS, K_H2_H, K_H2_M, K_H3_H, K_H3_M,
 K_H4_H, K_H4_M, K_WALK_ACC,
 K_SPEC, K_SPEC_OK, K_SPEC_MISS) = range(65)
_COUNTER_SLOTS = 65

# carry slots (the scalar loop's run-wide state tuple)
_CAR_NOW = 0
_CAR_MEASURING = 1
_CAR_ACC = 2
_CAR_DATA_C = 3
_CAR_WALK_C = 4
_CAR_WALK_COUNT = 5
_CAR_L1_BASE = 6
_CAR_L2_BASE = 7
_CARRY_SLOTS = 8

# co-runner slots (mirror the C CO_* enum)
_CO_CURSOR, _CO_TAKE, _CO_NTAKES, _CO_INTENSITY, _CO_ACCESSES = range(5)
_CO_SLOTS = 5

#: Figure-9 service histogram: 6 labels per PT level; row = level - 1
#: for native walks and the guest dimension ("g<level>"), 4 + level - 1
#: for the host dimension ("h<level>"); column = index into
#: SERVICE_LABELS.
_SERVICE_SLOTS = 48
_SERVICE_LABELS = ("PWC", "L1", "MSHR", "L2", "L3", "MEM")

#: Path-row layout: lines l4 l3 l2 l1, tg2 tg3 tg4, leaf, pframe, large
#: (cols 0-9, the plain walk) plus the ASAP replay block (10-18):
#: descriptor flag, per-slot prefetch target lines or -1, and per-slot
#: hole flags.  The ASAP columns are exact under the node-constancy
#: rule that ``engine_mode`` enforces (module docstring).  A row whose
#: page is unmapped (possible only in a host chain) has leaf 0.
_PATH_COLS = 19
_ASAP_COL = 10

#: A path row before its columns are written: no level-1 line (large
#: pages), no descriptor hit, no prefetch targets (-1), no holes.
_EMPTY_ROW = np.zeros(_PATH_COLS, dtype=np.int64)
_EMPTY_ROW[_ASAP_COL + 1:_ASAP_COL + 5] = -1

#: Nested-row layout (a guest page of a VirtualizedSimulation): guest PWC
#: tags tg2 tg3 tg4 (0-2), guest leaf level (3), large flag (4), lazy
#: flag (5: some page of the path is not mapped by the host page table
#: yet), the host-chain row of each nested step (6-10: guest levels 4
#: down to the leaf, then the data page), the guest-physical line of
#: each guest step's entry (11-14), and the guest ASAP block (15-23).
_NESTED_COLS = 24
_R_LEAF, _R_LAZY, _R_CHAIN, _R_GLINE, _R_ASAP = 3, 5, 6, 11, 15
_EMPTY_NESTED = np.zeros(_NESTED_COLS, dtype=np.int64)
_EMPTY_NESTED[_R_ASAP + 1:_R_ASAP + 5] = -1

_C_SOURCE = r"""
#include <string.h>

typedef long long i64;
#define EMPTY (-1LL)

/* geometry slots */
enum {
    G_T = 0, G_U = 3, G_P2 = 6,
    G_C1 = 15, G_C2 = 18, G_C3 = 21,
    G_LAT1 = 24, G_LAT2 = 25, G_LAT3 = 26, G_LATM = 27,
    G_PWC_LAT = 28, G_BASE_CYCLES = 29, G_VBIAS = 30, G_PROBE_LARGE = 31,
    G_MODE = 32, G_REQ_MSHR = 33, G_MSHR_CAP = 34,
    G_PF_N = 35, G_PF_L = 36,
    G_PROBE_LAT = 40, G_PARK_SELF = 41,
    G_H2 = 42, G_HPWC_LAT = 51, G_NESTED = 52,
    G_HPF_N = 53, G_HPF_L = 54, G_HREQ_MSHR = 58,
    G_REV_COVERAGE = 59, G_REV_SPEC = 60, G_REV_PENALTY = 61
};

/* counter slots */
enum {
    K_TH, K_TM, K_L1H, K_L2H, K_LS_H, K_LS_M, K_US_H, K_US_M,
    K_PWC_PROBES, K_PWC_HITS, K_P2_H, K_P2_M, K_P3_H, K_P3_M,
    K_P4_H, K_P4_M, K_WALKS, K_WALK_CYCLES,
    K_C1_H, K_C1_M, K_C1_E, K_C2_H, K_C2_M, K_C2_E,
    K_C3_H, K_C3_M, K_C3_E,
    K_SRV_L1, K_SRV_L2, K_SRV_L3, K_SRV_MEM,
    K_RR_H, K_RR_M, K_PF_ISSUED, K_PF_USEFUL, K_PF_DROPNM,
    K_PF_NODESC, K_PF_HOLE, K_H_PF_ISSUED, K_H_PF_DROP,
    K_MSHR_ALLOC, K_MSHR_REJ, K_MSHR_MERGE,
    K_V_PROBE_H, K_V_PROBE_M, K_V_LOST,
    K_HRR_H, K_HRR_M, K_HPF_ISSUED, K_HPF_USEFUL, K_HPF_DROPNM,
    K_HPF_NODESC, K_HPF_HOLE,
    K_HPWC_PROBES, K_HPWC_HITS, K_H2_H, K_H2_M, K_H3_H, K_H3_M,
    K_H4_H, K_H4_M, K_WALK_ACC,
    K_SPEC, K_SPEC_OK, K_SPEC_MISS
};

/* One prefetcher's counter block (K_RR_H.. for the native or guest
   prefetcher, K_HRR_H.. for the host one) and one PWC's (K_PWC_PROBES..
   for the native or guest PWC, K_HPWC_PROBES.. for the host one). */
enum { PF_RR_H, PF_RR_M, PF_ISSUED, PF_USEFUL, PF_DROPNM, PF_NODESC,
       PF_HOLE };
enum { PW_PROBES, PW_HITS, PW_L2_H, PW_L2_M };

/* Walk rows: native path rows (and the host chains of nested rows) are
   PATH_COLS wide, nested rows NESTED_COLS; column names below. */
#define PATH_COLS 19
enum { W_LINES = 0, W_TG = 4, W_LEAF = 7, W_FRAME = 8, W_LARGE = 9,
       W_ASAP = 10 };
#define NESTED_COLS 24
enum { R_TG = 0, R_LEAF = 3, R_LARGE = 4, R_LAZY = 5, R_CHAIN = 6,
       R_GLINE = 11, R_ASAP = 15 };
#define PARK_BASE (1LL << 50)

/* carry slots */
enum {
    CAR_NOW, CAR_MEASURING, CAR_ACC, CAR_DATA_C,
    CAR_WALK_C, CAR_WALK_COUNT, CAR_L1_BASE, CAR_L2_BASE
};

/* co-runner slots: the next group's first line and its index, the
   groups drawn, the groups per record, the co-runner's step count */
enum { CO_CURSOR, CO_TAKE, CO_NTAKES, CO_INTENSITY, CO_ACCESSES };

/* Guard-slot scan for `tag` in the set segment [base, guard).  Writes
   the tag into the guard slot, scans, restores the EMPTY sentinel (the
   scalar probes do the same, and writeback byte-identity depends on
   it) and returns the hit position or -1. */
static i64 lru_scan(i64 *tags, i64 base, i64 guard, i64 tag)
{
    tags[guard] = tag;
    i64 pos = base;
    while (tags[pos] != tag)
        pos++;
    tags[guard] = EMPTY;
    return pos == guard ? -1 : pos;
}

/* Promote the entry at `pos` to MRU (slot `base`). */
static void lru_promote(i64 *tags, i64 *frames, i64 base, i64 pos)
{
    i64 tag = tags[pos], frame = frames[pos];
    memmove(tags + base + 1, tags + base, (pos - base) * sizeof(i64));
    memmove(frames + base + 1, frames + base, (pos - base) * sizeof(i64));
    tags[base] = tag;
    frames[base] = frame;
}

/* Install a known-absent entry at MRU, shifting the rest down (the LRU
   victim falls off the segment end when the set is full — discarded,
   exactly like the scalar fast path's inlined fills). */
static void lru_install(i64 *tags, i64 *frames, i64 *sizes,
                        i64 set_index, i64 base, i64 ways,
                        i64 tag, i64 frame)
{
    i64 size = sizes[set_index];
    i64 count = size >= ways ? ways - 1 : size;
    memmove(tags + base + 1, tags + base, count * sizeof(i64));
    memmove(frames + base + 1, frames + base, count * sizeof(i64));
    if (size < ways)
        sizes[set_index] = size + 1;
    tags[base] = tag;
    frames[base] = frame;
}

/* PWC probe: MRU shortcut, guard scan, promote on scan hit. 1 = hit. */
static int pwc_probe(i64 *tags, i64 *frames, const i64 *sizes,
                     i64 nsets, i64 stride, i64 tg)
{
    i64 set_index = tg & (nsets - 1);
    i64 base = set_index * stride;
    if (tags[base] == tg)
        return 1;
    i64 pos = lru_scan(tags, base, base + sizes[set_index], tg);
    if (pos < 0)
        return 0;
    lru_promote(tags, frames, base, pos);
    return 1;
}

/* PWC insert (the cached value is always 1): present entries are
   promoted and refreshed, absent ones installed with LRU eviction. */
static void pwc_insert(i64 *tags, i64 *frames, i64 *sizes,
                       i64 nsets, i64 stride, i64 ways, i64 tg)
{
    i64 set_index = tg & (nsets - 1);
    i64 base = set_index * stride;
    if (tags[base] == tg) {
        frames[base] = 1;
        return;
    }
    i64 size = sizes[set_index];
    i64 pos = lru_scan(tags, base, base + size, tg);
    if (pos >= 0) {
        memmove(tags + base + 1, tags + base, (pos - base) * sizeof(i64));
        memmove(frames + base + 1, frames + base,
                (pos - base) * sizeof(i64));
    } else {
        i64 count = size >= ways ? ways - 1 : size;
        memmove(tags + base + 1, tags + base, count * sizeof(i64));
        memmove(frames + base + 1, frames + base, count * sizeof(i64));
        if (size < ways)
            sizes[set_index] = size + 1;
    }
    tags[base] = tg;
    frames[base] = 1;
}

/* One data cache's resident image: the flat LRU lines/sizes plus one
   touched flag per set.  Every routine below that changes a set's
   lines or size raises its flag, so the Python side writes back only
   the flagged sets (the guard-slot write of a scan is restored before
   returning and changes nothing). */
typedef struct {
    i64 *lines;
    i64 *sizes;
    unsigned char *touched;
    i64 nsets, stride, ways;
} cache_t;

/* One cache level: MRU shortcut + guard scan + promote.  1 = hit. */
static int cache_probe(const cache_t *c, i64 line)
{
    i64 *lines = c->lines;
    i64 set_index = line & (c->nsets - 1);
    i64 base = set_index * c->stride;
    if (lines[base] == line)
        return 1;
    i64 guard = base + c->sizes[set_index];
    lines[guard] = line;
    i64 pos = base;
    while (lines[pos] != line)
        pos++;
    lines[guard] = EMPTY;
    if (pos == guard)
        return 0;
    memmove(lines + base + 1, lines + base, (pos - base) * sizeof(i64));
    lines[base] = line;
    c->touched[set_index] = 1;
    return 1;
}

static void cache_install(const cache_t *c, i64 line, i64 *evictions)
{
    i64 *lines = c->lines;
    i64 set_index = line & (c->nsets - 1);
    i64 base = set_index * c->stride;
    i64 size = c->sizes[set_index];
    i64 count;
    if (size >= c->ways) {
        count = c->ways - 1;
        (*evictions)++;
    } else {
        count = size;
        c->sizes[set_index] = size + 1;
    }
    memmove(lines + base + 1, lines + base, count * sizeof(i64));
    lines[base] = line;
    c->touched[set_index] = 1;
}

/* Cache.install for a line that may already be present (Victima's park
   path uses the generic Cache.install): promote if found, LRU-evict
   otherwise. */
static void cache_install_scan(const cache_t *c, i64 line, i64 *evictions)
{
    i64 *lines = c->lines;
    i64 set_index = line & (c->nsets - 1);
    i64 base = set_index * c->stride;
    i64 size = c->sizes[set_index];
    i64 limit = base + size;
    lines[limit] = line;
    i64 pos = base;
    while (lines[pos] != line)
        pos++;
    lines[limit] = EMPTY;
    if (pos != limit) {
        memmove(lines + base + 1, lines + base, (pos - base) * sizeof(i64));
    } else if (size >= c->ways) {
        memmove(lines + base + 1, lines + base,
                (c->ways - 1) * sizeof(i64));
        (*evictions)++;
    } else {
        memmove(lines + base + 1, lines + base, size * sizeof(i64));
        c->sizes[set_index] = size + 1;
    }
    lines[base] = line;
    c->touched[set_index] = 1;
}

/* Cache.invalidate: shift the tail down over the (known-present) line.
   No stats, exactly like the scalar method. */
static void cache_invalidate(const cache_t *c, i64 line)
{
    i64 *lines = c->lines;
    i64 set_index = line & (c->nsets - 1);
    i64 base = set_index * c->stride;
    i64 size = c->sizes[set_index];
    i64 limit = base + size;
    lines[limit] = line;
    i64 pos = base;
    while (lines[pos] != line)
        pos++;
    lines[limit] = EMPTY;
    if (pos == limit)
        return;
    memmove(lines + pos, lines + pos + 1, (limit - 1 - pos) * sizeof(i64));
    lines[limit - 1] = EMPTY;
    c->sizes[set_index] = size - 1;
    c->touched[set_index] = 1;
}

/* --- MSHR file: mshr[0] = live count, lines at mshr+1, completion
   times at mshr+1+cap, insertion order preserved (mirrors the ordered
   dict in repro.mem.mshr). ---------------------------------------- */

static void mshr_retire(i64 *mshr, i64 cap, i64 now)
{
    i64 count = mshr[0];
    i64 *lines = mshr + 1;
    i64 *times = mshr + 1 + cap;
    i64 out = 0;
    for (i64 i = 0; i < count; i++) {
        if (times[i] > now) {
            lines[out] = lines[i];
            times[out] = times[i];
            out++;
        }
    }
    mshr[0] = out;
}

static i64 mshr_find(const i64 *mshr, i64 line)
{
    i64 count = mshr[0];
    const i64 *lines = mshr + 1;
    for (i64 i = 0; i < count; i++)
        if (lines[i] == line)
            return i;
    return -1;
}

/* MSHRFile.try_allocate: 1 on merge or allocation, 0 on rejection. */
static int mshr_try_allocate(i64 *mshr, i64 cap, i64 line, i64 now,
                             i64 completion, i64 *k)
{
    mshr_retire(mshr, cap, now);
    if (mshr_find(mshr, line) >= 0) {
        k[K_MSHR_MERGE]++;
        return 1;
    }
    i64 count = mshr[0];
    if (count >= cap) {
        k[K_MSHR_REJ]++;
        return 0;
    }
    mshr[1 + count] = line;
    mshr[1 + cap + count] = completion;
    mshr[0] = count + 1;
    k[K_MSHR_ALLOC]++;
    return 1;
}

/* MSHRFile.inflight_completion: completion time or -1. */
static i64 mshr_inflight(i64 *mshr, i64 cap, i64 line, i64 now, i64 *k)
{
    mshr_retire(mshr, cap, now);
    i64 idx = mshr_find(mshr, line);
    if (idx < 0)
        return -1;
    k[K_MSHR_MERGE]++;
    return mshr[1 + cap + idx];
}

/* CacheHierarchy.access, including the MSHR merge branch (a prefetch
   issued by an earlier record can still be in flight).  Returns the
   latency; *level_out = SERVICE_LABELS column (1 L1, 2 MSHR, 3 L2,
   4 L3, 5 MEM). */
static i64 cache_access(const cache_t *c1, const cache_t *c2,
                        const cache_t *c3, const i64 *g, i64 *k, i64 line,
                        i64 *level_out, i64 now, i64 *mshr)
{
    if (cache_probe(c1, line)) {
        k[K_C1_H]++;
        k[K_SRV_L1]++;
        *level_out = 1;
        return g[G_LAT1];
    }
    k[K_C1_M]++;
    if (mshr[0] > 0) {
        i64 merged = mshr_inflight(mshr, g[G_MSHR_CAP], line, now, k);
        if (merged >= 0 && merged > now) {
            /* the in-flight fill lands in the L1; no served[] credit */
            cache_install(c1, line, &k[K_C1_E]);
            *level_out = 2;
            return merged - now;
        }
    }
    i64 latency, level;
    if (cache_probe(c2, line)) {
        k[K_C2_H]++;
        latency = g[G_LAT2];
        level = 3;
        k[K_SRV_L2]++;
    } else {
        k[K_C2_M]++;
        if (cache_probe(c3, line)) {
            k[K_C3_H]++;
            latency = g[G_LAT3];
            level = 4;
            k[K_SRV_L3]++;
        } else {
            k[K_C3_M]++;
            latency = g[G_LATM];
            level = 5;
            k[K_SRV_MEM]++;
            cache_install(c3, line, &k[K_C3_E]);
        }
        /* L3 and MEM serves both refill the L2. */
        cache_install(c2, line, &k[K_C2_E]);
    }
    cache_install(c1, line, &k[K_C1_E]);
    *level_out = level;
    return latency;
}

/* --- Victima parked-entry pools.  One pool per Victima scheme this run
   parks victims for: an insertion-ordered map mirroring that scheme's
   `_parked` dict.  pool: cap slots of PS_SLOT fields; hash: open
   addressing (value = pool index, -1 empty, -2 tombstone); meta: the
   PM_* slots; log: the vpns of loaded entries removed since the last
   write-back.  Each slot's mark records what this call did to it, so
   the write-back replays only the changes on the dict. ------------ */

#define SLOT_FREE (-1LL)
#define SLOT_TOMB (-2LL)

/* Mirrors repro.tlb.tlb.ASID_SHIFT: a biased vpn's owner is vpn >> it. */
#define ASID_SHIFT 52

/* pool slot fields */
enum { PS_VPN, PS_FRAME, PS_PREV, PS_NEXT, PS_MARK, PS_SLOT };

/* slot marks: unchanged since the last write-back, re-framed in place,
   inserted since the last write-back */
enum { MARK_KEPT, MARK_REFRAMED, MARK_NEW };

/* park meta slots */
enum {
    PM_COUNT, PM_HEAD, PM_TAIL, PM_FREE, PM_TOMBS,
    PM_MAX,      /* the scheme's max_parked, also the pool capacity */
    PM_HCAP,     /* hash capacity (power of two) */
    PM_PARKED,   /* the scheme's `parked` counter */
    PM_DIRTY,    /* raised whenever the map changes */
    PM_LOGGED    /* entries in the removal log */
};

typedef struct {
    i64 *pool;
    i64 *hash;
    i64 *meta;
    i64 *log;
} park_t;

static i64 mix64(i64 x)
{
    unsigned long long z = (unsigned long long)x;
    z ^= z >> 30; z *= 0xBF58476D1CE4B9B9ULL;
    z ^= z >> 27; z *= 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return (i64)z;
}

/* Hash slot holding `vpn`, or -1. */
static i64 park_find(const park_t *p, i64 vpn)
{
    const i64 mask = p->meta[PM_HCAP] - 1;
    i64 s = mix64(vpn) & mask;
    for (;;) {
        i64 v = p->hash[s];
        if (v == SLOT_FREE)
            return -1;
        if (v >= 0 && p->pool[v * PS_SLOT + PS_VPN] == vpn)
            return s;
        s = (s + 1) & mask;
    }
}

/* Insert a known-absent pool index (first free or tombstone slot). */
static void park_hash_insert(const park_t *p, i64 idx)
{
    const i64 mask = p->meta[PM_HCAP] - 1;
    i64 s = mix64(p->pool[idx * PS_SLOT + PS_VPN]) & mask;
    while (p->hash[s] >= 0)
        s = (s + 1) & mask;
    if (p->hash[s] == SLOT_TOMB)
        p->meta[PM_TOMBS]--;
    p->hash[s] = idx;
}

static void park_rehash(const park_t *p)
{
    for (i64 i = 0; i < p->meta[PM_HCAP]; i++)
        p->hash[i] = SLOT_FREE;
    p->meta[PM_TOMBS] = 0;
    for (i64 idx = p->meta[PM_HEAD]; idx >= 0;
         idx = p->pool[idx * PS_SLOT + PS_NEXT])
        park_hash_insert(p, idx);
}

/* Remove pool index `idx` (at hash slot `slot`) from map and FIFO; an
   entry the dict already holds goes on the removal log. */
static void park_unlink(const park_t *p, i64 slot, i64 idx)
{
    i64 *pool = p->pool, *meta = p->meta;
    i64 *entry = pool + idx * PS_SLOT;
    p->hash[slot] = SLOT_TOMB;
    meta[PM_TOMBS]++;
    if (entry[PS_MARK] != MARK_NEW)
        p->log[meta[PM_LOGGED]++] = entry[PS_VPN];
    i64 prev = entry[PS_PREV];
    i64 next = entry[PS_NEXT];
    if (prev >= 0) pool[prev * PS_SLOT + PS_NEXT] = next;
    else meta[PM_HEAD] = next;
    if (next >= 0) pool[next * PS_SLOT + PS_PREV] = prev;
    else meta[PM_TAIL] = prev;
    entry[PS_NEXT] = meta[PM_FREE];   /* push onto the free list */
    meta[PM_FREE] = idx;
    meta[PM_COUNT]--;
    meta[PM_DIRTY] = 1;
}

/* VictimaLike._park: bound-evict the oldest, insert (or update in
   place, keeping FIFO position), install the parked line in the L2
   data cache, count it. */
static void park_entry(const park_t *p, i64 *k, i64 vpn, i64 frame,
                       const cache_t *c2)
{
    i64 *pool = p->pool, *meta = p->meta;
    i64 slot = park_find(p, vpn);
    if (slot >= 0) {
        i64 *entry = pool + p->hash[slot] * PS_SLOT;
        entry[PS_FRAME] = frame;
        if (entry[PS_MARK] == MARK_KEPT)
            entry[PS_MARK] = MARK_REFRAMED;
    } else {
        if (meta[PM_COUNT] >= meta[PM_MAX]) {
            i64 old = meta[PM_HEAD];
            park_unlink(p, park_find(p, pool[old * PS_SLOT + PS_VPN]), old);
        }
        i64 idx = meta[PM_FREE];
        i64 *entry = pool + idx * PS_SLOT;
        meta[PM_FREE] = entry[PS_NEXT];
        entry[PS_VPN] = vpn;
        entry[PS_FRAME] = frame;
        entry[PS_PREV] = meta[PM_TAIL];
        entry[PS_NEXT] = -1;
        entry[PS_MARK] = MARK_NEW;
        if (meta[PM_TAIL] >= 0) pool[meta[PM_TAIL] * PS_SLOT + PS_NEXT] = idx;
        else meta[PM_HEAD] = idx;
        meta[PM_TAIL] = idx;
        meta[PM_COUNT]++;
        park_hash_insert(p, idx);
        if ((meta[PM_COUNT] + meta[PM_TOMBS]) * 2 >= meta[PM_HCAP])
            park_rehash(p);
    }
    meta[PM_DIRTY] = 1;
    cache_install_scan(c2, PARK_BASE | vpn, &k[K_C2_E]);
    meta[PM_PARKED]++;
}

/* Seed a pool with the scheme's `n` entries in dict (FIFO) order: link
   the chain and the free list, then build the hash. */
void col_park_load(i64 *pool, i64 *hash, i64 *meta, const i64 *vpns,
                   const i64 *frames, i64 n)
{
    const i64 cap = meta[PM_MAX];
    for (i64 i = 0; i < n; i++) {
        i64 *entry = pool + i * PS_SLOT;
        entry[PS_VPN] = vpns[i];
        entry[PS_FRAME] = frames[i];
        entry[PS_PREV] = i - 1;
        entry[PS_NEXT] = i + 1 < n ? i + 1 : -1;
        entry[PS_MARK] = MARK_KEPT;
    }
    for (i64 i = n; i < cap; i++)
        pool[i * PS_SLOT + PS_NEXT] = i + 1 < cap ? i + 1 : -1;
    meta[PM_COUNT] = n;
    meta[PM_HEAD] = n ? 0 : -1;
    meta[PM_TAIL] = n - 1;
    meta[PM_FREE] = n < cap ? n : -1;
    meta[PM_DIRTY] = 0;
    meta[PM_LOGGED] = 0;
    const park_t p = {pool, hash, meta, 0};
    park_rehash(&p);
}

/* The write-back's other half (the removal log is the first): the
   entries inserted or re-framed since the last write-back, in FIFO
   order.  Replayed after the removals, a dict update leaves re-framed
   entries in place and appends the new ones, which the chain holds
   after every older entry.  Returns their count; clears the marks, the
   log and the dirty flag. */
i64 col_park_changes(i64 *pool, i64 *meta, i64 *vpns, i64 *frames)
{
    i64 n = 0;
    for (i64 idx = meta[PM_HEAD]; idx >= 0;
         idx = pool[idx * PS_SLOT + PS_NEXT]) {
        i64 *entry = pool + idx * PS_SLOT;
        if (entry[PS_MARK] != MARK_KEPT) {
            vpns[n] = entry[PS_VPN];
            frames[n] = entry[PS_FRAME];
            entry[PS_MARK] = MARK_KEPT;
            n++;
        }
    }
    meta[PM_DIRTY] = 0;
    meta[PM_LOGGED] = 0;
    return n;
}

/* TlbHierarchy.fill_fast for a small page: install both levels; in
   victima mode a small-tag L2 victim is parked in its owner's pool —
   route[vpn >> ASID_SHIFT] under the multi-tenant victim router, pool 0
   when there is no route table (a directly installed park hook, which
   takes every victim). */
static void tlb_fill_small(i64 vpn, i64 frame, const i64 *g, i64 *k,
                           i64 *t_tags, i64 *t_frames, i64 *t_sizes,
                           i64 *u_tags, i64 *u_frames, i64 *u_sizes,
                           int vmode, const park_t *parks,
                           const i64 *route, const cache_t *c2)
{
    const i64 stag = vpn << 1;
    const i64 t_set = stag & (g[G_T] - 1);
    lru_install(t_tags, t_frames, t_sizes, t_set,
                t_set * g[G_T + 1], g[G_T + 2], stag, frame);
    const i64 u_set = stag & (g[G_U] - 1);
    const i64 base = u_set * g[G_U + 1];
    const i64 ways = g[G_U + 2];
    i64 vt = EMPTY, vf = 0;
    if (u_sizes[u_set] >= ways) {
        vt = u_tags[base + ways - 1];
        vf = u_frames[base + ways - 1];
    }
    lru_install(u_tags, u_frames, u_sizes, u_set, base, ways, stag, frame);
    if (vmode && vt != EMPTY && !(vt & 1)) {
        const i64 victim = vt >> 1;
        const i64 owner = route ? route[victim >> ASID_SHIFT] : 0;
        park_entry(&parks[owner], k, victim, vf, c2);
    }
}

/* --- walk helpers.  A memory context bundles what every access needs:
   the three data caches, geometry, counters and the MSHR file. ------ */

typedef struct {
    cache_t c1, c2, c3;
    const i64 *g;
    i64 *k;
    i64 *mshr;
} mem_t;

/* CacheHierarchy.access with the L1 MRU shortcut; *level_out as in
   cache_access (1 on the shortcut). */
static i64 mem_access(const mem_t *m, i64 line, i64 *level_out, i64 now)
{
    const cache_t *c1 = &m->c1;
    if (c1->lines[(line & (c1->nsets - 1)) * c1->stride] == line) {
        m->k[K_C1_H]++;
        m->k[K_SRV_L1]++;
        *level_out = 1;
        return m->g[G_LAT1];
    }
    return cache_access(c1, &m->c2, &m->c3, m->g, m->k, line, level_out,
                        now, m->mshr);
}

/* One split PWC: PL2, PL3 and PL4 arrays; geom holds nsets, stride and
   ways per level, PL2 first. */
typedef struct {
    i64 *tags[3], *frames[3], *sizes[3];
    const i64 *geom;
} pwc_t;

/* SplitPwc.probe over a walk's three tags (tg[0] PL2 .. tg[2] PL4):
   the deepest cached level (2..4), or 0; counters in pk[PW_*]. */
static i64 pwc_walk_probe(const pwc_t *p, const i64 *tg, i64 *pk)
{
    pk[PW_PROBES]++;
    for (int l = 0; l < 3; l++) {
        const i64 *geom = p->geom + 3 * l;
        if (pwc_probe(p->tags[l], p->frames[l], p->sizes[l],
                      geom[0], geom[1], tg[l])) {
            pk[PW_HITS]++;
            pk[PW_L2_H + 2 * l]++;
            return l + 2;
        }
        pk[PW_L2_M + 2 * l]++;
    }
    return 0;
}

/* SplitPwc.insert after a walk whose leaf level is `leaf`: the
   intermediate levels leaf+1..4. */
static void pwc_walk_insert(const pwc_t *p, const i64 *tg, i64 leaf)
{
    for (i64 l = leaf - 1; l < 3; l++) {
        const i64 *geom = p->geom + 3 * l;
        pwc_insert(p->tags[l], p->frames[l], p->sizes[l],
                   geom[0], geom[1], geom[2], tg[l]);
    }
}

/* AsapPrefetcher.on_tlb_miss at `now`, replayed from a row's ASAP block
   A: A[0] the range-register hit, A[1 + s] the target line of slot s
   (-1: none), A[5 + s] its hole flag.  The prefetcher's counters are
   pf[PF_*]; each useful prefetch's completion lands in comp[level]. */
static void asap_issue(const mem_t *m, const i64 *A, i64 pf_n,
                       const i64 *levels, i64 require_mshr, i64 now,
                       i64 *comp, i64 *pf)
{
    const i64 *g = m->g;
    i64 *k = m->k;
    if (!A[0]) {
        pf[PF_RR_M]++;
        pf[PF_NODESC]++;
        return;
    }
    pf[PF_RR_H]++;
    for (i64 s = 0; s < pf_n; s++) {
        const i64 pline = A[1 + s];
        if (pline < 0)
            continue;
        i64 completion;
        if (cache_probe(&m->c1, pline)) {
            k[K_C1_H]++;
            k[K_SRV_L1]++;
            completion = now + g[G_LAT1];
        } else {
            k[K_C1_M]++;
            i64 lvl, lat;
            if (cache_probe(&m->c2, pline)) {
                k[K_C2_H]++;
                lvl = 3;
                lat = g[G_LAT2];
            } else {
                k[K_C2_M]++;
                if (cache_probe(&m->c3, pline)) {
                    k[K_C3_H]++;
                    lvl = 4;
                    lat = g[G_LAT3];
                } else {
                    k[K_C3_M]++;
                    lvl = 5;
                    lat = g[G_LATM];
                }
            }
            completion = now + lat;
            if (require_mshr &&
                !mshr_try_allocate(m->mshr, g[G_MSHR_CAP], pline, now,
                                   completion, k)) {
                k[K_H_PF_DROP]++;
                pf[PF_DROPNM]++;
                continue;
            }
            cache_install(&m->c1, pline, &k[K_C1_E]);
            if (lvl >= 4)
                cache_install(&m->c2, pline, &k[K_C2_E]);
            if (lvl == 5)
                cache_install(&m->c3, pline, &k[K_C3_E]);
            if (lvl == 3) k[K_SRV_L2]++;
            else if (lvl == 4) k[K_SRV_L3]++;
            else k[K_SRV_MEM]++;
            k[K_H_PF_ISSUED]++;
        }
        pf[PF_ISSUED]++;
        if (A[5 + s]) {
            pf[PF_HOLE]++;
            continue;
        }
        pf[PF_USEFUL]++;
        comp[levels[s]] = completion;
    }
}

/* The node accesses of one radix walk over a PATH_COLS row W, from step
   `start` (level 4 - start) down to the leaf, beginning at time t: each
   access may finish no earlier than an in-flight prefetch of its level
   (comp, -1 for none).  svc, when not NULL, is the walk dimension's
   service histogram (row = level - 1); *accesses counts the accesses
   when not NULL.  Returns the finish time. */
static i64 walk_lines(const mem_t *m, const i64 *W, i64 start, i64 t,
                      const i64 *comp, i64 *svc, i64 *accesses)
{
    const i64 nlines = 5 - W[W_LEAF];
    for (i64 j = start; j < nlines; j++) {
        i64 level;
        t += mem_access(m, W[W_LINES + j], &level, t);
        if (comp[4 - j] > t)
            t = comp[4 - j];   /* overlap with prefetch */
        if (svc)
            svc[(3 - j) * 6 + level]++;
        if (accesses)
            (*accesses)++;
    }
    return t;
}

/* The PWC-served prefix of a walk: steps 0..start-1 (levels 4 down). */
static void walk_skipped(i64 *svc, i64 start)
{
    if (svc)
        for (i64 j = 0; j < start; j++)
            svc[(3 - j) * 6 + 0]++;
}

/* NestedPageWalker._host_walk over the host chain C of one nested step,
   starting at t: host PWC probe after its latency, host prefetches at
   that time, then the host node accesses.  Returns the finish time. */
static i64 host_walk(const mem_t *m, const pwc_t *hpwc, const i64 *C,
                     i64 t, i64 *svc)
{
    const i64 *g = m->g;
    t += g[G_HPWC_LAT];
    const i64 skip = pwc_walk_probe(hpwc, C + W_TG, m->k + K_HPWC_PROBES);
    const i64 start = skip ? 5 - skip : 0;
    walk_skipped(svc, start);
    i64 comp[5] = {-1, -1, -1, -1, -1};
    if (g[G_HPF_N])
        asap_issue(m, C + W_ASAP, g[G_HPF_N], g + G_HPF_L, g[G_HREQ_MSHR],
                   t, comp, m->k + K_HRR_H);
    t = walk_lines(m, C, start, t, comp, svc, &m->k[K_WALK_ACC]);
    pwc_walk_insert(hpwc, C + W_TG, C[W_LEAF]);
    return t;
}

/* NestedPageWalker.walk over nested row R at `now` (Figure 7): guest
   prefetches at walk start, the guest PWC probe, then per nested step
   the host walk of its guest-physical page and (guest steps) the guest
   entry's access at its host line.  The last step translates the data
   page and has no entry access.  svc, when not NULL, is the service
   histogram (guest rows 0-3, host rows 4-7).  Returns the latency. */
static i64 nested_walk(const mem_t *m, const pwc_t *gpwc, const pwc_t *hpwc,
                       const i64 *R, const i64 *chains, i64 now, i64 *svc)
{
    const i64 *g = m->g;
    i64 comp[5] = {-1, -1, -1, -1, -1};
    if (g[G_PF_N])
        asap_issue(m, R + R_ASAP, g[G_PF_N], g + G_PF_L, g[G_REQ_MSHR],
                   now, comp, m->k + K_RR_H);
    i64 t = now + g[G_PWC_LAT];
    const i64 skip = pwc_walk_probe(gpwc, R + R_TG, m->k + K_PWC_PROBES);
    const i64 start = skip ? 5 - skip : 0;
    const i64 data = 5 - R[R_LEAF];
    i64 *hsvc = svc ? svc + 24 : 0;
    walk_skipped(svc, start);
    for (i64 j = start;; j++) {
        const i64 *C = chains + R[R_CHAIN + j] * PATH_COLS;
        t = host_walk(m, hpwc, C, t, hsvc);
        if (j == data)
            break;
        i64 level;
        const i64 line = (C[W_FRAME] << 6) | (R[R_GLINE + j] & 63);
        t += mem_access(m, line, &level, t);
        if (comp[4 - j] > t)
            t = comp[4 - j];
        if (svc)
            svc[(3 - j) * 6 + level]++;
        m->k[K_WALK_ACC]++;
    }
    pwc_walk_insert(gpwc, R + R_TG, R[R_LEAF]);
    return t - now;
}

/* zlib.crc32 of the 8 little-endian bytes of x: bitwise CRC-32 with
   the reflected polynomial 0xEDB88320, init and final xor 0xFFFFFFFF. */
static i64 crc32_u64(unsigned long long x)
{
    unsigned int crc = 0xFFFFFFFFu;
    for (int shift = 0; shift < 64; shift += 8) {
        crc ^= (unsigned int)(x >> shift) & 0xFFu;
        for (int bit = 0; bit < 8; bit++)
            crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    return (i64)(crc ^ 0xFFFFFFFFu);
}

/* RevelatorLike._walk_end for the record at `now` whose walk took
   `translation` cycles: the hash-placement lottery over the (biased)
   vpn.  A placed page stalls only for the speculation; a misplaced one
   fetches the wrong-path line at now + spec_latency and pays the squash
   penalty after the walk.  Returns the translation latency. */
static i64 revelator_walk_end(const mem_t *m, i64 va, i64 vpn, i64 now,
                              i64 translation)
{
    const i64 *g = m->g;
    i64 *k = m->k;
    k[K_SPEC]++;
    if (crc32_u64(vpn) % 10000 < g[G_REV_COVERAGE]) {
        k[K_SPEC_OK]++;
        return g[G_REV_SPEC] < translation ? g[G_REV_SPEC] : translation;
    }
    k[K_SPEC_MISS]++;
    const i64 wrong_frame = crc32_u64((unsigned long long)vpn ^ 0x5EED);
    i64 level;
    mem_access(m, (wrong_frame << 6) | ((va & 0xFFF) >> 6), &level,
               now + g[G_REV_SPEC]);
    return translation + g[G_REV_PENALTY];
}

/* Whether the record for `vpn` would reach the page walk: no TLB level
   holds a tag for it and (victima) the running tenant's pool has no
   L2-resident entry for it.  Pure (the scans restore their guard slots
   and move nothing), so the record replays unchanged on resume. */
static int walk_pending(const mem_t *m, i64 vpn, i64 *t_tags,
                        const i64 *t_sizes, i64 *u_tags, const i64 *u_sizes,
                        const park_t *parks)
{
    const i64 *g = m->g;
    const i64 tags[2] = {vpn << 1, ((vpn >> 9) << 1) | 1};
    const int ntags = g[G_PROBE_LARGE] ? 2 : 1;
    for (int x = 0; x < ntags; x++) {
        i64 set = tags[x] & (g[G_T] - 1);
        i64 base = set * g[G_T + 1];
        if (lru_scan(t_tags, base, base + t_sizes[set], tags[x]) >= 0)
            return 0;
        set = tags[x] & (g[G_U] - 1);
        base = set * g[G_U + 1];
        if (lru_scan(u_tags, base, base + u_sizes[set], tags[x]) >= 0)
            return 0;
    }
    if (g[G_MODE] == 2 && park_find(&parks[g[G_PARK_SELF]], vpn) >= 0) {
        const i64 line = PARK_BASE | vpn;
        const cache_t *c2 = &m->c2;
        const i64 base = (line & (c2->nsets - 1)) * c2->stride;
        if (lru_scan(c2->lines, base,
                     base + c2->sizes[line & (c2->nsets - 1)], line) >= 0)
            return 0;
    }
    return 1;
}

/* Replay records [0, n) and return how many ran: n, or fewer when
   the next record's co-runner groups are not all drawn (the caller
   draws them and resumes at that record), or when `lazy` is set and
   the next record would walk a nested row whose path crosses a
   guest-physical page the host page table does not map yet (the caller
   maps it, fixes the rows and resumes at that record).  Native rows
   (G_NESTED 0) are PATH_COLS wide; nested rows index the host-chain
   table `chains` and use the host PWC (h*).  `co` (CO_* slots) is NULL
   without a co-runner; with one, every record ends with its
   CO_INTENSITY groups of `co_lines` (`co_takes` lines each). */
i64 col_run_chunk(const i64 *va_arr, i64 n, i64 warmup,
                  i64 collect_service,
                  const i64 *rowidx, const i64 *paths,
                  const i64 *chains, i64 lazy,
                  i64 *carry, i64 *k, const i64 *g, i64 *service,
                  i64 *t_tags, i64 *t_frames, i64 *t_sizes,
                  i64 *u_tags, i64 *u_frames, i64 *u_sizes,
                  i64 *p2_tags, i64 *p2_frames, i64 *p2_sizes,
                  i64 *p3_tags, i64 *p3_frames, i64 *p3_sizes,
                  i64 *p4_tags, i64 *p4_frames, i64 *p4_sizes,
                  i64 *h2_tags, i64 *h2_frames, i64 *h2_sizes,
                  i64 *h3_tags, i64 *h3_frames, i64 *h3_sizes,
                  i64 *h4_tags, i64 *h4_frames, i64 *h4_sizes,
                  i64 *c1_lines, i64 *c1_sizes, unsigned char *c1_touched,
                  i64 *c2_lines, i64 *c2_sizes, unsigned char *c2_touched,
                  i64 *c3_lines, i64 *c3_sizes, unsigned char *c3_touched,
                  i64 *mshr, const park_t *parks, const i64 *route,
                  const i64 *co_lines, const i64 *co_takes, i64 *co)
{
    const mem_t m = {
        {c1_lines, c1_sizes, c1_touched, g[G_C1], g[G_C1 + 1], g[G_C1 + 2]},
        {c2_lines, c2_sizes, c2_touched, g[G_C2], g[G_C2 + 1], g[G_C2 + 2]},
        {c3_lines, c3_sizes, c3_touched, g[G_C3], g[G_C3 + 1], g[G_C3 + 2]},
        g, k, mshr};
    const pwc_t pwc = {{p2_tags, p3_tags, p4_tags},
                       {p2_frames, p3_frames, p4_frames},
                       {p2_sizes, p3_sizes, p4_sizes}, g + G_P2};
    const pwc_t hpwc = {{h2_tags, h3_tags, h4_tags},
                        {h2_frames, h3_frames, h4_frames},
                        {h2_sizes, h3_sizes, h4_sizes}, g + G_H2};
    const cache_t *c2 = &m.c2;
    i64 now = carry[CAR_NOW];
    i64 measuring = carry[CAR_MEASURING];
    i64 acc = carry[CAR_ACC];
    i64 data_c = carry[CAR_DATA_C];
    i64 walk_c = carry[CAR_WALK_C];
    i64 walk_count = carry[CAR_WALK_COUNT];
    const i64 vbias = g[G_VBIAS];
    const i64 probe_large = g[G_PROBE_LARGE];
    const i64 base_cycles = g[G_BASE_CYCLES];
    const i64 pwc_lat = g[G_PWC_LAT];
    const i64 mode = g[G_MODE];
    const i64 nested = g[G_NESTED];

    i64 i;
    for (i = 0; i < n; i++) {
        if (co && co[CO_TAKE] + co[CO_INTENSITY] > co[CO_NTAKES])
            break;
        const i64 va = va_arr[i];
        const i64 vpn = (va >> 12) | vbias;
        if (lazy && paths[rowidx[i] * NESTED_COLS + R_LAZY]
                && walk_pending(&m, vpn, t_tags, t_sizes, u_tags, u_sizes,
                                parks))
            break;
        if (!measuring && i >= warmup) {
            measuring = 1;
            carry[CAR_L1_BASE] = k[K_L1H];
            carry[CAR_L2_BASE] = k[K_L2H];
        }
        i64 frame = EMPTY;
        i64 translation = 0;

        /* --- L1 D-TLB probe, small then (optional) large tag ------- */
        {
            i64 tag = vpn << 1;
            i64 set_index = tag & (g[G_T] - 1);
            i64 base = set_index * g[G_T + 1];
            if (t_tags[base] == tag) {
                k[K_LS_H]++;
                frame = t_frames[base];
            } else {
                i64 pos = lru_scan(t_tags, base,
                                   base + t_sizes[set_index], tag);
                if (pos >= 0) {
                    k[K_LS_H]++;
                    frame = t_frames[pos];
                    lru_promote(t_tags, t_frames, base, pos);
                } else {
                    k[K_LS_M]++;
                    if (probe_large) {
                        tag = ((vpn >> 9) << 1) | 1;
                        set_index = tag & (g[G_T] - 1);
                        base = set_index * g[G_T + 1];
                        pos = lru_scan(t_tags, base,
                                       base + t_sizes[set_index], tag);
                        if (pos >= 0) {
                            k[K_LS_H]++;
                            frame = t_frames[pos];
                            if (pos != base)
                                lru_promote(t_tags, t_frames, base, pos);
                        } else {
                            k[K_LS_M]++;
                        }
                    }
                }
            }
        }
        if (frame != EMPTY) {
            k[K_TH]++;
            k[K_L1H]++;
        } else {
            /* --- L2 S-TLB probe, small then (optional) large tag --- */
            i64 tag = vpn << 1;
            i64 set_index = tag & (g[G_U] - 1);
            i64 base = set_index * g[G_U + 1];
            i64 pos = lru_scan(u_tags, base,
                               base + u_sizes[set_index], tag);
            if (pos >= 0) {
                k[K_US_H]++;
                frame = u_frames[pos];
                if (pos != base)
                    lru_promote(u_tags, u_frames, base, pos);
            } else {
                k[K_US_M]++;
                if (probe_large) {
                    tag = ((vpn >> 9) << 1) | 1;
                    set_index = tag & (g[G_U] - 1);
                    base = set_index * g[G_U + 1];
                    pos = lru_scan(u_tags, base,
                                   base + u_sizes[set_index], tag);
                    if (pos >= 0) {
                        k[K_US_H]++;
                        frame = u_frames[pos];
                        if (pos != base)
                            lru_promote(u_tags, u_frames, base, pos);
                    } else {
                        k[K_US_M]++;
                    }
                }
            }
            if (frame != EMPTY) {
                k[K_TH]++;
                k[K_L2H]++;
                /* refill the L1 with the small tag (L2 hit path) */
                const i64 stag = vpn << 1;
                const i64 t_set = stag & (g[G_T] - 1);
                lru_install(t_tags, t_frames, t_sizes, t_set,
                            t_set * g[G_T + 1], g[G_T + 2], stag, frame);
            }
        }

        if (frame == EMPTY) {
            k[K_TM]++;
            int walked = 1;
            if (mode == 2) {
                /* --- Victima probe of the running tenant's pool ---- */
                const park_t *own = &parks[g[G_PARK_SELF]];
                i64 slot = park_find(own, vpn);
                if (slot >= 0) {
                    const i64 idx = own->hash[slot];
                    const i64 pline = PARK_BASE | vpn;
                    if (cache_probe(c2, pline)) {
                        k[K_C2_H]++;
                        cache_invalidate(c2, pline);
                        frame = own->pool[idx * PS_SLOT + PS_FRAME];
                        park_unlink(own, slot, idx);
                        k[K_V_PROBE_H]++;
                        translation = g[G_PROBE_LAT];
                        tlb_fill_small(vpn, frame, g, k,
                                       t_tags, t_frames, t_sizes,
                                       u_tags, u_frames, u_sizes,
                                       1, parks, route, c2);
                        if (measuring)
                            walk_c += translation;
                        walked = 0;
                    } else {
                        /* parked entry lost to data-cache pressure */
                        k[K_C2_M]++;
                        park_unlink(own, slot, idx);
                        k[K_V_LOST]++;
                        k[K_V_PROBE_M]++;
                    }
                } else {
                    k[K_V_PROBE_M]++;
                }
            }
            if (walked) {
            /* --- full miss: priced page walk ----------------------- */
            i64 *svc = (measuring && collect_service) ? service : 0;
            i64 large;
            if (nested) {
                const i64 *R = paths + rowidx[i] * NESTED_COLS;
                translation = nested_walk(&m, &pwc, &hpwc, R, chains, now,
                                          svc);
                frame = chains[R[R_CHAIN + 5 - R[R_LEAF]] * PATH_COLS
                               + W_FRAME];
                large = R[R_LARGE];
            } else {
                const i64 *P = paths + rowidx[i] * PATH_COLS;
                i64 comp[5] = {-1, -1, -1, -1, -1};
                if (mode == 1)
                    /* ASAP prefetch replay (at `now`, before the PWC
                       probes, exactly where the scalar walk_start hook
                       fires) */
                    asap_issue(&m, P + W_ASAP, g[G_PF_N], g + G_PF_L,
                               g[G_REQ_MSHR], now, comp, k + K_RR_H);
                const i64 skip = pwc_walk_probe(&pwc, P + W_TG,
                                                k + K_PWC_PROBES);
                const i64 start = skip ? 5 - skip : 0;
                walk_skipped(svc, start);
                translation = walk_lines(&m, P, start, now + pwc_lat, comp,
                                         svc, 0) - now;
                pwc_walk_insert(&pwc, P + W_TG, P[W_LEAF]);
                frame = P[W_FRAME];
                large = P[W_LARGE];
            }
            k[K_WALKS]++;
            k[K_WALK_CYCLES] += translation;
            if (mode == 3)
                /* the walker has charged the walk; the hook prices
                   what the core stalls for, before the TLB fill */
                translation = revelator_walk_end(&m, va, vpn, now,
                                                 translation);
            /* TLB fill — both tags known absent after the full miss.
               Large fills never hand a victim to the park hook (the
               generic fill path has no hook); small fills do when in
               victima mode. */
            if (large) {
                const i64 ltag = ((vpn >> 9) << 1) | 1;
                const i64 t_set = ltag & (g[G_T] - 1);
                lru_install(t_tags, t_frames, t_sizes, t_set,
                            t_set * g[G_T + 1], g[G_T + 2], ltag, frame);
                const i64 u_set = ltag & (g[G_U] - 1);
                lru_install(u_tags, u_frames, u_sizes, u_set,
                            u_set * g[G_U + 1], g[G_U + 2], ltag, frame);
            } else {
                tlb_fill_small(vpn, frame, g, k,
                               t_tags, t_frames, t_sizes,
                               u_tags, u_frames, u_sizes,
                               mode == 2, parks, route, c2);
            }
            if (measuring) {
                walk_c += translation;
                walk_count++;
            }
            }
        }

        /* --- data access ------------------------------------------- */
        {
            const i64 line = (frame << 6) | ((va & 0xFFF) >> 6);
            i64 level;
            const i64 dlat = mem_access(&m, line, &level, now + translation);
            now += base_cycles + translation + dlat;
            if (measuring) {
                acc++;
                data_c += dlat;
            }
        }

        /* --- Corunner.step: the record's groups at the new now ------ */
        if (co) {
            const i64 take = co[CO_TAKE];
            i64 line = co[CO_CURSOR];
            i64 stop = line;
            for (i64 j = 0; j < co[CO_INTENSITY]; j++)
                stop += co_takes[take + j];
            for (; line < stop; line++) {
                i64 level;
                mem_access(&m, co_lines[line], &level, now);
            }
            co[CO_CURSOR] = stop;
            co[CO_TAKE] = take + co[CO_INTENSITY];
            co[CO_ACCESSES]++;
        }
    }

    carry[CAR_NOW] = now;
    carry[CAR_MEASURING] = measuring;
    carry[CAR_ACC] = acc;
    carry[CAR_DATA_C] = data_c;
    carry[CAR_WALK_C] = walk_c;
    carry[CAR_WALK_COUNT] = walk_count;
    return i;
}
"""

_CDEF = """
typedef struct {
    long long *pool;
    long long *hash;
    long long *meta;
    long long *log;
} park_t;
long long col_run_chunk(const long long *va_arr, long long n,
    long long warmup, long long collect_service,
    const long long *rowidx, const long long *paths,
    const long long *chains, long long lazy,
    long long *carry, long long *k, const long long *g,
    long long *service,
    long long *t_tags, long long *t_frames, long long *t_sizes,
    long long *u_tags, long long *u_frames, long long *u_sizes,
    long long *p2_tags, long long *p2_frames, long long *p2_sizes,
    long long *p3_tags, long long *p3_frames, long long *p3_sizes,
    long long *p4_tags, long long *p4_frames, long long *p4_sizes,
    long long *h2_tags, long long *h2_frames, long long *h2_sizes,
    long long *h3_tags, long long *h3_frames, long long *h3_sizes,
    long long *h4_tags, long long *h4_frames, long long *h4_sizes,
    long long *c1_lines, long long *c1_sizes, unsigned char *c1_touched,
    long long *c2_lines, long long *c2_sizes, unsigned char *c2_touched,
    long long *c3_lines, long long *c3_sizes, unsigned char *c3_touched,
    long long *mshr, const park_t *parks, const long long *route,
    const long long *co_lines, const long long *co_takes, long long *co);
void col_park_load(long long *pool, long long *hash, long long *meta,
    const long long *vpns, const long long *frames, long long n);
long long col_park_changes(long long *pool, long long *meta,
    long long *vpns, long long *frames);
"""

_BACKEND = None
_BACKEND_ERROR: str | None = None
_BACKEND_LOCK = threading.Lock()
_LOADED = False


def _find_compiler() -> str | None:
    import shutil

    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_library():
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache_dir = os.path.join(tempfile.gettempdir(),
                             f"repro-columnar-{digest}")
    suffix = ".dll" if sys.platform == "win32" else ".so"
    lib_path = os.path.join(cache_dir, f"columnar{suffix}")
    if not os.path.exists(lib_path):
        compiler = _find_compiler()
        if compiler is None:
            raise RuntimeError("no C compiler on PATH")
        os.makedirs(cache_dir, exist_ok=True)
        # Source and library both get per-process names: processes that
        # build at once (a cold `--jobs N` sweep) must never compile a
        # source file another one is rewriting, or publish its library
        # half-written.
        src_path = os.path.join(cache_dir, f"columnar.{os.getpid()}.c")
        tmp_path = f"{lib_path}.tmp{os.getpid()}"
        with open(src_path, "w") as fh:
            fh.write(_C_SOURCE)
        try:
            subprocess.run(
                [compiler, "-O2", "-shared", "-fPIC", src_path, "-o",
                 tmp_path],
                check=True, capture_output=True, text=True)
        finally:
            os.remove(src_path)
        os.replace(tmp_path, lib_path)
    return ffi, ffi.dlopen(lib_path)


def _load_backend() -> None:
    global _BACKEND, _BACKEND_ERROR, _LOADED
    if _LOADED:
        return
    with _BACKEND_LOCK:
        if _LOADED:
            return
        try:
            _BACKEND = _build_library()
        except Exception as exc:  # noqa: BLE001 - any failure => scalar
            _BACKEND_ERROR = f"{type(exc).__name__}: {exc}"
        _LOADED = True


def columnar_available() -> bool:
    """Whether the compiled chunk kernel can run on this machine.

    With ``REPRO_REQUIRE_CCORE=1`` in the environment an unavailable
    backend raises instead of returning False, so a broken toolchain
    cannot silently demote CI's columnar jobs to the scalar kernel.
    """
    _load_backend()
    if _BACKEND is None and os.environ.get("REPRO_REQUIRE_CCORE"):
        raise RuntimeError(
            "REPRO_REQUIRE_CCORE is set but the columnar backend is "
            f"unavailable: {_BACKEND_ERROR}")
    return _BACKEND is not None


def _nested(sim) -> bool:
    """Whether ``sim`` is a VirtualizedSimulation (nested rows, a guest
    and a host PWC) rather than a NativeSimulation."""
    from repro.sim.virt import VirtualizedSimulation

    return isinstance(sim, VirtualizedSimulation)


def _pow2_geometry(sim) -> bool:
    # The C kernel maps tags to sets with `tag & (nsets - 1)`; custom
    # machine geometries with non-power-of-two set counts (valid for
    # the scalar `tag % nsets`) stay on the scalar loop.
    units = [sim.tlbs.l1, sim.tlbs.l2_plain,
             sim.hierarchy.l1, sim.hierarchy.l2, sim.hierarchy.l3]
    units += [unit for pwc in sim.pwcs for _, unit in pwc.view]
    return not any(unit.num_sets & (unit.num_sets - 1) for unit in units)


def _asap_rows_exact(prefetcher) -> bool:
    """Whether ``_PathTable`` can precompute this prefetcher's replay
    columns exactly (the node-constancy rule in the module docstring).

    Hit flags and targets are computed per page, so every descriptor
    boundary must be page-aligned.  Hole verdicts are computed once per
    (descriptor, level, node), so the checker must be absent or a
    :class:`~repro.kernelsim.pt_layout.VmaHoleChecker` (whose verdict
    reads only the VMA and the node tag), and each descriptor must lie
    inside one VMA of the tree that checker consults.  A hand-built
    register file or a custom checker falls back to the scalar oracle.
    """
    descriptors = prefetcher.registers._descriptors
    for descriptor in descriptors:
        if (descriptor.start | descriptor.end) & 0xFFF:
            return False
    checker = prefetcher.hole_checker
    if checker is None:
        return True
    if type(checker) is not VmaHoleChecker:
        return False
    for descriptor in descriptors:
        vma = checker.vmas.find(descriptor.start)
        if vma is None or descriptor.end > vma.end:
            return False
    return True


def _park_routes(sim) -> tuple | None:
    """Where the L2 S-TLB victims of this run park, when the kernel can
    park them: ``(schemes, route)``.

    ``schemes`` are the distinct Victima schemes whose maps the kernel
    carries as pools.  Under the multi-tenant victim router
    (:func:`repro.sim.multitenant.routed_hooks`) ``route[asid]`` is the
    index of the scheme that owns that ASID's victims.  A directly
    installed park hook takes every victim, whoever owns it; ``route``
    is then ``None`` and ``schemes`` holds that hook's scheme alone.

    ``None`` (keep the scalar loop) unless every routed hook is a
    ``VictimaLike._park`` bound to ``sim.hierarchy`` whose map fits its
    bound, the running scheme parks its own ASID's victims, and every
    small page the L2 S-TLB can evict has a route.
    """
    from repro.schemes.victima import VictimaLike
    from repro.sim.multitenant import routed_hooks

    park = sim.tlbs.l2_evict_hook
    routed = routed_hooks(park)
    if routed is None:
        hooks, own = (park,), park
    elif sim.asid < len(routed):
        hooks, own = routed, routed[sim.asid]
        # A victim's owner indexes `route`: every tag the L2 S-TLB holds
        # must name a routed ASID (fills during the run carry sim.asid).
        if max(sim.tlbs.l2_plain.tags) >> (ASID_SHIFT + 1) >= len(hooks):
            return None
    else:
        return None
    if getattr(own, "__self__", None) is not sim.scheme:
        return None
    schemes: list = []  # schemes compare by identity
    route = []
    for hook in hooks:
        scheme = getattr(hook, "__self__", None)
        if (type(scheme) is not VictimaLike
                or getattr(hook, "__func__", None) is not VictimaLike._park
                or scheme._hierarchy is not sim.hierarchy
                or scheme.max_parked < 1
                or len(scheme._parked) > scheme.max_parked):
            return None
        if scheme not in schemes:
            schemes.append(scheme)
        route.append(schemes.index(scheme))
    return tuple(schemes), (None if routed is None else tuple(route))


def _asap_prefetchers(sim) -> tuple | None:
    """``(walk-start prefetcher, host prefetcher)`` when the scheme's
    ASAP hooks are prefetchers the kernel replays exactly, else ``None``.

    The walk-start one (the native or guest dimension's) must be an
    AsapPrefetcher's bound ``on_tlb_miss``; the host one (nested walks
    only) races every host walk.  Either may be absent, not both.  Each
    must prefetch one to four levels in 1..4 into ``sim.hierarchy``,
    from descriptors whose rows :func:`_asap_rows_exact` allows.
    """
    from repro.core.prefetcher import AsapPrefetcher

    scheme = sim.scheme
    walk_start = scheme.walk_start_hook()
    host = scheme.host_prefetcher if _nested(sim) else None
    if walk_start is None and host is None:
        return None
    guest = None
    if walk_start is not None:
        if getattr(walk_start, "__func__", None) is not \
                AsapPrefetcher.on_tlb_miss:
            return None
        guest = walk_start.__self__
    for prefetcher in (guest, host):
        if prefetcher is not None and not (
                type(prefetcher) is AsapPrefetcher
                and prefetcher.hierarchy is sim.hierarchy
                and 0 < len(prefetcher.levels) <= 4
                and all(1 <= lv <= 4 for lv in prefetcher.levels)
                and _asap_rows_exact(prefetcher)):
            return None
    return guest, host


def _nested_walker_ok(sim) -> bool:
    """The nested structure the kernel transliterates: 4-level guest and
    host page tables, and a NestedPageWalker over the simulation's own
    hierarchy and PWCs."""
    walker = sim.walker
    return (sim.vm.guest.page_table.levels == 4 and sim.vm.hpt.levels == 4
            and type(walker) is NestedPageWalker
            and walker.hierarchy is sim.hierarchy
            and walker.guest_pwc is sim.guest_pwc
            and walker.host_pwc is sim.host_pwc)


def engine_mode(sim) -> str | None:
    """Which compiled kernel mode (if any) can replay this run().

    ``sim`` is a NativeSimulation or a VirtualizedSimulation.  Returns
    ``"plain"`` when the run has no scheme hook at all (no probe, walk
    start or walk end, no L2-TLB evict hook and, for a nested run, no
    host prefetcher), ``"asap"`` when the only hooks are AsapPrefetchers
    (:func:`_asap_prefetchers`), ``"victima"`` when the probe is the
    scheme's own Victima probe and every victim parks through a Victima
    ``_park`` (:func:`_park_routes`), ``"revelator"`` when the only hook
    is a ``RevelatorLike``'s own bound ``_walk_end`` pricing against
    ``sim.hierarchy`` (a subclass or a custom walk-end hook does not
    count), and ``None`` otherwise: infinite- or clustered-TLB,
    5-level and custom-hook cells stay on the scalar loop.  Every mode
    takes a co-runner whose type is exactly ``Corunner`` (the kernel
    replays its steps; a subclass may step differently and stays
    scalar).  All modes additionally need power-of-two set counts and a
    compiled backend.  In-flight MSHRs are fine — the kernel carries
    the MSHR file and has the merge branch.
    """
    tlbs = sim.tlbs
    corunner = sim.corunner
    if ((corunner is not None and type(corunner) is not Corunner)
            or tlbs.infinite or tlbs.l2_plain is None
            or any(len(pwc.view) != 3 for pwc in sim.pwcs)
            or (_nested(sim) and not _nested_walker_ok(sim))):
        return None
    scheme = sim.scheme
    probe = scheme.probe_hook()
    walk_start = scheme.walk_start_hook()
    walk_end = scheme.walk_end_hook()
    evict = tlbs.l2_evict_hook
    host = scheme.host_prefetcher
    mode = None
    if walk_end is not None:
        from repro.schemes.revelator import RevelatorLike

        if (type(scheme) is RevelatorLike
                and getattr(walk_end, "__self__", None) is scheme
                and getattr(walk_end, "__func__", None)
                is RevelatorLike._walk_end
                and scheme._hierarchy is sim.hierarchy
                and probe is None and evict is None
                and walk_start is None and host is None):
            mode = "revelator"
    elif probe is None and evict is None:
        if walk_start is None and host is None:
            mode = "plain"
        elif _asap_prefetchers(sim) is not None:
            mode = "asap"
    elif probe is not None and walk_start is None and host is None:
        from repro.schemes.victima import VictimaLike

        if (type(scheme) is VictimaLike
                and getattr(probe, "__self__", None) is scheme
                and getattr(probe, "__func__", None) is VictimaLike._probe
                and _park_routes(sim) is not None):
            mode = "victima"
    if mode is None or not _pow2_geometry(sim):
        return None
    return mode if columnar_available() else None


class _PathTable:
    """Per-simulation cache of page-walk rows, keyed by biased VPN.

    Each row holds everything the C kernel needs to replay one page
    walk: the cache line of each page-table node the walker would
    touch, the three PWC tags, the leaf level, the frame and the
    large-page flag.  Rows are immutable once built (the page table is
    static during a run); ``clear()`` drops them on translation flush,
    coherently with the scalar path caches.

    Rows are built in bulk, with whole-array passes over a chunk's new
    VPNs in sorted order: leaf frames from one dict lookup per VPN, node
    lines from one node-map lookup per distinct node, ASAP columns per
    descriptor as a contiguous slice of the sorted pages.  Every column
    is written straight into the grown ``paths`` matrix.

    Subclasses keep the key-to-row mapping and change what a row holds
    (``EMPTY`` and ``_add``): the host chains and the nested rows of a
    VirtualizedSimulation below.
    """

    #: A row before its columns are written (its width is the row's).
    EMPTY = _EMPTY_ROW
    #: Rows whose walk needs a host mapping made first (nested rows).
    lazy = 0

    def __init__(self) -> None:
        self.known = np.empty(0, dtype=np.int64)  # sorted keys
        self.rows = np.empty(0, dtype=np.int64)   # row ids, aligned
        self.paths = np.empty((0, self.EMPTY.size), dtype=np.int64)
        self.count = 0

    def clear(self) -> None:
        self.__init__()

    def rows_for(self, vpns: np.ndarray, *context) -> np.ndarray:
        """Row index for every element of ``vpns``, building rows for
        keys not seen before.  ``context`` is what ``_add`` builds them
        from; a native table's is the process, the ASID bias and the
        :class:`~repro.core.prefetcher.AsapPrefetcher` whose replay
        columns the rows carry (or ``None``).

        One sort per chunk maps records to rows: the distinct VPNs are
        looked up in (or added to) ``known``, and the inverse index
        spreads their row ids back over the records.
        """
        uniq, inverse = np.unique(vpns, return_inverse=True)
        ids = np.empty(uniq.size, dtype=np.int64)
        fresh = np.ones(uniq.size, dtype=bool)
        if self.known.size:
            slot = np.searchsorted(self.known, uniq)
            hit = self.known[np.minimum(slot, self.known.size - 1)] == uniq
            ids[hit] = self.rows[slot[hit]]
            fresh = ~hit
        if fresh.any():
            ids[fresh] = self._add(uniq[fresh], *context)
        return ids[inverse]

    def _add(self, new: np.ndarray, process, vbias: int,
             prefetcher=None) -> np.ndarray:
        """Build and commit rows for the sorted, unseen VPNs ``new``;
        returns their row ids.  An unmapped VPN raises before any row
        is committed."""
        pt = process.page_table
        raw = new & ((1 << ASID_SHIFT) - 1) if vbias else new
        leaf, pframe = self._leaves(raw, pt)
        _require_mapped(raw, leaf, process)
        self._walk_rows(self._grow(new.size), raw, leaf, pframe, pt, vbias,
                        prefetcher)
        return self._commit(new)

    def _grow(self, count: int) -> np.ndarray:
        """The next ``count`` rows, set to ``EMPTY``."""
        start = self.count
        needed = start + count
        if needed > self.paths.shape[0]:
            # Doubling past `needed` leaves room for the next chunks'
            # rows without another copy; rows never written are never
            # paged in.
            grown = np.empty((max(2 * needed, 1024), self.EMPTY.size),
                             dtype=np.int64)
            grown[:start] = self.paths[:start]
            self.paths = grown
        rows = self.paths[start:needed]
        rows[:] = self.EMPTY
        return rows

    def _commit(self, new: np.ndarray) -> np.ndarray:
        """Publish the rows ``_grow`` handed out for the sorted keys
        ``new``; returns their ids."""
        start = self.count
        self.count = start + new.size
        ids = np.arange(start, self.count, dtype=np.int64)
        # `new` is sorted (np.unique output), so one merged insert keeps
        # `known`/`rows` aligned and sorted.
        at = np.searchsorted(self.known, new)
        self.known = np.insert(self.known, at, new)
        self.rows = np.insert(self.rows, at, ids)
        return ids

    @classmethod
    def _walk_rows(cls, rows: np.ndarray, raw: np.ndarray, leaf, pframe,
                   pt, vbias: int, prefetcher) -> None:
        """Write the walk columns of ``rows`` for the sorted vpns ``raw``,
        which ``pt`` maps (``leaf``/``pframe`` from :meth:`_leaves`)."""
        rows[:, 0] = cls._node_lines(raw, 4, pt)
        rows[:, 1] = cls._node_lines(raw, 3, pt)
        rows[:, 2] = cls._node_lines(raw, 2, pt)
        small = leaf == 1
        if small.any():
            rows[small, 3] = cls._node_lines(raw[small], 1, pt)
        rows[:, 4] = (raw >> 9) | vbias
        rows[:, 5] = (raw >> 18) | vbias
        rows[:, 6] = (raw >> 27) | vbias
        rows[:, 7] = leaf
        rows[:, 8] = pframe
        rows[:, 9] = ~small
        if prefetcher is not None:
            cls._asap_columns(rows[:, _ASAP_COL:], raw << 12, prefetcher)

    @staticmethod
    def _leaves(raw: np.ndarray, pt) -> tuple[np.ndarray, np.ndarray]:
        """``(leaf level, frame)`` per (raw, sorted) vpn of page table
        ``pt``: the 4KB map first, then the 2MB map for the misses.
        Leaf 0 and frame -1 where ``pt`` maps neither."""
        pages, large = pt.leaf_maps()
        pframe = np.fromiter(map(pages.get, raw.tolist(), repeat(-1)),
                             dtype=np.int64, count=raw.size)
        leaf = np.ones(raw.size, dtype=np.int64)
        miss = np.flatnonzero(pframe < 0)
        if miss.size:
            vpns = raw[miss]
            bases = np.fromiter(
                map(large.get, (vpns >> 9).tolist(), repeat(-1)),
                dtype=np.int64, count=miss.size)
            found = bases >= 0
            leaf[miss] = np.where(found, 2, 0)
            pframe[miss] = np.where(found, bases + (vpns & 511), -1)
        return leaf, pframe

    @staticmethod
    def _node_lines(raw: np.ndarray, level: int, pt) -> np.ndarray:
        """Cache line of the level-``level`` node entry per (raw, sorted)
        vpn — ``flat_walk``'s line arithmetic, one node-map lookup per
        distinct node."""
        node_map = pt.leaf_nodes(level)
        keys = raw >> (9 * level)
        first, runs = _runs(keys)
        bases = np.fromiter(map(node_map.__getitem__, keys[first].tolist()),
                            dtype=np.int64, count=first.size)
        index = (raw >> (9 * (level - 1))) & 511
        return (np.repeat(bases, runs) + index * 8) >> 6

    @staticmethod
    def _asap_columns(block: np.ndarray, vas: np.ndarray,
                      prefetcher) -> None:
        """The ASAP replay block (descriptor flag, four target lines,
        four hole flags) for page-base addresses ``vas`` (sorted).
        Descriptors are sorted and disjoint, so the pages a descriptor
        covers are one slice of ``vas``: the range-register hit,
        replayed without touching the register counters (those live in
        the kernel).  Targets come from the descriptor's own
        base-plus-offset arithmetic over the slice; hole verdicts once
        per (descriptor, level, node), which the module's node-constancy
        rule makes exact."""
        levels = prefetcher.levels
        hole_checker = prefetcher.hole_checker
        for descriptor in prefetcher.registers._descriptors:
            lo, hi = np.searchsorted(vas, (descriptor.start, descriptor.end))
            if lo == hi:
                continue
            rows = block[lo:hi]
            pages = vas[lo:hi]
            rows[:, 0] = 1
            for s, level in enumerate(levels):
                target = descriptor.entry_addr(pages, level)
                if target is None:
                    continue
                rows[:, 1 + s] = target >> 6
                if hole_checker is None:
                    continue
                first, runs = _runs(node_tag(pages, level))
                verdicts = [hole_checker(va, level)
                            for va in pages[first].tolist()]
                rows[:, 5 + s] = np.repeat(verdicts, runs)


def _require_mapped(raw: np.ndarray, leaf: np.ndarray, process) -> None:
    """Raise the PageFault the scalar walk would for the first vpn of
    ``raw`` that ``process`` does not map (at chunk pre-scan rather than
    at the faulting record — the only observable divergence, and only
    on faulting traces)."""
    unmapped = np.flatnonzero(leaf == 0)
    if unmapped.size:
        process.flat_walk(int(raw[unmapped[0]]) << 12)
        raise AssertionError("flat_walk did not raise for an unmapped vpn")


class _HostChains(_PathTable):
    """The host walks of a VirtualizedSimulation's nested rows: one path
    row per guest-physical page over the VM's host page table, its PWC
    tags ORed with the VM's bias — host walks translate a page, so one
    row serves every nested step that lands in it.

    Populate backs every guest page and every guest page-table node it
    creates, but not the guest root node's page: the scalar loop maps
    that through ``VirtualMachine.translate_gpa`` at the first walk that
    needs it, drawing a host frame.  A row for a page the host page
    table does not map yet keeps leaf 0 until :meth:`remap` finds it
    mapped.
    """

    def _add(self, new: np.ndarray, hpt, vbias: int,
             prefetcher=None) -> np.ndarray:
        leaf, frame = self._leaves(new, hpt)
        self._fill(self._grow(new.size), new, leaf, frame, hpt, vbias,
                   prefetcher)
        return self._commit(new)

    def _fill(self, rows, gpages, leaf, frame, hpt, vbias,
              prefetcher) -> None:
        """The walk columns of the mapped pages among ``gpages``."""
        mapped = leaf > 0
        if mapped.all():
            self._walk_rows(rows, gpages, leaf, frame, hpt, vbias,
                            prefetcher)
        elif mapped.any():
            block = np.tile(self.EMPTY, (int(mapped.sum()), 1))
            self._walk_rows(block, gpages[mapped], leaf[mapped],
                            frame[mapped], hpt, vbias, prefetcher)
            rows[mapped] = block

    def remap(self, hpt, vbias: int, prefetcher=None) -> bool:
        """Fill the rows of pages mapped since they were built; returns
        whether there were any."""
        pending = np.flatnonzero(self.paths[:self.count, 7] == 0)
        if not pending.size:
            return False
        keys = np.empty(self.count, dtype=np.int64)
        keys[self.rows] = self.known
        pending = pending[np.argsort(keys[pending])]
        gpages = keys[pending]
        leaf, frame = self._leaves(gpages, hpt)
        if not leaf.any():
            return False
        rows = self.paths[pending]
        self._fill(rows, gpages, leaf, frame, hpt, vbias, prefetcher)
        self.paths[pending] = rows
        return True


class _NestedRows(_PathTable):
    """A VirtualizedSimulation's rows, one per guest page (keyed by
    biased guest VPN), in the nested layout (``_NESTED_COLS``).

    The guest half comes from the same passes over the guest page table
    as a native row; each nested step — guest levels 4 down to the leaf,
    then the data page — points at the :class:`_HostChains` row of its
    guest-physical page, which also gives the guest entry's host line
    and the data frame.  A row is *lazy* while any of its chains waits
    for a host mapping; the kernel stops before a lazy row's walk so the
    caller can make that mapping where the scalar loop does.
    """

    EMPTY = _EMPTY_NESTED

    def __init__(self) -> None:
        super().__init__()
        self.chains = _HostChains()
        self.lazy = 0

    def _add(self, new: np.ndarray, vm, vbias: int, prefetcher=None,
             host_prefetcher=None) -> np.ndarray:
        guest = vm.guest
        gpt = guest.page_table
        raw = new & ((1 << ASID_SHIFT) - 1) if vbias else new
        leaf, gframe = self._leaves(raw, gpt)
        _require_mapped(raw, leaf, guest)
        small = leaf == 1
        glines = np.zeros((new.size, 4), dtype=np.int64)
        for step, level in enumerate((4, 3, 2)):
            glines[:, step] = self._node_lines(raw, level, gpt)
        if small.any():
            glines[small, 3] = self._node_lines(raw[small], 1, gpt)
        # The guest-physical page of each nested step; the data page is
        # step 5 - leaf (step 4 of a 2MB page repeats it, never read).
        pages = np.empty((new.size, 5), dtype=np.int64)
        pages[:, :4] = glines >> 6
        pages[:, 4] = gframe
        pages[~small, 3] = gframe[~small]
        chains = self.chains.rows_for(pages.ravel(), vm.hpt, vbias,
                                      host_prefetcher).reshape(-1, 5)
        rows = self._grow(new.size)
        rows[:, 0] = (raw >> 9) | vbias
        rows[:, 1] = (raw >> 18) | vbias
        rows[:, 2] = (raw >> 27) | vbias
        rows[:, _R_LEAF] = leaf
        rows[:, 4] = ~small
        rows[:, _R_CHAIN:_R_CHAIN + 5] = chains
        rows[:, _R_GLINE:_R_GLINE + 4] = glines
        lazy = self._waiting(chains)
        rows[:, _R_LAZY] = lazy
        self.lazy += int(lazy.sum())
        if prefetcher is not None:
            self._asap_columns(rows[:, _R_ASAP:], raw << 12, prefetcher)
        return self._commit(new)

    def _waiting(self, chains: np.ndarray) -> np.ndarray:
        """Per row of chain ids: whether a chain's page is unmapped."""
        return (self.chains.paths[chains, 7] == 0).any(axis=1)

    def remap(self, vm, vbias: int, prefetcher=None,
              host_prefetcher=None) -> None:
        """Take in the host mappings made since the lazy rows were built
        (same arguments as :meth:`rows_for`)."""
        if not self.lazy or not self.chains.remap(vm.hpt, vbias,
                                                  host_prefetcher):
            return
        lazy = np.flatnonzero(self.paths[:self.count, _R_LAZY])
        waiting = self._waiting(self.paths[lazy, _R_CHAIN:_R_CHAIN + 5])
        self.paths[lazy, _R_LAZY] = waiting
        self.lazy = int(waiting.sum())


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each run of equal values in the sorted
    array ``keys``."""
    first = np.flatnonzero(run_starts(keys))
    return first, np.diff(first, append=keys.size)


def _as_array(lst: list) -> np.ndarray:
    return np.asarray(lst, dtype=np.int64)


class _CacheImage:
    """The kernel's resident copy of one ``SetAssociativeCache``.

    ``lines``/``sizes`` mirror the cache's lists slot for slot;
    ``touched`` holds one flag per set, raised by the C kernel whenever
    it changes that set.  Between calls the image hangs off the cache as
    ``cache.image`` and equals its lists (see the module docstring).
    """

    __slots__ = ("lines", "sizes", "touched")

    def __init__(self, cache) -> None:
        if any(cache.sizes):
            self.lines = _as_array(cache.lines)
            self.sizes = _as_array(cache.sizes)
        else:
            # An empty cache holds EMPTY in every slot (each slot past a
            # set's size does), so skip converting the lists.
            self.lines = np.full(len(cache.lines), EMPTY, dtype=np.int64)
            self.sizes = np.zeros(cache.num_sets, dtype=np.int64)
        self.touched = np.zeros(cache.num_sets, dtype=np.uint8)

    def write_back(self, cache) -> None:
        """Copy the touched sets into the cache's lists; clear the flags."""
        touched = np.flatnonzero(self.touched)
        stride = cache.stride
        lines, sizes = cache.lines, cache.sizes
        rows = self.lines.reshape(-1, stride)[touched].tolist()
        for set_index, row, size in zip(touched.tolist(), rows,
                                        self.sizes[touched].tolist()):
            base = set_index * stride
            lines[base:base + stride] = row
            sizes[set_index] = size
        self.touched[touched] = 0


def _ptr(arr: np.ndarray, offset: int = 0):
    """A ``long long *`` to element ``offset`` of the contiguous int64
    array (``from_buffer`` costs a fraction of a ``ctypes`` address)."""
    return _BACKEND[0].from_buffer("long long[]", arr) + offset


class _ParkImage:
    """The kernel's resident copy of one Victima scheme's parked map.

    ``pool``/``hash``/``meta``/``log`` are the C FIFO pool (the ``PM_*``
    slots).  Between calls the image hangs off the scheme as
    ``scheme.park_image`` and equals its ``_parked`` dict; the scheme's
    Python mutators drop it, exactly like ``SetAssociativeCache.image``.
    Neither direction loops over entries in Python: a missing image is
    seeded with two ``np.fromiter`` passes and one C call, and the
    write-back replays only what the call changed — the removal log as
    dict deletions, then the new and re-framed entries as one
    ``dict.update``.
    """

    __slots__ = ("pool", "hash", "meta", "log")

    def __init__(self, scheme) -> None:
        parked = scheme._parked
        cap = scheme.max_parked
        count = len(parked)
        self.pool = np.empty(_PARK_SLOT * cap, dtype=np.int64)
        self.hash = np.empty(1 << max(6, (4 * cap - 1).bit_length()),
                             dtype=np.int64)
        self.log = np.empty(cap, dtype=np.int64)
        self.meta = np.zeros(_PM_SLOTS, dtype=np.int64)
        self.meta[_PM_MAX] = cap
        self.meta[_PM_HCAP] = self.hash.size
        vpns = np.fromiter(parked, dtype=np.int64, count=count)
        frames = np.fromiter(parked.values(), dtype=np.int64, count=count)
        _BACKEND[1].col_park_load(_ptr(self.pool), _ptr(self.hash),
                                  _ptr(self.meta), _ptr(vpns), _ptr(frames),
                                  count)

    def write_back(self, scheme) -> None:
        """Replay the call's changes on the scheme's dict and counter."""
        meta = self.meta
        scheme.stats["parked"] = int(meta[_PM_PARKED])
        if not meta[_PM_DIRTY]:
            return
        parked = scheme._parked
        deque(map(parked.__delitem__,
                  self.log[:meta[_PM_LOGGED]].tolist()), maxlen=0)
        vpns = np.empty(int(meta[_PM_COUNT]), dtype=np.int64)
        frames = np.empty_like(vpns)
        changed = _BACKEND[1].col_park_changes(_ptr(self.pool), _ptr(meta),
                                               _ptr(vpns), _ptr(frames))
        parked.update(zip(vpns[:changed].tolist(),
                          frames[:changed].tolist()))


def _load_corunner(corunner, state: np.ndarray) -> tuple:
    """Copy the co-runner's cursors, drawn group count, intensity and
    step count into ``state`` (the C ``CO_*`` slots); return pointers to
    its drawn lines and take counts."""
    state[:] = (corunner._cursor, corunner._take_cursor,
                corunner._takes.size, corunner.intensity, corunner.accesses)
    return _ptr(corunner._lines), _ptr(corunner._takes)


def _store_corunner(corunner, state: np.ndarray) -> None:
    """Write the kernel's cursors and step count back to the co-runner."""
    corunner._cursor = int(state[_CO_CURSOR])
    corunner._take_cursor = int(state[_CO_TAKE])
    corunner.accesses = int(state[_CO_ACCESSES])


def _get(owner, name: str) -> int:
    return owner[name] if isinstance(owner, dict) else getattr(owner, name)


def _set(owner, name: str, value: int) -> None:
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


def run_columnar(sim, chunks, warmup: int, collect_service: bool, stats,
                 carry: tuple, obs_probe=None, mode: str = "plain") -> tuple:
    """Drive every chunk of ``chunks`` through the C kernel.

    ``sim`` is a NativeSimulation or a VirtualizedSimulation (nested
    rows, both PWC dimensions).  ``mode`` is :func:`engine_mode`'s
    verdict — ``"plain"``, ``"asap"``, ``"victima"`` or ``"revelator"``
    — and selects which scheme state machine the kernel replays (and
    which scheme-side state is round-tripped through flat arrays).

    ``carry`` is the scalar loop's run-wide state tuple ``(now,
    measuring, acc, data_c, walk_c, walk_count, tlb_l1_base,
    tlb_l2_base)``; the return value is the updated tuple, with all
    flat-array state and stats owners mutated exactly as the scalar
    loop would have left them.  ``warmup`` is the run-global warmup
    index (this function tracks the chunk offset itself).

    Per call, the TLB/PWC arrays, the MSHR file and every counter are
    loaded from their owners and written back whole; the three data
    caches reuse their resident images and write back only the sets
    the kernel touched, and each Victima scheme's parked map reuses its
    resident pool and writes back only the entries the call changed.

    A nested walk whose path crosses a guest-physical page the host page
    table does not map yet stops the kernel before that record; the
    page is mapped through ``VirtualMachine.nested_path``, as the scalar
    loop maps it at that walk, and the kernel resumes at the record.
    So does a record whose co-runner groups are not drawn yet: the
    co-runner draws its next batch, and the kernel resumes there.  The
    co-runner's cursors and step count are written back at the end.

    ``obs_probe`` (a :class:`repro.obs.probe.SimProbe`, or ``None``)
    snapshots counters at each chunk boundary.  The snapshot reads the
    live ``k``/``carry_arr`` arrays, not the stats owners — those are
    only written back in the finally block below, so they are stale for
    the whole loop.
    """
    ffi, lib = _BACKEND
    nested = _nested(sim)
    tlbs = sim.tlbs
    hierarchy = sim.hierarchy
    l1t = tlbs.l1
    l2t = tlbs.l2_plain
    pwcs = sim.pwcs
    c1, c2, c3 = hierarchy.l1, hierarchy.l2, hierarchy.l3
    walker = sim.walker
    vbias = asid_bias(sim.asid)

    geom = np.zeros(_GEOM_SLOTS, dtype=np.int64)
    placed = [(_G_T, l1t), (_G_U, l2t),
              (_G_C1, c1), (_G_C2, c2), (_G_C3, c3)]
    for base, pwc in zip((_G_P2, _G_H2), pwcs):
        placed += [(base + 3 * index, unit)
                   for index, (_, unit) in enumerate(pwc.view)]
    for off, unit in placed:
        geom[off] = unit.num_sets
        geom[off + 1] = unit.stride
        geom[off + 2] = unit.ways
    for off, pwc in zip((_G_PWC_LAT, _G_HPWC_LAT), pwcs):
        geom[off] = pwc.params.latency
    geom[_G_LAT1] = hierarchy.latency_of("L1")
    geom[_G_LAT2] = hierarchy.latency_of("L2")
    geom[_G_LAT3] = hierarchy.latency_of("L3")
    geom[_G_LATM] = hierarchy.latency_of("MEM")
    geom[_G_BASE_CYCLES] = sim.machine.core.base_cycles
    geom[_G_VBIAS] = vbias
    geom[_G_PROBE_LARGE] = 1 if tlbs.probe_large[0] else 0
    geom[_G_MODE] = {"plain": 0, "asap": 1, "victima": 2,
                     "revelator": 3}[mode]
    geom[_G_NESTED] = 1 if nested else 0

    # The MSHR file rides along in every mode (the kernel has the merge
    # branch, and ASAP replays allocations into it): [count, lines...,
    # completion times...], insertion-ordered like the scalar dict.
    mshrs = hierarchy.mshrs
    mshr_cap = int(mshrs.capacity)
    geom[_G_MSHR_CAP] = mshr_cap
    mshr_arr = np.zeros(1 + 2 * max(mshr_cap, 1), dtype=np.int64)
    inflight = list(mshrs._inflight.items())
    mshr_arr[0] = len(inflight)
    for i, (line, when) in enumerate(inflight):
        mshr_arr[1 + i] = line
        mshr_arr[1 + mshr_cap + i] = when

    # Every counter the kernel keeps, as (slot, owner, attribute or key):
    # loaded here, written back after the last chunk.
    counters = [
        (K_TH, tlbs.stats, "hits"), (K_TM, tlbs.stats, "misses"),
        (K_L1H, tlbs, "l1_hits"), (K_L2H, tlbs, "l2_hits"),
        (K_LS_H, l1t.stats, "hits"), (K_LS_M, l1t.stats, "misses"),
        (K_US_H, l2t.stats, "hits"), (K_US_M, l2t.stats, "misses"),
        (K_WALKS, walker, "walks"), (K_WALK_CYCLES, walker, "total_latency"),
        (K_C1_H, c1.stats, "hits"), (K_C1_M, c1.stats, "misses"),
        (K_C1_E, c1.stats, "evictions"),
        (K_C2_H, c2.stats, "hits"), (K_C2_M, c2.stats, "misses"),
        (K_C2_E, c2.stats, "evictions"),
        (K_C3_H, c3.stats, "hits"), (K_C3_M, c3.stats, "misses"),
        (K_C3_E, c3.stats, "evictions"),
        (K_SRV_L1, hierarchy.served, "L1"), (K_SRV_L2, hierarchy.served, "L2"),
        (K_SRV_L3, hierarchy.served, "L3"),
        (K_SRV_MEM, hierarchy.served, "MEM"),
        (K_H_PF_ISSUED, hierarchy, "prefetches_issued"),
        (K_H_PF_DROP, hierarchy, "prefetches_dropped"),
        (K_MSHR_ALLOC, mshrs, "allocations"),
        (K_MSHR_REJ, mshrs, "rejections"), (K_MSHR_MERGE, mshrs, "merges"),
    ]
    for base, pwc in zip((K_PWC_PROBES, K_HPWC_PROBES), pwcs):
        counters += [(base, pwc, "probes"), (base + 1, pwc, "hits")]
        for index, (_, unit) in enumerate(pwc.view):
            counters += [(base + 2 + 2 * index, unit.stats, "hits"),
                         (base + 3 + 2 * index, unit.stats, "misses")]
    if nested:
        counters.append((K_WALK_ACC, walker, "total_accesses"))

    # ASAP: the walk-start prefetcher (native or guest dimension) and,
    # in a nested walk, the host one, each with its own counter block.
    prefetcher = host_prefetcher = None
    if mode == "asap":
        prefetcher, host_prefetcher = _asap_prefetchers(sim)
    for pf, base, (n_slot, l_slot, mshr_slot) in (
            (prefetcher, K_RR_H, (_G_PF_N, _G_PF_L, _G_REQ_MSHR)),
            (host_prefetcher, K_HRR_H, (_G_HPF_N, _G_HPF_L, _G_HREQ_MSHR))):
        if pf is None:
            continue
        geom[mshr_slot] = 1 if pf.require_mshr else 0
        geom[n_slot] = len(pf.levels)
        geom[l_slot:l_slot + len(pf.levels)] = pf.levels
        counters += [
            (base, pf.registers, "hits"), (base + 1, pf.registers, "misses"),
            (base + 2, pf.stats, "issued"), (base + 3, pf.stats, "useful"),
            (base + 4, pf.stats, "dropped_no_mshr"),
            (base + 5, pf.stats, "no_descriptor"),
            (base + 6, pf.stats, "wasted_on_hole")]

    # Revelator: the lottery's coverage and the two latencies, and the
    # scheme's speculation counters.
    if mode == "revelator":
        rscheme = sim.scheme
        geom[_G_REV_COVERAGE] = rscheme.coverage_pct
        geom[_G_REV_SPEC] = rscheme.spec_latency
        geom[_G_REV_PENALTY] = rscheme.penalty
        counters += [(K_SPEC, rscheme.stats, "speculations"),
                     (K_SPEC_OK, rscheme.stats, "correct"),
                     (K_SPEC_MISS, rscheme.stats, "mispredicts")]

    # Victima: one pool per scheme the victims park for.  The running
    # scheme's pool takes its probes (and their counters); each victim
    # parks in its owner's pool, under that scheme's `parked` counter.
    # Like the cache images, each pool is reused if resident and stays
    # detached from its scheme until the write-back below has run.
    schemes = ()
    pools: list[_ParkImage] = []
    parks = route_arr = ffi.NULL
    if mode == "victima":
        vscheme = sim.scheme
        schemes, route = _park_routes(sim)
        geom[_G_PROBE_LAT] = vscheme._probe_latency
        geom[_G_PARK_SELF] = schemes.index(vscheme)
        counters += [(K_V_PROBE_H, vscheme.stats, "probe_hits"),
                     (K_V_PROBE_M, vscheme.stats, "probe_misses"),
                     (K_V_LOST, vscheme.stats, "parked_lost_to_data")]
        parks = ffi.new("park_t[]", len(schemes))
        for entry, scheme in zip(parks, schemes):
            pool = scheme.park_image
            if pool is None or pool.meta[_PM_MAX] != scheme.max_parked:
                pool = _ParkImage(scheme)
            scheme.park_image = None
            pool.meta[_PM_PARKED] = scheme.stats["parked"]
            pools.append(pool)
            entry.pool = _ptr(pool.pool)
            entry.hash = _ptr(pool.hash)
            entry.meta = _ptr(pool.meta)
            entry.log = _ptr(pool.log)
        if route is not None:
            route_ids = np.array(route, dtype=np.int64)
            route_arr = _ptr(route_ids)

    k = np.zeros(_COUNTER_SLOTS, dtype=np.int64)
    for slot, owner, name in counters:
        k[slot] = _get(owner, name)

    carry_arr = np.zeros(_CARRY_SLOTS, dtype=np.int64)
    (carry_arr[_CAR_NOW], measuring, carry_arr[_CAR_ACC],
     carry_arr[_CAR_DATA_C], carry_arr[_CAR_WALK_C],
     carry_arr[_CAR_WALK_COUNT], carry_arr[_CAR_L1_BASE],
     carry_arr[_CAR_L2_BASE]) = carry
    carry_arr[_CAR_MEASURING] = 1 if measuring else 0
    service = np.zeros(_SERVICE_SLOTS, dtype=np.int64)

    # The co-runner: the kernel issues its drawn groups after every
    # record and stops before a record whose groups are not drawn yet.
    corunner = sim.corunner
    co = co_lines = co_takes = ffi.NULL
    if corunner is not None:
        co_state = np.zeros(_CO_SLOTS, dtype=np.int64)
        co = _ptr(co_state)
        co_lines, co_takes = _load_corunner(corunner, co_state)

    state = sim._columnar_paths
    if state is None:
        state = sim._columnar_paths = (_NestedRows() if nested
                                       else _PathTable())
    if nested:
        context = (sim.vm, vbias, prefetcher, host_prefetcher)
        state.remap(*context)
    else:
        context = (sim.process, vbias, prefetcher)

    # The TLBs and PWCs in the kernel's argument order (the host PWC only
    # in a nested run), each as tags, frames and sizes.
    units = [l1t, l2t] + [unit for pwc in pwcs for _, unit in pwc.view]
    unit_arrays = [(_as_array(unit.tags), _as_array(unit.frames),
                    _as_array(unit.sizes)) for unit in units]
    struct_ptrs = [_ptr(array) for arrays in unit_arrays for array in arrays]
    if not nested:
        struct_ptrs += [ffi.NULL] * 9
    # Reuse each cache's resident image, or build it from the lists.
    # It stays detached until the write-back below has run, so an
    # interrupted write-back cannot leave a stale image attached.
    caches = (c1, c2, c3)
    images = [cache.image or _CacheImage(cache) for cache in caches]
    for cache in caches:
        cache.image = None
    for image in images:
        struct_ptrs += [_ptr(image.lines), _ptr(image.sizes),
                        ffi.from_buffer("unsigned char[]", image.touched)]

    try:
        chunk_base = 0
        for chunk in chunks:
            addresses = kernel_chunk(chunk)
            n = addresses.size
            if n == 0:
                continue
            vpns = (addresses >> 12) | vbias
            rowidx = np.ascontiguousarray(state.rows_for(vpns, *context))
            chains = _ptr(state.chains.paths) if nested else ffi.NULL
            done = 0
            while True:
                done += lib.col_run_chunk(
                    _ptr(addresses, done), n - done,
                    min(max(warmup - chunk_base - done, 0), n - done),
                    1 if collect_service else 0,
                    _ptr(rowidx, done), _ptr(state.paths), chains,
                    1 if state.lazy else 0,
                    _ptr(carry_arr), _ptr(k), _ptr(geom), _ptr(service),
                    *struct_ptrs,
                    _ptr(mshr_arr), parks, route_arr,
                    co_lines, co_takes, co)
                if done == n:
                    break
                if corunner is not None and (
                        co_state[_CO_TAKE] + co_state[_CO_INTENSITY]
                        > co_state[_CO_NTAKES]):
                    # Draw the next record's groups (the batches its
                    # scalar step would draw, in the same order) and
                    # resume at that record.
                    _store_corunner(corunner, co_state)
                    corunner._draw_ahead()
                    co_lines, co_takes = _load_corunner(corunner, co_state)
                    continue
                # The next record walks through a guest-physical page
                # the host page table does not map yet: map it the way
                # the scalar loop does at this walk, then resume there.
                sim.vm.nested_path(int(addresses[done]))
                state.remap(*context)
                assert not state.paths[rowidx[done], _R_LAZY]
            chunk_base += n
            if obs_probe is not None:
                obs_probe.sample(
                    chunk_base,
                    now=int(carry_arr[_CAR_NOW]),
                    accesses=int(carry_arr[_CAR_ACC]),
                    data_cycles=int(carry_arr[_CAR_DATA_C]),
                    walk_cycles=int(carry_arr[_CAR_WALK_C]),
                    walks=int(carry_arr[_CAR_WALK_COUNT]),
                    tlb_l1_hits=int(k[K_L1H]),
                    tlb_l2_hits=int(k[K_L2H]),
                    tlb_misses=int(k[K_TM]))
    finally:
        # Write every structure image and counter back to its owner, so
        # post-run state is indistinguishable from a scalar run.  The
        # cache images then equal their lists again and are re-attached.
        for cache, image in zip(caches, images):
            image.write_back(cache)
            cache.image = image
        for unit, (tags, frames, sizes) in zip(units, unit_arrays):
            unit.tags[:] = tags.tolist()
            unit.frames[:] = frames.tolist()
            unit.sizes[:] = sizes.tolist()
        for slot, owner, name in counters:
            _set(owner, name, int(k[slot]))
        mshrs._inflight.clear()
        for i in range(int(mshr_arr[0])):
            mshrs._inflight[int(mshr_arr[1 + i])] = int(
                mshr_arr[1 + mshr_cap + i])
        for scheme, pool in zip(schemes, pools):
            pool.write_back(scheme)
            scheme.park_image = pool
        if corunner is not None:
            _store_corunner(corunner, co_state)

        if collect_service:
            # Each dimension root first (level 4 down), the host one
            # before the guest one: the order of a cold walk's records.
            # Insertion order is presentation only; the distribution
            # compares by value.
            counts = stats.service._counts
            dims = ((4, "h"), (0, "g")) if nested else ((0, ""),)
            for row_base, prefix in dims:
                for level in (4, 3, 2, 1):
                    row = (row_base + level - 1) * 6
                    key = f"{prefix}{level}" if prefix else level
                    for col, label in enumerate(_SERVICE_LABELS):
                        value = int(service[row + col])
                        if value:
                            bucket = counts.setdefault(key, {})
                            bucket[label] = bucket.get(label, 0) + value

    return (int(carry_arr[_CAR_NOW]), bool(carry_arr[_CAR_MEASURING]),
            int(carry_arr[_CAR_ACC]), int(carry_arr[_CAR_DATA_C]),
            int(carry_arr[_CAR_WALK_C]), int(carry_arr[_CAR_WALK_COUNT]),
            int(carry_arr[_CAR_L1_BASE]), int(carry_arr[_CAR_L2_BASE]))
