"""Columnar chunk kernel: the scalar fast sweep recast as a C loop.

The scalar simulator already spends almost all of its time in
``_fast_native_sweep`` — a pure function of the flat-array TLB/PWC/cache
state plus the page table's translation for each VPN.  This module
compiles an exact transliteration of that sweep (via cffi's ABI mode and
the system C compiler) and drives it one TraceSource chunk at a time:

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
* the start of every scalar record loop — ``NativeSimulation.run``'s
  scalar branch and ``VirtualizedSimulation.run`` — whose inlined
  ``access`` closures write the lists directly, and the public walker
  entry points (``PageWalker.walk``/``walk_to_fault``,
  ``NestedPageWalker.walk``).

Victima's parked maps follow the same rule: each scheme keeps its C
pool as ``scheme.park_image``, its Python mutators (``_park``,
``_probe``, ``on_translation_flush``) drop it, and the write-back
replays only the entries the call removed, added or re-framed.

The TLBs, PWCs (about 4k slots together, flushed between quanta), the
MSHR file and every counter are still loaded and written back whole on
each call.

Byte-identity with the scalar path is a hard invariant (the scalar
kernel is the differential oracle; see tests/test_columnar_differential
and ARCHITECTURE.md §12).  The kernel engages in one of three modes —
``plain`` (no scheme hooks; the original fast-sweep configuration),
``asap`` (the only hook is an AsapPrefetcher's walk-start: the
prefetch issue/completion state machine is compiled into the chunk
loop, with the range-register outcome, per-level target lines and hole
flags precomputed per page into the path rows) and ``victima`` (the
probe is a Victima scheme's and the L2-TLB-eviction hook is a Victima
park, directly or through the multi-tenant victim router: each
scheme's parked-entry map is carried as a C hash + FIFO pool, the
TLB-fill victim filter runs inline and parks each victim in its
owner's pool).  All other configurations (Revelator, co-runners,
custom hooks, non-power-of-two geometries) fall back to the scalar
loop, so every scheme still runs.  MSHR state is
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

Native simulations use this kernel by default; ``kernel="scalar"``
forces the scalar loop, the differential oracle.  The backend is
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
from typing import TYPE_CHECKING

import numpy as np

from repro.kernelsim.pt_layout import VmaHoleChecker
from repro.pagetable.constants import node_tag
from repro.sim.order import run_starts
from repro.tlb.tlb import ASID_SHIFT, asid_bias
from repro.traces.source import kernel_chunk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import NativeSimulation

#: Valid values of the native simulators' ``kernel=`` selector.
KERNELS = ("scalar", "columnar")

# --- geometry / counter slot layout (mirrors the C enums) -------------

_G_T = 0          # L1 TLB nsets, stride, ways
_G_U = 3          # L2 TLB
_G_P2 = 6         # PWC PL2
_G_P3 = 9         # PWC PL3
_G_P4 = 12        # PWC PL4
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
_G_MODE = 32        # 0 plain, 1 asap, 2 victima
_G_REQ_MSHR = 33    # asap: require a free MSHR per prefetch
_G_MSHR_CAP = 34
_G_PF_N = 35        # asap: number of prefetch-target levels
_G_PF_L = 36        # asap: the levels themselves (4 slots, 36-39)
_G_PROBE_LAT = 40   # victima: probe latency (L2 by construction)
_G_PARK_SELF = 41   # victima: the running scheme's pool (its probes)
_GEOM_SLOTS = 42

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
 K_V_PROBE_H, K_V_PROBE_M, K_V_LOST) = range(46)
_COUNTER_SLOTS = 46

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

#: Figure-9 service histogram: 4 PT levels x 6 labels; row = level - 1,
#: column = index into SERVICE_LABELS.
_SERVICE_SLOTS = 24
_SERVICE_LABELS = ("PWC", "L1", "MSHR", "L2", "L3", "MEM")

#: Path-row layout: lines l4 l3 l2 l1, tg2 tg3 tg4, leaf, pframe, large
#: (cols 0-9, the plain walk) plus the ASAP replay columns — descriptor
#: flag (10), per-slot prefetch target lines or -1 (11-14) and per-slot
#: hole flags (15-18).  The ASAP columns are exact under the
#: node-constancy rule that ``engine_mode`` enforces (module docstring).
_PATH_COLS = 19

#: A path row before its columns are written: no level-1 line (large
#: pages), no descriptor hit, no prefetch targets (-1), no holes.
_EMPTY_ROW = np.zeros(_PATH_COLS, dtype=np.int64)
_EMPTY_ROW[11:15] = -1

_C_SOURCE = r"""
#include <string.h>

typedef long long i64;
#define EMPTY (-1LL)

/* geometry slots */
enum {
    G_T = 0, G_U = 3, G_P2 = 6, G_P3 = 9, G_P4 = 12,
    G_C1 = 15, G_C2 = 18, G_C3 = 21,
    G_LAT1 = 24, G_LAT2 = 25, G_LAT3 = 26, G_LATM = 27,
    G_PWC_LAT = 28, G_BASE_CYCLES = 29, G_VBIAS = 30, G_PROBE_LARGE = 31,
    G_MODE = 32, G_REQ_MSHR = 33, G_MSHR_CAP = 34,
    G_PF_N = 35, G_PF_L = 36,
    G_PROBE_LAT = 40, G_PARK_SELF = 41
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
    K_V_PROBE_H, K_V_PROBE_M, K_V_LOST
};

#define PATH_COLS 19
#define PARK_BASE (1LL << 50)

/* carry slots */
enum {
    CAR_NOW, CAR_MEASURING, CAR_ACC, CAR_DATA_C,
    CAR_WALK_C, CAR_WALK_COUNT, CAR_L1_BASE, CAR_L2_BASE
};

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

i64 col_run_chunk(const i64 *va_arr, i64 n, i64 warmup,
                  i64 collect_service,
                  const i64 *rowidx, const i64 *paths,
                  i64 *carry, i64 *k, const i64 *g, i64 *service,
                  i64 *t_tags, i64 *t_frames, i64 *t_sizes,
                  i64 *u_tags, i64 *u_frames, i64 *u_sizes,
                  i64 *p2_tags, i64 *p2_frames, i64 *p2_sizes,
                  i64 *p3_tags, i64 *p3_frames, i64 *p3_sizes,
                  i64 *p4_tags, i64 *p4_frames, i64 *p4_sizes,
                  i64 *c1_lines, i64 *c1_sizes, unsigned char *c1_touched,
                  i64 *c2_lines, i64 *c2_sizes, unsigned char *c2_touched,
                  i64 *c3_lines, i64 *c3_sizes, unsigned char *c3_touched,
                  i64 *mshr, const park_t *parks, const i64 *route)
{
    const cache_t c1 = {c1_lines, c1_sizes, c1_touched,
                        g[G_C1], g[G_C1 + 1], g[G_C1 + 2]};
    const cache_t c2 = {c2_lines, c2_sizes, c2_touched,
                        g[G_C2], g[G_C2 + 1], g[G_C2 + 2]};
    const cache_t c3 = {c3_lines, c3_sizes, c3_touched,
                        g[G_C3], g[G_C3 + 1], g[G_C3 + 2]};
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

    for (i64 i = 0; i < n; i++) {
        if (!measuring && i >= warmup) {
            measuring = 1;
            carry[CAR_L1_BASE] = k[K_L1H];
            carry[CAR_L2_BASE] = k[K_L2H];
        }
        const i64 va = va_arr[i];
        const i64 vpn = (va >> 12) | vbias;
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
                    if (cache_probe(&c2, pline)) {
                        k[K_C2_H]++;
                        cache_invalidate(&c2, pline);
                        frame = own->pool[idx * PS_SLOT + PS_FRAME];
                        park_unlink(own, slot, idx);
                        k[K_V_PROBE_H]++;
                        translation = g[G_PROBE_LAT];
                        tlb_fill_small(vpn, frame, g, k,
                                       t_tags, t_frames, t_sizes,
                                       u_tags, u_frames, u_sizes,
                                       1, parks, route, &c2);
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
            const i64 *P = paths + rowidx[i] * PATH_COLS;
            i64 comp[5] = {-1, -1, -1, -1, -1};
            if (mode == 1) {
                /* --- ASAP prefetch replay (at `now`, before the PWC
                   probes, exactly where the scalar walk_start hook
                   fires) -------------------------------------------- */
                if (!P[10]) {
                    k[K_RR_M]++;
                    k[K_PF_NODESC]++;
                } else {
                    k[K_RR_H]++;
                    const i64 pf_n = g[G_PF_N];
                    for (i64 s = 0; s < pf_n; s++) {
                        const i64 pline = P[11 + s];
                        if (pline < 0)
                            continue;
                        i64 completion;
                        if (cache_probe(&c1, pline)) {
                            k[K_C1_H]++;
                            k[K_SRV_L1]++;
                            completion = now + g[G_LAT1];
                        } else {
                            k[K_C1_M]++;
                            i64 lvl, lat;
                            if (cache_probe(&c2, pline)) {
                                k[K_C2_H]++;
                                lvl = 3;
                                lat = g[G_LAT2];
                            } else {
                                k[K_C2_M]++;
                                if (cache_probe(&c3, pline)) {
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
                            if (g[G_REQ_MSHR] &&
                                !mshr_try_allocate(mshr, g[G_MSHR_CAP],
                                                   pline, now,
                                                   completion, k)) {
                                k[K_H_PF_DROP]++;
                                k[K_PF_DROPNM]++;
                                continue;
                            }
                            cache_install(&c1, pline, &k[K_C1_E]);
                            if (lvl >= 4)
                                cache_install(&c2, pline, &k[K_C2_E]);
                            if (lvl == 5)
                                cache_install(&c3, pline, &k[K_C3_E]);
                            if (lvl == 3) k[K_SRV_L2]++;
                            else if (lvl == 4) k[K_SRV_L3]++;
                            else k[K_SRV_MEM]++;
                            k[K_H_PF_ISSUED]++;
                        }
                        k[K_PF_ISSUED]++;
                        if (P[15 + s]) {
                            k[K_PF_HOLE]++;
                            continue;
                        }
                        k[K_PF_USEFUL]++;
                        comp[g[G_PF_L + s]] = completion;
                    }
                }
            }
            i64 t_clock = now + pwc_lat;
            i64 skip_from = 0;
            k[K_PWC_PROBES]++;
            if (pwc_probe(p2_tags, p2_frames, p2_sizes,
                          g[G_P2], g[G_P2 + 1], P[4])) {
                k[K_PWC_HITS]++;
                k[K_P2_H]++;
                skip_from = 2;
            } else {
                k[K_P2_M]++;
                if (pwc_probe(p3_tags, p3_frames, p3_sizes,
                              g[G_P3], g[G_P3 + 1], P[5])) {
                    k[K_PWC_HITS]++;
                    k[K_P3_H]++;
                    skip_from = 3;
                } else {
                    k[K_P3_M]++;
                    if (pwc_probe(p4_tags, p4_frames, p4_sizes,
                                  g[G_P4], g[G_P4 + 1], P[6])) {
                        k[K_PWC_HITS]++;
                        k[K_P4_H]++;
                        skip_from = 4;
                    } else {
                        k[K_P4_M]++;
                    }
                }
            }
            const i64 leaf = P[7];
            const i64 nlines = leaf == 1 ? 4 : 3;
            const int svc = (measuring && collect_service) ? 1 : 0;
            const i64 start = skip_from ? 5 - skip_from : 0;
            if (svc) {
                /* skipped prefix: level 4-j served by the PWC */
                for (i64 j = 0; j < start; j++)
                    service[(4 - j - 1) * 6 + 0]++;
            }
            for (i64 j = start; j < nlines; j++) {
                const i64 line = P[j];
                i64 level = 1;
                i64 lat;
                if (c1.lines[(line & (c1.nsets - 1)) * c1.stride] == line) {
                    k[K_C1_H]++;
                    k[K_SRV_L1]++;
                    lat = g[G_LAT1];
                } else {
                    lat = cache_access(&c1, &c2, &c3, g, k, line, &level,
                                       t_clock, mshr);
                }
                t_clock += lat;
                if (mode == 1 && comp[4 - j] > t_clock)
                    t_clock = comp[4 - j];  /* overlap with prefetch */
                if (svc)
                    service[(4 - j - 1) * 6 + level]++;
            }
            if (leaf == 1)
                pwc_insert(p2_tags, p2_frames, p2_sizes,
                           g[G_P2], g[G_P2 + 1], g[G_P2 + 2], P[4]);
            pwc_insert(p3_tags, p3_frames, p3_sizes,
                       g[G_P3], g[G_P3 + 1], g[G_P3 + 2], P[5]);
            pwc_insert(p4_tags, p4_frames, p4_sizes,
                       g[G_P4], g[G_P4 + 1], g[G_P4 + 2], P[6]);
            translation = t_clock - now;
            k[K_WALKS]++;
            k[K_WALK_CYCLES] += translation;
            frame = P[8];
            /* TLB fill — both tags known absent after the full miss.
               Large fills never hand a victim to the park hook (the
               generic fill path has no hook); small fills do when in
               victima mode. */
            if (P[9]) {
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
                               mode == 2, parks, route, &c2);
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
            i64 dlat;
            if (c1.lines[(line & (c1.nsets - 1)) * c1.stride] == line) {
                k[K_C1_H]++;
                k[K_SRV_L1]++;
                dlat = g[G_LAT1];
            } else {
                dlat = cache_access(&c1, &c2, &c3, g, k, line, &level,
                                    now + translation, mshr);
            }
            now += base_cycles + translation + dlat;
            if (measuring) {
                acc++;
                data_c += dlat;
            }
        }
    }

    carry[CAR_NOW] = now;
    carry[CAR_MEASURING] = measuring;
    carry[CAR_ACC] = acc;
    carry[CAR_DATA_C] = data_c;
    carry[CAR_WALK_C] = walk_c;
    carry[CAR_WALK_COUNT] = walk_count;
    return 0;
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
    long long *carry, long long *k, const long long *g,
    long long *service,
    long long *t_tags, long long *t_frames, long long *t_sizes,
    long long *u_tags, long long *u_frames, long long *u_sizes,
    long long *p2_tags, long long *p2_frames, long long *p2_sizes,
    long long *p3_tags, long long *p3_frames, long long *p3_sizes,
    long long *p4_tags, long long *p4_frames, long long *p4_sizes,
    long long *c1_lines, long long *c1_sizes, unsigned char *c1_touched,
    long long *c2_lines, long long *c2_sizes, unsigned char *c2_touched,
    long long *c3_lines, long long *c3_sizes, unsigned char *c3_touched,
    long long *mshr, const park_t *parks, const long long *route);
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


def _pow2_geometry(sim: "NativeSimulation") -> bool:
    # The C kernel maps tags to sets with `tag & (nsets - 1)`; custom
    # machine geometries with non-power-of-two set counts (valid for
    # the scalar `tag % nsets`) stay on the scalar loop.
    units = [sim.tlbs.l1, sim.tlbs.l2_plain,
             sim.hierarchy.l1, sim.hierarchy.l2, sim.hierarchy.l3]
    units += [unit for _, unit in sim.pwc.view]
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


def _park_routes(sim: "NativeSimulation") -> tuple | None:
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


def engine_mode(sim: "NativeSimulation", fast_ok: bool) -> str | None:
    """Which compiled kernel mode (if any) can replay this run().

    Returns ``"plain"`` for the hook-free fast-sweep configuration
    (``fast_ok``), ``"asap"`` when the only hook is an AsapPrefetcher's
    ``on_tlb_miss`` walk-start, ``"victima"`` when the probe is the
    scheme's own Victima probe and every victim parks through a Victima
    ``_park`` (:func:`_park_routes`), and ``None`` otherwise (Revelator,
    co-runner and custom-hook cells stay on the scalar loop).  All modes additionally need power-of-two set counts
    and a compiled backend.  In-flight MSHRs are fine — the kernel
    carries the MSHR file and has the merge branch.
    """
    mode = None
    if fast_ok:
        mode = "plain"
    else:
        # Structural preconditions shared with fast_ok, minus the hooks.
        tlbs = sim.tlbs
        if (sim.corunner is not None or tlbs.infinite
                or sim.clustered_tlb or len(sim.pwc.view) != 3):
            return None
        scheme = sim.scheme
        probe = scheme.probe_hook()
        walk_start = scheme.walk_start_hook()
        if (scheme.walk_end_hook() is not None
                or scheme.fill_hook() is not None):
            return None
        if (walk_start is not None and probe is None
                and tlbs.l2_evict_hook is None):
            from repro.core.prefetcher import AsapPrefetcher

            prefetcher = getattr(walk_start, "__self__", None)
            if (type(prefetcher) is AsapPrefetcher
                    and getattr(walk_start, "__func__", None)
                    is AsapPrefetcher.on_tlb_miss
                    and prefetcher.hierarchy is sim.hierarchy
                    and prefetcher.levels
                    and len(prefetcher.levels) <= 4
                    and all(1 <= lv <= 4 for lv in prefetcher.levels)
                    and _asap_rows_exact(prefetcher)):
                mode = "asap"
        elif probe is not None and walk_start is None:
            from repro.schemes.victima import VictimaLike

            if (type(scheme) is VictimaLike
                    and getattr(probe, "__self__", None) is scheme
                    and getattr(probe, "__func__", None)
                    is VictimaLike._probe
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
    """

    def __init__(self) -> None:
        self.known = np.empty(0, dtype=np.int64)  # sorted biased vpns
        self.rows = np.empty(0, dtype=np.int64)   # row ids, aligned
        self.paths = np.empty((0, _PATH_COLS), dtype=np.int64)
        self.count = 0

    def clear(self) -> None:
        self.__init__()

    def rows_for(self, vpns: np.ndarray, process, vbias: int,
                 prefetcher=None) -> np.ndarray:
        """Row index for every element of ``vpns`` (biased), building
        rows for VPNs not seen before.  ``prefetcher`` is ``None`` or
        the :class:`~repro.core.prefetcher.AsapPrefetcher` whose replay
        columns the rows carry.

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
            ids[fresh] = self._add(uniq[fresh], process, vbias,
                                   prefetcher)
        return ids[inverse]

    def _add(self, new: np.ndarray, process, vbias: int,
             prefetcher=None) -> np.ndarray:
        """Build and commit rows for the sorted, unseen VPNs ``new``;
        returns their row ids.  An unmapped VPN raises before any row
        is committed."""
        pt = process.page_table
        raw = new & ((1 << ASID_SHIFT) - 1) if vbias else new
        leaf, pframe = self._leaves(raw, process)
        count = new.size
        start = self.count
        needed = start + count
        if needed > self.paths.shape[0]:
            # Doubling past `needed` leaves room for the next chunks'
            # rows without another copy; rows never written are never
            # paged in.
            grown = np.empty((max(2 * needed, 1024), _PATH_COLS),
                             dtype=np.int64)
            grown[:start] = self.paths[:start]
            self.paths = grown
        rows = self.paths[start:needed]
        rows[:] = _EMPTY_ROW
        rows[:, 0] = self._node_lines(raw, 4, pt)
        rows[:, 1] = self._node_lines(raw, 3, pt)
        rows[:, 2] = self._node_lines(raw, 2, pt)
        small = leaf == 1
        if small.any():
            rows[small, 3] = self._node_lines(raw[small], 1, pt)
        rows[:, 4] = (raw >> 9) | vbias
        rows[:, 5] = (raw >> 18) | vbias
        rows[:, 6] = (raw >> 27) | vbias
        rows[:, 7] = leaf
        rows[:, 8] = pframe
        rows[:, 9] = ~small
        if prefetcher is not None:
            self._asap_columns(rows, raw << 12, prefetcher)
        self.count = needed

        ids = np.arange(start, needed, dtype=np.int64)
        # `new` is sorted (np.unique output), so one merged insert keeps
        # `known`/`rows` aligned and sorted.
        at = np.searchsorted(self.known, new)
        self.known = np.insert(self.known, at, new)
        self.rows = np.insert(self.rows, at, ids)
        return ids

    @staticmethod
    def _leaves(raw: np.ndarray, process) -> tuple[np.ndarray, np.ndarray]:
        """``(leaf level, frame)`` per (raw, sorted) vpn: the 4KB map
        first, then the 2MB map for the misses.  The first unmapped vpn
        raises the PageFault the scalar walk would (at chunk pre-scan
        rather than at the faulting record — the only observable
        divergence, and only on faulting traces)."""
        pages, large = process.page_table.leaf_maps()
        pframe = np.fromiter(map(pages.get, raw.tolist(), repeat(-1)),
                             dtype=np.int64, count=raw.size)
        leaf = np.ones(raw.size, dtype=np.int64)
        miss = np.flatnonzero(pframe < 0)
        if miss.size:
            vpns = raw[miss]
            bases = np.fromiter(
                map(large.get, (vpns >> 9).tolist(), repeat(-1)),
                dtype=np.int64, count=miss.size)
            unmapped = np.flatnonzero(bases < 0)
            if unmapped.size:
                process.flat_walk(int(vpns[unmapped[0]]) << 12)
                raise AssertionError("flat_walk did not raise for an "
                                     "unmapped vpn")
            leaf[miss] = 2
            pframe[miss] = bases + (vpns & 511)
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
    def _asap_columns(rows: np.ndarray, vas: np.ndarray, prefetcher) -> None:
        """The ASAP replay columns for page-base addresses ``vas``
        (sorted).  Descriptors are sorted and disjoint, so the pages a
        descriptor covers are one slice of ``vas``: the range-register
        hit, replayed without touching the register counters (those
        live in the kernel).  Targets come from the descriptor's own
        base-plus-offset arithmetic over the slice; hole verdicts once
        per (descriptor, level, node), which the module's node-constancy
        rule makes exact."""
        levels = prefetcher.levels
        hole_checker = prefetcher.hole_checker
        for descriptor in prefetcher.registers._descriptors:
            lo, hi = np.searchsorted(vas, (descriptor.start, descriptor.end))
            if lo == hi:
                continue
            block = rows[lo:hi]
            pages = vas[lo:hi]
            block[:, 10] = 1
            for s, level in enumerate(levels):
                target = descriptor.entry_addr(pages, level)
                if target is None:
                    continue
                block[:, 11 + s] = target >> 6
                if hole_checker is None:
                    continue
                first, runs = _runs(node_tag(pages, level))
                verdicts = [hole_checker(va, level)
                            for va in pages[first].tolist()]
                block[:, 15 + s] = np.repeat(verdicts, runs)


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
        self.lines = _as_array(cache.lines)
        self.sizes = _as_array(cache.sizes)
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


def _ptr(arr: np.ndarray):
    return _BACKEND[0].cast("long long *", arr.ctypes.data)


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


def run_columnar(sim: "NativeSimulation", chunks, warmup: int,
                 collect_service: bool, stats, carry: tuple,
                 obs_probe=None, mode: str = "plain") -> tuple:
    """Drive every chunk of ``chunks`` through the C kernel.

    ``mode`` is :func:`engine_mode`'s verdict — ``"plain"``, ``"asap"``
    or ``"victima"`` — and selects which scheme state machine the
    kernel replays (and which scheme-side state is round-tripped
    through flat arrays).

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

    ``obs_probe`` (a :class:`repro.obs.probe.SimProbe`, or ``None``)
    snapshots counters at each chunk boundary.  The snapshot reads the
    live ``k``/``carry_arr`` arrays, not the stats owners — those are
    only written back in the finally block below, so they are stale for
    the whole loop.
    """
    ffi, lib = _BACKEND
    tlbs = sim.tlbs
    pwc = sim.pwc
    hierarchy = sim.hierarchy
    l1t = tlbs.l1
    l2t = tlbs.l2_plain
    (_, p2), (_, p3), (_, p4) = pwc.view
    c1, c2, c3 = hierarchy.l1, hierarchy.l2, hierarchy.l3
    walker = sim.walker
    vbias = asid_bias(sim.asid)

    geom = np.zeros(_GEOM_SLOTS, dtype=np.int64)
    for off, unit in ((_G_T, l1t), (_G_U, l2t), (_G_P2, p2),
                      (_G_P3, p3), (_G_P4, p4),
                      (_G_C1, c1), (_G_C2, c2), (_G_C3, c3)):
        geom[off] = unit.num_sets
        geom[off + 1] = unit.stride
        geom[off + 2] = unit.ways
    geom[_G_LAT1] = hierarchy.latency_of("L1")
    geom[_G_LAT2] = hierarchy.latency_of("L2")
    geom[_G_LAT3] = hierarchy.latency_of("L3")
    geom[_G_LATM] = hierarchy.latency_of("MEM")
    geom[_G_PWC_LAT] = pwc.params.latency
    geom[_G_BASE_CYCLES] = sim.machine.core.base_cycles
    geom[_G_VBIAS] = vbias
    geom[_G_PROBE_LARGE] = 1 if tlbs.probe_large[0] else 0
    geom[_G_MODE] = {"plain": 0, "asap": 1, "victima": 2}[mode]

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

    k = np.zeros(_COUNTER_SLOTS, dtype=np.int64)
    k[K_TH] = tlbs.stats.hits
    k[K_TM] = tlbs.stats.misses
    k[K_L1H] = tlbs.l1_hits
    k[K_L2H] = tlbs.l2_hits
    k[K_LS_H] = l1t.stats.hits
    k[K_LS_M] = l1t.stats.misses
    k[K_US_H] = l2t.stats.hits
    k[K_US_M] = l2t.stats.misses
    k[K_PWC_PROBES] = pwc.probes
    k[K_PWC_HITS] = pwc.hits
    k[K_P2_H] = p2.stats.hits
    k[K_P2_M] = p2.stats.misses
    k[K_P3_H] = p3.stats.hits
    k[K_P3_M] = p3.stats.misses
    k[K_P4_H] = p4.stats.hits
    k[K_P4_M] = p4.stats.misses
    k[K_WALKS] = walker.walks
    k[K_WALK_CYCLES] = walker.total_latency
    k[K_C1_H] = c1.stats.hits
    k[K_C1_M] = c1.stats.misses
    k[K_C1_E] = c1.stats.evictions
    k[K_C2_H] = c2.stats.hits
    k[K_C2_M] = c2.stats.misses
    k[K_C2_E] = c2.stats.evictions
    k[K_C3_H] = c3.stats.hits
    k[K_C3_M] = c3.stats.misses
    k[K_C3_E] = c3.stats.evictions
    k[K_SRV_L1] = hierarchy.served["L1"]
    k[K_SRV_L2] = hierarchy.served["L2"]
    k[K_SRV_L3] = hierarchy.served["L3"]
    k[K_SRV_MEM] = hierarchy.served["MEM"]
    k[K_H_PF_ISSUED] = hierarchy.prefetches_issued
    k[K_H_PF_DROP] = hierarchy.prefetches_dropped
    k[K_MSHR_ALLOC] = mshrs.allocations
    k[K_MSHR_REJ] = mshrs.rejections
    k[K_MSHR_MERGE] = mshrs.merges

    prefetcher = None
    if mode == "asap":
        prefetcher = sim.scheme.walk_start_hook().__self__
        geom[_G_REQ_MSHR] = 1 if prefetcher.require_mshr else 0
        geom[_G_PF_N] = len(prefetcher.levels)
        for s, level in enumerate(prefetcher.levels):
            geom[_G_PF_L + s] = level
        registers = prefetcher.registers
        k[K_RR_H] = registers.hits
        k[K_RR_M] = registers.misses
        k[K_PF_ISSUED] = prefetcher.stats.issued
        k[K_PF_USEFUL] = prefetcher.stats.useful
        k[K_PF_DROPNM] = prefetcher.stats.dropped_no_mshr
        k[K_PF_NODESC] = prefetcher.stats.no_descriptor
        k[K_PF_HOLE] = prefetcher.stats.wasted_on_hole

    # Victima: one pool per scheme the victims park for.  The running
    # scheme's pool takes its probes (and their counters); each victim
    # parks in its owner's pool, under that scheme's `parked` counter.
    # Like the cache images, each pool is reused if resident and stays
    # detached from its scheme until the write-back below has run.
    vscheme = None
    schemes = ()
    pools: list[_ParkImage] = []
    parks = route_arr = ffi.NULL
    if mode == "victima":
        vscheme = sim.scheme
        schemes, route = _park_routes(sim)
        geom[_G_PROBE_LAT] = vscheme._probe_latency
        geom[_G_PARK_SELF] = schemes.index(vscheme)
        k[K_V_PROBE_H] = vscheme.stats["probe_hits"]
        k[K_V_PROBE_M] = vscheme.stats["probe_misses"]
        k[K_V_LOST] = vscheme.stats["parked_lost_to_data"]
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

    carry_arr = np.zeros(_CARRY_SLOTS, dtype=np.int64)
    (carry_arr[_CAR_NOW], measuring, carry_arr[_CAR_ACC],
     carry_arr[_CAR_DATA_C], carry_arr[_CAR_WALK_C],
     carry_arr[_CAR_WALK_COUNT], carry_arr[_CAR_L1_BASE],
     carry_arr[_CAR_L2_BASE]) = carry
    carry_arr[_CAR_MEASURING] = 1 if measuring else 0
    service = np.zeros(_SERVICE_SLOTS, dtype=np.int64)

    state = sim._columnar_paths
    if state is None:
        state = sim._columnar_paths = _PathTable()

    arrays = {
        "t_tags": _as_array(l1t.tags), "t_frames": _as_array(l1t.frames),
        "t_sizes": _as_array(l1t.sizes),
        "u_tags": _as_array(l2t.tags), "u_frames": _as_array(l2t.frames),
        "u_sizes": _as_array(l2t.sizes),
        "p2_tags": _as_array(p2.tags), "p2_frames": _as_array(p2.frames),
        "p2_sizes": _as_array(p2.sizes),
        "p3_tags": _as_array(p3.tags), "p3_frames": _as_array(p3.frames),
        "p3_sizes": _as_array(p3.sizes),
        "p4_tags": _as_array(p4.tags), "p4_frames": _as_array(p4.frames),
        "p4_sizes": _as_array(p4.sizes),
    }
    # Reuse each cache's resident image, or build it from the lists.
    # It stays detached until the write-back below has run, so an
    # interrupted write-back cannot leave a stale image attached.
    caches = (c1, c2, c3)
    images = [cache.image or _CacheImage(cache) for cache in caches]
    for cache in caches:
        cache.image = None

    struct_ptrs = [_ptr(arrays[name]) for name in (
        "t_tags", "t_frames", "t_sizes", "u_tags", "u_frames", "u_sizes",
        "p2_tags", "p2_frames", "p2_sizes", "p3_tags", "p3_frames",
        "p3_sizes", "p4_tags", "p4_frames", "p4_sizes")]
    for image in images:
        struct_ptrs += [_ptr(image.lines), _ptr(image.sizes),
                        ffi.cast("unsigned char *", image.touched.ctypes.data)]

    try:
        chunk_base = 0
        for chunk in chunks:
            addresses = kernel_chunk(chunk)
            n = addresses.size
            if n == 0:
                continue
            vpns = (addresses >> 12) | vbias
            rowidx = np.ascontiguousarray(
                state.rows_for(vpns, sim.process, vbias, prefetcher))
            local_warmup = min(max(warmup - chunk_base, 0), n)
            lib.col_run_chunk(
                _ptr(addresses), n, local_warmup,
                1 if collect_service else 0,
                _ptr(rowidx), _ptr(state.paths),
                _ptr(carry_arr), _ptr(k), _ptr(geom), _ptr(service),
                *struct_ptrs,
                _ptr(mshr_arr), parks, route_arr)
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
        l1t.tags[:] = arrays["t_tags"].tolist()
        l1t.frames[:] = arrays["t_frames"].tolist()
        l1t.sizes[:] = arrays["t_sizes"].tolist()
        l2t.tags[:] = arrays["u_tags"].tolist()
        l2t.frames[:] = arrays["u_frames"].tolist()
        l2t.sizes[:] = arrays["u_sizes"].tolist()
        p2.tags[:] = arrays["p2_tags"].tolist()
        p2.frames[:] = arrays["p2_frames"].tolist()
        p2.sizes[:] = arrays["p2_sizes"].tolist()
        p3.tags[:] = arrays["p3_tags"].tolist()
        p3.frames[:] = arrays["p3_frames"].tolist()
        p3.sizes[:] = arrays["p3_sizes"].tolist()
        p4.tags[:] = arrays["p4_tags"].tolist()
        p4.frames[:] = arrays["p4_frames"].tolist()
        p4.sizes[:] = arrays["p4_sizes"].tolist()

        tlbs.stats.hits = int(k[K_TH])
        tlbs.stats.misses = int(k[K_TM])
        tlbs.l1_hits = int(k[K_L1H])
        tlbs.l2_hits = int(k[K_L2H])
        l1t.stats.hits = int(k[K_LS_H])
        l1t.stats.misses = int(k[K_LS_M])
        l2t.stats.hits = int(k[K_US_H])
        l2t.stats.misses = int(k[K_US_M])
        pwc.probes = int(k[K_PWC_PROBES])
        pwc.hits = int(k[K_PWC_HITS])
        p2.stats.hits = int(k[K_P2_H])
        p2.stats.misses = int(k[K_P2_M])
        p3.stats.hits = int(k[K_P3_H])
        p3.stats.misses = int(k[K_P3_M])
        p4.stats.hits = int(k[K_P4_H])
        p4.stats.misses = int(k[K_P4_M])
        walker.walks = int(k[K_WALKS])
        walker.total_latency = int(k[K_WALK_CYCLES])
        c1.stats.hits = int(k[K_C1_H])
        c1.stats.misses = int(k[K_C1_M])
        c1.stats.evictions = int(k[K_C1_E])
        c2.stats.hits = int(k[K_C2_H])
        c2.stats.misses = int(k[K_C2_M])
        c2.stats.evictions = int(k[K_C2_E])
        c3.stats.hits = int(k[K_C3_H])
        c3.stats.misses = int(k[K_C3_M])
        c3.stats.evictions = int(k[K_C3_E])
        hierarchy.served["L1"] = int(k[K_SRV_L1])
        hierarchy.served["L2"] = int(k[K_SRV_L2])
        hierarchy.served["L3"] = int(k[K_SRV_L3])
        hierarchy.served["MEM"] = int(k[K_SRV_MEM])
        hierarchy.prefetches_issued = int(k[K_H_PF_ISSUED])
        hierarchy.prefetches_dropped = int(k[K_H_PF_DROP])
        mshrs.allocations = int(k[K_MSHR_ALLOC])
        mshrs.rejections = int(k[K_MSHR_REJ])
        mshrs.merges = int(k[K_MSHR_MERGE])
        mshrs._inflight.clear()
        for i in range(int(mshr_arr[0])):
            mshrs._inflight[int(mshr_arr[1 + i])] = int(
                mshr_arr[1 + mshr_cap + i])

        if prefetcher is not None:
            registers = prefetcher.registers
            registers.hits = int(k[K_RR_H])
            registers.misses = int(k[K_RR_M])
            prefetcher.stats.issued = int(k[K_PF_ISSUED])
            prefetcher.stats.useful = int(k[K_PF_USEFUL])
            prefetcher.stats.dropped_no_mshr = int(k[K_PF_DROPNM])
            prefetcher.stats.no_descriptor = int(k[K_PF_NODESC])
            prefetcher.stats.wasted_on_hole = int(k[K_PF_HOLE])

        if vscheme is not None:
            vscheme.stats["probe_hits"] = int(k[K_V_PROBE_H])
            vscheme.stats["probe_misses"] = int(k[K_V_PROBE_M])
            vscheme.stats["parked_lost_to_data"] = int(k[K_V_LOST])
            for scheme, pool in zip(schemes, pools):
                pool.write_back(scheme)
                scheme.park_image = pool

        if collect_service:
            # Root-first (level 4 down) so dict insertion order matches
            # the scalar recorder's walk order.
            counts = stats.service._counts
            for row in range(3, -1, -1):
                level = row + 1
                for col, label in enumerate(_SERVICE_LABELS):
                    value = int(service[row * 6 + col])
                    if value:
                        bucket = counts.setdefault(level, {})
                        bucket[label] = bucket.get(label, 0) + value

    return (int(carry_arr[_CAR_NOW]), bool(carry_arr[_CAR_MEASURING]),
            int(carry_arr[_CAR_ACC]), int(carry_arr[_CAR_DATA_C]),
            int(carry_arr[_CAR_WALK_C]), int(carry_arr[_CAR_WALK_COUNT]),
            int(carry_arr[_CAR_L1_BASE]), int(carry_arr[_CAR_L2_BASE]))
