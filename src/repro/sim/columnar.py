"""Columnar chunk kernel: the record loop of both simulators, compiled.

Both simulators share one scalar record loop (``TraceSimulation.run``
in `repro.sim.simulator`), and it is this kernel's oracle.  The kernel
replays the same per-record state machine in C (compiled with the
system C compiler, loaded through cffi's ABI mode) one TraceSource
chunk at a time.  It is the default engine of every ``run()`` it can
replay:

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

The boundary.  Every fact the Python glue and the C kernel share is
declared once, in ``_DECLS``: the structs a call hands the kernel (the
machine — each TLB and PWC unit with its geometry, the three caches,
the latencies, the mode, each walk dimension's prefetcher levels, the
Victima and Revelator parameters, the counters and the MSHR file — plus
the carry and the co-runner stream), the Victima pool layout, the
service-histogram columns and the kernel's entry points.  ``ffi.cdef``
reads that text and the compiler compiles it, so ``run_columnar`` fills
named fields and no slot index is kept in step by hand.  The row
columns are the exception: :class:`_PathTable` must build rows without
cffi, so they are Python constants and the C text is generated from
them.

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
``plain`` (no scheme hooks), ``asap`` (the only hooks are
AsapPrefetchers — the walk-start one and, in a nested walk, the host
one: the prefetch issue/completion state machine is compiled into the
chunk loop, with the range-register outcome, per-level target lines
and hole flags precomputed per page into the path rows), ``victima``
(the probe is a Victima scheme's and the L2-TLB-eviction hook is a
Victima park, directly or through the multi-tenant victim router: each
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
scalar loop, so every cell still runs.  MSHR state is round-tripped in
every mode and the C ``mem_access`` has the merge branch, so in-flight
prefetches straddle chunk seams byte-identically.

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
The backend is optional: without a C compiler or cffi every run
silently stays scalar.  Set ``REPRO_REQUIRE_CCORE=1`` to turn backend
unavailability into an error (CI does this wherever a job checks
compiled runs).
"""

from __future__ import annotations

import functools
import hashlib
import os
import subprocess
import sys
import tempfile
import threading
from collections import deque
from itertools import repeat
from types import SimpleNamespace

import numpy as np

from repro.kernelsim.pt_layout import VmaHoleChecker
from repro.mem.cache import EMPTY
from repro.pagetable.constants import node_tag
from repro.pagetable.nested import NestedPageWalker
from repro.schemes.revelator import _WRONG_SALT
from repro.schemes.victima import _PARK_TAG_BASE
from repro.sim.order import run_starts
from repro.tlb.tlb import ASID_SHIFT, asid_bias
from repro.traces.source import kernel_chunk
from repro.workloads.corunner import Corunner

#: Valid values of the simulators' ``kernel=`` selector.
KERNELS = ("scalar", "columnar")

# --- row columns (the C text's W_*, A_* and R_* enums) ----------------

#: A path row's ASAP replay block: the descriptor-hit flag, a target
#: line per prefetch slot (-1: none) and a hole flag per slot.  Exact
#: under the node-constancy rule that ``engine_mode`` enforces (module
#: docstring).
_A = SimpleNamespace(HIT=0, TARGET=1, HOLE=5, COLS=9)

#: Path-row columns (a native row, or a host chain of a nested row): the
#: node line of levels 4 down to 1 (LINES..+3; a 2MB page has no
#: level-1 line), the PWC tags PL2..PL4 (TG..+2), the leaf level (0:
#: unmapped, possible only in a host chain), the frame, the large-page
#: flag and the ASAP block.
_W = SimpleNamespace(LINES=0, TG=4, LEAF=7, FRAME=8, LARGE=9, ASAP=10,
                     COLS=10 + _A.COLS)

#: Nested-row columns (a guest page of a VirtualizedSimulation): the
#: guest PWC tags (TG..+2), the guest leaf level, the large flag, the
#: lazy flag (some page of the path is not mapped by the host page table
#: yet), the host-chain row of each nested step (CHAIN..+4: guest levels
#: 4 down to the leaf, then the data page), the guest-physical line of
#: each guest step's entry (GLINE..+3) and the guest ASAP block.
_R = SimpleNamespace(TG=0, LEAF=3, LARGE=4, LAZY=5, CHAIN=6, GLINE=11,
                     ASAP=15, COLS=15 + _A.COLS)


def _row_empty(columns: SimpleNamespace) -> np.ndarray:
    """A row before its columns are written: no level-1 line (large
    pages), no descriptor hit, no prefetch targets (-1), no holes."""
    row = np.zeros(columns.COLS, dtype=np.int64)
    row[columns.ASAP + _A.TARGET:columns.ASAP + _A.HOLE] = -1
    return row


def _c_enum(prefix: str, columns: SimpleNamespace) -> str:
    return "enum { %s };\n" % ", ".join(
        f"{prefix}_{name} = {value}" for name, value in vars(columns).items())


#: The declarations the glue and the kernel share: ``ffi.cdef`` reads
#: exactly this text, and the compiled source embeds it.
_DECLS = r"""
typedef long long i64;

/* One LRU array: a TLB level or one level of a split PWC.  Set s owns
   slots [s * stride, s * stride + ways) of tags and frames: its
   sizes[s] live entries, most recent first, then EMPTY slots.  A tag
   maps to set tag & (nsets - 1). */
typedef struct {
    i64 *tags, *frames, *sizes;
    i64 nsets, stride, ways;
} unit_t;

/* One data cache's resident image (_CacheImage): lines and sizes laid
   out like a unit's tags, plus one flag per set that every change to
   the set raises. */
typedef struct {
    i64 *lines, *sizes;
    unsigned char *touched;
    i64 nsets, stride, ways;
} cache_t;

/* One walk dimension: native (or guest), or host. */
typedef struct {
    unit_t pwc[3];              /* the split PWC's PL2, PL3, PL4 */
    i64 pwc_latency;
    i64 pf_count, pf_levels[4]; /* its AsapPrefetcher's levels; 0: none */
} dim_t;

/* The MSHR file: `count` in-flight lines in insertion order, each with
   its completion time. */
typedef struct {
    i64 count, capacity;
    i64 *lines, *completions;
} mshr_t;

/* One Victima scheme's parked map, an insertion-ordered pool mirroring
   its `_parked` dict: `capacity` (max_parked) slots chained from head
   to tail, a free list, an open-addressing hash of pool indices (-1
   free, -2 tombstone, `tombs` of them), and the vpns of removed entries
   the dict still holds (`logged` of them in `log`).  Each slot's mark
   says what the call did to it. */
typedef struct { i64 vpn, frame, prev, next, mark; } park_slot_t;
typedef struct {
    park_slot_t *pool;
    i64 *hash, *log;
    i64 count, head, tail, free_head, tombs, capacity, hash_capacity;
    i64 parked;                 /* the scheme's `parked` counter */
    i64 dirty, logged;
} park_t;

/* Counter blocks.  run_columnar binds each block to one owner and copies
   every field to and from the owner's attribute or stats key of the
   same name. */
typedef struct { i64 hits, misses; } hm_t;
typedef struct { i64 hits, misses, evictions; } cstat_t;
typedef struct {
    struct { i64 probes, hits; } pwc;   /* the SplitPwc */
    hm_t levels[3];                     /* its PL2, PL3, PL4 units */
    hm_t registers;                     /* the prefetcher's registers */
    struct {
        i64 issued, useful, dropped_no_mshr, no_descriptor, wasted_on_hole;
    } prefetcher;                       /* AsapPrefetcher.stats */
} dim_stats_t;
typedef struct {
    hm_t tlb;                           /* TlbHierarchy.stats */
    struct { i64 l1_hits, l2_hits; } tlbs;
    hm_t l1, l2;                        /* each TLB level's stats */
    struct { i64 walks, total_latency; } walker;
    struct { i64 total_accesses; } nested_walker;  /* nested runs */
    cstat_t c1, c2, c3;
    struct { i64 L1, L2, L3, MEM; } served;
    struct { i64 prefetches_issued, prefetches_dropped; } hierarchy;
    struct { i64 allocations, rejections, merges; } mshrs;
    dim_stats_t dim[2];
    struct { i64 probe_hits, probe_misses, parked_lost_to_data; } victima;
    struct { i64 speculations, correct, mispredicts; } revelator;
} counters_t;

enum mode { MODE_PLAIN, MODE_ASAP, MODE_VICTIMA, MODE_REVELATOR };

/* The machine one run() call replays, with its counters and MSHR file. */
typedef struct {
    unit_t l1, l2;              /* L1 D-TLB, L2 S-TLB */
    dim_t dim[2];               /* native or guest walk; host walk */
    cache_t c1, c2, c3;
    i64 lat_l1, lat_l2, lat_l3, lat_mem;
    i64 base_cycles, vbias, probe_large, nested, mode;
    /* victima: the probe's latency, the running scheme's pool, one pool
       per scheme victims park for, and each ASID's pool (NULL: pool 0
       takes every victim) */
    i64 probe_latency, park_self;
    park_t **parks;
    const i64 *route;
    /* revelator: placement coverage in 1/10,000, speculation latency,
       misprediction penalty */
    i64 coverage, spec_latency, penalty;
    counters_t k;
    mshr_t mshr;
} machine_t;

/* The scalar loop's carry tuple, field for field. */
typedef struct {
    i64 now, measuring, acc, data_c, walk_c, walk_count, l1_base, l2_base;
} carry_t;

/* The co-runner's drawn stream: line groups back to back, each group's
   line count, the next group's first line and index, the groups drawn,
   the groups per record and the co-runner's step count. */
typedef struct {
    const i64 *lines, *takes;
    i64 cursor, take, ntakes, intensity, accesses;
} corunner_t;

/* The service histogram: SV_ROWS rows of SV_COLS columns, what served
   each walk step.  Row level - 1 counts native or guest steps, row
   SV_HOST + level - 1 host steps. */
enum service { SV_PWC, SV_L1, SV_MSHR, SV_L2, SV_L3, SV_MEM, SV_COLS };
enum { SV_HOST = 4, SV_ROWS = 8 };

i64 col_run_chunk(machine_t *m, carry_t *carry, corunner_t *co,
                  i64 *service, const i64 *va_arr, i64 n, i64 warmup,
                  const i64 *rowidx, const i64 *paths, const i64 *chains,
                  i64 lazy);
void col_park_load(park_t *p, const i64 *vpns, const i64 *frames, i64 n);
i64 col_park_changes(park_t *p, i64 *vpns, i64 *frames);
"""

_KERNEL = r"""
/* Guard-slot scan for `tag` in the set segment [base, guard).  Writes
   the tag into the guard slot, scans, restores the EMPTY sentinel (the
   scalar probes do the same, and write-back byte-identity depends on
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

/* Where `tag` sits in unit u, or -1; *base is its set's first slot. */
static inline i64 unit_find(const unit_t *u, i64 tag, i64 *base)
{
    const i64 set = tag & (u->nsets - 1);
    *base = set * u->stride;
    if (u->tags[*base] == tag)
        return *base;
    return lru_scan(u->tags, *base, *base + u->sizes[set], tag);
}

/* Move the entry at `pos` to MRU (slot `base`). */
static void unit_promote(const unit_t *u, i64 base, i64 pos)
{
    const i64 tag = u->tags[pos], frame = u->frames[pos];
    memmove(u->tags + base + 1, u->tags + base, (pos - base) * sizeof(i64));
    memmove(u->frames + base + 1, u->frames + base,
            (pos - base) * sizeof(i64));
    u->tags[base] = tag;
    u->frames[base] = frame;
}

/* Install a known-absent entry at MRU, shifting the rest down (the LRU
   victim falls off the set's end when the set is full — discarded,
   exactly like the scalar loop's inlined fills). */
static void unit_install(const unit_t *u, i64 tag, i64 frame)
{
    const i64 set = tag & (u->nsets - 1);
    const i64 base = set * u->stride;
    const i64 size = u->sizes[set];
    const i64 count = size >= u->ways ? u->ways - 1 : size;
    memmove(u->tags + base + 1, u->tags + base, count * sizeof(i64));
    memmove(u->frames + base + 1, u->frames + base, count * sizeof(i64));
    if (size < u->ways)
        u->sizes[set] = size + 1;
    u->tags[base] = tag;
    u->frames[base] = frame;
}

/* Tlb.probe of vpn's small tag, then (probe_large) its large tag: the
   frame, or EMPTY.  Each tag probed counts a hit or a miss in hm, and a
   hit moves to MRU; with hm NULL the probe only looks. */
static inline i64 tlb_probe(const unit_t *u, i64 vpn, i64 probe_large,
                            hm_t *hm)
{
    const i64 tags[2] = {vpn << 1, ((vpn >> 9) << 1) | 1};
    for (i64 x = 0; x <= probe_large; x++) {
        i64 base;
        const i64 pos = unit_find(u, tags[x], &base);
        if (pos >= 0) {
            const i64 frame = u->frames[pos];
            if (hm) {
                hm->hits++;
                if (pos != base)
                    unit_promote(u, base, pos);
            }
            return frame;
        }
        if (hm)
            hm->misses++;
    }
    return EMPTY;
}

/* PWC probe: a hit moves to MRU.  1 = hit. */
static int pwc_probe(const unit_t *u, i64 tg)
{
    i64 base;
    const i64 pos = unit_find(u, tg, &base);
    if (pos < 0)
        return 0;
    if (pos != base)
        unit_promote(u, base, pos);
    return 1;
}

/* PWC insert (the cached value is always 1): a present entry moves to
   MRU and is refreshed, an absent one is installed with LRU eviction. */
static void pwc_insert(const unit_t *u, i64 tg)
{
    i64 base;
    const i64 pos = unit_find(u, tg, &base);
    if (pos < 0) {
        unit_install(u, tg, 1);
        return;
    }
    unit_promote(u, base, pos);
    u->frames[base] = 1;
}

/* Where `line` sits in cache c, or -1; *set and *base locate its set. */
static inline i64 cache_find(const cache_t *c, i64 line, i64 *set, i64 *base)
{
    *set = line & (c->nsets - 1);
    *base = *set * c->stride;
    if (c->lines[*base] == line)
        return *base;
    return lru_scan(c->lines, *base, *base + c->sizes[*set], line);
}

static void cache_promote(const cache_t *c, i64 set, i64 base, i64 pos)
{
    const i64 line = c->lines[pos];
    memmove(c->lines + base + 1, c->lines + base, (pos - base) * sizeof(i64));
    c->lines[base] = line;
    c->touched[set] = 1;
}

/* One cache level's lookup: a hit moves to MRU.  1 = hit. */
static inline int cache_probe(const cache_t *c, i64 line)
{
    i64 set, base;
    const i64 pos = cache_find(c, line, &set, &base);
    if (pos < 0)
        return 0;
    if (pos != base)
        cache_promote(c, set, base, pos);
    return 1;
}

/* Install a known-absent line at MRU, counting an LRU eviction. */
static void cache_install(const cache_t *c, i64 line, i64 *evictions)
{
    i64 *lines = c->lines;
    const i64 set = line & (c->nsets - 1);
    const i64 base = set * c->stride;
    const i64 size = c->sizes[set];
    i64 count;
    if (size >= c->ways) {
        count = c->ways - 1;
        (*evictions)++;
    } else {
        count = size;
        c->sizes[set] = size + 1;
    }
    memmove(lines + base + 1, lines + base, count * sizeof(i64));
    lines[base] = line;
    c->touched[set] = 1;
}

/* Cache.install for a line that may already be present (Victima's park
   path uses the generic Cache.install): promote if found, install
   otherwise. */
static void cache_install_scan(const cache_t *c, i64 line, i64 *evictions)
{
    i64 set, base;
    const i64 pos = cache_find(c, line, &set, &base);
    if (pos < 0)
        cache_install(c, line, evictions);
    else
        cache_promote(c, set, base, pos);
}

/* Cache.invalidate: shift the tail down over the line.  No stats,
   exactly like the scalar method. */
static void cache_invalidate(const cache_t *c, i64 line)
{
    i64 set, base;
    const i64 pos = cache_find(c, line, &set, &base);
    if (pos < 0)
        return;
    const i64 last = base + c->sizes[set] - 1;
    memmove(c->lines + pos, c->lines + pos + 1, (last - pos) * sizeof(i64));
    c->lines[last] = EMPTY;
    c->sizes[set]--;
    c->touched[set] = 1;
}

/* --- MSHR file (repro.mem.mshr's ordered dict) ---------------------- */

static void mshr_retire(mshr_t *f, i64 now)
{
    i64 out = 0;
    for (i64 i = 0; i < f->count; i++) {
        if (f->completions[i] > now) {
            f->lines[out] = f->lines[i];
            f->completions[out] = f->completions[i];
            out++;
        }
    }
    f->count = out;
}

static i64 mshr_find(const mshr_t *f, i64 line)
{
    for (i64 i = 0; i < f->count; i++)
        if (f->lines[i] == line)
            return i;
    return -1;
}

/* MSHRFile.try_allocate: 1 on merge or allocation, 0 on rejection. */
static int mshr_try_allocate(machine_t *m, i64 line, i64 now, i64 completion)
{
    mshr_t *f = &m->mshr;
    mshr_retire(f, now);
    if (mshr_find(f, line) >= 0) {
        m->k.mshrs.merges++;
        return 1;
    }
    if (f->count >= f->capacity) {
        m->k.mshrs.rejections++;
        return 0;
    }
    f->lines[f->count] = line;
    f->completions[f->count] = completion;
    f->count++;
    m->k.mshrs.allocations++;
    return 1;
}

/* MSHRFile.inflight_completion: completion time or -1. */
static i64 mshr_inflight(machine_t *m, i64 line, i64 now)
{
    mshr_retire(&m->mshr, now);
    const i64 idx = mshr_find(&m->mshr, line);
    if (idx < 0)
        return -1;
    m->k.mshrs.merges++;
    return m->mshr.completions[idx];
}

/* CacheHierarchy.access, including the MSHR merge branch (a prefetch
   issued by an earlier record can still be in flight).  Returns the
   latency; *level_out is the SV_* column of what served it. */
static i64 mem_access(machine_t *m, i64 line, i64 *level_out, i64 now)
{
    counters_t *k = &m->k;
    if (cache_probe(&m->c1, line)) {
        k->c1.hits++;
        k->served.L1++;
        *level_out = SV_L1;
        return m->lat_l1;
    }
    k->c1.misses++;
    if (m->mshr.count > 0) {
        const i64 merged = mshr_inflight(m, line, now);
        if (merged >= 0 && merged > now) {
            /* the in-flight fill lands in the L1; no served[] credit */
            cache_install(&m->c1, line, &k->c1.evictions);
            *level_out = SV_MSHR;
            return merged - now;
        }
    }
    i64 latency;
    if (cache_probe(&m->c2, line)) {
        k->c2.hits++;
        k->served.L2++;
        latency = m->lat_l2;
        *level_out = SV_L2;
    } else {
        k->c2.misses++;
        if (cache_probe(&m->c3, line)) {
            k->c3.hits++;
            k->served.L3++;
            latency = m->lat_l3;
            *level_out = SV_L3;
        } else {
            k->c3.misses++;
            k->served.MEM++;
            latency = m->lat_mem;
            *level_out = SV_MEM;
            cache_install(&m->c3, line, &k->c3.evictions);
        }
        /* L3 and MEM serves both refill the L2. */
        cache_install(&m->c2, line, &k->c2.evictions);
    }
    cache_install(&m->c1, line, &k->c1.evictions);
    return latency;
}

/* --- Victima parked-entry pools (park_t): one per Victima scheme this
   run parks victims for.  The write-back replays only what each slot's
   mark and the removal log say the call changed. ------------------- */

#define SLOT_FREE (-1LL)
#define SLOT_TOMB (-2LL)

/* slot marks: unchanged since the last write-back, re-framed in place,
   inserted since the last write-back */
enum { MARK_KEPT, MARK_REFRAMED, MARK_NEW };

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
    const i64 mask = p->hash_capacity - 1;
    for (i64 s = mix64(vpn) & mask;; s = (s + 1) & mask) {
        const i64 v = p->hash[s];
        if (v == SLOT_FREE)
            return -1;
        if (v >= 0 && p->pool[v].vpn == vpn)
            return s;
    }
}

/* Insert a known-absent pool index (first free or tombstone slot). */
static void park_hash_insert(park_t *p, i64 idx)
{
    const i64 mask = p->hash_capacity - 1;
    i64 s = mix64(p->pool[idx].vpn) & mask;
    while (p->hash[s] >= 0)
        s = (s + 1) & mask;
    if (p->hash[s] == SLOT_TOMB)
        p->tombs--;
    p->hash[s] = idx;
}

static void park_rehash(park_t *p)
{
    for (i64 i = 0; i < p->hash_capacity; i++)
        p->hash[i] = SLOT_FREE;
    p->tombs = 0;
    for (i64 idx = p->head; idx >= 0; idx = p->pool[idx].next)
        park_hash_insert(p, idx);
}

/* Remove pool index `idx` (at hash slot `slot`) from map and FIFO; an
   entry the dict already holds goes on the removal log. */
static void park_unlink(park_t *p, i64 slot, i64 idx)
{
    park_slot_t *entry = &p->pool[idx];
    const i64 prev = entry->prev, next = entry->next;
    p->hash[slot] = SLOT_TOMB;
    p->tombs++;
    if (entry->mark != MARK_NEW)
        p->log[p->logged++] = entry->vpn;
    if (prev >= 0) p->pool[prev].next = next;
    else p->head = next;
    if (next >= 0) p->pool[next].prev = prev;
    else p->tail = prev;
    entry->next = p->free_head;   /* push onto the free list */
    p->free_head = idx;
    p->count--;
    p->dirty = 1;
}

/* VictimaLike._park: bound-evict the oldest, insert (or update in
   place, keeping FIFO position), install the parked line in the L2
   data cache, count it. */
static void park_entry(machine_t *m, park_t *p, i64 vpn, i64 frame)
{
    const i64 slot = park_find(p, vpn);
    if (slot >= 0) {
        park_slot_t *entry = &p->pool[p->hash[slot]];
        entry->frame = frame;
        if (entry->mark == MARK_KEPT)
            entry->mark = MARK_REFRAMED;
    } else {
        if (p->count >= p->capacity) {
            const i64 old = p->head;
            park_unlink(p, park_find(p, p->pool[old].vpn), old);
        }
        const i64 idx = p->free_head;
        park_slot_t *entry = &p->pool[idx];
        p->free_head = entry->next;
        entry->vpn = vpn;
        entry->frame = frame;
        entry->prev = p->tail;
        entry->next = -1;
        entry->mark = MARK_NEW;
        if (p->tail >= 0) p->pool[p->tail].next = idx;
        else p->head = idx;
        p->tail = idx;
        p->count++;
        park_hash_insert(p, idx);
        if ((p->count + p->tombs) * 2 >= p->hash_capacity)
            park_rehash(p);
    }
    p->dirty = 1;
    cache_install_scan(&m->c2, PARK_BASE | vpn, &m->k.c2.evictions);
    p->parked++;
}

/* Seed a pool with the scheme's `n` entries in dict (FIFO) order: link
   the chain and the free list, then build the hash. */
void col_park_load(park_t *p, const i64 *vpns, const i64 *frames, i64 n)
{
    for (i64 i = 0; i < n; i++) {
        park_slot_t *entry = &p->pool[i];
        entry->vpn = vpns[i];
        entry->frame = frames[i];
        entry->prev = i - 1;
        entry->next = i + 1 < n ? i + 1 : -1;
        entry->mark = MARK_KEPT;
    }
    for (i64 i = n; i < p->capacity; i++)
        p->pool[i].next = i + 1 < p->capacity ? i + 1 : -1;
    p->count = n;
    p->head = n ? 0 : -1;
    p->tail = n - 1;
    p->free_head = n < p->capacity ? n : -1;
    p->dirty = 0;
    p->logged = 0;
    park_rehash(p);
}

/* The write-back's other half (the removal log is the first): the
   entries inserted or re-framed since the last write-back, in FIFO
   order.  Replayed after the removals, a dict update leaves re-framed
   entries in place and appends the new ones, which the chain holds
   after every older entry.  Returns their count; clears the marks, the
   log and the dirty flag. */
i64 col_park_changes(park_t *p, i64 *vpns, i64 *frames)
{
    i64 n = 0;
    for (i64 idx = p->head; idx >= 0; idx = p->pool[idx].next) {
        park_slot_t *entry = &p->pool[idx];
        if (entry->mark != MARK_KEPT) {
            vpns[n] = entry->vpn;
            frames[n] = entry->frame;
            entry->mark = MARK_KEPT;
            n++;
        }
    }
    p->dirty = 0;
    p->logged = 0;
    return n;
}

/* TlbHierarchy.fill_fast for a small page: install both levels.  With
   `park` (victima mode) a small-tag L2 victim parks in its owner's pool:
   route[vpn >> ASID_SHIFT] under the multi-tenant victim router, pool 0
   without a route table (a directly installed park hook takes every
   victim). */
static void tlb_fill_small(machine_t *m, i64 vpn, i64 frame, int park)
{
    const unit_t *u = &m->l2;
    const i64 stag = vpn << 1;
    const i64 set = stag & (u->nsets - 1);
    const i64 last = set * u->stride + u->ways - 1;
    const i64 victim = u->sizes[set] >= u->ways ? u->tags[last] : EMPTY;
    const i64 vframe = u->frames[last];
    unit_install(&m->l1, stag, frame);
    unit_install(u, stag, frame);
    if (park && victim != EMPTY && !(victim & 1)) {
        const i64 vvpn = victim >> 1;
        const i64 owner = m->route ? m->route[vvpn >> ASID_SHIFT] : 0;
        park_entry(m, m->parks[owner], vvpn, vframe);
    }
}

/* VictimaLike._probe of the running scheme's pool after an L2 TLB miss:
   the parked frame while its line is still in the L2 data cache (the
   entry then leaves the pool and the cache), else EMPTY (an entry whose
   line data-cache pressure evicted is dropped). */
static i64 victima_probe(machine_t *m, i64 vpn)
{
    counters_t *k = &m->k;
    park_t *own = m->parks[m->park_self];
    const i64 slot = park_find(own, vpn);
    if (slot < 0) {
        k->victima.probe_misses++;
        return EMPTY;
    }
    const i64 idx = own->hash[slot];
    const i64 frame = own->pool[idx].frame;
    const i64 line = PARK_BASE | vpn;
    park_unlink(own, slot, idx);
    if (cache_probe(&m->c2, line)) {
        k->c2.hits++;
        cache_invalidate(&m->c2, line);
        k->victima.probe_hits++;
        return frame;
    }
    k->c2.misses++;
    k->victima.parked_lost_to_data++;
    k->victima.probe_misses++;
    return EMPTY;
}

/* --- walks ----------------------------------------------------------- */

/* SplitPwc.probe over a walk's three tags (tg[0] PL2 .. tg[2] PL4):
   the deepest cached level (2..4), or 0. */
static i64 pwc_walk_probe(const dim_t *d, dim_stats_t *ds, const i64 *tg)
{
    ds->pwc.probes++;
    for (int l = 0; l < 3; l++) {
        if (pwc_probe(&d->pwc[l], tg[l])) {
            ds->pwc.hits++;
            ds->levels[l].hits++;
            return l + 2;
        }
        ds->levels[l].misses++;
    }
    return 0;
}

/* SplitPwc.insert after a walk whose leaf level is `leaf`: the
   intermediate levels leaf+1..4. */
static void pwc_walk_insert(const dim_t *d, const i64 *tg, i64 leaf)
{
    for (i64 l = leaf - 1; l < 3; l++)
        pwc_insert(&d->pwc[l], tg[l]);
}

/* AsapPrefetcher.on_tlb_miss at `now`, replayed from a row's ASAP block
   A (the A_* columns).  Each useful prefetch's completion lands in
   comp[level]. */
static void asap_issue(machine_t *m, const dim_t *d, dim_stats_t *ds,
                       const i64 *A, i64 now, i64 *comp)
{
    counters_t *k = &m->k;
    if (!A[A_HIT]) {
        ds->registers.misses++;
        ds->prefetcher.no_descriptor++;
        return;
    }
    ds->registers.hits++;
    for (i64 s = 0; s < d->pf_count; s++) {
        const i64 pline = A[A_TARGET + s];
        if (pline < 0)
            continue;
        i64 completion;
        if (cache_probe(&m->c1, pline)) {
            k->c1.hits++;
            k->served.L1++;
            completion = now + m->lat_l1;
        } else {
            k->c1.misses++;
            i64 lvl, lat;
            if (cache_probe(&m->c2, pline)) {
                k->c2.hits++;
                lvl = SV_L2;
                lat = m->lat_l2;
            } else {
                k->c2.misses++;
                if (cache_probe(&m->c3, pline)) {
                    k->c3.hits++;
                    lvl = SV_L3;
                    lat = m->lat_l3;
                } else {
                    k->c3.misses++;
                    lvl = SV_MEM;
                    lat = m->lat_mem;
                }
            }
            completion = now + lat;
            if (!mshr_try_allocate(m, pline, now, completion)) {
                k->hierarchy.prefetches_dropped++;
                ds->prefetcher.dropped_no_mshr++;
                continue;
            }
            cache_install(&m->c1, pline, &k->c1.evictions);
            if (lvl != SV_L2)
                cache_install(&m->c2, pline, &k->c2.evictions);
            if (lvl == SV_MEM)
                cache_install(&m->c3, pline, &k->c3.evictions);
            if (lvl == SV_L2) k->served.L2++;
            else if (lvl == SV_L3) k->served.L3++;
            else k->served.MEM++;
            k->hierarchy.prefetches_issued++;
        }
        ds->prefetcher.issued++;
        if (A[A_HOLE + s]) {
            ds->prefetcher.wasted_on_hole++;
            continue;
        }
        ds->prefetcher.useful++;
        comp[d->pf_levels[s]] = completion;
    }
}

/* The start of a walk in dimension `dim`: its prefetcher issues at
   pf_at from the ASAP block A into comp, and the PWC probe picks the
   first step to access (step j is level 4 - j); the steps it serves
   count in svc.  Returns that step. */
static i64 walk_begin(machine_t *m, int dim, const i64 *A, const i64 *tg,
                      i64 pf_at, i64 *comp, i64 *svc)
{
    const dim_t *d = &m->dim[dim];
    dim_stats_t *ds = &m->k.dim[dim];
    if (d->pf_count)
        asap_issue(m, d, ds, A, pf_at, comp);
    const i64 skip = pwc_walk_probe(d, ds, tg);
    const i64 start = skip ? 5 - skip : 0;
    if (svc)
        for (i64 j = 0; j < start; j++)
            svc[(3 - j) * SV_COLS + SV_PWC]++;
    return start;
}

/* Walk step j's access to `line` at t: it finishes no earlier than an
   in-flight prefetch of its level (comp, -1 for none).  svc, when not
   NULL, is the dimension's service histogram.  The access counts in
   nested_walker, which only nested runs write back.  Returns the
   finish time. */
static i64 walk_step(machine_t *m, i64 line, i64 t, const i64 *comp, i64 j,
                     i64 *svc)
{
    i64 level;
    t += mem_access(m, line, &level, t);
    if (comp[4 - j] > t)
        t = comp[4 - j];   /* overlap with prefetch */
    if (svc)
        svc[(3 - j) * SV_COLS + level]++;
    m->k.nested_walker.total_accesses++;
    return t;
}

/* One radix walk over path row W in dimension `dim` (0 native, 1 host)
   from t: walk_begin with the prefetches at pf_at (the native walk-start
   hook fires at walk start, the host prefetcher once the host PWC has
   answered), the PWC latency, then the node accesses down to the leaf.
   Returns the finish time. */
static i64 radix_walk(machine_t *m, int dim, const i64 *W, i64 t, i64 pf_at,
                      i64 *svc)
{
    i64 comp[5] = {-1, -1, -1, -1, -1};
    const i64 start = walk_begin(m, dim, W + W_ASAP, W + W_TG, pf_at, comp,
                                 svc);
    t += m->dim[dim].pwc_latency;
    for (i64 j = start; j < 5 - W[W_LEAF]; j++)
        t = walk_step(m, W[W_LINES + j], t, comp, j, svc);
    pwc_walk_insert(&m->dim[dim], W + W_TG, W[W_LEAF]);
    return t;
}

/* NestedPageWalker.walk over nested row R at `now` (Figure 7): guest
   prefetches at walk start, the guest PWC probe and its latency, then
   per nested step the host walk of its guest-physical page and (guest
   steps) the guest entry's access at its host line.  The last step
   translates the data page and has no entry access.  svc, when not
   NULL, is the service histogram.  Returns the latency. */
static i64 nested_walk(machine_t *m, const i64 *R, const i64 *chains,
                       i64 now, i64 *svc)
{
    i64 comp[5] = {-1, -1, -1, -1, -1};
    const i64 start = walk_begin(m, 0, R + R_ASAP, R + R_TG, now, comp, svc);
    const i64 data = 5 - R[R_LEAF];
    const i64 host_latency = m->dim[1].pwc_latency;
    i64 *hsvc = svc ? svc + SV_HOST * SV_COLS : 0;
    i64 t = now + m->dim[0].pwc_latency;
    for (i64 j = start;; j++) {
        const i64 *C = chains + R[R_CHAIN + j] * W_COLS;
        t = radix_walk(m, 1, C, t, t + host_latency, hsvc);
        if (j == data)
            break;
        t = walk_step(m, (C[W_FRAME] << 6) | (R[R_GLINE + j] & 63), t, comp,
                      j, svc);
    }
    pwc_walk_insert(&m->dim[0], R + R_TG, R[R_LEAF]);
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
   fetches the wrong-path line at now + spec_latency — issued after the
   verification walk's own accesses, as the scalar hook issues it — and
   pays the squash penalty after the walk.  Returns the translation
   latency. */
static i64 revelator_walk_end(machine_t *m, i64 va, i64 vpn, i64 now,
                              i64 translation)
{
    counters_t *k = &m->k;
    k->revelator.speculations++;
    if (crc32_u64(vpn) % 10000 < m->coverage) {
        k->revelator.correct++;
        return m->spec_latency < translation ? m->spec_latency : translation;
    }
    k->revelator.mispredicts++;
    const i64 wrong_frame = crc32_u64((unsigned long long)vpn ^ WRONG_SALT);
    i64 level;
    mem_access(m, (wrong_frame << 6) | ((va & 0xFFF) >> 6), &level,
               now + m->spec_latency);
    return translation + m->penalty;
}

/* Whether the record for `vpn` would reach the page walk: no TLB level
   holds a tag for it and (victima) the running tenant's pool has no
   L2-resident entry for it.  Pure (the scans restore their guard slots
   and move nothing), so the record replays unchanged on resume. */
static int walk_pending(machine_t *m, i64 vpn)
{
    if (tlb_probe(&m->l1, vpn, m->probe_large, 0) != EMPTY
            || tlb_probe(&m->l2, vpn, m->probe_large, 0) != EMPTY)
        return 0;
    if (m->mode == MODE_VICTIMA
            && park_find(m->parks[m->park_self], vpn) >= 0) {
        i64 set, base;
        if (cache_find(&m->c2, PARK_BASE | vpn, &set, &base) >= 0)
            return 0;
    }
    return 1;
}

/* Replay records [0, n) and return how many ran: n, or fewer when
   the next record's co-runner groups are not all drawn (the caller
   draws them and resumes at that record), or when `lazy` is set and
   the next record would walk a nested row whose path crosses a
   guest-physical page the host page table does not map yet (the caller
   maps it, fixes the rows and resumes at that record).  Native rows are
   W_COLS wide; nested rows (m->nested) R_COLS, indexing the host-chain
   table `chains`.  `co` is NULL without a co-runner; with one, every
   record ends with its `intensity` groups.  `service` is the service
   histogram, NULL when the run does not collect it. */
i64 col_run_chunk(machine_t *m, carry_t *carry, corunner_t *co,
                  i64 *service, const i64 *va_arr, i64 n, i64 warmup,
                  const i64 *rowidx, const i64 *paths, const i64 *chains,
                  i64 lazy)
{
    counters_t *k = &m->k;
    carry_t c = *carry;
    i64 i;
    for (i = 0; i < n; i++) {
        if (co && co->take + co->intensity > co->ntakes)
            break;
        const i64 va = va_arr[i];
        const i64 vpn = (va >> 12) | m->vbias;
        if (lazy && paths[rowidx[i] * R_COLS + R_LAZY]
                && walk_pending(m, vpn))
            break;
        if (!c.measuring && i >= warmup) {
            c.measuring = 1;
            c.l1_base = k->tlbs.l1_hits;
            c.l2_base = k->tlbs.l2_hits;
        }
        i64 translation = 0;
        i64 frame = tlb_probe(&m->l1, vpn, m->probe_large, &k->l1);
        if (frame != EMPTY) {
            k->tlb.hits++;
            k->tlbs.l1_hits++;
        } else if ((frame = tlb_probe(&m->l2, vpn, m->probe_large, &k->l2))
                   != EMPTY) {
            k->tlb.hits++;
            k->tlbs.l2_hits++;
            /* an L2 hit refills the L1 with the small tag */
            unit_install(&m->l1, vpn << 1, frame);
        } else {
            k->tlb.misses++;
            if (m->mode == MODE_VICTIMA
                    && (frame = victima_probe(m, vpn)) != EMPTY) {
                translation = m->probe_latency;
                tlb_fill_small(m, vpn, frame, 1);
                if (c.measuring)
                    c.walk_c += translation;
            } else {
                /* --- full miss: priced page walk ------------------- */
                i64 *svc = c.measuring ? service : 0;
                i64 large;
                if (m->nested) {
                    const i64 *R = paths + rowidx[i] * R_COLS;
                    translation = nested_walk(m, R, chains, c.now, svc);
                    frame = chains[R[R_CHAIN + 5 - R[R_LEAF]] * W_COLS
                                   + W_FRAME];
                    large = R[R_LARGE];
                } else {
                    const i64 *P = paths + rowidx[i] * W_COLS;
                    translation = radix_walk(m, 0, P, c.now, c.now, svc)
                        - c.now;
                    frame = P[W_FRAME];
                    large = P[W_LARGE];
                }
                k->walker.walks++;
                k->walker.total_latency += translation;
                if (m->mode == MODE_REVELATOR)
                    /* the walker has charged the walk; the hook prices
                       what the core stalls for, before the TLB fill */
                    translation = revelator_walk_end(m, va, vpn, c.now,
                                                     translation);
                /* TLB fill, both tags known absent after the full miss.
                   A large fill never hands a victim to the park hook
                   (the generic fill path has no hook). */
                if (large) {
                    const i64 ltag = ((vpn >> 9) << 1) | 1;
                    unit_install(&m->l1, ltag, frame);
                    unit_install(&m->l2, ltag, frame);
                } else {
                    tlb_fill_small(m, vpn, frame, m->mode == MODE_VICTIMA);
                }
                if (c.measuring) {
                    c.walk_c += translation;
                    c.walk_count++;
                }
            }
        }

        /* --- data access ------------------------------------------- */
        i64 level;
        const i64 dlat = mem_access(m, (frame << 6) | ((va & 0xFFF) >> 6),
                                    &level, c.now + translation);
        c.now += m->base_cycles + translation + dlat;
        if (c.measuring) {
            c.acc++;
            c.data_c += dlat;
        }

        /* --- Corunner.step: the record's groups at the new now ------ */
        if (co) {
            i64 stop = co->cursor;
            for (i64 j = 0; j < co->intensity; j++)
                stop += co->takes[co->take + j];
            for (i64 line = co->cursor; line < stop; line++)
                mem_access(m, co->lines[line], &level, c.now);
            co->cursor = stop;
            co->take += co->intensity;
            co->accesses++;
        }
    }
    *carry = c;
    return i;
}
"""

#: The compiled text: the shared declarations, the constants generated
#: from their Python owners, then the kernel.
_C_SOURCE = (
    "#include <string.h>\n" + _DECLS
    + _c_enum("A", _A) + _c_enum("W", _W) + _c_enum("R", _R)
    + f"#define EMPTY ({EMPTY}LL)\n"
    + f"#define ASID_SHIFT {ASID_SHIFT}\n"
    + f"#define PARK_BASE ({_PARK_TAG_BASE:#x}LL)\n"
    + f"#define WRONG_SALT {_WRONG_SALT:#x}\n"
    + _KERNEL)

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
    ffi.cdef(_DECLS)
    # Named after the whole compiled text, declarations included, so a
    # library built from another layout is never loaded against this
    # cdef.
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
    walk (the ``_W`` columns): the cache line of each page-table node the
    walker would touch, the three PWC tags, the leaf level, the frame
    and the large-page flag.  Rows are immutable once built (the page
    table is static during a run); ``clear()`` drops them on translation
    flush, coherently with the scalar path caches.

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
    EMPTY = _row_empty(_W)
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
        small = leaf == 1
        for step, level in enumerate((4, 3, 2)):
            rows[:, _W.LINES + step] = cls._node_lines(raw, level, pt)
        if small.any():
            rows[small, _W.LINES + 3] = cls._node_lines(raw[small], 1, pt)
        _pwc_tags(rows[:, _W.TG:], raw, vbias)
        rows[:, _W.LEAF] = leaf
        rows[:, _W.FRAME] = pframe
        rows[:, _W.LARGE] = ~small
        if prefetcher is not None:
            cls._asap_columns(rows[:, _W.ASAP:], raw << 12, prefetcher)

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
        """The ASAP replay block (the ``_A`` columns) for page-base
        addresses ``vas`` (sorted).  Descriptors are sorted and
        disjoint, so the pages a descriptor covers are one slice of
        ``vas``: the range-register hit, replayed without touching the
        register counters (those live in the kernel).  Targets come from
        the descriptor's own base-plus-offset arithmetic over the slice;
        hole verdicts once per (descriptor, level, node), which the
        module's node-constancy rule makes exact."""
        levels = prefetcher.levels
        hole_checker = prefetcher.hole_checker
        for descriptor in prefetcher.registers._descriptors:
            lo, hi = np.searchsorted(vas, (descriptor.start, descriptor.end))
            if lo == hi:
                continue
            rows = block[lo:hi]
            pages = vas[lo:hi]
            rows[:, _A.HIT] = 1
            for s, level in enumerate(levels):
                target = descriptor.entry_addr(pages, level)
                if target is None:
                    continue
                rows[:, _A.TARGET + s] = target >> 6
                if hole_checker is None:
                    continue
                first, runs = _runs(node_tag(pages, level))
                verdicts = [hole_checker(va, level)
                            for va in pages[first].tolist()]
                rows[:, _A.HOLE + s] = np.repeat(verdicts, runs)


def _pwc_tags(block: np.ndarray, raw: np.ndarray, vbias: int) -> None:
    """The PL2, PL3 and PL4 tags of the (raw) vpns, ORed with the ASID
    bias, into the first three columns of ``block``."""
    for index in range(3):
        block[:, index] = (raw >> (9 * (index + 1))) | vbias


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
        pending = np.flatnonzero(self.paths[:self.count, _W.LEAF] == 0)
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
    biased guest VPN), in the nested layout (the ``_R`` columns).

    The guest half comes from the same passes over the guest page table
    as a native row; each nested step — guest levels 4 down to the leaf,
    then the data page — points at the :class:`_HostChains` row of its
    guest-physical page, which also gives the guest entry's host line
    and the data frame.  A row is *lazy* while any of its chains waits
    for a host mapping; the kernel stops before a lazy row's walk so the
    caller can make that mapping where the scalar loop does.
    """

    EMPTY = _row_empty(_R)

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
        _pwc_tags(rows[:, _R.TG:], raw, vbias)
        rows[:, _R.LEAF] = leaf
        rows[:, _R.LARGE] = ~small
        rows[:, _R.CHAIN:_R.CHAIN + 5] = chains
        rows[:, _R.GLINE:_R.GLINE + 4] = glines
        lazy = self._waiting(chains)
        rows[:, _R.LAZY] = lazy
        self.lazy += int(lazy.sum())
        if prefetcher is not None:
            self._asap_columns(rows[:, _R.ASAP:], raw << 12, prefetcher)
        return self._commit(new)

    def _waiting(self, chains: np.ndarray) -> np.ndarray:
        """Per row of chain ids: whether a chain's page is unmapped."""
        return (self.chains.paths[chains, _W.LEAF] == 0).any(axis=1)

    def remap(self, vm, vbias: int, prefetcher=None,
              host_prefetcher=None) -> None:
        """Take in the host mappings made since the lazy rows were built
        (same arguments as :meth:`rows_for`)."""
        if not self.lazy or not self.chains.remap(vm.hpt, vbias,
                                                  host_prefetcher):
            return
        lazy = np.flatnonzero(self.paths[:self.count, _R.LAZY])
        waiting = self._waiting(self.paths[lazy, _R.CHAIN:_R.CHAIN + 5])
        self.paths[lazy, _R.LAZY] = waiting
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


def _shape(struct, unit) -> None:
    """A unit_t's or cache_t's geometry, from its TLB, PWC or cache."""
    struct.nsets, struct.stride, struct.ways = (unit.num_sets, unit.stride,
                                                unit.ways)


class _ParkImage:
    """The kernel's resident copy of one Victima scheme's parked map.

    ``park`` is the C pool (a ``park_t`` over the ``pool``, ``hash`` and
    ``log`` arrays it owns).  Between calls the image hangs off the
    scheme as ``scheme.park_image`` and equals its ``_parked`` dict; the
    scheme's Python mutators drop it, exactly like
    ``SetAssociativeCache.image``.  Neither direction loops over entries
    in Python: a missing image is seeded from two lists and one C call,
    and the write-back replays only what the call changed — the removal
    log as dict deletions, then the new and re-framed entries as one
    ``dict.update``.
    """

    __slots__ = ("park", "pool", "hash", "log")

    def __init__(self, scheme) -> None:
        ffi, lib = _BACKEND
        parked = scheme._parked
        cap = scheme.max_parked
        self.pool = ffi.new("park_slot_t[]", cap)
        self.hash = ffi.new("i64[]", 1 << max(6, (4 * cap - 1).bit_length()))
        self.log = ffi.new("i64[]", cap)
        self.park = ffi.new("park_t *", {
            "pool": self.pool, "hash": self.hash, "log": self.log,
            "capacity": cap, "hash_capacity": len(self.hash)})
        lib.col_park_load(self.park, list(parked), list(parked.values()),
                          len(parked))

    def write_back(self, scheme) -> None:
        """Replay the call's changes on the scheme's dict and counter."""
        ffi, lib = _BACKEND
        park = self.park
        scheme.stats["parked"] = park.parked
        if not park.dirty:
            return
        parked = scheme._parked
        deque(map(parked.__delitem__, ffi.unpack(self.log, park.logged)),
              maxlen=0)
        vpns = ffi.new("i64[]", park.count)
        frames = ffi.new("i64[]", park.count)
        changed = lib.col_park_changes(park, vpns, frames)
        parked.update(zip(ffi.unpack(vpns, changed),
                          ffi.unpack(frames, changed)))


def _load_corunner(corunner, co) -> None:
    """Point the kernel's ``corunner_t`` at the co-runner's drawn stream
    and copy its cursors, drawn group count, intensity and step count."""
    co.lines, co.takes = _ptr(corunner._lines), _ptr(corunner._takes)
    co.cursor, co.take = corunner._cursor, corunner._take_cursor
    co.ntakes, co.intensity = corunner._takes.size, corunner.intensity
    co.accesses = corunner.accesses


def _store_corunner(corunner, co) -> None:
    """Write the kernel's cursors and step count back to the co-runner."""
    corunner._cursor, corunner._take_cursor = co.cursor, co.take
    corunner.accesses = co.accesses


def _get(owner, name: str) -> int:
    return owner[name] if isinstance(owner, dict) else getattr(owner, name)


def _set(owner, name: str, value: int) -> None:
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


@functools.cache
def _fields(ctype) -> tuple[str, ...]:
    """The field names of a counter block's struct type."""
    return tuple(name for name, _ in ctype.fields)


def _counter_owners(sim, m, mode: str, prefetchers: tuple) -> list:
    """Every counter block of ``m.k`` this run keeps, as ``(block,
    owner)``: each field of the block is the owner's attribute or stats
    key of the same name.  Blocks a run's mode does not use are not
    bound; the kernel leaves them at zero."""
    k = m.k
    tlbs, hierarchy, walker = sim.tlbs, sim.hierarchy, sim.walker
    owners = [
        (k.tlb, tlbs.stats), (k.tlbs, tlbs),
        (k.l1, tlbs.l1.stats), (k.l2, tlbs.l2_plain.stats),
        (k.walker, walker),
        (k.c1, hierarchy.l1.stats), (k.c2, hierarchy.l2.stats),
        (k.c3, hierarchy.l3.stats),
        (k.served, hierarchy.served), (k.hierarchy, hierarchy),
        (k.mshrs, hierarchy.mshrs),
    ]
    for stats, pwc, prefetcher in zip(k.dim, sim.pwcs, prefetchers):
        owners.append((stats.pwc, pwc))
        owners += [(level, unit.stats)
                   for level, (_, unit) in zip(stats.levels, pwc.view)]
        if prefetcher is not None:
            owners += [(stats.registers, prefetcher.registers),
                       (stats.prefetcher, prefetcher.stats)]
    if _nested(sim):
        owners.append((k.nested_walker, walker))
    if mode in ("victima", "revelator"):
        owners.append((getattr(k, mode), sim.scheme.stats))
    return owners


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
    live machine and carry structs, not the stats owners — those are
    only written back in the finally block below, so they are stale for
    the whole loop.
    """
    ffi, lib = _BACKEND
    nested = _nested(sim)
    tlbs = sim.tlbs
    hierarchy = sim.hierarchy
    vbias = asid_bias(sim.asid)

    # `m` holds raw pointers: every array it points at stays referenced
    # by a local or by its owner until the write-back below has run.
    m = ffi.new("machine_t *")
    m.mode = getattr(lib, f"MODE_{mode.upper()}")
    m.nested = 1 if nested else 0
    m.vbias = vbias
    m.probe_large = 1 if tlbs.probe_large[0] else 0
    m.base_cycles = sim.machine.core.base_cycles
    m.lat_l1, m.lat_l2, m.lat_l3, m.lat_mem = map(
        hierarchy.latency_of, ("L1", "L2", "L3", "MEM"))

    # The TLBs and PWCs (the host PWC only in a nested run), each unit's
    # lists as int64 arrays: loaded here, written back whole at the end.
    units = [(m.l1, tlbs.l1), (m.l2, tlbs.l2_plain)]
    for dim, pwc in zip(m.dim, sim.pwcs):
        dim.pwc_latency = pwc.params.latency
        units += [(level, unit) for level, (_, unit) in zip(dim.pwc, pwc.view)]
    unit_arrays = []
    for struct, unit in units:
        arrays = (_as_array(unit.tags), _as_array(unit.frames),
                  _as_array(unit.sizes))
        struct.tags, struct.frames, struct.sizes = map(_ptr, arrays)
        _shape(struct, unit)
        unit_arrays.append(arrays)

    # Reuse each cache's resident image, or build it from the lists.
    # It stays detached until the write-back below has run, so an
    # interrupted write-back cannot leave a stale image attached.
    caches = (hierarchy.l1, hierarchy.l2, hierarchy.l3)
    images = [cache.image or _CacheImage(cache) for cache in caches]
    for struct, cache, image in zip((m.c1, m.c2, m.c3), caches, images):
        cache.image = None
        struct.lines, struct.sizes = _ptr(image.lines), _ptr(image.sizes)
        struct.touched = ffi.from_buffer("unsigned char[]", image.touched)
        _shape(struct, cache)

    # The MSHR file rides along in every mode (the kernel has the merge
    # branch, and ASAP replays allocations into it).
    mshrs = hierarchy.mshrs
    inflight = mshrs._inflight
    mshr_lines = ffi.new("i64[]", max(mshrs.capacity, 1))
    mshr_completions = ffi.new("i64[]", max(mshrs.capacity, 1))
    mshr_lines[0:len(inflight)] = list(inflight)
    mshr_completions[0:len(inflight)] = list(inflight.values())
    m.mshr.lines, m.mshr.completions = mshr_lines, mshr_completions
    m.mshr.count, m.mshr.capacity = len(inflight), mshrs.capacity

    # ASAP: the walk-start prefetcher (native or guest dimension) and,
    # in a nested walk, the host one.
    prefetchers = _asap_prefetchers(sim) if mode == "asap" else (None, None)
    for dim, prefetcher in zip(m.dim, prefetchers):
        if prefetcher is not None:
            dim.pf_count = len(prefetcher.levels)
            dim.pf_levels[0:dim.pf_count] = prefetcher.levels

    if mode == "revelator":
        scheme = sim.scheme
        m.coverage, m.spec_latency, m.penalty = (
            scheme.coverage_pct, scheme.spec_latency, scheme.penalty)

    # Victima: one pool per scheme the victims park for.  The running
    # scheme's pool takes its probes (and their counters); each victim
    # parks in its owner's pool, under that scheme's `parked` counter.
    # Like the cache images, each pool is reused if resident and stays
    # detached from its scheme until the write-back below has run.
    schemes = ()
    pools: list[_ParkImage] = []
    if mode == "victima":
        schemes, route = _park_routes(sim)
        m.probe_latency = sim.scheme._probe_latency
        m.park_self = schemes.index(sim.scheme)
        for scheme in schemes:
            pool = scheme.park_image
            if pool is None or pool.park.capacity != scheme.max_parked:
                pool = _ParkImage(scheme)
            scheme.park_image = None
            pool.park.parked = scheme.stats["parked"]
            pools.append(pool)
        parks = ffi.new("park_t *[]", [pool.park for pool in pools])
        m.parks = parks
        if route is not None:
            route_ids = ffi.new("i64[]", route)
            m.route = route_ids

    owners = [(block, owner, _fields(ffi.typeof(block)))
              for block, owner in _counter_owners(sim, m, mode, prefetchers)]
    for block, owner, names in owners:
        for name in names:
            setattr(block, name, _get(owner, name))

    carry_c = ffi.new("carry_t *", carry)
    service = (ffi.new("i64[]", lib.SV_ROWS * lib.SV_COLS)
               if collect_service else ffi.NULL)

    # The co-runner: the kernel issues its drawn groups after every
    # record and stops before a record whose groups are not drawn yet.
    corunner = sim.corunner
    co = ffi.NULL
    if corunner is not None:
        co = ffi.new("corunner_t *")
        _load_corunner(corunner, co)

    state = sim._columnar_paths
    if state is None:
        state = sim._columnar_paths = (_NestedRows() if nested
                                       else _PathTable())
    if nested:
        context = (sim.vm, vbias) + prefetchers
        state.remap(*context)
    else:
        context = (sim.process, vbias, prefetchers[0])

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
                    m, carry_c, co, service, _ptr(addresses, done), n - done,
                    min(max(warmup - chunk_base - done, 0), n - done),
                    _ptr(rowidx, done), _ptr(state.paths), chains,
                    1 if state.lazy else 0)
                if done == n:
                    break
                if corunner is not None and (
                        co.take + co.intensity > co.ntakes):
                    # Draw the next record's groups (the batches its
                    # scalar step would draw, in the same order) and
                    # resume at that record.
                    _store_corunner(corunner, co)
                    corunner._draw_ahead()
                    _load_corunner(corunner, co)
                    continue
                # The next record walks through a guest-physical page
                # the host page table does not map yet: map it the way
                # the scalar loop does at this walk, then resume there.
                sim.vm.nested_path(int(addresses[done]))
                state.remap(*context)
                assert not state.paths[rowidx[done], _R.LAZY]
            chunk_base += n
            if obs_probe is not None:
                obs_probe.sample(
                    chunk_base, now=carry_c.now, accesses=carry_c.acc,
                    data_cycles=carry_c.data_c, walk_cycles=carry_c.walk_c,
                    walks=carry_c.walk_count,
                    tlb_l1_hits=m.k.tlbs.l1_hits,
                    tlb_l2_hits=m.k.tlbs.l2_hits,
                    tlb_misses=m.k.tlb.misses)
    finally:
        # Write every structure image and counter back to its owner, so
        # post-run state is indistinguishable from a scalar run.  The
        # cache images then equal their lists again and are re-attached.
        for cache, image in zip(caches, images):
            image.write_back(cache)
            cache.image = image
        for (_, unit), (tags, frames, sizes) in zip(units, unit_arrays):
            unit.tags[:] = tags.tolist()
            unit.frames[:] = frames.tolist()
            unit.sizes[:] = sizes.tolist()
        for block, owner, names in owners:
            for name in names:
                _set(owner, name, getattr(block, name))
        inflight.clear()
        count = m.mshr.count
        inflight.update(zip(ffi.unpack(mshr_lines, count),
                            ffi.unpack(mshr_completions, count)))
        for scheme, pool in zip(schemes, pools):
            pool.write_back(scheme)
            scheme.park_image = pool
        if corunner is not None:
            _store_corunner(corunner, co)
        if collect_service:
            _store_service(stats.service._counts, service, nested)

    return (carry_c.now, bool(carry_c.measuring), carry_c.acc,
            carry_c.data_c, carry_c.walk_c, carry_c.walk_count,
            carry_c.l1_base, carry_c.l2_base)


def _store_service(counts: dict, service, nested: bool) -> None:
    """Add the kernel's service histogram to a ServiceDistribution's
    counts.  Each dimension root first (level 4 down), the host one
    before the guest one: the order of a cold walk's records.  Insertion
    order is presentation only; the distribution compares by value."""
    ffi, lib = _BACKEND
    columns = ffi.typeof("enum service").elements
    labels = [columns[col][len("SV_"):] for col in range(lib.SV_COLS)]
    dims = ((lib.SV_HOST, "h"), (0, "g")) if nested else ((0, ""),)
    for row_base, prefix in dims:
        for level in (4, 3, 2, 1):
            row = (row_base + level - 1) * lib.SV_COLS
            key = f"{prefix}{level}" if prefix else level
            for col, label in enumerate(labels):
                value = service[row + col]
                if value:
                    bucket = counts.setdefault(key, {})
                    bucket[label] = bucket.get(label, 0) + value
