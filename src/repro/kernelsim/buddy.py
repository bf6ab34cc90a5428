"""A behavioural model of the Linux buddy allocator.

The paper's argument hinges on two buddy-allocator behaviours (§3.3):

* it optimises for allocation *speed*, serving single pages from the first
  available slot, so related allocations end up scattered across physical
  memory with no correspondence to virtual order;
* it does produce *short contiguous runs*: consecutive allocations from the
  same stream often come from one free chunk until it is exhausted, which is
  why Table 2 reports thousands of contiguous PT regions (a handful of pages
  each) rather than one region or millions.

We model exactly that: each allocation *pool* (data pages, page-table pages,
per-VM pools, ...) draws frames from a current run; run lengths are sampled
from a geometric-like distribution whose mean is the pool's fragmentation
knob; when a run is exhausted a new run starts at a random, previously
unused spot.  Bigger means = a healthier, less fragmented machine.

Contiguous *reservations* (what ASAP asks the OS for at VMA-creation time)
are carved from a dedicated area at the top of physical memory, modelling a
CMA-style reserved zone.  Each reservation is created with growth *headroom*
above it; the asynchronous region extension of §3.7.2 succeeds while
headroom remains and fails afterwards, which is how ASAP "holes" arise.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.kernelsim.phys import PhysicalMemory

#: Frames per placement slot for randomly placed runs (16MB granules).
_SLOT_FRAMES = 4096


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation or reservation cannot be satisfied."""


@dataclass
class _Pool:
    """One allocation stream with its own current run.

    Runs are carved from per-pool *arenas* (randomly placed 16MB slots):
    consecutive runs sit in the same arena separated by a one-frame guard
    gap — physically near each other (as buddy free-lists produce) but
    never contiguous, so fragmentation statistics stay honest while a slot
    serves hundreds of runs.
    """

    mean_run: float
    next_frame: int = 0
    remaining: int = 0
    arena_next: int = 0
    arena_remaining: int = 0
    arena_runs: int = 0


@dataclass
class _Reservation:
    base: int
    frames: int
    headroom: int  # free frames directly above (higher addresses)


@dataclass
class BuddyStats:
    frames_allocated: int = 0
    reservations: int = 0
    reserved_frames: int = 0
    extensions_ok: int = 0
    extensions_failed: int = 0


class BuddyAllocator:
    """Pool-based first-fit frame allocator with a fragmentation model."""

    def __init__(
        self,
        memory: PhysicalMemory | None = None,
        seed: int = 0,
        default_mean_run: float = 8.0,
        runs_per_arena: int = 4,
    ) -> None:
        self.memory = memory or PhysicalMemory()
        self._rng = random.Random(seed)
        self._default_mean_run = default_mean_run
        #: How many runs an arena serves before the pool moves to a fresh
        #: random slot.  Low values disperse allocations across physical
        #: memory (a long-running machine's free lists), high values pack
        #: them; 4 balances dispersion against slot consumption.
        self.runs_per_arena = max(1, runs_per_arena)
        self._pools: dict[str, _Pool] = {}
        self._used_slots: set[int] = set()
        # Reservations grow downward from the top of memory.
        self._reserve_top = self.memory.total_frames
        self._reservations: dict[int, _Reservation] = {}
        self._num_slots = self.memory.total_frames // _SLOT_FRAMES
        self.stats = BuddyStats()

    # ------------------------------------------------------------------
    # single-frame pools (data pages, lazily allocated PT pages, ...)
    # ------------------------------------------------------------------
    def configure_pool(self, pool: str, mean_run: float) -> None:
        """Set the fragmentation knob (mean contiguous run) for a pool."""
        if mean_run < 1.0:
            raise ValueError("mean run length must be at least one frame")
        existing = self._pools.get(pool)
        if existing is None:
            self._pools[pool] = _Pool(mean_run=mean_run)
        else:
            existing.mean_run = mean_run

    def _pool(self, pool: str) -> _Pool:
        state = self._pools.get(pool)
        if state is None:
            state = _Pool(mean_run=self._default_mean_run)
            self._pools[pool] = state
        return state

    def _open_arena(self, state: _Pool) -> None:
        for _ in range(256):
            slot = self._rng.randrange(self._num_slots)
            if slot in self._used_slots:
                continue
            base = slot * _SLOT_FRAMES
            if base + _SLOT_FRAMES > self._reserve_top:
                continue
            self._used_slots.add(slot)
            state.arena_next = base
            state.arena_remaining = _SLOT_FRAMES
            state.arena_runs = 0
            return
        # Memory is nearly full: fall back to a linear scan (the buddy
        # allocator never fails while free memory remains; only true
        # exhaustion raises).
        usable = min(self._num_slots, self._reserve_top // _SLOT_FRAMES)
        for slot in range(usable):
            if slot in self._used_slots:
                continue
            self._used_slots.add(slot)
            state.arena_next = slot * _SLOT_FRAMES
            state.arena_remaining = _SLOT_FRAMES
            state.arena_runs = 0
            return
        raise OutOfMemoryError("could not place a new allocation arena")

    def _start_run(self, state: _Pool, length: int | None = None) -> None:
        if length is None:
            length = min(
                _SLOT_FRAMES,
                1 + int(self._rng.expovariate(1.0 / state.mean_run)),
            )
        guard = 0 if length >= _SLOT_FRAMES else 1
        # Dispersion: abandon the arena after a few runs — but only while
        # free slots are plentiful.  Under memory pressure the allocator
        # packs arenas fully instead of failing (as a real buddy would).
        plentiful = len(self._used_slots) < self._num_slots // 2
        if state.arena_remaining < length + guard or (
                plentiful and state.arena_runs >= self.runs_per_arena):
            self._open_arena(state)
        state.next_frame = state.arena_next
        state.remaining = length
        state.arena_next += length + guard
        state.arena_remaining -= length + guard
        state.arena_runs += 1

    def alloc_frame(self, pool: str = "data") -> int:
        """Allocate one frame from ``pool``'s current run."""
        state = self._pool(pool)
        if state.remaining <= 0:
            self._start_run(state)
        frame = state.next_frame
        state.next_frame += 1
        state.remaining -= 1
        self.stats.frames_allocated += 1
        return frame

    def alloc_frames(self, count: int, pool: str = "data") -> list[int]:
        return [self.alloc_frame(pool) for _ in range(count)]

    def replay_frames(
        self, pools: Sequence[str], requests: np.ndarray
    ) -> np.ndarray:
        """Serve interleaved single-frame requests one run at a time.

        ``requests[i]`` indexes ``pools`` (distinct names).  Returns the
        frames, and leaves the same allocator state, that
        ``[self.alloc_frame(pools[k]) for k in requests]`` would.  The
        per-frame loop draws from the shared RNG only where a request
        finds its pool's run exhausted; this replay calls
        :meth:`_start_run` at exactly those requests, in the same
        global order (a heap keyed by the request index of each pool's
        next run start), and fills in every other frame with array
        arithmetic.
        """
        requests = np.asarray(requests, dtype=np.int64)
        frames = np.empty(len(requests), dtype=np.int64)
        if not len(requests):
            return frames
        if len(set(pools)) != len(pools):
            raise ValueError("replayed pools must have distinct names")
        codes, first = np.unique(requests, return_index=True)
        #: Per pool: state, its request positions, and the pool-local
        #: index and base frame of each run that serves them.
        plans = []
        heap: list[tuple[int, int, int]] = []
        # Pools are created on first use, in first-request order.
        for k in codes[np.argsort(first)].tolist():
            state = self._pool(pools[k])
            positions = np.flatnonzero(requests == k)
            served = min(max(state.remaining, 0), len(positions))
            plans.append((state, positions, positions.tolist(), [0],
                          [state.next_frame]))
            state.next_frame += served
            state.remaining -= served
            if served < len(positions):
                heap.append((int(positions[served]), len(plans) - 1, served))
        heapq.heapify(heap)
        while heap:
            _, plan, index = heapq.heappop(heap)
            state, _, position_list, run_first, run_base = plans[plan]
            self._start_run(state)
            run_first.append(index)
            run_base.append(state.next_frame)
            end = index + state.remaining
            if end < len(position_list):
                heapq.heappush(heap, (position_list[end], plan, end))
                state.next_frame += state.remaining
                state.remaining = 0
            else:
                state.next_frame += len(position_list) - index
                state.remaining -= len(position_list) - index
        for state, positions, _, run_first, run_base in plans:
            starts = np.array(run_first, dtype=np.int64)
            lengths = np.diff(starts, append=len(positions))
            offsets = np.array(run_base, dtype=np.int64) - starts
            frames[positions] = (np.repeat(offsets, lengths)
                                 + np.arange(len(positions)))
        self.stats.frames_allocated += len(requests)
        return frames

    def alloc_run(
        self, count: int, pool: str = "data", aligned: bool = True
    ) -> int:
        """Allocate ``count`` physically contiguous frames from ``pool``.

        Used for 2MB page backing (512 frames, naturally aligned).  When
        the current run cannot fit the (aligned) request, a fresh full-size
        run is started so repeated large allocations pack together — the
        behaviour transparent-hugepage compaction works to provide.
        """
        if not 0 < count <= _SLOT_FRAMES:
            raise ValueError(f"run of {count} frames is not allocatable")
        if aligned and count & (count - 1):
            raise ValueError("aligned runs must be a power of two")
        state = self._pool(pool)
        start = state.next_frame
        pad = (-start) % count if aligned else 0
        if state.remaining < pad + count:
            self._start_run(state, length=_SLOT_FRAMES)
            start = state.next_frame  # slot bases are 4096-frame aligned
            pad = (-start) % count
        state.next_frame = start + pad + count
        state.remaining -= pad + count
        self.stats.frames_allocated += count
        return start + pad

    def break_run(self, pool: str = "data") -> None:
        """Force the next allocation from ``pool`` to start a fresh run.

        Models interference: another process grabbing the adjacent free
        pages between our allocations.
        """
        self._pool(pool).remaining = 0

    # ------------------------------------------------------------------
    # contiguous reservations (the ASAP OS extension, §3.3 / §3.7.2)
    # ------------------------------------------------------------------
    def reserve_contiguous(
        self, frames: int, headroom: int = 0, align: int = 1
    ) -> int:
        """Reserve ``frames`` contiguous frames plus growth ``headroom``.

        Returns the base frame of the usable region (``align``-frame
        aligned).  The headroom sits at higher addresses than the region
        and is consumed by later :meth:`try_extend` calls.
        """
        if frames <= 0:
            raise ValueError("reservation must cover at least one frame")
        total = frames + headroom
        if self._reserve_top - total < 0:
            raise OutOfMemoryError("reservation exceeds physical memory")
        self._reserve_top -= total
        if align > 1:
            self._reserve_top -= self._reserve_top % align
            if self._reserve_top < 0:
                raise OutOfMemoryError("reservation exceeds physical memory")
        base = self._reserve_top
        self._reservations[base] = _Reservation(base, frames, headroom)
        self.stats.reservations += 1
        self.stats.reserved_frames += total
        return base

    def try_extend(self, base: int, frames: int) -> bool:
        """Grow the reservation at ``base`` upward by ``frames``.

        Mirrors the asynchronous region extension of §3.7.2: succeeds while
        pre-cleared headroom remains, fails once the adjacent memory is
        occupied (at which point the OS must place PT pages out of region,
        creating ASAP holes).
        """
        reservation = self._reservations.get(base)
        if reservation is None:
            raise KeyError(f"no reservation at frame {base}")
        if frames <= reservation.headroom:
            reservation.headroom -= frames
            reservation.frames += frames
            self.stats.extensions_ok += 1
            return True
        self.stats.extensions_failed += 1
        return False

    def reservation_size(self, base: int) -> int:
        return self._reservations[base].frames
