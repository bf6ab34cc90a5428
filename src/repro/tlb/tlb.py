"""A set-associative TLB with true-LRU replacement on flat array storage.

Entries are keyed by an integer *tag* supplied by the caller; the two-level
hierarchy (`repro.tlb.hierarchy`) encodes the page-size class into the tag so
4KB and 2MB translations share one structure without ambiguity.  The payload
of an entry is the translated frame number, kept so fills can be validated
and so clustered designs can be compared like-for-like.

Storage layout (shared by every LRU structure in the hot path — see
docs/ARCHITECTURE.md):

* ``tags`` / ``frames`` are preallocated flat lists of ``sets * (ways+1)``
  slots; set ``s`` owns the contiguous segment ``[s*stride, s*stride+ways)``
  plus one *guard* slot at the segment end.
* Within a segment, live entries sit at the front in MRU→LRU order, so the
  physical position **is** the LRU counter: a hit moves the entry to the
  segment base (one C-level slice shift), the eviction victim is always the
  last live slot, and a set's residency count lives in ``sizes``.
* Empty slots hold the ``-1`` sentinel.  Probes write the searched tag into
  the guard slot and use ``list.index`` — a C-speed scan that needs no
  exception on a miss (the guard always terminates it).

This replaces the previous dict-of-entries sets: identical replacement
behaviour (dict insertion order and segment order encode the same recency
relation), but the flat layout lets the simulators' hot loops probe by
integer indexing without per-entry objects or hashing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.params import TlbParams

#: Sentinel marking an empty slot; real tags are non-negative.
EMPTY = -1

#: Bit position of the ASID in a *biased* vpn key (multi-tenant runs).
#:
#: Address-space identifiers ride in the key the same way the page-size
#: class rides in the tag: encoded into the integer before it reaches the
#: structure, so every probe/fill below is tenant-oblivious.  The highest
#: vpn any workload can produce is below 2**45 (57-bit virtual addresses),
#: and PWC tags (``va >> level_shift``) are smaller still, so ORing
#: ``asid << ASID_SHIFT`` into a vpn or PWC tag can never collide with
#: another tenant's bits — and ASID 0 is the identity, which is what keeps
#: single-tenant runs byte-identical to the pre-ASID simulators.
ASID_SHIFT = 52


def asid_bias(asid: int) -> int:
    """The OR-mask encoding ``asid`` into vpn/PWC-tag keys (0 for ASID 0)."""
    if asid < 0:
        raise ValueError("ASIDs are non-negative")
    return asid << ASID_SHIFT


@dataclass
class TlbStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


class Tlb:
    """Plain (non-coalescing) TLB: one tag, one translation."""

    def __init__(self, params: TlbParams, name: str = "tlb") -> None:
        self.params = params
        self.name = name
        self.num_sets = params.sets
        self.ways = params.ways
        #: Slots per set segment: ``ways`` entries plus the guard slot.
        self.stride = params.ways + 1
        self.tags: list[int] = [EMPTY] * (self.num_sets * self.stride)
        self.frames: list[int] = [0] * (self.num_sets * self.stride)
        self.sizes: list[int] = [0] * self.num_sets
        self.stats = TlbStats()

    def _set_index(self, tag: int) -> int:
        return tag % self.num_sets

    def lookup(self, tag: int) -> int | None:
        """Return the cached frame for ``tag`` or None on a miss."""
        set_index = tag % self.num_sets
        base = set_index * self.stride
        tags = self.tags
        limit = base + self.sizes[set_index]
        tags[limit] = tag
        pos = tags.index(tag, base)
        tags[limit] = EMPTY
        if pos == limit:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        frames = self.frames
        frame = frames[pos]
        if pos != base:
            tags[base + 1:pos + 1] = tags[base:pos]
            tags[base] = tag
            frames[base + 1:pos + 1] = frames[base:pos]
            frames[base] = frame
        return frame

    def contains(self, tag: int) -> bool:
        set_index = tag % self.num_sets
        base = set_index * self.stride
        tags = self.tags
        limit = base + self.sizes[set_index]
        tags[limit] = tag
        pos = tags.index(tag, base)
        tags[limit] = EMPTY
        return pos != limit

    def probe_batch(self, batch) -> list[int | None]:
        """Read-only bulk probe: the cached frame per tag, None on miss.

        A batch is a *query*, not a sequence of accesses — no stats, no
        LRU movement — so probing any permutation of ``batch`` returns
        the permuted scalar results (pinned by the batch-probe property
        suite).  Tests use this to inspect residency without perturbing
        replacement state.
        """
        tags = self.tags
        frames = self.frames
        sizes = self.sizes
        stride = self.stride
        num_sets = self.num_sets
        out: list[int | None] = []
        for tag in batch:
            set_index = tag % num_sets
            base = set_index * stride
            limit = base + sizes[set_index]
            tags[limit] = tag
            pos = tags.index(tag, base)
            tags[limit] = EMPTY
            out.append(None if pos == limit else frames[pos])
        return out

    def fill(self, tag: int, frame: int) -> tuple[int, int] | None:
        """Install a translation; returns the evicted (tag, frame), if
        any — eviction-recycling schemes (Victima) consume the victim."""
        set_index = tag % self.num_sets
        base = set_index * self.stride
        tags = self.tags
        frames = self.frames
        size = self.sizes[set_index]
        limit = base + size
        tags[limit] = tag
        pos = tags.index(tag, base)
        tags[limit] = EMPTY
        victim = None
        if pos != limit:
            # Already present: promote to MRU (and refresh the payload).
            if pos != base:
                tags[base + 1:pos + 1] = tags[base:pos]
                frames[base + 1:pos + 1] = frames[base:pos]
        elif size >= self.ways:
            last = base + self.ways - 1
            victim = (tags[last], frames[last])
            tags[base + 1:last + 1] = tags[base:last]
            frames[base + 1:last + 1] = frames[base:last]
        else:
            tags[base + 1:limit + 1] = tags[base:limit]
            frames[base + 1:limit + 1] = frames[base:limit]
            self.sizes[set_index] = size + 1
        tags[base] = tag
        frames[base] = frame
        return victim

    def invalidate(self, tag: int) -> bool:
        set_index = tag % self.num_sets
        base = set_index * self.stride
        tags = self.tags
        size = self.sizes[set_index]
        limit = base + size
        tags[limit] = tag
        pos = tags.index(tag, base)
        tags[limit] = EMPTY
        if pos == limit:
            return False
        frames = self.frames
        last = limit - 1
        tags[pos:last] = tags[pos + 1:limit]
        frames[pos:last] = frames[pos + 1:limit]
        tags[last] = EMPTY
        self.sizes[set_index] = size - 1
        return True

    def flush(self) -> None:
        total = self.num_sets * self.stride
        self.tags[:] = [EMPTY] * total
        self.frames[:] = [0] * total
        self.sizes[:] = [0] * self.num_sets

    @property
    def occupancy(self) -> int:
        return sum(self.sizes)
