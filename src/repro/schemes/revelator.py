"""Revelator-like scheme: hash-based speculative address translation.

Models the core idea of *Revelator: Rapid Data Fetching via
System-Software-Guided Hash-based Speculative Address Translation*
(PAPERS.md): system software places pages so that their physical frame
is computable from a hash of the virtual page number; on a TLB miss the
core *speculatively* issues the data access at the hash-predicted
physical address while the normal radix walk runs purely to verify.

Model mapping:

* ``coverage`` — the fraction of pages the OS could place at their
  hash-predicted frame (placement fails when the buddy allocator cannot
  honour the hint).  Whether a given page is hash-placed is a
  deterministic per-VPN lottery (crc32, process-independent) so the
  same job always speculates on the same pages;
* correct speculation hides the walk behind the speculative data fetch:
  the core stalls only for ``spec_latency`` (hash + issue), while the
  verification walk still runs through the shared hierarchy at full
  price — its cache contention is real, only its latency leaves the
  critical path;
* wrong speculation fetches a bogus line into the caches (wrong-path
  pollution, modelled as a real hierarchy access) and adds ``penalty``
  squash cycles on top of the full walk.

The verification walk always completes and its result is what fills the
TLB, mirroring Revelator's (and ASAP §3.1's) security posture: no
translation is consumed that the walk did not produce.

:meth:`RevelatorLike._walk_end` is the oracle of a compiled replay: the
columnar kernel (`repro.sim.columnar`, mode ``"revelator"``) runs the
same lottery, wrong-path access and latency arithmetic in C after each
walk, and the differential suite pins the two byte for byte.  A change
here needs the same change in the kernel's ``revelator_walk_end``.
"""

from __future__ import annotations

import zlib

from repro.schemes.base import SchemeSpec, TranslationScheme, WalkEndHook

#: Salt for the wrong-frame generator so mispredicted lines do not
#: collide with the hash-placement lottery stream.
_WRONG_SALT = 0x5EED


def _hash_placed(vpn: int, coverage_pct: int) -> bool:
    """Deterministic, process-independent placement lottery."""
    return zlib.crc32(vpn.to_bytes(8, "little")) % 10_000 < coverage_pct


class RevelatorLike(TranslationScheme):
    """Speculative PA generation with a verification walk."""

    name = "RevelatorLike"

    def __init__(self, spec: SchemeSpec) -> None:
        super().__init__(spec)
        self.coverage_pct = int(round(spec.param("coverage", 0.85) * 10_000))
        self.spec_latency = int(spec.param("spec_latency", 6))
        self.penalty = int(spec.param("penalty", 24))
        self._hierarchy = None
        self.stats = {"speculations": 0, "correct": 0, "mispredicts": 0}

    # ------------------------------------------------------------------
    def _bind(self, sim) -> None:
        self._hierarchy = sim.hierarchy

    bind_native = _bind
    bind_virtualized = _bind

    # ------------------------------------------------------------------
    def _walk_end(self, va: int, vpn: int, now: int,
                  translation: int) -> int:
        """The walk-end hook: what the core stalls for after a walk of
        ``translation`` cycles that started at ``now``.

        A misprediction's wrong-path access is timed at ``now +
        spec_latency``, inside the walk, but issued here, after the
        verification walk's own accesses.  Each of those timed later
        has already retired every MSHR fill that completes before it,
        so the wrong-path access never merges with a fill that completes
        between ``now + spec_latency`` and the walk's last access.  No
        roster number depends on it: a Revelator run issues no
        prefetches, and only prefetches hold MSHRs.  The compiled replay
        issues the access at the same point.
        """
        self.stats["speculations"] += 1
        if _hash_placed(vpn, self.coverage_pct):
            # The speculative fetch at the predicted (correct) PA ran
            # concurrently with the verification walk; the core stalls
            # only for the speculation engine itself.
            self.stats["correct"] += 1
            return min(self.spec_latency, translation)
        # Wrong prediction: the speculative fetch touched a bogus line
        # (cache pollution) and the squash serialises after the walk.
        self.stats["mispredicts"] += 1
        wrong_frame = zlib.crc32(
            (vpn ^ _WRONG_SALT).to_bytes(8, "little"))
        wrong_line = ((wrong_frame << 12) | (va & 0xFFF)) >> 6
        self._hierarchy.access_line(wrong_line, now + self.spec_latency)
        return translation + self.penalty

    def walk_end_hook(self) -> WalkEndHook:
        return self._walk_end

    def scheme_stats(self) -> dict[str, int]:
        return dict(self.stats)
