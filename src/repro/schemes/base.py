"""The pluggable translation-scheme interface and its hashable spec.

A *translation scheme* is everything a design adds to the baseline
radix-walk pipeline of the simulators: what happens on a TLB miss before
the walk starts, what races the walk, what the walk's latency turns
into, and what happens when a translation is evicted.  The source
paper's ASAP prefetcher is one scheme; the related-work designs modelled
in this package (Victima, Revelator) are others, and each new scheme is
one small module.

Two objects per scheme:

* :class:`SchemeSpec` — a frozen, hashable description that slots into
  :class:`~repro.runtime.job.Job` specs (cache identity, CLI names);
* :class:`TranslationScheme` — the per-simulation runtime object, built
  from a spec by :func:`repro.schemes.build_scheme` and bound to one
  simulator instance.

Hook protocol (hot-path contract)
---------------------------------
The simulators bind each hook **once per run** via the ``*_hook()``
accessors, which return either a callable or ``None``.  A scheme that
does not participate in a stage returns ``None`` and the simulator's
per-record cost for that stage is a single ``is not None`` test — this
is what keeps :class:`~repro.schemes.baseline.BaselineRadix` at ~zero
overhead over a scheme-less loop (measured by ``tools/bench.py``).

* ``probe_hook() -> (va, vpn, now) -> (frame | None, cycles)`` —
  consulted on a TLB miss *before* the page walk.  Returning a frame
  short-circuits the walk entirely (Victima's cache-parked TLB entries);
  returning ``(None, cycles)`` charges the failed probe and the walk
  starts ``cycles`` later.
* ``walk_start_hook() -> (va, now) -> {pt_level: completion}`` — called
  when a walk begins; the returned completion times feed the walker's
  overlap rule (ASAP's prefetches race the walk).
* ``walk_end_hook() -> (va, vpn, now, translation) -> cycles`` —
  called when a walk finishes, before its translation is filled, with
  the record's start cycle and the walk's priced latency (plus any
  failed probe's cycles); returns the translation latency the core
  actually stalls for (Revelator's speculation hides or penalises it).

Eviction-driven schemes attach to ``TlbHierarchy.l2_evict_hook`` at
bind time instead (Victima parks L2 S-TLB victims).

Binding and stats: ``bind_native(sim)`` / ``bind_virtualized(sim)`` wire
the scheme to one simulator (build prefetchers, attach eviction hooks);
``scheme_stats()`` returns the scheme's own counters and ``finalize``
publishes them into :attr:`~repro.sim.stats.SimStats.scheme_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim imports us)
    from repro.core.config import AsapConfig
    from repro.sim.stats import SimStats

#: Scheme kinds understood by :func:`repro.schemes.build_scheme`.
SCHEME_KINDS = ("baseline", "asap", "victima", "revelator")

#: probe hook: (va, vpn, now) -> (frame or None, cycles consumed).
ProbeHook = Callable[[int, int, int], "tuple[int | None, int]"]
#: walk-start hook: (va, now) -> {pt_level: absolute completion time}.
WalkStartHook = Callable[[int, int], "dict[int, int]"]
#: walk-end hook: (va, vpn, now, translation) -> translation.
WalkEndHook = Callable[[int, int, int, int], int]


@dataclass(frozen=True)
class SchemeSpec:
    """Hashable identity of one translation scheme (a Job field).

    ``params`` holds the scheme's knobs as a sorted tuple of
    ``(name, value)`` pairs so the spec stays hashable and canonically
    JSON-serialisable whatever a future scheme needs.  The ASAP ladder's
    knobs live in :class:`~repro.core.config.AsapConfig` (carried
    separately by the Job), so ``kind="asap"`` has no params here.
    """

    kind: str = "baseline"
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}; "
                             f"one of {SCHEME_KINDS}")
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    # ------------------------------------------------------------------
    @classmethod
    def for_config(cls, config: "AsapConfig") -> "SchemeSpec":
        """The spec implied by an :class:`AsapConfig` alone — what every
        pre-scheme call site meant: ASAP when enabled, else baseline."""
        return cls(kind="asap") if config.enabled else cls(kind="baseline")

    @classmethod
    def victima(cls, parked_entries: int = 4096) -> "SchemeSpec":
        """Victima-like: L2-TLB victims parked in the L2 data cache.

        ``parked_entries`` bounds the tracked victim set (the cache's own
        capacity and replacement decide which parked entries survive).
        """
        return cls(kind="victima",
                   params=(("parked_entries", parked_entries),))

    @classmethod
    def revelator(cls, coverage: float = 0.85, spec_latency: int = 6,
                  penalty: int = 24) -> "SchemeSpec":
        """Revelator-like: hash-based speculative PA + verification walk.

        ``coverage`` is the fraction of pages the system software could
        place at their hash-predicted frame; ``spec_latency`` the hash +
        speculative-issue cost on a correct speculation; ``penalty`` the
        squash cost added to the verification walk on a wrong one.
        """
        if not 0.0 <= coverage <= 1.0:
            raise ValueError("coverage must be within [0, 1]")
        return cls(kind="revelator",
                   params=(("coverage", coverage),
                           ("penalty", penalty),
                           ("spec_latency", spec_latency)))

    # ------------------------------------------------------------------
    def param(self, name: str, default: float) -> float:
        for key, value in self.params:
            if key == name:
                return value
        return default

    @property
    def is_default_pipeline(self) -> bool:
        """True for the two kinds expressible before this subsystem
        existed (baseline/ASAP) — used for Job back-compat labelling."""
        return self.kind in ("baseline", "asap")

    def payload(self) -> dict:
        """Canonical JSON-serialisable form (cache identity)."""
        return {"kind": self.kind,
                "params": [[key, value] for key, value in self.params]}

    def label(self) -> str:
        if not self.params:
            return self.kind
        knobs = ",".join(f"{key}={value:g}" for key, value in self.params)
        return f"{self.kind}({knobs})"

    def __str__(self) -> str:
        return self.kind


#: The no-op spec (plain radix walks) — the paper's baseline.
BASELINE_SCHEME = SchemeSpec(kind="baseline")
#: ASAP spec; the ladder config rides on ``Job.config`` as before.
ASAP_SCHEME = SchemeSpec(kind="asap")


class TranslationScheme:
    """Base class: the no-op scheme every hook accessor opts out of.

    Subclasses override ``bind_native`` / ``bind_virtualized`` to wire
    themselves to one simulator and the ``*_hook`` accessors to return
    bound callables for the stages they participate in.  Instances are
    single-use: build one per simulation via
    :func:`repro.schemes.build_scheme`.
    """

    #: Display name used by experiment tables and progress labels.
    name: str = "BaselineRadix"

    def __init__(self, spec: SchemeSpec) -> None:
        self.spec = spec
        #: Host-dimension prefetcher handed to the nested walker
        #: (virtualized runs only; ASAP's 2D configs set it).
        self.host_prefetcher = None

    # -- lifecycle ------------------------------------------------------
    def bind_native(self, sim) -> None:
        """Attach to a :class:`~repro.sim.simulator.NativeSimulation`."""

    def bind_virtualized(self, sim) -> None:
        """Attach to a :class:`~repro.sim.virt.VirtualizedSimulation`."""

    # -- hot-path hook accessors (bound once per run) -------------------
    def probe_hook(self) -> ProbeHook | None:
        return None

    def walk_start_hook(self) -> WalkStartHook | None:
        return None

    def walk_end_hook(self) -> WalkEndHook | None:
        return None

    # -- translation-state lifecycle ------------------------------------
    def on_translation_flush(self) -> None:
        """A full translation-state flush is happening: drop any
        *translation-bearing* state this scheme caches outside the
        TLB/PWC structures (Victima's cache-parked entries).  State that
        is OS-owned configuration rather than cached translations —
        ASAP's range registers, Revelator's placement lottery — survives,
        exactly as it would survive a CR3 write.  Counters are kept.
        """

    # -- accounting -----------------------------------------------------
    def scheme_stats(self) -> dict[str, int]:
        """Per-scheme counters, published into ``SimStats.scheme_stats``."""
        return {}

    def finalize(self, stats: "SimStats") -> None:
        """Fold this scheme's counters into the run's statistics."""
        extra = self.scheme_stats()
        if extra:
            stats.scheme_stats.update(extra)
