"""Declarative job specifications: one frozen dataclass per simulation.

A :class:`Job` captures *everything* that determines the outcome of one
experiment cell — the scenario kind, workload, ASAP configuration,
translation scheme, trace scale and every machine/OS knob the
experiment modules exercise.  Because
the spec is a frozen dataclass of hashable values it serves three roles at
once:

* **grid element** — experiment modules emit lists of jobs instead of
  calling the simulator directly, which is what lets the engine dedupe
  identical cells across experiments and fan them out over processes;
* **cache key** — :meth:`Job.spec_hash` is a stable content hash of the
  spec, combined with the code version by :mod:`repro.runtime.cache`;
* **unit of determinism** — executing a job is a pure function of the
  spec: every random stream (trace, buddy allocator, co-runner) is seeded
  from ``scale.seed``, so the same job yields the same statistics whether
  it runs inline, in a worker process, or on another machine.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.config import AsapConfig, BASELINE
from repro.params import DEFAULT_MACHINE
from repro.schemes import SchemeSpec
from repro.sim.columnar import KERNELS
from repro.sim.multitenant import MultiTenantSpec
from repro.sim.runner import Scale, run_native, run_virtualized
from repro.traces.store import TraceRef

#: Bump when the payload layout or the meaning of a field changes; old
#: cache entries then miss instead of being misinterpreted.
#: 3: multi_tenant joined the spec (ASID-tagged multi-process scenarios).
#: 4: trace references joined the spec (on-disk traces, identified by
#:    content digest) and streamed generation opened trace lengths past
#:    one generation chunk.
#: 5: the simulation kernel joined the spec.
#: 6: the kernel left it again: both kernels produce byte-identical
#:    statistics (the differential suite), so it is provenance, like
#:    the replicate index, and one scenario is one cache entry.
SPEC_VERSION = 6

#: Scenario kinds understood by :func:`execute_job`.
NATIVE = "native"
VIRTUALIZED = "virtualized"
PT_INVENTORY = "pt-inventory"

KINDS = (NATIVE, VIRTUALIZED, PT_INVENTORY)


@dataclass(frozen=True)
class Job:
    """One cell of an experiment grid, fully specified and hashable.

    ``kind`` selects the scenario: :data:`NATIVE` and :data:`VIRTUALIZED`
    run the trace-driven simulators and return
    :class:`~repro.sim.stats.SimStats`; :data:`PT_INVENTORY` builds the
    process, populates its full page table and returns the Table 2
    inventory dict (no trace is simulated).
    """

    kind: str
    workload: str
    config: AsapConfig = BASELINE
    scale: Scale = Scale()
    colocated: bool = False
    clustered_tlb: bool = False
    infinite_tlb: bool = False
    host_page_level: int = 1
    pt_levels: int = 4
    pwc_scale: int = 1
    hole_rate: float = 0.0
    collect_service: bool = False
    #: Translation scheme driving the simulators' miss path.  ``None``
    #: (the default) derives it from ``config`` — ASAP when any ladder
    #: level is enabled, plain baseline otherwise — so every pre-scheme
    #: call site keeps its meaning and its cache identity rules.
    scheme: SchemeSpec | None = None
    #: Multi-tenant scenario (`repro.sim.multitenant`): process count,
    #: scheduler quantum and context-switch policy.  ``None`` — the
    #: default — is the single-tenant path; with it set, ``workload``
    #: may also name an ``MT_MIXES`` mix.
    multi_tenant: MultiTenantSpec | None = None
    #: Materialised on-disk trace to replay (`repro.traces`) instead of
    #: generating the addresses from the workload spec.  Cache identity
    #: is the trace's *content digest* plus record count — never the
    #: path — so results stay sound wherever the file lives, and a
    #: rewritten payload can never serve a stale cached result
    #: (``execute_job`` re-checks the digest at open time).
    trace: TraceRef | None = None
    #: Simulation kernel of native and virtualized runs
    #: (`repro.sim.columnar`): the compiled chunk kernel wherever its
    #: preconditions hold, or "scalar" to force the per-record oracle
    #: loop.  Not identity: both are byte-identical (the differential
    #: suite enforces it), so it is left out of equality, the hash, the
    #: payload and the label.
    kernel: str = field(default="columnar", compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; "
                             f"one of {KINDS}")
        self._validate_workload()
        if self.scheme is None:
            object.__setattr__(self, "scheme",
                               SchemeSpec.for_config(self.config))
        # One spec, one scenario: the ASAP ladder must ride the "asap"
        # scheme and only that scheme, otherwise two distinct-looking
        # specs (e.g. baseline-kind vs asap-kind-with-empty-ladder)
        # would execute identically but cache separately.
        if self.scheme.kind == "asap" and not self.config.enabled:
            raise ValueError(
                "the asap scheme needs an enabled AsapConfig; use the "
                "baseline scheme for empty ladders")
        if self.scheme.kind != "asap" and self.config.enabled:
            raise ValueError(
                f"scheme {self.scheme.kind!r} does not take an ASAP "
                f"config ({self.config.name!r})")
        if self.scheme.kind in ("victima", "revelator") and (
                self.infinite_tlb or self.clustered_tlb):
            raise ValueError(
                f"{self.scheme.kind} does not compose with "
                "infinite/clustered TLBs")
        # Knobs are part of the spec's cache identity, so a knob the
        # executor would ignore must be rejected, not silently dropped —
        # otherwise two distinct-looking specs yield the same scenario.
        if self.kind != NATIVE and (self.clustered_tlb or self.hole_rate
                                    or self.pt_levels != 4):
            raise ValueError(
                f"clustered_tlb/pt_levels/hole_rate apply to {NATIVE} "
                f"jobs only, not {self.kind}")
        if self.hole_rate and not self.config.native_levels:
            raise ValueError(
                "hole_rate needs an ASAP-enabled native config (holes are "
                "injected into the ASAP PT layout)")
        if self.kind != VIRTUALIZED and self.host_page_level != 1:
            raise ValueError(
                f"host_page_level applies to {VIRTUALIZED} jobs only")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown simulation kernel {self.kernel!r}; "
                             f"one of {KERNELS}")
        if self.kind == PT_INVENTORY and (
                self.colocated or self.infinite_tlb or self.collect_service
                or self.pwc_scale != 1 or self.config.enabled
                or self.scheme.kind != "baseline"):
            raise ValueError(
                f"{PT_INVENTORY} jobs use only workload and scale")
        if self.multi_tenant is not None:
            mt = self.multi_tenant
            if self.kind not in (NATIVE, VIRTUALIZED):
                raise ValueError(
                    f"multi_tenant applies to {NATIVE}/{VIRTUALIZED} jobs "
                    f"only, not {self.kind}")
            if mt.tenants == 1 and mt.quantum == 0:
                # One tenant, no switching executes identically to the
                # plain path; two distinct-looking specs must not cache
                # separately (the sim-level identity itself is pinned by
                # tests/test_multitenant.py).
                raise ValueError(
                    "multi_tenant with one tenant and no switching is the "
                    "single-tenant scenario; use multi_tenant=None")
            if (self.colocated or self.clustered_tlb or self.infinite_tlb
                    or self.hole_rate or self.pt_levels != 4):
                raise ValueError(
                    "multi_tenant does not compose with colocated/"
                    "clustered/infinite TLBs, hole_rate or non-4-level "
                    "page tables")
        if self.trace is not None:
            if self.kind not in (NATIVE, VIRTUALIZED):
                raise ValueError(
                    f"trace references apply to {NATIVE}/{VIRTUALIZED} "
                    f"jobs only, not {self.kind}")
            if self.multi_tenant is not None:
                raise ValueError(
                    "trace references do not compose with multi_tenant "
                    "(each tenant generates its own per-seed trace)")
            if self.trace.records != self.scale.trace_length:
                raise ValueError(
                    f"trace holds {self.trace.records} records but the "
                    f"scale asks for {self.scale.trace_length}")
            if self.trace.workload != self.workload:
                raise ValueError(
                    f"trace was materialised from {self.trace.workload!r} "
                    f"but the job runs {self.workload!r}; the replayed "
                    f"addresses must match the process's VMA layout")

    def _validate_workload(self) -> None:
        """Reject unknown workload names at spec time with the full
        choice list, not as a KeyError from deep inside a worker."""
        from repro.workloads.suite import MT_MIXES, WORKLOADS

        known = set(WORKLOADS)
        if self.multi_tenant is not None:
            known |= set(MT_MIXES)
            extra = " or multi-tenant mix"
        else:
            extra = ""
        if self.workload not in known:
            raise ValueError(
                f"unknown workload{extra} {self.workload!r}; "
                f"one of {sorted(known)}")

    # ------------------------------------------------------------------
    def payload(self) -> dict[str, Any]:
        """Canonical JSON-serialisable form of the spec (cache identity)."""
        return {
            "spec_version": SPEC_VERSION,
            "kind": self.kind,
            "workload": self.workload,
            "config": {
                "name": self.config.name,
                "native": list(self.config.native_levels),
                "guest": list(self.config.guest_levels),
                "host": list(self.config.host_levels),
            },
            "scheme": self.scheme.payload(),
            # The scale's replicate index is deliberately absent: it is
            # provenance, not identity.  A replicated scale's *derived
            # seed* is what changes the simulation, and it is right
            # here — so replicate 0 hashes identically to every
            # pre-replication spec and its cached results stay valid.
            "scale": [self.scale.trace_length, self.scale.warmup,
                      self.scale.seed],
            "colocated": self.colocated,
            "clustered_tlb": self.clustered_tlb,
            "infinite_tlb": self.infinite_tlb,
            "host_page_level": self.host_page_level,
            "pt_levels": self.pt_levels,
            "pwc_scale": self.pwc_scale,
            "hole_rate": self.hole_rate,
            "collect_service": self.collect_service,
            "multi_tenant": (None if self.multi_tenant is None
                             else self.multi_tenant.payload()),
            "trace": (None if self.trace is None
                      else {"digest": self.trace.digest,
                            "records": self.trace.records}),
        }

    def spec_hash(self) -> str:
        """Stable content hash of the spec, independent of the process."""
        canonical = json.dumps(self.payload(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def label(self) -> str:
        """Short human-readable identity for progress lines."""
        parts = [self.kind, self.workload,
                 self.config.name if self.scheme.is_default_pipeline
                 else self.scheme.label()]
        for flag, text in (
            (self.colocated, "coloc"),
            (self.clustered_tlb, "ctlb"),
            (self.infinite_tlb, "inf-tlb"),
            (self.host_page_level != 1, "2MB-host"),
            (self.pt_levels != 4, f"{self.pt_levels}L"),
            (self.pwc_scale != 1, f"pwc-x{self.pwc_scale}"),
            (self.hole_rate != 0.0, f"holes={self.hole_rate:g}"),
            (self.multi_tenant is not None,
             self.multi_tenant.label() if self.multi_tenant else ""),
            (self.trace is not None,
             f"trace={self.trace.digest[:8]}" if self.trace else ""),
            (self.scale.replicate != 0, f"rep{self.scale.replicate}"),
        ):
            if flag:
                parts.append(text)
        return " ".join(parts)


# ----------------------------------------------------------------------
def _pt_inventory(job: Job) -> dict[str, int]:
    """Table 2 measurement: build the process, populate the full PT."""
    import numpy as np

    from repro.pagetable import constants as c
    from repro.workloads.suite import get as get_workload

    spec = get_workload(job.workload)
    process = spec.build_process(seed=job.scale.seed)
    # One page per 2MB of each VMA (one per PL1 node) builds the full PT.
    process.populate(np.concatenate([
        np.arange(vma.start, vma.end, c.LARGE_PAGE_SIZE, dtype=np.int64)
        for vma in process.vmas]) >> c.PAGE_SHIFT)
    return {
        "total_vmas": len(process.vmas),
        "vmas_for_99pct": process.vmas.count_for_coverage(0.99),
        "contig_phys_regions": process.pt_contiguous_regions(),
        "pt_page_count": process.pt_page_count(),
    }


def _open_trace_source(ref: TraceRef):
    """Memory-map a referenced trace, re-checking its identity.

    The header digest must equal the reference's: a payload rewritten
    since the reference was taken would otherwise run (and cache) under
    the old content hash.
    """
    from repro.traces.source import ArraySource
    from repro.traces.store import open_trace

    header, payload = open_trace(ref.path)
    if header["sha256"] != ref.digest:
        raise ValueError(
            f"trace {ref.path} content changed since it was referenced "
            f"(header digest {header['sha256'][:12]}..., job expects "
            f"{ref.digest[:12]}...)")
    return ArraySource(payload)


def execute_job(job: Job) -> Any:
    """Run one job to completion — a pure function of the spec."""
    if job.kind == PT_INVENTORY:
        return _pt_inventory(job)
    machine = DEFAULT_MACHINE
    if job.pwc_scale != 1:
        machine = machine.with_pwc_scale(job.pwc_scale)
    trace_source = (None if job.trace is None
                    else _open_trace_source(job.trace))
    if job.multi_tenant is not None:
        from repro.sim.multitenant import run_native_mt, run_virtualized_mt

        if job.kind == NATIVE:
            return run_native_mt(
                job.workload,
                job.config,
                job.multi_tenant,
                machine=machine,
                scale=job.scale,
                collect_service=job.collect_service,
                scheme=job.scheme,
                kernel=job.kernel,
            )
        return run_virtualized_mt(
            job.workload,
            job.config,
            job.multi_tenant,
            host_page_level=job.host_page_level,
            machine=machine,
            scale=job.scale,
            collect_service=job.collect_service,
            scheme=job.scheme,
            kernel=job.kernel,
        )
    if job.kind == NATIVE:
        return run_native(
            job.workload,
            job.config,
            colocated=job.colocated,
            clustered_tlb=job.clustered_tlb,
            infinite_tlb=job.infinite_tlb,
            machine=machine,
            scale=job.scale,
            pt_levels=job.pt_levels,
            collect_service=job.collect_service,
            hole_rate=job.hole_rate,
            scheme=job.scheme,
            trace_source=trace_source,
            kernel=job.kernel,
        )
    return run_virtualized(
        job.workload,
        job.config,
        colocated=job.colocated,
        host_page_level=job.host_page_level,
        infinite_tlb=job.infinite_tlb,
        machine=machine,
        scale=job.scale,
        collect_service=job.collect_service,
        scheme=job.scheme,
        trace_source=trace_source,
        kernel=job.kernel,
    )
