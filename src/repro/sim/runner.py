"""One-call experiment runner: workload + scenario -> statistics.

This is the layer the experiment modules and benchmarks build on.  It
assembles the OS substrate (process or VM), the machine model and the ASAP
configuration for each scenario of the paper:

* native / virtualized,
* isolated / SMT-colocated (synthetic co-runner),
* baseline / any ASAP ladder config,
* plain / clustered L2 TLB, infinite TLB (Table 6), scaled PWCs,
* 4KB / 2MB host pages (Figure 12), 4- / 5-level page tables (§3.5).

Traces are cached per (workload, length, seed) so ladder comparisons see
identical address streams.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.config import AsapConfig, BASELINE
from repro.kernelsim.buddy import BuddyAllocator
from repro.kernelsim.hypervisor import VirtualMachine
from repro.kernelsim.phys import PhysicalMemory
from repro.obs.events import active as obs_active
from repro.params import DEFAULT_MACHINE, MachineParams
from repro.schemes import SchemeSpec
from repro.sim.simulator import NativeSimulation
from repro.sim.stats import SimStats
from repro.sim.virt import VirtualizedSimulation
from repro.traces.source import GeneratedSource, TraceSource
from repro.traces.stream import GEN_CHUNK_RECORDS
from repro.workloads.base import WorkloadSpec
from repro.workloads.corunner import Corunner
from repro.workloads.suite import get as get_workload

GB = 1 << 30


@dataclass(frozen=True)
class Scale:
    """How much trace to simulate.

    The default is sized for interactive experimentation; EXPERIMENTS.md
    runs use a larger scale.  ``warmup`` records warm the TLBs/caches/PWCs
    before measurement starts (steady-state methodology, §4).

    Degenerate geometries are rejected up front: a zero-length trace
    would silently produce all-zero statistics, and ``warmup >=
    trace_length`` would leave the measured window empty — every
    fraction/ratio then reads 0.0 and looks like a (nonsense) result.

    ``replicate`` is the statistics layer's replication axis
    (docs/ARCHITECTURE.md §15): replicate ``r`` of a scale is the same
    geometry with a seed derived deterministically from ``(seed, r)``
    via :meth:`with_replicate`.  The field itself is provenance only —
    the derived ``seed`` fully determines the simulation, so everything
    downstream (trace generation, buddy allocator, co-runner, cache
    identity) composes unchanged, and replicate 0 *is* the base scale:
    same seed, same spec hash, same cached result.
    """

    trace_length: int = 60_000
    warmup: int = 10_000
    seed: int = 42
    replicate: int = 0

    def __post_init__(self) -> None:
        if self.trace_length < 1:
            raise ValueError(
                f"trace_length must be >= 1, got {self.trace_length}")
        if self.warmup < 0:
            raise ValueError(f"warmup cannot be negative ({self.warmup})")
        if self.warmup >= self.trace_length:
            raise ValueError(
                f"warmup ({self.warmup}) must be smaller than the trace "
                f"length ({self.trace_length}); nothing would be measured")
        if self.replicate < 0:
            raise ValueError(
                f"replicate cannot be negative ({self.replicate})")

    def with_replicate(self, replicate: int) -> "Scale":
        """Replicate ``replicate`` of this base scale.

        Replicate 0 returns ``self`` unchanged — identical seed, spec
        hash and cached results — so adding replication to an
        experiment never invalidates its existing cells.  Higher
        indices perturb only the seed, derived content-deterministically
        from ``(seed, replicate)`` so every process and machine agrees.
        """
        if replicate < 0:
            raise ValueError(f"replicate cannot be negative ({replicate})")
        if self.replicate != 0:
            raise ValueError(
                f"derive replicates from the base (replicate-0) scale, "
                f"not from replicate {self.replicate}")
        if replicate == 0:
            return self
        from repro.stats.rng import seed_from

        derived = seed_from("scale-replicate", self.seed,
                            replicate) % (1 << 31)
        return dataclasses.replace(self, seed=derived,
                                   replicate=replicate)

    def smaller(self, factor: int) -> "Scale":
        return Scale(
            trace_length=max(1000, self.trace_length // factor),
            warmup=max(200, self.warmup // factor),
            seed=self.seed,
            replicate=self.replicate,
        )


_TRACE_CACHE: dict[tuple[str, int, int], np.ndarray] = {}

#: Traces longer than this stream through the simulators as generated
#: chunks (`repro.traces`) instead of materialising one ndarray; at the
#: generation-chunk size the streamed content is identical to the
#: monolithic ``generate_trace`` output for everything at or below the
#: threshold, so every historical scale keeps its exact addresses.
STREAM_RECORDS = GEN_CHUNK_RECORDS

#: Execution-chunk size for streamed traces; ``None`` consumes whole
#: generation chunks.  The golden-parity suite lowers both knobs to
#: drive every scenario through the streaming path at test scales.
STREAM_CHUNK_RECORDS: int | None = None


def make_trace(spec: WorkloadSpec, scale: Scale):
    """The trace for ``(spec, scale)``: one cached ndarray at
    interactive scales, a chunk-streaming ``GeneratedSource`` beyond
    :data:`STREAM_RECORDS` (memory stays bounded by the chunk size).

    Inside a sweep worker the share overlay (``repro.traces.share``)
    may hold this axis as a materialised payload; replaying its mmap is
    byte-identical to regenerating (same canonical chunk stream) and
    lets every worker share one on-disk copy."""
    if scale.trace_length > STREAM_RECORDS:
        from repro.traces import share

        shared = share.lookup(spec.name, scale.trace_length, scale.seed)
        if shared is not None:
            return shared
        return GeneratedSource(spec, scale.trace_length, scale.seed,
                               chunk_records=STREAM_CHUNK_RECORDS)
    key = (spec.name, scale.trace_length, scale.seed)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = spec.generate_trace(scale.trace_length, seed=scale.seed)
        _TRACE_CACHE[key] = trace
    return trace


def _resolve(workload: WorkloadSpec | str) -> WorkloadSpec:
    if isinstance(workload, str):
        return get_workload(workload)
    return workload


#: Co-runner interference groups per application access.  Simulated traces
#: compress reuse distances by orders of magnitude versus the paper's
#: billions-of-accesses runs; the co-runner's eviction rate is compressed
#: by the same factor so cache-residency transitions stay in place
#: (calibration documented in EXPERIMENTS.md).
CORUNNER_INTENSITY = 8


def _corunner(scale: Scale) -> Corunner:
    return Corunner(seed=scale.seed + 99, intensity=CORUNNER_INTENSITY)


def _trace_for(spec: WorkloadSpec, scale: Scale,
               trace_source: TraceSource | None):
    """The trace a scenario replays: the explicit source if given
    (geometry-checked), else the generated one."""
    if trace_source is None:
        return make_trace(spec, scale)
    if trace_source.records != scale.trace_length:
        raise ValueError(
            f"trace source holds {trace_source.records} records but the "
            f"scale asks for {scale.trace_length}")
    return trace_source


def _setup_span(mode: str, spec: WorkloadSpec):
    """A ``setup`` span around OS-substrate + simulator construction
    when observation is on; a no-op context otherwise."""
    recorder = obs_active()
    if recorder is None:
        return nullcontext()
    return recorder.span("setup", "sim", mode=mode, workload=spec.name)


# ----------------------------------------------------------------------
# native scenarios
# ----------------------------------------------------------------------
def run_native(
    workload: WorkloadSpec | str,
    config: AsapConfig = BASELINE,
    colocated: bool = False,
    clustered_tlb: bool = False,
    infinite_tlb: bool = False,
    machine: MachineParams = DEFAULT_MACHINE,
    scale: Scale = Scale(),
    pt_levels: int = 4,
    collect_service: bool = True,
    hole_rate: float = 0.0,
    scheme: SchemeSpec | None = None,
    trace_source: TraceSource | None = None,
    kernel: str = "scalar",
) -> SimStats:
    """Run one native scenario and return its statistics.

    ``hole_rate`` injects PT-region holes (§3.7.2): each pinned node
    placement fails with this probability, so the affected walks lose
    acceleration but stay correct.  It must be set before population, so
    it is a runner knob rather than a post-hoc mutation.

    ``trace_source`` replays an explicit trace (e.g. a materialised
    ``repro trace`` file) instead of generating one from the spec; its
    record count must match ``scale.trace_length``.

    ``kernel`` selects the simulator's record-loop engine (see
    :class:`~repro.sim.simulator.NativeSimulation`).
    """
    spec = _resolve(workload)
    trace = _trace_for(spec, scale, trace_source)
    with _setup_span("native", spec):
        process = spec.build_process(
            asap_levels=config.native_levels,
            seed=scale.seed,
            pt_levels=pt_levels,
        )
        if hole_rate:
            if process.asap_layout is None:
                raise ValueError("hole_rate needs an ASAP-enabled config")
            process.asap_layout.pinned_failure_prob = hole_rate
        simulation = NativeSimulation(
            process,
            machine=machine,
            asap=config,
            clustered_tlb=clustered_tlb,
            infinite_tlb=infinite_tlb,
            corunner=_corunner(scale) if colocated else None,
            scheme=scheme,
            kernel=kernel,
        )
    return simulation.run(trace, warmup=scale.warmup,
                          collect_service=collect_service,
                          init_order=spec.init_order)


# ----------------------------------------------------------------------
# virtualized scenarios
# ----------------------------------------------------------------------
def guest_mem_bytes(spec: WorkloadSpec) -> int:
    """Table 4: 128GB guests (bigger for datasets that would not fit)."""
    return max(128 * GB, -(-int(spec.footprint_bytes * 1.3) // GB) * GB)


def build_vm(
    spec: WorkloadSpec,
    config: AsapConfig,
    scale: Scale,
    host_page_level: int = 1,
    seed: int | None = None,
    host_buddy=None,
) -> VirtualMachine:
    """Build one guest VM.

    ``seed`` overrides ``scale.seed`` for the guest-side randomness
    (per-tenant seeds in multi-tenant runs) and ``host_buddy`` supplies a
    shared host allocator (several VMs consolidated onto one physical
    machine); both default to the historical single-VM behaviour.
    """
    seed = scale.seed if seed is None else seed
    guest_mem = guest_mem_bytes(spec)
    guest_buddy = BuddyAllocator(PhysicalMemory(guest_mem), seed=seed)
    guest = spec.build_process(
        asap_levels=config.guest_levels,
        seed=seed,
        buddy=guest_buddy,
    )
    return VirtualMachine(
        guest,
        guest_mem_bytes=guest_mem,
        host_buddy=host_buddy,
        host_page_level=host_page_level,
        host_asap_levels=config.host_levels,
        back_guest_pt_contiguously=bool(config.guest_levels),
        seed=seed,
    )


def run_virtualized(
    workload: WorkloadSpec | str,
    config: AsapConfig = BASELINE,
    colocated: bool = False,
    host_page_level: int = 1,
    infinite_tlb: bool = False,
    machine: MachineParams = DEFAULT_MACHINE,
    scale: Scale = Scale(),
    collect_service: bool = True,
    scheme: SchemeSpec | None = None,
    trace_source: TraceSource | None = None,
    kernel: str = "scalar",
) -> SimStats:
    """Run one virtualized scenario and return its statistics.

    ``trace_source`` replays an explicit trace, as in
    :func:`run_native`; ``kernel`` is accepted for interface parity (the
    2D walk always runs the scalar engine — see
    :class:`~repro.sim.virt.VirtualizedSimulation`).
    """
    spec = _resolve(workload)
    trace = _trace_for(spec, scale, trace_source)
    with _setup_span("virtualized", spec):
        vm = build_vm(spec, config, scale, host_page_level=host_page_level)
        simulation = VirtualizedSimulation(
            vm,
            machine=machine,
            asap=config,
            infinite_tlb=infinite_tlb,
            corunner=_corunner(scale) if colocated else None,
            scheme=scheme,
            kernel=kernel,
        )
    return simulation.run(trace, warmup=scale.warmup,
                          collect_service=collect_service,
                          init_order=spec.init_order)
