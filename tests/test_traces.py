"""Streaming-trace golden parity: chunked execution is byte-identical.

The chunk-seam invariant (docs/ARCHITECTURE.md §11): simulating the same
records through *any* execution chunking — one ndarray, 4096-record
chunks, one record at a time, generated or memory-mapped — produces
byte-identical SimStats and service distributions.  This suite pins that
for all four schemes in both modes at the report scale (60k), for a
multi-tenant mix, across a chunk-size sweep on a deliberately streaky
trace, and for the on-disk format end to end (materialize → hash →
mmap-replay → Job/engine).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import config as cfg
from repro.runtime.engine import Engine
from repro.runtime.job import Job, execute_job
from repro.schemes import SchemeSpec
from repro.sim import runner as runner_mod
from repro.sim.multitenant import MultiTenantSpec, run_native_mt
from repro.sim.order import first_touch_order, streaming_first_touch_order
from repro.sim.runner import Scale, build_vm, make_trace
from repro.sim.simulator import NativeSimulation
from repro.sim.virt import VirtualizedSimulation
from repro.traces import (
    GEN_CHUNK_RECORDS,
    ArraySource,
    GeneratedSource,
    canonical_trace,
    chunk_seed,
    materialize_trace,
    open_trace,
    read_ref,
    verify_trace,
)
from repro.traces import stream as stream_mod
from repro.workloads.base import KeyValue
from repro.workloads.suite import get

REPORT_SCALE = Scale(trace_length=60_000, warmup=12_000, seed=42)

#: (scheme kind, native config, virtualized config).
SCHEME_CASES = (
    ("baseline", cfg.BASELINE, cfg.BASELINE),
    ("asap", cfg.P1_P2, cfg.FULL_2D),
    ("victima", cfg.BASELINE, cfg.BASELINE),
    ("revelator", cfg.BASELINE, cfg.BASELINE),
)


def stats_key(stats):
    """Everything a SimStats observable carries, comparable."""
    return (
        stats.accesses, stats.cycles, stats.base_cycles, stats.data_cycles,
        stats.walk_cycles, stats.walks, stats.tlb_l1_hits,
        stats.tlb_l2_hits, stats.prefetches_issued,
        stats.prefetches_useful, stats.prefetches_dropped,
        tuple(sorted(stats.scheme_stats.items())),
        tuple(sorted(
            (str(level), tuple(sorted(counts.items())))
            for level, counts in stats.service._counts.items())),
    )


def run_native_once(kind, config, trace, scale=REPORT_SCALE,
                    workload="mc80"):
    spec = get(workload)
    process = spec.build_process(asap_levels=config.native_levels,
                                 seed=scale.seed)
    sim = NativeSimulation(process, asap=config,
                           scheme=SchemeSpec(kind=kind))
    return sim.run(trace, warmup=scale.warmup, init_order=spec.init_order)


def run_virt_once(kind, config, trace, scale=REPORT_SCALE,
                  workload="mc80"):
    spec = get(workload)
    vm = build_vm(spec, config, scale)
    sim = VirtualizedSimulation(vm, asap=config,
                                scheme=SchemeSpec(kind=kind))
    return sim.run(trace, warmup=scale.warmup, init_order=spec.init_order)


# ----------------------------------------------------------------------
class TestCanonicalGeneration:

    def test_chunk_seed_identity_for_chunk_zero(self):
        assert chunk_seed(42, 0) == 42
        assert chunk_seed(42, 1) != 42
        assert chunk_seed(42, 1) != chunk_seed(42, 2)
        assert chunk_seed(42, 1) != chunk_seed(43, 1)

    def test_short_trace_identical_to_monolithic_generate(self):
        spec = get("mc80")
        monolithic = spec.generate_trace(3_000, seed=7)
        assert np.array_equal(canonical_trace(spec, 3_000, 7), monolithic)

    def test_multi_chunk_content(self, monkeypatch):
        # Shrink the generation chunk so the multi-chunk path runs at
        # test scale; content changes with it (it is content-defining),
        # but the chunk plumbing must stay consistent with itself.
        monkeypatch.setattr(stream_mod, "GEN_CHUNK_RECORDS", 256)
        spec = get("mcf")
        whole = canonical_trace(spec, 1000, 7)
        assert len(whole) == 1000
        # chunk 0 is the monolithic 256-record trace; chunk 1 differs
        # (decorrelated per-chunk seed).
        assert np.array_equal(whole[:256], spec.generate_trace(256, seed=7))
        assert not np.array_equal(whole[256:512], whole[:256])

    def test_generated_source_matches_canonical(self):
        spec = get("mcf")
        whole = canonical_trace(spec, 5_000, 7)
        for chunk_records in (None, 7, 1024):
            source = GeneratedSource(spec, 5_000, 7,
                                     chunk_records=chunk_records)
            assert np.array_equal(np.concatenate(list(source.chunks())),
                                  whole)
        section = GeneratedSource(spec, 5_000, 7).section(1_234, 4_321)
        assert np.array_equal(np.concatenate(list(section.chunks())),
                              whole[1_234:4_321])
        sub = section.section(100, 200)
        assert np.array_equal(np.concatenate(list(sub.chunks())),
                              whole[1_334:1_434])


class TestOnDiskFormat:

    def test_round_trip_hash_and_content(self, tmp_path):
        spec = get("mc80")
        ref = materialize_trace(spec, 2_500, 7, tmp_path / "t")
        header, payload = open_trace(tmp_path / "t")
        assert header["records"] == 2_500
        assert np.array_equal(payload, spec.generate_trace(2_500, seed=7))
        assert verify_trace(tmp_path / "t").digest == ref.digest
        assert read_ref(tmp_path / "t") == ref

    def test_refuses_overwrite_without_force(self, tmp_path):
        spec = get("mcf")
        materialize_trace(spec, 100, 1, tmp_path / "t")
        with pytest.raises(FileExistsError):
            materialize_trace(spec, 100, 1, tmp_path / "t")
        materialize_trace(spec, 200, 2, tmp_path / "t", force=True)
        assert read_ref(tmp_path / "t").records == 200

    def test_force_rewrite_drops_header_before_payload(self, tmp_path,
                                                       monkeypatch):
        # An interrupted --force rewrite must leave an invalid trace
        # (no header), never a stale header over new payload bytes.
        spec = get("mcf")
        materialize_trace(spec, 100, 1, tmp_path / "t")

        from repro.traces import store as store_mod

        def boom(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(np.lib.format, "open_memmap", boom)
        with pytest.raises(KeyboardInterrupt):
            materialize_trace(spec, 100, 2, tmp_path / "t", force=True)
        with pytest.raises(FileNotFoundError, match="not a trace"):
            store_mod.read_header(tmp_path / "t")

    def test_tampered_payload_fails_verification(self, tmp_path):
        spec = get("mcf")
        materialize_trace(spec, 300, 1, tmp_path / "t")
        payload = np.lib.format.open_memmap(tmp_path / "t" / "payload.npy",
                                            mode="r+")
        payload[17] += 4096
        payload.flush()
        del payload
        with pytest.raises(ValueError, match="digest mismatch"):
            verify_trace(tmp_path / "t")

    def test_missing_header_is_a_clean_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a trace"):
            read_ref(tmp_path / "nope")


# ----------------------------------------------------------------------
class TestStreamedParity60k:
    """Streamed == in-memory at the report scale, every scheme, both
    modes.  The streamed side replays the identical records through
    4096-record chunks (an awkward non-divisor of 60k, so the final
    chunk is partial and hundreds of seams land mid-trace)."""

    @pytest.mark.parametrize("kind,config,_vconfig", SCHEME_CASES)
    def test_native(self, kind, config, _vconfig):
        trace = make_trace(get("mc80"), REPORT_SCALE)
        reference = stats_key(run_native_once(kind, config, trace))
        streamed = stats_key(run_native_once(
            kind, config, ArraySource(trace.copy(), 4096)))
        assert streamed == reference

    @pytest.mark.parametrize("kind,_nconfig,config", SCHEME_CASES)
    def test_virtualized(self, kind, _nconfig, config):
        trace = make_trace(get("mc80"), REPORT_SCALE)
        reference = stats_key(run_virt_once(kind, config, trace))
        streamed = stats_key(run_virt_once(
            kind, config, ArraySource(trace.copy(), 4096)))
        assert streamed == reference


class TestMultiTenantStreamedParity:
    """The quantum scheduler over streamed per-tenant sources == the
    in-memory run, at the report scale on a consolidation mix."""

    MT = MultiTenantSpec(tenants=2, quantum=7_000, switch_policy="asid")

    def test_mix_kv_streamed(self, monkeypatch):
        reference = stats_key(run_native_mt(
            "mix-kv", mt=self.MT, scale=REPORT_SCALE,
            collect_service=True))
        # Force every tenant trace through generated streaming with an
        # execution chunk that is tiny relative to the quantum.
        monkeypatch.setattr(runner_mod, "STREAM_RECORDS", 1_000)
        monkeypatch.setattr(runner_mod, "STREAM_CHUNK_RECORDS", 911)
        streamed = stats_key(run_native_mt(
            "mix-kv", mt=self.MT, scale=REPORT_SCALE,
            collect_service=True))
        assert streamed == reference

    def test_mix_flush_policy_streamed(self, monkeypatch):
        scale = Scale(8_000, 1_500, 7)
        mt = MultiTenantSpec(tenants=2, quantum=900,
                             switch_policy="flush")
        reference = stats_key(run_native_mt("mix-kv", mt=mt, scale=scale))
        monkeypatch.setattr(runner_mod, "STREAM_RECORDS", 100)
        monkeypatch.setattr(runner_mod, "STREAM_CHUNK_RECORDS", 257)
        streamed = stats_key(run_native_mt("mix-kv", mt=mt, scale=scale))
        assert streamed == reference


class TestChunkSizeSweep:
    """Chunk sizes 1, 7 and 4096 on a deliberately streaky trace:
    same-line streaks and the warmup boundary straddle every kind of
    seam (chunk size 1 makes *every* record boundary a seam).

    Both simulators run one record-loop front end.  This class drives
    the native simulator on the default kernel; the subclasses below
    repeat every case on the scalar loop and on the virtualized
    simulator, so the scalar loop's bulk costing and seam stitching are
    pinned whether or not the compiled backend is present."""

    SIMULATOR = "native"
    KERNEL = "columnar"
    #: The virtualized run of each native config: ASAP in both
    #: dimensions, so the host prefetcher crosses the seams too.
    VIRT_CONFIGS = {"baseline": cfg.BASELINE, "asap": cfg.FULL_2D}

    @staticmethod
    def streaky_trace():
        spec = get("mcf")
        base = spec.generate_trace(1_500, seed=3)
        pieces = []
        rng = np.random.default_rng(5)
        cursor = 0
        while cursor < len(base):
            take = int(rng.integers(1, 6))
            streak = int(rng.integers(1, 40))
            pieces.append(np.repeat(base[cursor:cursor + take], streak))
            cursor += take
        return np.concatenate(pieces)[:3_000]

    def simulate(self, trace, kind="baseline", config=cfg.BASELINE,
                 corunner=False):
        """``stats_key`` of one run of ``trace`` (an ndarray or a chunked
        source of the streaky trace) on this class's simulator and
        kernel, warmup 1000."""
        from repro.sim.runner import _corunner

        spec = get("mcf")
        scale = Scale(3_000, 1_000, 3)
        extra = {"corunner": _corunner(scale)} if corunner else {}
        if self.SIMULATOR == "virt":
            config = self.VIRT_CONFIGS[kind]
            sim = VirtualizedSimulation(
                build_vm(spec, config, scale), asap=config,
                scheme=SchemeSpec(kind=kind), kernel=self.KERNEL, **extra)
        else:
            process = spec.build_process(asap_levels=config.native_levels,
                                         seed=scale.seed)
            sim = NativeSimulation(process, asap=config,
                                   scheme=SchemeSpec(kind=kind),
                                   kernel=self.KERNEL, **extra)
        return stats_key(sim.run(trace, warmup=scale.warmup,
                                 init_order=spec.init_order))

    # warmup 1000 lands mid-streak for this seed; both paths must
    # snapshot the hit counters at exactly that record.
    @pytest.mark.parametrize("chunk_records", (1, 7, 4096))
    @pytest.mark.parametrize("kind,config", (
        ("baseline", cfg.BASELINE), ("asap", cfg.P1_P2)))
    def test_streaky(self, chunk_records, kind, config):
        trace = self.streaky_trace()
        reference = self.simulate(trace, kind, config)
        streamed = self.simulate(ArraySource(trace.copy(), chunk_records),
                                 kind, config)
        assert streamed == reference

    @pytest.mark.parametrize("chunk_records", (1, 7, 4096))
    def test_streaky_with_corunner(self, chunk_records):
        # Co-runner simulations replay repeats through the scalar
        # pipeline; seams must not change that path either.
        trace = self.streaky_trace()
        reference = self.simulate(trace, corunner=True)
        streamed = self.simulate(ArraySource(trace.copy(), chunk_records),
                                 corunner=True)
        assert streamed == reference

    def test_warmup_boundary_exactly_on_seam(self):
        trace = self.streaky_trace()
        # A chunk size dividing the warmup puts the measurement start
        # exactly at a chunk boundary.
        reference = self.simulate(trace)
        streamed = self.simulate(ArraySource(trace.copy(), 500))
        assert streamed == reference


class TestChunkSizeSweepScalar(TestChunkSizeSweep):
    KERNEL = "scalar"


class TestVirtualizedChunkSizeSweep(TestChunkSizeSweep):
    SIMULATOR = "virt"


class TestVirtualizedChunkSizeSweepScalar(TestChunkSizeSweep):
    SIMULATOR = "virt"
    KERNEL = "scalar"


# ----------------------------------------------------------------------
class TestStreamingPopulateOrder:

    @pytest.mark.parametrize("order", ("sequential", "demand", "chunked"))
    def test_matches_monolithic(self, order):
        rng = np.random.default_rng(11)
        vpns = rng.integers(0, 5_000, size=20_000, dtype=np.int64)
        whole = first_touch_order(vpns, order)
        for chunk_records in (1, 13, 4096):
            chunks = [vpns[i:i + chunk_records]
                      for i in range(0, len(vpns), chunk_records)]
            assert np.array_equal(
                streaming_first_touch_order(chunks, order), whole)

    def test_empty(self):
        for order in ("sequential", "demand", "chunked"):
            assert len(streaming_first_touch_order([], order)) == 0


# ----------------------------------------------------------------------
class TestJobTraceRef:

    def make_ref(self, tmp_path, records=2_000, seed=7, workload="mc80"):
        return materialize_trace(get(workload), records, seed,
                                 tmp_path / "trace")

    def test_replay_matches_generated_job(self, tmp_path):
        ref = self.make_ref(tmp_path)
        scale = Scale(2_000, 400, 7)
        plain = Job(kind="native", workload="mc80", scale=scale)
        replay = Job(kind="native", workload="mc80", scale=scale,
                     trace=ref)
        assert replay.spec_hash() != plain.spec_hash()
        assert stats_key(execute_job(replay)) == stats_key(
            execute_job(plain))

    def test_engine_runs_trace_jobs_deterministically(self, tmp_path):
        from repro.experiments import scaling

        ref = self.make_ref(tmp_path)
        jobs = scaling.jobs_for_trace(ref)
        serial = Engine(jobs=1).run_jobs(jobs)
        parallel = Engine(jobs=2).run_jobs(jobs)
        for job in jobs:
            assert stats_key(serial[job]) == stats_key(parallel[job])

    def test_geometry_validation(self, tmp_path):
        ref = self.make_ref(tmp_path)
        with pytest.raises(ValueError, match="records"):
            Job(kind="native", workload="mc80",
                scale=Scale(3_000, 400, 7), trace=ref)
        with pytest.raises(ValueError, match="VMA layout"):
            Job(kind="native", workload="mcf",
                scale=Scale(2_000, 400, 7), trace=ref)
        with pytest.raises(ValueError, match="multi_tenant"):
            Job(kind="native", workload="mc80",
                scale=Scale(2_000, 400, 7), trace=ref,
                multi_tenant=MultiTenantSpec(tenants=2, quantum=500))

    def test_content_change_is_detected_at_execution(self, tmp_path):
        ref = self.make_ref(tmp_path)
        job = Job(kind="native", workload="mc80",
                  scale=Scale(2_000, 400, 7), trace=ref)
        stale = dataclasses.replace(ref, digest="0" * 64)
        with pytest.raises(ValueError, match="content changed"):
            execute_job(dataclasses.replace(job, trace=stale))

    def test_unknown_workload_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="unknown workload"):
            Job(kind="native", workload="nope")
        with pytest.raises(ValueError, match="multi-tenant mix"):
            Job(kind="native", workload="mix-nope",
                multi_tenant=MultiTenantSpec(tenants=2, quantum=100))


# ----------------------------------------------------------------------
class TestDegenerateParameters:

    def test_scale_rejects_empty_and_all_warmup(self):
        with pytest.raises(ValueError, match="trace_length"):
            Scale(trace_length=0)
        with pytest.raises(ValueError, match="warmup"):
            Scale(trace_length=100, warmup=-1)
        with pytest.raises(ValueError, match="nothing would be measured"):
            Scale(trace_length=100, warmup=100)

    def test_generate_trace_rejects_empty(self):
        with pytest.raises(ValueError, match="trace length"):
            get("mcf").generate_trace(0, seed=1)

    def test_keyvalue_validates_and_sizes_exactly(self):
        with pytest.raises(ValueError, match="value_run"):
            KeyValue(value_run=0)
        with pytest.raises(ValueError, match="hash_fraction"):
            KeyValue(hash_fraction=0.0)
        rng = np.random.default_rng(1)
        for value_run in (1, 3):
            for size in (1, 2, 5, 97, 100):
                # sizes not divisible by per_request = 1 + value_run
                out = KeyValue(value_run=value_run).generate(
                    rng, 1_000, size)
                assert len(out) == size
                assert out.min() >= 0 and out.max() < 1_000

    def test_materialize_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError, match="at least one record"):
            materialize_trace(get("mcf"), 0, 1, tmp_path / "t")


# ----------------------------------------------------------------------
class TestStreamedRunnerThreshold:

    def test_long_scales_stream(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "STREAM_RECORDS", 1_000)
        source = make_trace(get("mcf"), Scale(2_000, 400, 7))
        assert isinstance(source, GeneratedSource)
        assert source.records == 2_000

    def test_streamed_run_matches_monolithic(self, monkeypatch):
        scale = Scale(5_000, 1_000, 7)
        reference = stats_key(runner_mod.run_native("mcf", scale=scale))
        monkeypatch.setattr(runner_mod, "STREAM_RECORDS", 500)
        monkeypatch.setattr(runner_mod, "STREAM_CHUNK_RECORDS", 333)
        streamed = stats_key(runner_mod.run_native("mcf", scale=scale))
        assert streamed == reference

    def test_gen_chunk_constant_unchanged(self):
        # Content-defining constant: changing it silently redefines
        # every multi-chunk trace.  Bump FORMAT_VERSION with it.
        assert GEN_CHUNK_RECORDS == 1 << 20
