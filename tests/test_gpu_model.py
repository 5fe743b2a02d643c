"""Tests of the GPU execution-model substrate (platforms, cache, kernels, streams)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.params import PARAMETER_SETS
from repro.gpu.cache import CacheModel
from repro.gpu.kernel import ELEMENT_BYTES, Kernel, KernelCostModel
from repro.gpu.platforms import (
    ALL_GPUS,
    ALL_PLATFORMS,
    CPU_RYZEN_9_7900,
    GPU_RTX_4060TI,
    GPU_RTX_4090,
    platform,
    platform_table,
)
from repro.gpu.stream import StreamScheduler


def per_stream(result):
    """A schedule's slots grouped by stream, each sorted by start time."""
    streams = {}
    for slot in result.timeline:
        streams.setdefault(slot.stream, []).append(slot)
    for slots in streams.values():
        slots.sort(key=lambda slot: slot.start)
    return streams


def ciphertext_bytes(params):
    """The closed-form size of a full-level ciphertext: two (L, N) stacks."""
    return 2 * params.limb_count * params.ring_degree * ELEMENT_BYTES


class TestPlatforms:
    def test_table_iv_has_five_rows(self):
        assert len(platform_table()) == 5

    def test_gpu_bandwidth_exceeds_cpu(self):
        assert all(gpu.bandwidth_gbps > CPU_RYZEN_9_7900.bandwidth_gbps for gpu in ALL_GPUS)

    def test_4090_is_fastest(self):
        assert GPU_RTX_4090.bandwidth_gbps == max(p.bandwidth_gbps for p in ALL_GPUS)
        assert GPU_RTX_4090.int32_tops == max(p.int32_tops for p in ALL_GPUS)

    def test_table_iv_values(self):
        assert GPU_RTX_4090.shared_cache_mb == 72
        assert GPU_RTX_4060TI.shared_cache_mb == 32
        assert CPU_RYZEN_9_7900.compute_units == 12

    def test_derived_quantities(self):
        assert GPU_RTX_4090.shared_cache_bytes == 72 * (1 << 20)

    def test_platform_lookup_by_name(self):
        assert platform("RTX 4090") is GPU_RTX_4090
        assert platform("Ryzen 9 7900") is CPU_RYZEN_9_7900

    def test_platform_lookup_error_lists_available_names(self):
        with pytest.raises(KeyError) as excinfo:
            platform("H100")
        message = str(excinfo.value)
        assert "H100" in message
        for p in ALL_PLATFORMS:
            assert p.name in message


class TestCacheModel:
    def test_no_reuse_means_no_hits(self):
        cache = CacheModel(GPU_RTX_4090)
        assert cache.hit_fraction(1 << 20, reuse=1.0) == 0.0

    def test_fitting_working_set_hits(self):
        cache = CacheModel(GPU_RTX_4090)
        assert cache.hit_fraction(1 << 20, reuse=2.0) == pytest.approx(0.5)

    def test_oversized_working_set_misses(self):
        cache = CacheModel(GPU_RTX_4090)
        huge = GPU_RTX_4090.shared_cache_bytes * 10
        assert cache.hit_fraction(huge, reuse=4.0) == 0.0

    def test_effective_bandwidth_bounded(self):
        cache = CacheModel(GPU_RTX_4090)
        dram = GPU_RTX_4090.bandwidth_bytes_per_s
        bw = cache.effective_bandwidth(1 << 20, reuse=2.0)
        assert dram <= bw <= dram * GPU_RTX_4090.cache_bandwidth_multiplier

    def test_monotone_in_working_set(self):
        cache = CacheModel(GPU_RTX_4060TI)
        sizes = [1 << 20, 16 << 20, 40 << 20, 200 << 20]
        bandwidths = [cache.effective_bandwidth(s, 2.0) for s in sizes]
        assert all(a >= b for a, b in zip(bandwidths, bandwidths[1:]))


class TestKernelCostModel:
    def test_memory_bound_kernel(self):
        model = KernelCostModel(GPU_RTX_4090, compute_efficiency=1.0, bandwidth_efficiency=1.0)
        kernel = Kernel("stream", bytes_read=1e9, bytes_written=0, int_ops=1e6)
        timing = model.time_kernel(kernel)
        assert timing.bound == "memory"
        assert timing.execution_time == pytest.approx(1e9 / GPU_RTX_4090.bandwidth_bytes_per_s, rel=0.2)

    def test_compute_bound_kernel(self):
        model = KernelCostModel(GPU_RTX_4090, compute_efficiency=1.0, bandwidth_efficiency=1.0)
        kernel = Kernel("crunch", bytes_read=1e3, bytes_written=0, int_ops=1e12)
        assert model.time_kernel(kernel).bound == "compute"

    def test_kernel_scaling(self):
        kernel = Kernel("k", bytes_read=100, bytes_written=50, int_ops=10, launches=1)
        scaled = kernel.scaled(3)
        assert scaled.bytes_read == 300 and scaled.launches == 3
        assert scaled.working_set_bytes == kernel.working_set_bytes

    def test_time_scales_linearly_with_volume(self):
        model = KernelCostModel(GPU_RTX_4090)
        small = Kernel("k", 1e6, 1e6, 1e6)
        large = small.scaled(10)
        assert model.time_kernel(large).execution_time == pytest.approx(
            10 * model.time_kernel(small).execution_time, rel=1e-6
        )


class TestStreamScheduler:
    def _timings(self, count, execution=1e-5):
        model = KernelCostModel(GPU_RTX_4090, bandwidth_efficiency=1.0)
        kernels = [
            Kernel(f"k{i}", bytes_read=execution * GPU_RTX_4090.bandwidth_bytes_per_s,
                   bytes_written=0, int_ops=0)
            for i in range(count)
        ]
        return model.time_kernels(kernels)

    def test_empty_schedule(self):
        result = StreamScheduler(GPU_RTX_4090, streams=4).schedule([])
        assert result.makespan == 0.0

    def test_multi_stream_hides_launch_overhead(self):
        timings = self._timings(64)
        single = StreamScheduler(GPU_RTX_4090, streams=1).schedule(timings)
        multi = StreamScheduler(GPU_RTX_4090, streams=8).schedule(timings)
        assert multi.makespan < single.makespan
        assert multi.launch_hidden >= 0.0

    def test_launch_bound_detection(self):
        timings = self._timings(1000, execution=1e-8)
        result = StreamScheduler(GPU_RTX_4090, streams=8).schedule(timings)
        assert result.launch_time > result.execution_time

    def test_requires_positive_streams(self):
        with pytest.raises(ValueError):
            StreamScheduler(GPU_RTX_4090, streams=0)

    def test_single_stream_hides_nothing(self):
        # Regression: nothing overlaps on one stream, so no launch overhead
        # is hidden and the makespan is exactly launches + execution.
        timings = self._timings(32)
        result = StreamScheduler(GPU_RTX_4090, streams=1).schedule(timings)
        assert result.launch_hidden == 0.0
        assert result.makespan == pytest.approx(
            result.launch_time + result.execution_time
        )

    def test_zero_launch_overhead_makes_makespan_execution(self):
        import dataclasses

        platform = dataclasses.replace(GPU_RTX_4090, launch_overhead_us=0.0)
        timings = self._timings(16)
        for streams in (1, 4):
            result = StreamScheduler(platform, streams=streams).schedule(timings)
            assert result.makespan == pytest.approx(result.execution_time)
            assert result.launch_time == 0.0

    def test_makespan_monotone_in_streams(self):
        timings = self._timings(48, execution=2e-6)
        makespans = [
            StreamScheduler(GPU_RTX_4090, streams=s).schedule(timings).makespan
            for s in (1, 2, 4, 8, 16)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(makespans, makespans[1:]))

    def test_timeline_streams_do_not_overlap(self):
        timings = self._timings(40, execution=3e-6)
        result = StreamScheduler(GPU_RTX_4090, streams=4).schedule(timings)
        assert len(result.timeline) == 40
        for slots in per_stream(result).values():
            for earlier, later in zip(slots, slots[1:]):
                assert later.start >= earlier.end - 1e-15
        assert result.makespan == max(slot.end for slot in result.timeline)

    def test_dependency_chain_forces_order(self):
        timings = self._timings(8)
        chain = [tuple(range(i)) for i in range(8)]  # k depends on all before
        result = StreamScheduler(GPU_RTX_4090, streams=4).schedule(
            timings, dependencies=chain
        )
        by_index = sorted(result.timeline, key=lambda slot: slot.index)
        for earlier, later in zip(by_index, by_index[1:]):
            assert later.start >= earlier.end - 1e-15

    def test_dependency_chain_cannot_hide_launch_overhead(self):
        # A fully dependent chain on many streams behaves like a single
        # stream (launch overhead on the critical path), while the same
        # kernels without dependencies overlap launches with execution:
        # only independent kernels benefit from multi-stream (§III-F.1).
        timings = self._timings(16, execution=2e-6)
        chain = [(i - 1,) if i else () for i in range(16)]
        multi = StreamScheduler(GPU_RTX_4090, streams=8)
        single = StreamScheduler(GPU_RTX_4090, streams=1)
        chained = multi.schedule(timings, dependencies=chain)
        independent = multi.schedule(timings)
        assert chained.makespan > independent.makespan
        assert chained.makespan == pytest.approx(
            single.schedule(timings, dependencies=chain).makespan
        )
        assert chained.launch_hidden == pytest.approx(0.0)

    def test_parallel_branches_still_overlap_under_dependencies(self):
        # Two independent chains interleaved: the scheduler can overlap one
        # chain's launches with the other's execution.
        timings = self._timings(16, execution=2e-6)
        deps = [(i - 2,) if i >= 2 else () for i in range(16)]  # two chains
        scheduler = StreamScheduler(GPU_RTX_4090, streams=8)
        two_chains = scheduler.schedule(timings, dependencies=deps)
        one_chain = scheduler.schedule(
            timings, dependencies=[(i - 1,) if i else () for i in range(16)]
        )
        assert two_chains.makespan < one_chain.makespan

    def test_dependencies_must_reference_earlier_kernels(self):
        timings = self._timings(2)
        with pytest.raises(ValueError):
            StreamScheduler(GPU_RTX_4090, streams=2).schedule(
                timings, dependencies=[(1,), ()]
            )
        with pytest.raises(ValueError):
            StreamScheduler(GPU_RTX_4090, streams=2).schedule(
                timings, dependencies=[()]
            )


class TestSingleDeviceTimeline:
    """Invariants of the one device every schedule runs on, per stream count."""

    STREAMS = (1, 2, 4, 8)

    def _timings(self, executions):
        model = KernelCostModel(GPU_RTX_4090, bandwidth_efficiency=1.0)
        kernels = [
            Kernel(f"k{i}", bytes_read=t * GPU_RTX_4090.bandwidth_bytes_per_s,
                   bytes_written=0, int_ops=0)
            for i, t in enumerate(executions)
        ]
        return model.time_kernels(kernels)

    def _mixed(self, count=24, seed=5):
        rng = np.random.default_rng(seed)
        return self._timings(rng.uniform(5e-7, 8e-6, count))

    @staticmethod
    def _random_dag(count, seed=5):
        rng = np.random.default_rng(seed)
        return [
            tuple(sorted({int(d) for d in rng.integers(0, i, rng.integers(0, 3))}))
            if i else ()
            for i in range(count)
        ]

    @pytest.mark.parametrize("streams", STREAMS)
    def test_device_runs_one_kernel_at_a_time(self, streams):
        timings = self._mixed()
        result = StreamScheduler(GPU_RTX_4090, streams=streams).schedule(
            timings, dependencies=self._random_dag(len(timings))
        )
        slots = sorted(result.timeline, key=lambda slot: slot.start)
        for earlier, later in zip(slots, slots[1:]):
            assert later.start >= earlier.end - 1e-15

    @pytest.mark.parametrize("streams", STREAMS)
    def test_host_issues_launches_serially(self, streams):
        timings = self._mixed()
        result = StreamScheduler(GPU_RTX_4090, streams=streams).schedule(timings)
        launch = GPU_RTX_4090.launch_overhead_us * 1e-6
        slots = sorted(result.timeline, key=lambda slot: slot.launch_start)
        for slot in slots:
            assert slot.launch_end - slot.launch_start == pytest.approx(launch)
            assert slot.start >= slot.launch_end - 1e-15
        for earlier, later in zip(slots, slots[1:]):
            assert later.launch_start >= earlier.launch_end - 1e-15

    @pytest.mark.parametrize("streams", STREAMS)
    def test_kernels_start_after_their_dependencies(self, streams):
        timings = self._mixed()
        deps = self._random_dag(len(timings))
        result = StreamScheduler(GPU_RTX_4090, streams=streams).schedule(
            timings, dependencies=deps
        )
        end = {slot.index: slot.end for slot in result.timeline}
        for slot in result.timeline:
            for dep in deps[slot.index]:
                assert slot.start >= end[dep] - 1e-15

    @pytest.mark.parametrize("streams", STREAMS)
    def test_busy_time_is_the_execution_sum(self, streams):
        # One device: its busy time is every kernel's execution time, and
        # the makespan can never undercut it.
        timings = self._mixed()
        result = StreamScheduler(GPU_RTX_4090, streams=streams).schedule(timings)
        busy = sum(slot.execution_time for slot in result.timeline)
        assert busy == pytest.approx(result.execution_time)
        assert busy == pytest.approx(sum(t.execution_time for t in timings))
        assert result.makespan >= busy - 1e-15

    @pytest.mark.parametrize("streams", STREAMS)
    def test_dependent_chain_is_the_single_stream_closed_form(self, streams):
        # A fully dependent chain pays every launch on the critical path
        # however many streams the device has.
        timings = self._mixed(12)
        chain = [(i - 1,) if i else () for i in range(12)]
        result = StreamScheduler(GPU_RTX_4090, streams=streams).schedule(
            timings, dependencies=chain
        )
        assert result.makespan == pytest.approx(
            result.launch_time + result.execution_time
        )
        assert result.launch_hidden == pytest.approx(0.0)

    def test_kernel_count_counts_aggregated_launches(self):
        model = KernelCostModel(GPU_RTX_4090)
        kernel = Kernel("k", 1e6, 1e6, 1e6)
        timings = model.time_kernels([kernel.scaled(3), kernel])
        result = StreamScheduler(GPU_RTX_4090, streams=2).schedule(timings)
        assert result.kernel_count == 4
        assert len(result.timeline) == 2
        assert result.launch_time == pytest.approx(
            4 * GPU_RTX_4090.launch_overhead_us * 1e-6
        )

    def test_stream_timelines_partition_the_timeline(self):
        timings = self._mixed(30)
        result = StreamScheduler(GPU_RTX_4090, streams=4).schedule(timings)
        per_stream_slots = per_stream(result)
        assert set(per_stream_slots) <= set(range(4))
        indices = sorted(slot.index for slots in per_stream_slots.values()
                         for slot in slots)
        assert indices == list(range(30))

    def test_schedule_is_deterministic(self):
        timings = self._mixed()
        deps = self._random_dag(len(timings))
        scheduler = StreamScheduler(GPU_RTX_4090, streams=4)
        first = scheduler.schedule(timings, dependencies=deps)
        second = scheduler.schedule(timings, dependencies=deps)
        assert first.timeline == second.timeline
        assert first.makespan == second.makespan


class TestDevice:
    def test_memory_footprints_match_paper_magnitudes(self):
        params = PARAMETER_SETS["paper-default"]
        # §III-F.1: ciphertext + switching key is on the order of 120 MB.
        total = ciphertext_bytes(params) + params.key_switching_key_bytes()
        assert 80e6 < total < 260e6
        assert total > GPU_RTX_4090.shared_cache_bytes  # HMult spills the L2

    def test_closed_forms_equal_what_the_pool_is_charged(
        self, toy_params, keys, encryptor
    ):
        fresh = encryptor.encrypt_values([0.5, -0.25])
        assert fresh.footprint_bytes() == ciphertext_bytes(toy_params)
        assert (
            keys.relinearization_key.footprint_bytes()
            == toy_params.key_switching_key_bytes()
        )


@given(bytes_moved=st.floats(min_value=1e3, max_value=1e10),
       ops=st.floats(min_value=1e3, max_value=1e12))
@settings(max_examples=50, deadline=None)
def test_kernel_time_is_positive_and_monotone(bytes_moved, ops):
    model = KernelCostModel(GPU_RTX_4060TI)
    base = model.time_kernel(Kernel("k", bytes_moved, 0, ops)).execution_time
    double = model.time_kernel(Kernel("k", 2 * bytes_moved, 0, 2 * ops)).execution_time
    assert base > 0 and double >= base
