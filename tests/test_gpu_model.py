"""Tests of the GPU execution-model substrate (platforms, cache, kernels, streams)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.params import PARAMETER_SETS
from repro.gpu.cache import CacheModel
from repro.cluster import (
    ClusterTopology,
    InterconnectLink,
    nvlink_box,
    single_device,
)
from repro.gpu.kernel import Kernel, KernelCostModel, KernelTiming, transfer_kernel
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
        assert GPU_RTX_4090.is_gpu and not CPU_RYZEN_9_7900.is_gpu

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
        assert result.launch_bound

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
        for slots in result.stream_timelines().values():
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


class TestClusterScheduler:
    """Multi-device generalisation: per-device streams, links as resources."""

    def _timings(self, count, execution=1e-5, device=0):
        model = KernelCostModel(GPU_RTX_4090, bandwidth_efficiency=1.0)
        kernels = [
            Kernel(f"k{i}", bytes_read=execution * GPU_RTX_4090.bandwidth_bytes_per_s,
                   bytes_written=0, int_ops=0, device=device)
            for i in range(count)
        ]
        return model.time_kernels(kernels)

    def _transfer_timing(self, src, dst, duration=1e-6, payload=1e6):
        kernel = transfer_kernel("xfer", payload, src, dst)
        return KernelTiming(kernel=kernel, compute_time=0.0,
                            memory_time=duration if src != dst else 0.0)

    def test_single_device_topology_is_bit_identical_to_plain(self):
        # The degenerate one-device topology must not perturb any number.
        timings = self._timings(24, execution=2e-6)
        deps = [(i - 1,) if i else () for i in range(24)]
        topo = single_device(GPU_RTX_4090)
        for streams in (1, 4):
            plain = StreamScheduler(GPU_RTX_4090, streams=streams).schedule(
                timings, dependencies=deps
            )
            clustered = StreamScheduler(
                GPU_RTX_4090, streams=streams, topology=topo
            ).schedule(timings, dependencies=deps)
            assert clustered.makespan == plain.makespan
            assert clustered.launch_hidden == plain.launch_hidden
            assert clustered.timeline == plain.timeline

    def test_self_transfer_is_a_noop_kernel(self):
        kernel = transfer_kernel("xfer", 1e9, 2, 2)
        assert kernel.is_self_transfer
        assert kernel.payload_bytes == 0.0
        assert kernel.launches == 0.0
        # Scheduling it adds neither time nor launches to the makespan.
        topo = nvlink_box(4)
        base = self._timings(4, execution=2e-6)
        with_noop = base + [self._transfer_timing(2, 2)]
        scheduler = StreamScheduler(GPU_RTX_4090, streams=2, topology=topo)
        assert scheduler.schedule(with_noop).makespan == pytest.approx(
            scheduler.schedule(base).makespan
        )
        assert scheduler.schedule(with_noop).transfer_time == 0.0

    def test_independent_devices_run_in_parallel(self):
        topo = nvlink_box(2, platform=GPU_RTX_4090)
        split = self._timings(8, device=0) + self._timings(8, device=1)
        one = StreamScheduler(GPU_RTX_4090, streams=1).schedule(
            self._timings(16)
        )
        two = StreamScheduler(GPU_RTX_4090, streams=1, topology=topo).schedule(split)
        assert two.makespan < one.makespan
        assert two.execution_time == pytest.approx(one.execution_time)
        busy = two.device_busy()
        assert set(busy) == {0, 1}
        assert busy[0] == pytest.approx(busy[1])

    def test_timelines_do_not_overlap_per_device_and_per_link(self):
        topo = nvlink_box(3, platform=GPU_RTX_4090)
        timings = []
        for device in (0, 1, 2):
            timings.extend(self._timings(6, execution=2e-6, device=device))
        for src, dst in [(0, 1), (1, 2), (0, 2), (1, 0), (2, 0)]:
            timings.append(self._transfer_timing(src, dst, duration=3e-6))
        result = StreamScheduler(GPU_RTX_4090, streams=2, topology=topo).schedule(
            timings
        )
        for slots in result.device_timelines().values():
            for earlier, later in zip(slots, slots[1:]):
                assert later.start >= earlier.end - 1e-15
        link_slots = result.link_timelines()
        assert set(link_slots) == {(0, 1), (1, 2), (0, 2)}
        for slots in link_slots.values():
            for earlier, later in zip(slots, slots[1:]):
                assert later.start >= earlier.end - 1e-15
        assert result.transfer_time == pytest.approx(5 * 3e-6)

    def test_zero_latency_link_chain_reduces_to_single_device_closed_form(self):
        # A fully dependent chain alternating between two devices joined by
        # a zero-cost link behaves exactly like the chain on one device:
        # makespan == total_launch + total_execution (the streams=1 closed
        # form), because instantaneous transfers add nothing to the path.
        topo = ClusterTopology(
            [GPU_RTX_4090, GPU_RTX_4090],
            default_link=InterconnectLink("ideal", 1e12, latency_us=0.0),
        )
        timings = []
        deps = []
        for i in range(6):
            device = i % 2
            timings.append(self._timings(1, execution=2e-6, device=device)[0])
            index = len(timings) - 1
            deps.append((index - 1,) if index else ())
            if i < 5:
                timings.append(self._transfer_timing(device, 1 - device, 0.0))
                deps.append((index,))
        result = StreamScheduler(GPU_RTX_4090, streams=1, topology=topo).schedule(
            timings, dependencies=deps
        )
        assert result.makespan == pytest.approx(
            result.launch_time + result.execution_time
        )
        assert result.transfer_time == 0.0

    def test_transfers_serialise_on_their_link(self):
        # Two transfers over the same device pair queue on the link; two
        # transfers over disjoint pairs overlap freely.
        topo = nvlink_box(4, platform=GPU_RTX_4090)
        scheduler = StreamScheduler(GPU_RTX_4090, streams=1, topology=topo)
        same_pair = [
            self._transfer_timing(0, 1, duration=5e-6),
            self._transfer_timing(1, 0, duration=5e-6),
        ]
        disjoint = [
            self._transfer_timing(0, 1, duration=5e-6),
            self._transfer_timing(2, 3, duration=5e-6),
        ]
        assert scheduler.schedule(same_pair).makespan > \
            scheduler.schedule(disjoint).makespan

    def test_unknown_device_raises_descriptive_error(self):
        timings = self._timings(1, device=5)
        with pytest.raises(ValueError, match="devices 0..0"):
            StreamScheduler(GPU_RTX_4090, streams=1).schedule(timings)


class TestDevice:
    def test_memory_footprints_match_paper_magnitudes(self):
        params = PARAMETER_SETS["paper-default"]
        # §III-F.1: ciphertext + switching key is on the order of 120 MB.
        total = params.ciphertext_bytes() + params.key_switching_key_bytes()
        assert 80e6 < total < 260e6
        assert total > GPU_RTX_4090.shared_cache_bytes  # HMult spills the L2

    def test_closed_forms_equal_what_the_pool_is_charged(
        self, toy_params, keys, encryptor
    ):
        fresh = encryptor.encrypt_values([0.5, -0.25])
        assert fresh.footprint_bytes() == toy_params.ciphertext_bytes()
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
