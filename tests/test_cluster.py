"""Cluster plane: topologies, shard plans, the planner and sharded serving.

The contracts under test are the multi-GPU tentpole's:

* topologies describe devices + links with descriptive errors;
* ``ShardPlan.apply`` is deterministic, member plans insert no transfers,
  limb plans all-gather exactly at base-conversion boundaries, and one
  device degenerates to the original trace;
* the planner prices both strategies from recorded traces and its
  crossover is monotone -- limb sharding never wins as the interconnect
  bandwidth tends to zero;
* serving across simulated devices stays **bit-identical** to the
  single-device sequential evaluator, whether drains are placed whole on
  home devices or member-sharded across the cluster.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    NVLINK,
    PCIE_4_X16,
    ClusterTopology,
    InterconnectLink,
    LimbShardPlan,
    MemberShardPlan,
    ShardPlanner,
    member_partition,
    nvlink_box,
    pcie_box,
    single_device,
)
from repro.api.vector import CipherVector
from repro.core.dispatch import get_dispatcher
from repro.gpu.kernel import TransferKernel
from repro.gpu.platforms import GPU_RTX_4090, GPU_V100
from repro.perf.trace_model import TraceCostModel
from repro.serve import BatchingPolicy, OpProgram, Server

#: 1 + 2x^2: two levels deep, no rotation keys needed.
POLY_PROGRAM = OpProgram.polynomial([1.0, 0.0, 2.0])


def record_hmult_trace(session, rng, batch_size):
    """A real fused HMult+rescale trace at the given batch size."""
    rows = rng.uniform(-1, 1, (batch_size, 8))
    a = session.batch([session.encrypt(row) for row in rows])
    b = session.batch([session.encrypt(row) for row in rows])
    with session.trace() as trace:
        (a * b).rescale()
    return trace


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------


class TestInterconnectLink:
    def test_transfer_time_is_latency_plus_payload(self):
        link = InterconnectLink("test", bandwidth_gbps=100.0, latency_us=2.0)
        assert link.transfer_time(0.0) == 0.0
        assert link.transfer_time(1e9) == pytest.approx(2e-6 + 1e9 / 100e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            InterconnectLink("bad", bandwidth_gbps=0.0)
        with pytest.raises(ValueError):
            InterconnectLink("bad", bandwidth_gbps=1.0, latency_us=-1.0)

    def test_scaled_bandwidth(self):
        half = NVLINK.scaled(0.5)
        assert half.bandwidth_gbps == pytest.approx(NVLINK.bandwidth_gbps / 2)
        assert half.latency_us == NVLINK.latency_us


class TestClusterTopology:
    def test_presets(self):
        box = nvlink_box(4)
        assert box.device_count == 4
        assert box.device(0) is GPU_V100
        assert box.link(0, 3) is NVLINK
        pcie = pcie_box(2)
        assert pcie.device(1) is GPU_RTX_4090
        assert pcie.link(1, 0) is PCIE_4_X16

    def test_single_device_needs_no_links(self):
        topo = single_device(GPU_RTX_4090)
        assert topo.device_count == 1
        assert topo.devices == (GPU_RTX_4090,)

    def test_device_index_out_of_range(self):
        with pytest.raises(IndexError, match="devices 0..1"):
            nvlink_box(2).device(2)

    def test_same_device_link_is_an_error(self):
        with pytest.raises(ValueError, match="no-op"):
            nvlink_box(2).link(1, 1)

    def test_missing_link_names_the_topology(self):
        topo = ClusterTopology([GPU_V100, GPU_V100], name="bare-pair")
        with pytest.raises(KeyError, match="bare-pair"):
            topo.link(0, 1)

    def test_explicit_links_are_order_insensitive(self):
        slow = InterconnectLink("slow", 1.0)
        topo = ClusterTopology(
            [GPU_V100, GPU_V100, GPU_V100],
            default_link=NVLINK,
            links={(2, 0): slow},
        )
        assert topo.link(0, 2) is slow
        assert topo.link(2, 0) is slow
        assert topo.link(0, 1) is NVLINK

    def test_with_link_rebinds_every_pair(self):
        slow = NVLINK.scaled(0.01)
        topo = nvlink_box(4).with_link(slow)
        assert topo.link(0, 1) is slow
        assert topo.link(2, 3) is slow

    def test_empty_topology_rejected(self):
        with pytest.raises(ValueError):
            ClusterTopology([])


# ----------------------------------------------------------------------
# shard plans
# ----------------------------------------------------------------------


class TestMemberPartition:
    def test_near_equal_and_exhaustive(self):
        assert member_partition(8, 4) == [2, 2, 2, 2]
        assert member_partition(8, 3) == [3, 3, 2]
        assert member_partition(1, 4) == [1, 0, 0, 0]
        assert sum(member_partition(17, 5)) == 17

    def test_errors(self):
        with pytest.raises(ValueError):
            member_partition(-1, 2)
        with pytest.raises(ValueError):
            member_partition(4, 0)


def _event_signature(trace):
    return [
        (e.kernel.name, e.kernel.device, e.kernel.bytes_read,
         e.kernel.bytes_written, e.kernel.int_ops, e.scope, e.deps)
        for e in trace
    ]


class TestShardPlans:
    def test_apply_is_deterministic(self, session, rng):
        trace = record_hmult_trace(session, rng, 4)
        for plan in (MemberShardPlan(nvlink_box(4), 4), LimbShardPlan(nvlink_box(4))):
            assert _event_signature(plan.apply(trace)) == \
                _event_signature(plan.apply(trace))

    def test_member_plan_has_no_transfers_and_conserves_volume(self, session, rng):
        trace = record_hmult_trace(session, rng, 4)
        sharded = MemberShardPlan(nvlink_box(4), 4).apply(trace)
        assert not any(isinstance(k, TransferKernel) for k in sharded.kernels())
        assert len(sharded) == 4 * len(trace)
        assert sharded.bytes_moved == pytest.approx(trace.bytes_moved)
        assert sharded.int_ops == pytest.approx(trace.int_ops)
        assert {k.device for k in sharded.kernels()} == {0, 1, 2, 3}

    def test_member_plan_skips_empty_devices(self, session, rng):
        trace = record_hmult_trace(session, rng, 2)
        sharded = MemberShardPlan(nvlink_box(4), 2).apply(trace)
        assert {k.device for k in sharded.kernels()} == {0, 1}

    def test_limb_plan_gathers_at_base_conversion_boundaries(self, session, rng):
        trace = record_hmult_trace(session, rng, 1)
        boundaries = sum(1 for k in trace.kernels() if "->" in k.name)
        assert boundaries > 0  # ModUp/ModDown are in the trace
        count = 4
        sharded = LimbShardPlan(nvlink_box(count)).apply(trace)
        transfers = [
            k for k in sharded.kernels() if isinstance(k, TransferKernel)
        ]
        assert len(transfers) == boundaries * count * (count - 1)
        assert all(not k.is_self_transfer for k in transfers)
        # Transfers carry the per-device input slice.
        compute = [k for k in sharded.kernels() if not isinstance(k, TransferKernel)]
        assert len(compute) == count * len(trace)

    def test_limb_plan_transfer_edges_gate_the_conversion(self, session, rng):
        trace = record_hmult_trace(session, rng, 1)
        sharded = LimbShardPlan(nvlink_box(2)).apply(trace)
        kernels = sharded.kernels()
        for event in sharded:
            if isinstance(event.kernel, TransferKernel):
                continue
            if "->" not in event.kernel.name:
                continue
            incoming = [
                d for d in event.deps if isinstance(kernels[d], TransferKernel)
            ]
            # each conversion copy waits on the D-1 transfers into its device
            assert len(incoming) == 1
            assert kernels[incoming[0]].dst_device == event.kernel.device

    def test_one_device_degenerates_to_the_original_trace(self, session, rng):
        trace = record_hmult_trace(session, rng, 2)
        topo = single_device(GPU_RTX_4090)
        for plan in (MemberShardPlan(topo, 2), LimbShardPlan(topo)):
            sharded = plan.apply(trace)
            assert len(sharded) == len(trace)
            assert sharded.bytes_moved == pytest.approx(trace.bytes_moved)
            assert sharded.int_ops == pytest.approx(trace.int_ops)
            assert sharded.dependencies() == trace.dependencies()

    def test_sharded_trace_prices_lower_than_single_device(self, session, rng):
        # The whole point: a member-sharded B=8 trace finishes earlier on
        # 4 modeled devices than the same trace on one.
        trace = record_hmult_trace(session, rng, 8)
        topo = pcie_box(4)
        single = TraceCostModel(GPU_RTX_4090, streams=1)
        clustered = TraceCostModel(GPU_RTX_4090, streams=1, topology=topo)
        sharded = MemberShardPlan(topo, 8).apply(trace)
        assert clustered.price(sharded).makespan < single.price(trace).makespan

    def test_pricing_transfers_without_topology_is_an_error(self, session, rng):
        trace = record_hmult_trace(session, rng, 1)
        sharded = LimbShardPlan(nvlink_box(2)).apply(trace)
        with pytest.raises(ValueError, match="topology"):
            TraceCostModel(GPU_V100, streams=1).price(sharded)


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------


class TestShardPlanner:
    def test_compare_prices_both_strategies(self, session, rng):
        trace = record_hmult_trace(session, rng, 4)
        comparison = ShardPlanner(nvlink_box(4)).compare(trace, 4)
        assert comparison.member_makespan > 0.0
        assert comparison.limb_makespan > 0.0
        assert comparison.winner in ("member", "limb")
        assert comparison.advantage >= 1.0

    def test_crossover_table_is_per_batch(self, session, rng):
        traces = {b: record_hmult_trace(session, rng, b) for b in (1, 2, 4)}
        result = ShardPlanner(nvlink_box(4)).crossover(traces)
        assert [c.batch_size for c in result["comparisons"]] == [1, 2, 4]
        crossover = result["crossover_batch"]
        assert crossover is None or crossover in (1, 2, 4)

    def test_limb_never_wins_as_bandwidth_vanishes(self, session, rng):
        # Monotonicity: starving the interconnect can only hurt limb
        # sharding, so member-shard wins everywhere in the limit.
        traces = {b: record_hmult_trace(session, rng, b) for b in (1, 2, 4)}
        starved = nvlink_box(4).with_link(NVLINK.scaled(1e-9))
        result = ShardPlanner(starved).crossover(traces)
        assert all(c.winner == "member" for c in result["comparisons"])
        assert result["crossover_batch"] == 1

    def test_limb_makespan_monotone_in_bandwidth(self, session, rng):
        trace = record_hmult_trace(session, rng, 2)
        makespans = [
            ShardPlanner(nvlink_box(4).with_link(NVLINK.scaled(f)))
            .compare(trace, 2).limb_makespan
            for f in (1.0, 1e-2, 1e-4)
        ]
        assert makespans[0] <= makespans[1] <= makespans[2]
        # Member sharding never touches the link, so it is unaffected.
        members = {
            ShardPlanner(nvlink_box(4).with_link(NVLINK.scaled(f)))
            .compare(trace, 2).member_makespan
            for f in (1.0, 1e-4)
        }
        assert len(members) == 1

    def test_place_buckets_round_robin(self):
        planner = ShardPlanner(nvlink_box(4))
        buckets = ["a", "b", "c", "d", "e"]
        assert planner.place_buckets(buckets) == {
            "a": 0, "b": 1, "c": 2, "d": 3, "e": 0,
        }


# ----------------------------------------------------------------------
# sharded serving (bit-identity and per-device metrics)
# ----------------------------------------------------------------------


class TestClusterServing:
    def _bitwise_equal(self, a, b):
        return (
            np.array_equal(a.handle.c0.stack.data, b.handle.c0.stack.data)
            and np.array_equal(a.handle.c1.stack.data, b.handle.c1.stack.data)
        )

    @pytest.mark.parametrize("device_count", [2, 4])
    def test_member_sharded_drain_is_bit_identical(self, session, rng,
                                                   device_count):
        # B=8 drain sharded across D devices == the sequential evaluator.
        vectors = [session.encrypt(rng.uniform(-1, 1, 8)) for _ in range(8)]
        expected = [POLY_PROGRAM(v) for v in vectors]
        server = session.server(
            BatchingPolicy(max_batch_size=8, max_wait=0.0),
            cluster=pcie_box(device_count),
            shard_drains=True,
        )
        requests = [server.submit(POLY_PROGRAM, v) for v in vectors]
        server.flush()
        for request, want in zip(requests, expected):
            assert self._bitwise_equal(request.result(), want)

    def test_placed_buckets_record_on_their_home_device(self, session, rng):
        cluster = pcie_box(2)
        server = session.server(
            BatchingPolicy(max_batch_size=4, max_wait=0.0),
            trace_costs=TraceCostModel(GPU_RTX_4090),
            cluster=cluster,
        )
        second = OpProgram.polynomial([0.5, 1.0])
        for _ in range(4):
            server.submit(POLY_PROGRAM, session.encrypt(rng.uniform(-1, 1, 8)))
            server.submit(second, session.encrypt(rng.uniform(-1, 1, 8)))
        server.flush()
        metrics = server.metrics
        assert set(metrics.device_seconds) == {0, 1}
        assert metrics.modeled_makespan == pytest.approx(
            max(metrics.device_seconds.values())
        )
        assert metrics.modeled_makespan < metrics.modeled_seconds
        utilization = metrics.device_utilization()
        assert max(utilization.values()) == pytest.approx(1.0)
        # Placement throughput beats serialising both buckets on one GPU.
        assert metrics.modeled_throughput() > \
            metrics.completed / metrics.modeled_seconds

    def test_symbolic_buckets_are_priced_per_home_device(self, session, rng):
        # The cost backend emits onto the dispatcher seam, so a symbolic
        # server places, records and prices its buckets like a functional one.
        backend = session.cost_backend()
        pricer = TraceCostModel(GPU_RTX_4090)
        server = Server(
            backend, BatchingPolicy(max_batch_size=4, max_wait=0.0),
            trace_costs=pricer, cluster=pcie_box(2),
        )
        programs = (POLY_PROGRAM, OpProgram.polynomial([0.5, 1.0]))
        rows = [rng.uniform(-1, 1, 8) for _ in range(4)]
        for row in rows:
            for program in programs:
                server.submit(program, CipherVector(backend, backend.encrypt(row)))
        server.flush()
        expected = []
        for program in programs:
            with session.trace() as emitted:
                program(CipherVector(backend, backend.encrypt_batch(rows)))
            expected.append(pricer.price(emitted, streams=1).makespan)
        assert sorted(server.metrics.device_seconds.values()) == sorted(expected)
        assert set(server.metrics.device_seconds) == {0, 1}

    def test_sharded_drain_charges_every_participating_device(self, session, rng):
        server = session.server(
            BatchingPolicy(max_batch_size=8, max_wait=0.0),
            trace_costs=TraceCostModel(GPU_RTX_4090),
            cluster=pcie_box(4),
            shard_drains=True,
        )
        for _ in range(8):
            server.submit(POLY_PROGRAM, session.encrypt(rng.uniform(-1, 1, 8)))
        server.flush()
        metrics = server.metrics
        assert set(metrics.device_seconds) == {0, 1, 2, 3}
        utilization = metrics.device_utilization()
        assert all(u == pytest.approx(1.0) for u in utilization.values())

    def test_single_device_serving_metrics_unchanged(self, session, rng):
        # Without a cluster the metrics keep their PR 5 semantics exactly.
        server = session.server(
            BatchingPolicy(max_batch_size=4, max_wait=0.0),
            trace_costs=TraceCostModel(GPU_RTX_4090),
        )
        for _ in range(4):
            server.submit(POLY_PROGRAM, session.encrypt(rng.uniform(-1, 1, 8)))
        server.flush()
        metrics = server.metrics
        assert metrics.device_seconds == {0: pytest.approx(metrics.modeled_seconds)}
        assert metrics.modeled_throughput() == pytest.approx(
            metrics.completed / metrics.modeled_seconds
        )

    def test_dispatcher_device_tags_require_a_trace(self):
        dispatcher = get_dispatcher()
        # No active trace: on_device is the shared no-op context.
        with dispatcher.on_device(3):
            pass
        with pytest.raises(ValueError):
            with dispatcher.record():
                with dispatcher.on_device(-1):
                    pass
