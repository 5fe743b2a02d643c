"""The cluster plane: multi-GPU sharding over interconnect-aware topologies.

Module map (topology → shard plan → sharded trace → multi-device schedule)
--------------------------------------------------------------------------

::

    repro.cluster.topology
        ClusterTopology: N ComputePlatform devices + InterconnectLink
        descriptors (bandwidth GB/s, latency µs) per device pair;
        nvlink_box / pcie_box presets over the Table IV GPUs
                │
                ▼
    repro.cluster.sharding
        ShardPlan.apply(trace): rewrite a recorded single-device
        KernelTrace into a device-tagged multi-device trace
          · MemberShardPlan  -- batch members partitioned across
            devices, zero communication
          · LimbShardPlan    -- RNS limbs partitioned 1/D, all-gather
            TransferKernels inserted at base-conversion boundaries
                │
                ▼
    repro.perf.trace_model.TraceCostModel(..., topology=...).price
        the one kernels -> seconds path, topology-aware: roofline
        per-device kernels, bandwidth/latency-priced transfers, and a
        repro.gpu.stream.StreamScheduler with per-device stream sets +
        host launch threads (links are serial resources; cross-device
        edges wait for completed transfers); per-device busy times
                │
                ▼
    repro.cluster.planner
        ShardPlanner: prices both plans per batch size, predicts the
        member-vs-limb crossover, places serving buckets on devices

The serving plane (:mod:`repro.serve`) consumes this: pass a topology to
``CKKSSession.server(..., cluster=...)`` and buckets are placed round-robin
across devices, drains run (bit-identically) per device, and
``ServeMetrics`` reports per-device utilisation.
"""

from repro.cluster.planner import PlanComparison, ShardPlanner
from repro.cluster.sharding import (
    LimbShardPlan,
    MemberShardPlan,
    ShardPlan,
    member_partition,
)
from repro.cluster.topology import (
    NVLINK,
    PCIE_4_X16,
    ClusterTopology,
    InterconnectLink,
    nvlink_box,
    pcie_box,
    single_device,
)

__all__ = [
    "ClusterTopology",
    "InterconnectLink",
    "NVLINK",
    "PCIE_4_X16",
    "single_device",
    "nvlink_box",
    "pcie_box",
    "ShardPlan",
    "MemberShardPlan",
    "LimbShardPlan",
    "member_partition",
    "ShardPlanner",
    "PlanComparison",
]
