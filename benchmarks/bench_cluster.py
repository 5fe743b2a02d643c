"""Cluster-plane benchmark: device-sharded serving and the shard crossover.

Two experiment families, both emitted into ``BENCH_cluster.json``:

**Sharded serving throughput** -- a burst of encrypted polynomial-scoring
requests spread over several program buckets is served at every
``D ∈ {1, 2, 4}`` device count × ``B ∈ {1, 8}`` max-batch policy.
Buckets are placed round-robin on the devices of a PCIe RTX 4090 box (the
planner's whole-bucket placement), every drain's recorded kernel stream is
priced on the multi-device :class:`~repro.perf.trace_model.TraceCostModel`,
and throughput is requests per modeled cluster makespan (max per-device
busy time -- devices drain concurrently).  A member-sharded drain variant
(``shard_drains=True``) is measured at the same loads.  Every response is
asserted **bit-identical** to sequential single-device execution first;
multi-GPU serving must be invisible to clients.

**Planner crossover table** -- per parameter set, HMult+rescale traces
recorded at several batch sizes are priced under both
:class:`~repro.cluster.sharding.MemberShardPlan` and
:class:`~repro.cluster.sharding.LimbShardPlan` on an NVLink V100 box and a
PCIe RTX 4090 box, yielding the predicted member-vs-limb crossover batch
size for each (topology, parameter set) pair.  Slow links and small rings
favour member sharding everywhere; the NVLink box at N=2^15 is where limb
sharding holds on for small batches.

Every figure is a modeled makespan (``TraceCostModel``) or a kernel count;
the run fails unless burst modeled throughput at ``D=4, B=8`` reaches
``MIN_SHARD_SPEEDUP`` over the single-device ``D=1, B=8`` server.

    PYTHONPATH=src python benchmarks/bench_cluster.py --output BENCH_cluster.json
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.api import CKKSSession
from repro.bench.reporting import BenchmarkTable
from repro.cluster import ShardPlanner, nvlink_box, pcie_box, single_device
from repro.gpu.platforms import GPU_RTX_4090
from repro.perf.trace_model import TraceCostModel
from repro.serve import BatchingPolicy, OpProgram

from common import quick_params, write_artefact

#: Gate: modeled serving throughput at D=4/B=8 over the single-device server.
MIN_SHARD_SPEEDUP = 2.5

#: Ring size and depth of the serving sweep.
RING_LOG2, DEPTH = 13, 6

#: Device counts of the serving sweep (D=1 is the speedup baseline).
DEVICE_COUNTS = (1, 2, 4)

#: Max-batch policies of the serving sweep.
BATCH_POLICIES = (1, 8)

#: Distinct polynomial programs (= serving buckets) in the request mix.
PROGRAM_COUNT = 4

#: Requests per program bucket (so B=8 drains one full bucket at a time).
REQUESTS_PER_PROGRAM = 8

#: Parameter sets of the planner crossover tables: (ring_log2, depth,
#: batch sizes to record traces at).
CROSSOVER_SETS = (
    (12, 6, (1, 2, 4, 8)),
    (13, 6, (1, 2, 4, 8)),
    (15, 8, (1, 2, 4)),
)


def scoring_programs(count: int = PROGRAM_COUNT) -> list[OpProgram]:
    """Distinct two-level polynomial programs (one serving bucket each)."""
    return [
        OpProgram.polynomial([1.0, 0.0, 1.0 + 0.5 * k]) for k in range(count)
    ]


def serve_burst(session, programs, encrypted, *, device_count: int,
                max_batch: int, shard_drains: bool = False) -> dict:
    """Serve one burst across a D-device box; returns the metrics summary.

    ``encrypted`` maps each program to its request vectors (encrypted once
    by the caller so every configuration serves byte-identical inputs, and
    responses can be compared across configurations).
    """
    cluster = (
        single_device(GPU_RTX_4090) if device_count == 1
        else pcie_box(device_count, platform=GPU_RTX_4090)
    )
    server = session.server(
        BatchingPolicy(max_batch_size=max_batch, max_wait=0.0),
        trace_costs=TraceCostModel(GPU_RTX_4090),
        cluster=cluster,
        shard_drains=shard_drains,
    )
    pending = [
        (program, vector, server.submit(program, vector))
        for program in programs
        for vector in encrypted[program]
    ]
    server.flush()

    # Bit-identity gate: every response equals the sequential evaluator.
    for program, vector, request in pending:
        reference = program(vector)
        if not (
            np.array_equal(request.result().handle.c0.stack.data,
                           reference.handle.c0.stack.data)
            and np.array_equal(request.result().handle.c1.stack.data,
                               reference.handle.c1.stack.data)
        ):
            raise AssertionError(
                f"served response diverged from sequential execution at "
                f"D={device_count}, B={max_batch}, shard_drains={shard_drains}"
            )
    return server.metrics.summary()


def run_serving(table: BenchmarkTable, ring_log2: int = RING_LOG2,
                depth: int = DEPTH) -> dict[tuple[int, int], float]:
    """The serving sweep; returns modeled throughput per (D, B)."""
    session = CKKSSession.create(
        quick_params(ring_log2, depth), seed=3, register_default=False
    )
    programs = scoring_programs()
    rng = np.random.default_rng(17)
    encrypted = {
        program: [
            session.encrypt(rng.uniform(-1.0, 1.0, 16))
            for _ in range(REQUESTS_PER_PROGRAM)
        ]
        for program in programs
    }
    requests = PROGRAM_COUNT * REQUESTS_PER_PROGRAM
    throughput: dict[tuple[int, int], float] = {}
    for shard_drains in (False, True):
        for device_count in DEVICE_COUNTS:
            if shard_drains and device_count == 1:
                continue  # identical to the placed D=1 row
            for max_batch in BATCH_POLICIES:
                if shard_drains and max_batch == 1:
                    continue  # singleton drains cannot shard
                metrics = serve_burst(
                    session, programs, encrypted,
                    device_count=device_count, max_batch=max_batch,
                    shard_drains=shard_drains,
                )
                rps = metrics["modeled_requests_per_sec"]
                if not shard_drains:
                    throughput[(device_count, max_batch)] = rps
                utilization = metrics["device_utilization"]
                table.add_row(
                    mode="sharded-drains" if shard_drains else "placed-buckets",
                    devices=device_count,
                    max_batch=max_batch,
                    requests=requests,
                    buckets=PROGRAM_COUNT,
                    modeled_makespan_s=round(metrics["modeled_makespan_s"], 9),
                    modeled_gpu_rps=round(rps, 1),
                    modeled_min_device_util=round(min(utilization.values()), 4),
                    kernels=metrics["modeled_kernels"],
                )
    for max_batch in BATCH_POLICIES:
        for device_count in DEVICE_COUNTS[1:]:
            table.add_row(
                mode="placed-buckets",
                devices=device_count,
                max_batch=max_batch,
                speedup_vs_one_device=round(
                    throughput[(device_count, max_batch)]
                    / throughput[(1, max_batch)], 4
                ),
            )
    return throughput


def run_crossover(table: BenchmarkTable) -> None:
    """The planner crossover tables, one per (parameter set, topology)."""
    for ring_log2, depth, batch_sizes in CROSSOVER_SETS:
        session = CKKSSession.create(
            quick_params(ring_log2, depth), seed=3, register_default=False
        )
        rng = np.random.default_rng(5)
        traces = {}
        for batch_size in batch_sizes:
            rows = rng.uniform(-1, 1, (batch_size, 16))
            a = session.batch([session.encrypt(row) for row in rows])
            b = session.batch([session.encrypt(row) for row in rows])
            with session.trace() as trace:
                (a * b).rescale()
            traces[batch_size] = trace
        for topology in (nvlink_box(4), pcie_box(4)):
            result = ShardPlanner(topology).crossover(traces)
            for comparison in result["comparisons"]:
                table.add_row(
                    parameter_set=f"N=2^{ring_log2}, L={depth}",
                    topology=topology.name,
                    batch=comparison.batch_size,
                    modeled_member_makespan_s=round(comparison.member_makespan, 9),
                    modeled_limb_makespan_s=round(comparison.limb_makespan, 9),
                    winner=comparison.winner,
                    crossover_batch=result["crossover_batch"],
                )
        session.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_cluster.json",
                        help="path of the JSON artifact to write")
    args = parser.parse_args()

    table = BenchmarkTable(
        "Cluster plane: device-sharded serving and shard-plan crossover",
        note="buckets placed round-robin on a PCIe RTX 4090 box; drains "
             "priced per device on the multi-device trace model; responses "
             "bit-identical to sequential execution; crossover tables price "
             "member vs limb shard plans from recorded traces",
    )
    throughput = run_serving(table)
    run_crossover(table)
    write_artefact(table, quick_params(RING_LOG2, DEPTH), args.output)

    top_devices = max(DEVICE_COUNTS)
    top_batch = max(BATCH_POLICIES)
    speedup = throughput[(top_devices, top_batch)] / throughput[(1, top_batch)]
    if speedup < MIN_SHARD_SPEEDUP:
        raise SystemExit(
            f"FAIL: modeled serving throughput at D={top_devices}, "
            f"B={top_batch} is {speedup:.2f}x the single-device server, "
            f"below the {MIN_SHARD_SPEEDUP:.2f}x gate"
        )
    print(
        f"OK: modeled serving throughput at D={top_devices}, "
        f"B={top_batch} is {speedup:.2f}x the single-device server "
        f"(gate {MIN_SHARD_SPEEDUP:.2f}x)"
    )


if __name__ == "__main__":
    main()
