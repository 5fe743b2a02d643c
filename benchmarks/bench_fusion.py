"""Fusion benchmark: the fused stream against its unfused baseline, modeled.

The unfused baseline is the paper's GPU before stage and kernel fusion
(§III-F.4/F.5), derived from the recorded fused stream by
``repro.core.fusion.expand_stages``: every fast-path NTT/iNTT becomes its
``log2 N`` butterfly-stage launches (plus the iNTT's ``N^-1`` scaling
launch, and the fused prologue/epilogue as launches of their own), each a
full global-memory round trip, and every key-switch inner product its
per-digit multiply/multiply-add launches.  ``repro.core.fusion.fuse_trace``
then merges each run back and fuses the surrounding elementwise chains.
Both traces are priced on :class:`TraceCostModel`, where the per-stage
launch overhead and round-trip bytes show at GPU scale; the fused record
is first asserted to replay bit-identically to the eager execution.

    PYTHONPATH=src python benchmarks/bench_fusion.py --output BENCH_fusion.json
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.api import CKKSSession
from repro.bench.reporting import BenchmarkTable
from repro.core.fusion import TraceProgram, expand_stages, fuse_trace
from repro.gpu.platforms import GPU_RTX_4090
from repro.perf.trace_model import TraceCostModel

from common import quick_params, write_artefact

#: Ring size and depth of the three workloads.
RING_LOG2, DEPTH = 13, 6


def bench_workload(table: BenchmarkTable, session, name: str, workload,
                   *, pricer: TraceCostModel) -> None:
    """One fused-vs-unfused comparison on the modeled GPU.

    Records the workload, asserts its replay bit-identical to eager
    execution, then prices its unfused expansion against the fusion pass's
    rewrite of that expansion.
    """
    with session.trace(executable=True) as trace:
        workload()
    TraceProgram(trace).verify()
    unfused = expand_stages(trace)
    result = fuse_trace(unfused)
    summary = result.summary()

    unfused_report = pricer.price(unfused, streams=1)
    fused_report = pricer.price(result.fused_trace, streams=1)
    table.add_row(
        operation=f"unfused {name} makespan [modeled {unfused_report.platform}]",
        seconds=round(unfused_report.makespan, 9),
        kernels=unfused_report.kernel_count,
    )
    table.add_row(
        operation=f"fused {name} makespan [modeled {fused_report.platform}]",
        seconds=round(fused_report.makespan, 9),
        kernels=fused_report.kernel_count,
        speedup_vs_unfused=round(
            unfused_report.makespan / fused_report.makespan, 4
        ),
    )
    table.add_row(
        operation=f"fusion pass {name}",
        chains=summary["chains"],
        longest_chain=summary["longest_chain"],
        saved_mb=round(summary["saved_bytes"] / 2**20, 3),
    )


def run(ring_log2: int = RING_LOG2, depth: int = DEPTH, *,
        batch_size: int = 8) -> BenchmarkTable:
    """Build the fusion table."""
    params = quick_params(ring_log2, depth)
    session = CKKSSession.create(
        params, rotations=[1], seed=3, register_default=False
    )
    rng = np.random.default_rng(0)
    ct_a = session.encrypt(rng.uniform(-1, 1, 16))
    ct_b = session.encrypt(rng.uniform(-1, 1, 16))
    batch_a = session.batch(
        [session.encrypt(rng.uniform(-1, 1, 16)) for _ in range(batch_size)]
    )
    batch_b = session.batch(
        [session.encrypt(rng.uniform(-1, 1, 16)) for _ in range(batch_size)]
    )
    table = BenchmarkTable(
        f"Trace fusion: fused vs per-stage-launch execution "
        f"[{params.describe()}]",
        note="unfused = expand_stages of the recorded fused stream (one "
             "launch per NTT butterfly stage, canonical residues at every "
             "launch boundary, per-digit key-switch products); fused = "
             "fuse_trace of that expansion, which merges the stage runs "
             "and collapses elementwise chains; the recorded fused program "
             "is verified bit-identical to eager execution",
    )
    pricer = TraceCostModel(GPU_RTX_4090)
    bench_workload(table, session, f"HMult+rescale [N=2^{ring_log2}]",
                   lambda: ct_a * ct_b, pricer=pricer)
    bench_workload(table, session, f"HRotate keyswitch [N=2^{ring_log2}]",
                   lambda: ct_a << 1, pricer=pricer)
    bench_workload(table, session,
                   f"batched HMult+rescale [B={batch_size}, N=2^{ring_log2}]",
                   lambda: batch_a * batch_b, pricer=pricer)
    return table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_fusion.json",
                        help="path of the JSON artifact to write")
    args = parser.parse_args()
    write_artefact(run(), quick_params(RING_LOG2, DEPTH), args.output)


if __name__ == "__main__":
    main()
