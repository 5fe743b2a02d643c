"""Fusion benchmark: fused vs unfused trace replay, modeled and raced.

The unfused baseline is the trace recorded at **per-stage launch
granularity** (``stage_launches=True``): every fast-path NTT/iNTT runs as
its ``log2 N`` butterfly-stage launches (plus the iNTT's ``N^-1`` scaling
launch), each a full global-memory round trip handing canonical residues
to the next launch -- exactly how a GPU executes transforms before stage
fusion (the paper's baseline).  ``repro.core.fusion.fuse_trace`` then
merges each recorded stage run back into the engine's stage-fused
mega-kernel and fuses the surrounding elementwise chains, and the one
replayer (``repro.core.fusion.TraceProgram``) races itself on wall clock:

* **unfused**: ``TraceProgram(trace).run`` -- the trace as recorded;
* **fused**: ``fuse_trace(trace).program().run`` -- the same class given
  the fusion pass's chains.

Both are first asserted bit-identical to the recorded eager execution
(``verify``), so the speedup is never bought with wrong answers.  Modeled
rows price the same pair of traces on :class:`TraceCostModel`, where the
per-stage launch overhead and round-trip bytes show at GPU scale.

This replay race is the one wall clock under ``benchmarks/`` outside
``benchmarks/e2e``: the e2e workloads run the eager data plane and have no
row for replaying a recorded trace.  The run fails unless the raced speedup
of fused over unfused HMult+rescale reaches ``MIN_FUSION_SPEEDUP``.

    PYTHONPATH=src python benchmarks/bench_fusion.py --output BENCH_fusion.json
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.api import CKKSSession
from repro.bench.reporting import BenchmarkTable
from repro.core.fusion import TraceProgram, fuse_trace
from repro.gpu.platforms import GPU_RTX_4090
from repro.perf.trace_model import TraceCostModel

from common import quick_params, write_artefact

#: Gate: raced wall-clock speedup of fused over unfused HMult+rescale.
MIN_FUSION_SPEEDUP = 1.3

#: Ring size and depth of the three workloads.
RING_LOG2, DEPTH = 13, 6

#: Interleaved A/B timing rounds (min-of-N on both sides).
TIMING_ROUNDS = 7


def _race(unfused, fused, *, rounds: int = TIMING_ROUNDS) -> tuple[float, float]:
    """Best per-call wall time of both runners, interleaved (PR-2 protocol)."""
    # Two warm-up passes each: engines, twiddle tables, the scratch pool
    # and the allocator all settle before the first timed round.
    unfused(); fused(); unfused(); fused()
    best_u = best_f = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        unfused()
        best_u = min(best_u, time.perf_counter() - start)
        start = time.perf_counter()
        fused()
        best_f = min(best_f, time.perf_counter() - start)
    return best_u, best_f


def bench_workload(table: BenchmarkTable, session, name: str, workload,
                   *, pricer: TraceCostModel) -> float:
    """One fused-vs-unfused comparison; returns the measured speedup.

    Records the workload at stage granularity, asserts both the unfused
    replay and the fused program bit-identical to eager execution, then
    races them on wall clock and prices both traces on the cost model.
    """
    with session.trace(executable=True, stage_launches=True) as trace:
        workload()
    program = TraceProgram(trace)
    program.verify()  # unfused replay bit-identical to eager execution
    result = fuse_trace(trace)
    fused_program = result.program()
    fused_program.verify()  # fused execution bit-identical as well
    summary = result.summary()

    best_u, best_f = _race(program.run, fused_program.run)
    speedup = best_u / best_f
    table.add_row(
        operation=f"unfused {name} [python wall clock, per-stage launches]",
        seconds=round(best_u, 6),
        kernels=summary["events_before"],
    )
    table.add_row(
        operation=f"fused {name} [python wall clock]",
        seconds=round(best_f, 6),
        kernels=summary["events_after"],
        speedup_vs_unfused=round(speedup, 4),
    )

    unfused_report = pricer.price(trace, streams=1)
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
        stage_groups_fused=summary["stage_groups_fused"],
        longest_chain=summary["longest_chain"],
        saved_mb=round(summary["saved_bytes"] / 2**20, 3),
    )
    return speedup


def run(ring_log2: int = RING_LOG2, depth: int = DEPTH, *, batch_size: int = 8,
        ) -> tuple[BenchmarkTable, dict[str, float]]:
    """Build the fusion table; returns it plus measured speedups per workload."""
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
        note="unfused = TraceProgram replay of the stage-granular trace "
             "(one launch per NTT butterfly stage, canonical residues at "
             "every launch boundary); fused = the same TraceProgram given "
             "the chains of fuse_trace, which merges stage runs into the "
             "stage-fused engine kernels and collapses elementwise chains; "
             "both verified bit-identical to eager execution before timing",
    )
    pricer = TraceCostModel(GPU_RTX_4090)
    speedups = {
        "HMult+rescale": bench_workload(
            table, session, f"HMult+rescale [N=2^{ring_log2}]",
            lambda: ct_a * ct_b, pricer=pricer,
        ),
        "keyswitch": bench_workload(
            table, session, f"HRotate keyswitch [N=2^{ring_log2}]",
            lambda: ct_a << 1, pricer=pricer,
        ),
        "batch-drain": bench_workload(
            table, session,
            f"batched HMult+rescale [B={batch_size}, N=2^{ring_log2}]",
            lambda: batch_a * batch_b, pricer=pricer,
        ),
    }
    return table, speedups


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_fusion.json",
                        help="path of the JSON artifact to write")
    args = parser.parse_args()

    table, speedups = run()
    write_artefact(table, quick_params(RING_LOG2, DEPTH), args.output)

    achieved = speedups["HMult+rescale"]
    if achieved < MIN_FUSION_SPEEDUP:
        raise SystemExit(
            f"FAIL: measured fused HMult+rescale speedup is "
            f"{achieved:.2f}x over the unfused path, below the "
            f"{MIN_FUSION_SPEEDUP:.2f}x gate"
        )
    print(
        f"OK: measured fused HMult+rescale speedup is {achieved:.2f}x "
        f"over the unfused path (gate {MIN_FUSION_SPEEDUP:.2f}x)"
    )


if __name__ == "__main__":
    main()
