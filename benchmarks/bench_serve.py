"""Serving-plane benchmark: throughput vs offered load and max-batch policy.

Drives a stream of encrypted logistic-regression scoring requests through
:class:`repro.serve.Server` for every max-batch policy ``B ∈ {1, 2, 4, 8}``
under two offered loads:

* **burst** -- all requests arrive at once (the throughput ceiling: every
  drain fills a full fused batch);
* **paced** -- requests arrive on the simulated clock faster than
  ``max_wait`` but slower than instantly, so drains mix full and
  deadline-partial batches (what dynamic batching actually sees).

The throughput figure is **modeled RTX 4090 requests/sec**: each drain's
recorded kernel stream priced by
:class:`~repro.perf.trace_model.TraceCostModel`, where the §III-F.1
launch-overhead amortisation shows -- an unbatched server launches ``B×``
the kernels per fused-batch-equivalent of work.  The measured wall clock of
the same drains is ``serve.*`` / ``batch.*`` @ ``serve_burst_b8`` of
``benchmarks/e2e``.

The run fails unless burst modeled throughput at the largest ``B`` reaches
``MIN_THROUGHPUT_GAIN`` over the unbatched (``B=1``) server.  Every
response is asserted bit-identical to sequential scoring first.

    PYTHONPATH=src python benchmarks/bench_serve.py --output BENCH_serve.json
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.api import CKKSSession
from repro.apps.logistic_regression import EncryptedLRScorer
from repro.bench.reporting import BenchmarkTable
from repro.gpu.platforms import GPU_RTX_4090
from repro.perf.trace_model import TraceCostModel
from repro.serve import BatchingPolicy, SimulatedClock

from common import quick_params, write_artefact

#: Gate: burst modeled throughput at the largest B over the unbatched server.
MIN_THROUGHPUT_GAIN = 1.5

#: Ring size and depth of the sweep (the acceptance pins N=2^13).
RING_LOG2, DEPTH = 13, 6

#: Max-batch policies measured (the acceptance pins B=8 vs B=1).
BATCH_POLICIES = (1, 2, 4, 8)

#: Model width of the scoring workload (needs rotation keys 1 and 2).
FEATURES = 4

#: Simulated wait budget of every policy (seconds).
MAX_WAIT = 2e-3


def build_session(ring_log2: int, depth: int) -> tuple[CKKSSession, EncryptedLRScorer]:
    params = quick_params(ring_log2, depth)
    session = CKKSSession.create(
        params, rotations=EncryptedLRScorer.required_rotations(FEATURES),
        seed=3, register_default=False,
    )
    weights = np.random.default_rng(42).uniform(-1.0, 1.0, FEATURES)
    return session, EncryptedLRScorer(session, weights)


def serve_stream(session, scorer, *, max_batch: int, requests: int,
                 interarrival: float) -> dict:
    """Serve one request stream; returns the server's metrics summary.

    ``interarrival == 0`` is the burst load (everything queued before one
    flush); otherwise arrivals advance the simulated clock and the server
    is driven through every policy deadline (the ``drain`` loop).
    """
    rng = np.random.default_rng(max_batch * 1009 + requests)
    rows = [rng.uniform(-1.0, 1.0, FEATURES) for _ in range(requests)]
    vectors = [session.encrypt(row) for row in rows]
    program = scorer.program()
    clock = SimulatedClock()
    server = session.server(
        BatchingPolicy(max_batch_size=max_batch, max_wait=MAX_WAIT),
        clock=clock,
        trace_costs=TraceCostModel(GPU_RTX_4090),
    )

    if interarrival == 0.0:
        pending = [server.submit(program, vector) for vector in vectors]
        server.flush()
    else:
        pending = []
        for vector in vectors:
            pending.append(server.submit(program, vector))
            clock.advance(interarrival)
            server.poll()
        server.drain()

    # Bit-identity gate: every response equals sequential scoring.
    for request in pending:
        reference = scorer.score(request.vector)
        if not (
            np.array_equal(request.result().handle.c0.data,
                           reference.handle.c0.data)
            and np.array_equal(request.result().handle.c1.data,
                               reference.handle.c1.data)
        ):
            raise AssertionError(
                f"served response diverged from sequential scoring at "
                f"B={max_batch}"
            )
    return server.metrics.summary()


def run(ring_log2: int = RING_LOG2, depth: int = DEPTH, *, burst_requests: int = 16,
        paced_requests: int = 8) -> tuple[BenchmarkTable, dict[int, float]]:
    """Build the serving table; returns it plus burst modeled throughput per B."""
    session, scorer = build_session(ring_log2, depth)
    table = BenchmarkTable(
        f"Serving plane: encrypted LR scoring [{session.params.describe()}]",
        note="shape-bucketed dynamic batching over fused (B*L, N) kernels; "
             "responses bit-identical to sequential scoring; modeled_s/"
             "modeled_gpu_rps price each drain's recorded kernel trace on "
             "the RTX 4090 model (1 stream); waits are on the simulated clock",
    )
    burst_throughput: dict[int, float] = {}
    loads = (
        ("burst", burst_requests, 0.0),
        ("paced", paced_requests, MAX_WAIT / 2),
    )
    for load_name, requests, interarrival in loads:
        for max_batch in BATCH_POLICIES:
            metrics = serve_stream(
                session, scorer, max_batch=max_batch, requests=requests,
                interarrival=interarrival,
            )
            modeled_rps = metrics["modeled_requests_per_sec"]
            if load_name == "burst":
                burst_throughput[max_batch] = modeled_rps
            table.add_row(
                load=load_name,
                max_batch=max_batch,
                requests=requests,
                mean_batch=round(metrics["mean_batch_size"], 3),
                modeled_s=round(metrics["modeled_seconds"], 9),
                modeled_gpu_rps=round(modeled_rps, 1),
                kernels=metrics["modeled_kernels"],
                modeled_p50_wait_ms=round(metrics["p50_latency_s"] * 1e3, 3),
                modeled_p95_wait_ms=round(metrics["p95_latency_s"] * 1e3, 3),
            )
    for max_batch in BATCH_POLICIES[1:]:
        table.add_row(
            load="burst",
            max_batch=max_batch,
            speedup_vs_unbatched=round(
                burst_throughput[max_batch] / burst_throughput[1], 4
            ),
        )
    return table, burst_throughput


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_serve.json",
                        help="path of the JSON artifact to write")
    args = parser.parse_args()

    table, burst_throughput = run()
    write_artefact(table, quick_params(RING_LOG2, DEPTH), args.output)

    largest = max(burst_throughput)
    gain = burst_throughput[largest] / burst_throughput[1]
    if gain < MIN_THROUGHPUT_GAIN:
        raise SystemExit(
            f"FAIL: modeled serving throughput gain at B={largest} is "
            f"{gain:.2f}x over unbatched, below the "
            f"{MIN_THROUGHPUT_GAIN:.2f}x gate"
        )
    print(
        f"OK: modeled serving throughput gain at B={largest} is "
        f"{gain:.2f}x over unbatched (gate {MIN_THROUGHPUT_GAIN:.2f}x)"
    )


if __name__ == "__main__":
    main()
