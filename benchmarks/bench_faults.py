"""Chaos-replay benchmark: availability and bit-identity under injected faults.

Two runs against the serving plane's fault-tolerant control plane:

* **functional oracle** -- a modest replay on the functional backend
  under a seeded fault plan (OOM windows and transient drain failures).
  Every OK response is asserted **bit-identical** to fault-free
  sequential execution and every failure must carry a typed
  :class:`~repro.serve.errors.ServeError` -- the acceptance contract,
  checked on real ciphertexts.
* **scale replay** (headline, CI-gated) -- a burst arrival trace of 10^4
  requests on the cost-model backend under a plan covering 10% of the
  timeline with OOM windows plus scattered transients.  Gates:
  availability (completed / admitted) at or above ``MIN_AVAILABILITY``
  and zero OK responses dispatched past their deadlines.

Both runs are pure functions of their seeds on the simulated clock, so
the artifact trajectory is comparable commit to commit; the rows hold
counts, availability and bit-identity verdicts only, no wall clock.

    PYTHONPATH=src python benchmarks/bench_faults.py --output BENCH_faults.json
"""

from __future__ import annotations

import argparse
import warnings

import numpy as np

from repro.api import CKKSSession
from repro.bench.reporting import BenchmarkTable
from repro.serve import (
    AdmissionPolicy,
    BatchingPolicy,
    FaultPlan,
    OpProgram,
    ReplayDriver,
    RetryPolicy,
    Server,
    burst_arrivals,
)

from common import quick_params, write_artefact

#: Gate: scale-replay availability (completed / admitted).
MIN_AVAILABILITY = 0.99

#: The served program: 1 + 2x^2 (two levels deep, no rotation keys).
PROGRAM = OpProgram.polynomial([1.0, 0.0, 2.0])

#: Requests of the functional bit-identity oracle.
ORACLE_REQUESTS = 48

#: Requests of the gated cost-model scale replay.
SCALE_REQUESTS = 10_000

#: Seed of both the arrival traces and the fault plans.
SEED = 29


def chaos_server(backend, *, plan: FaultPlan,
                 max_queue_depth: int | None = None) -> Server:
    """One consistently-configured server for both runs."""
    admission = (
        AdmissionPolicy(max_queue_depth=max_queue_depth)
        if max_queue_depth is not None else None
    )
    return Server(
        backend, BatchingPolicy(max_batch_size=8, max_wait=1e-3),
        admission=admission,
        retry=RetryPolicy(max_retries=3, backoff=1e-5),
        fault_plan=plan,
    )


def chaos_plan(seed: int, duration: float) -> FaultPlan:
    """OOM windows over 10% of the timeline + transients."""
    return FaultPlan.generate(
        seed, duration=duration, oom_fraction=0.10,
        oom_window=duration / 50.0, transients=3,
    )


def run_functional_oracle(table: BenchmarkTable, *, ring_log2: int = 12,
                          depth: int = 6, seed: int = SEED) -> dict:
    """Bit-identity under faults on the real data plane."""
    session = CKKSSession.create(quick_params(ring_log2, depth), seed=3,
                                 register_default=False)
    rng = np.random.default_rng(seed)
    vectors = [session.encrypt(rng.uniform(-1, 1, 8))
               for _ in range(ORACLE_REQUESTS)]
    references = [PROGRAM(vector) for vector in vectors]  # fault-free oracle

    arrivals = burst_arrivals(ORACLE_REQUESTS, bursts=6, burst_gap=1e-2,
                              seed=seed)
    duration = float(arrivals[-1]) + 1e-2
    server = chaos_server(session, plan=chaos_plan(seed, duration))
    driver = ReplayDriver(server, PROGRAM, lambda i: vectors[i],
                          deadline_offset=2e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = driver.run(arrivals)

    identical = 0
    for request, reference in zip(driver.requests, references):
        response = request.response()
        if response.ok:
            result = request.result()
            if not (
                np.array_equal(result.handle.c0.data, reference.handle.c0.data)
                and np.array_equal(result.handle.c1.data, reference.handle.c1.data)
            ):
                raise AssertionError(
                    f"response {request.id} diverged from fault-free "
                    f"sequential execution under the fault plan"
                )
            identical += 1
        elif response.error_kind not in {
            "RequestRejected", "DeadlineExceeded", "DrainFailed",
        }:
            raise AssertionError(
                f"response {request.id} failed with untyped error "
                f"{response.error_kind}: {response.error}"
            )
    # One source of truth: report.metrics is the server's ServeMetrics, whose
    # attributes read the serve_* series of the server's registry.
    metrics = report.metrics
    table.add_row(
        run="functional-oracle",
        requests=ORACLE_REQUESTS,
        bit_identical_ok=identical,
        availability=round(metrics.availability, 6),
        retries=metrics.retries,
        degraded_drains=metrics.degraded_drains,
        deadline_violations=report.deadline_violations,
    )
    return {**report.summary(), "bit_identical_ok": identical}


def run_scale_replay(table: BenchmarkTable, *, requests: int = SCALE_REQUESTS,
                     seed: int = SEED) -> dict:
    """The gated 10^4-request burst replay on the cost-model backend."""
    session = CKKSSession.create(quick_params(), seed=3, register_default=False)
    backend = session.cost_backend()
    arrivals = burst_arrivals(requests, bursts=max(1, requests // 100),
                              burst_gap=5e-3, seed=seed)
    duration = float(arrivals[-1]) + 5e-3
    server = chaos_server(backend, plan=chaos_plan(seed, duration),
                          max_queue_depth=64)
    driver = ReplayDriver(server, PROGRAM,
                          lambda i: backend.encrypt(np.full(16, 0.5)),
                          deadline_offset=1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = driver.run(arrivals)

    # The gated figures are the server's own serve_* series.
    metrics = report.metrics
    table.add_row(
        run="scale-replay",
        requests=requests,
        admitted=metrics.admitted,
        shed=metrics.shed_requests,
        availability=round(metrics.availability, 6),
        retries=metrics.retries,
        degraded_drains=metrics.degraded_drains,
        deadline_misses=metrics.deadline_misses,
        deadline_violations=report.deadline_violations,
        modeled_p95_wait_ms=round(metrics.p95_latency * 1e3, 3),
    )
    return report.summary()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_faults.json",
                        help="path of the JSON artifact to write")
    args = parser.parse_args()

    table = BenchmarkTable(
        "Fault-tolerant serving: availability under a seeded chaos plan",
        note="FaultPlan: 10% OOM timeline + 3 transients; burst arrivals; "
             "all timing on the simulated clock (deterministic)",
    )
    oracle = run_functional_oracle(table)
    scale = run_scale_replay(table)
    write_artefact(table, quick_params(), args.output)

    for name, report in (("functional-oracle", oracle), ("scale-replay", scale)):
        if report["deadline_violations"]:
            raise SystemExit(
                f"FAIL: {name} dispatched {report['deadline_violations']} OK "
                f"responses past their deadlines"
            )
    achieved = scale["availability"]
    if achieved < MIN_AVAILABILITY:
        raise SystemExit(
            f"FAIL: scale-replay availability is {achieved:.4f}, below "
            f"the {MIN_AVAILABILITY:.4f} gate"
        )
    print(
        f"OK: availability {achieved:.4f} over {scale['admitted']} "
        f"admitted requests (gate {MIN_AVAILABILITY:.4f}), "
        f"0 deadline violations, all OK responses bit-identical"
    )


if __name__ == "__main__":
    main()
